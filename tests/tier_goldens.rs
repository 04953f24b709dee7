//! Absolute goldens of what the checkpoint tiers hand back to a run: the
//! `RunReport` of seeded-failure runs that recover from the in-memory tier
//! alone, and of two runs over a chaos backend whose durable tier degrades
//! to the in-memory one or drops checkpoints mid-run.  Every count, the
//! restart iterations, the committed-bytes trace and the simulated clock's
//! bits are pinned, so a change to either tier that moves which checkpoint
//! a recovery gets — or what it costs — fails here.
//!
//! CI runs this file at `LCR_NUM_THREADS=1` and `=4`.

use lossy_ckpt::chaos::ChaosPlan;
use lossy_ckpt::ckpt::{ClusterConfig, PfsModel, RetryPolicy, StorageBackend};
use lossy_ckpt::core::runner::{FaultTolerantRunner, Persistence, RunConfig, RunReport};
use lossy_ckpt::core::strategy::CheckpointStrategy;
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::solvers::SolverKind;
use std::sync::Arc;

const MAX_ITERS: usize = 200_000;

/// The paper's Poisson problem on 64 ranks, solved at 16³.
fn workload() -> PaperWorkload {
    PaperWorkload::poisson(64, 16)
}

/// A checkpoint every 2 iterations of 5 simulated seconds each, failures
/// 60 seconds apart on average: a few hundred seconds, several failures.
fn config(strategy: CheckpointStrategy, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::baseline(ClusterConfig::bebop_like(64, 5.0), PfsModel::bebop_like());
    cfg.strategy = strategy;
    cfg.checkpoint_interval_iterations = 2;
    cfg.mtti_seconds = 60.0;
    cfg.failure_seed = Some(seed);
    cfg.max_failures = 200;
    cfg.max_executed_iterations = MAX_ITERS;
    cfg
}

/// Order-sensitive fingerprint of the committed-bytes trace.
fn fingerprint(values: &[usize]) -> u64 {
    values
        .iter()
        .fold(0u64, |h, &v| h.rotate_left(13) ^ v as u64)
}

/// Everything of a report that the tiers decide, on one line.
fn summary(r: &RunReport) -> String {
    format!(
        "conv={} exec={} taken={} aborted={} failed={} retried={} io_retries={} degraded={} \
         resumed={:?} failures={} recoveries={} failed_recoveries={} \
         limit={} restarts={:?} bytes={:#x} total={:#x}",
        r.convergence_iterations,
        r.executed_iterations,
        r.checkpoints_taken,
        r.aborted_checkpoints,
        r.failed_checkpoints,
        r.retried_checkpoints,
        r.io_retries,
        r.degraded_tier,
        r.resumed_from_iteration,
        r.failures,
        r.recoveries,
        r.failed_recoveries,
        r.hit_iteration_limit,
        r.restart_iterations,
        fingerprint(&r.checkpoint_bytes_trace),
        r.total_seconds.to_bits(),
    )
}

/// One seeded-failure run on the in-memory tier alone.
fn in_memory(kind: SolverKind, strategy: CheckpointStrategy, seed: u64) -> RunReport {
    let workload = workload();
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, kind, MAX_ITERS);
    let report = FaultTolerantRunner::new(config(strategy, seed))
        .run(solver.as_mut(), &problem);
    assert!(report.recoveries > 1, "the run must recover from checkpoints");
    report
}

/// One seeded-failure traditional CG run mirroring into a durable tier
/// over `plan`'s fault-injecting backend.
fn over_chaos(tag: &str, plan: ChaosPlan) -> RunReport {
    let dir = std::env::temp_dir().join(format!("lcr-tier-goldens-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workload = workload();
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, SolverKind::Cg, MAX_ITERS);
    let mut cfg = config(CheckpointStrategy::Traditional, 11);
    cfg.persistence = Persistence::disk(&dir);
    let report = FaultTolerantRunner::new(cfg)
        .with_storage_backend(plan.backend(0) as Arc<dyn StorageBackend>)
        .with_retry_policy(RetryPolicy {
            max_retries: 3,
            base_delay_seconds: 0.0,
            multiplier: 1.0,
        })
        .run(solver.as_mut(), &problem);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[test]
fn traditional_cg_on_the_memory_tier_is_pinned() {
    let report = in_memory(SolverKind::Cg, CheckpointStrategy::Traditional, 11);
    assert_eq!(
        summary(&report),
        "conv=36 exec=43 taken=17 aborted=3 failed=0 retried=0 io_retries=0 degraded=false \
         resumed=None failures=4 recoveries=4 failed_recoveries=0 \
         limit=false restarts=[8, 22, 28, 30] bytes=0x9f55c829361024ba total=0x407af8670f65798b"
    );
}

#[test]
fn lossless_jacobi_on_the_memory_tier_is_pinned() {
    let report = in_memory(SolverKind::Jacobi, CheckpointStrategy::lossless_default(), 11);
    assert_eq!(
        summary(&report),
        "conv=231 exec=242 taken=115 aborted=3 failed=0 retried=0 io_retries=0 degraded=false \
         resumed=None failures=7 recoveries=7 failed_recoveries=0 \
         limit=false restarts=[10, 28, 36, 40, 58, 64, 68] bytes=0x607491f0139e96d0 total=0x409cef36e432b55d"
    );
}

#[test]
fn lossy_cg_on_the_memory_tier_is_pinned() {
    let report = in_memory(SolverKind::Cg, CheckpointStrategy::lossy_default(), 7);
    assert_eq!(
        summary(&report),
        "conv=37 exec=42 taken=18 aborted=1 failed=0 retried=0 io_retries=0 degraded=false \
         resumed=None failures=3 recoveries=3 failed_recoveries=0 \
         limit=false restarts=[2, 12, 12] bytes=0x977c8a9c452abdf0 total=0x407030d253c6b3fa"
    );
}

#[test]
fn lossy_gmres_on_the_memory_tier_is_pinned() {
    let report = in_memory(SolverKind::Gmres, CheckpointStrategy::lossy_gmres(), 7);
    assert_eq!(
        summary(&report),
        "conv=24 exec=28 taken=11 aborted=0 failed=0 retried=0 io_retries=0 degraded=false \
         resumed=None failures=3 recoveries=3 failed_recoveries=0 \
         limit=false restarts=[2, 14, 14] bytes=0xedfc250f9ea7de3c total=0x406583fe9eb79333"
    );
}

#[test]
fn dying_disk_degrading_to_the_memory_tier_is_pinned() {
    let report = over_chaos("dying", ChaosPlan::dying_disk(5, 20));
    assert!(report.degraded_tier, "the dead disk must be dropped");
    assert!(report.recoveries > 0, "the run must recover after degrading");
    assert_eq!(
        summary(&report),
        "conv=36 exec=43 taken=14 aborted=3 failed=3 retried=0 io_retries=9 degraded=true \
         resumed=None failures=4 recoveries=4 failed_recoveries=0 \
         limit=false restarts=[8, 22, 28, 30] bytes=0x4b54faa7d5373fe7 total=0x407af8670f65798b"
    );
}

#[test]
fn storage_mix_with_a_visible_fault_is_pinned() {
    let report = over_chaos("mix", ChaosPlan::storage_mix(4));
    assert!(
        report.io_retries > 0 || report.failed_checkpoints > 0,
        "the seed must inject a fault the report shows"
    );
    assert_eq!(
        summary(&report),
        "conv=36 exec=45 taken=18 aborted=3 failed=0 retried=4 io_retries=5 degraded=false \
         resumed=None failures=4 recoveries=4 failed_recoveries=0 \
         limit=false restarts=[8, 22, 26, 28] bytes=0xb90526c3361024ba total=0x407c24a9b2e7236a"
    );
}
