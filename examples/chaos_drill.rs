//! Chaos drill: two small seeded fault-injection scenarios, end to end.
//!
//! 1. **Storage chaos** — a simulated CG run mirrors its checkpoints
//!    through a seeded [`FaultyBackend`](lossy_ckpt::chaos::FaultyBackend)
//!    that injects transient `EIO`s, torn/short writes, fsync lies and
//!    post-commit bit flips.  The supervised retry layer absorbs the
//!    transient faults (the report counts every retry and logs the backoff
//!    schedule) and the run converges.
//! 2. **Peer stall** — a sharded CG run where one shard freezes for
//!    300 ms under a 50 ms heartbeat: supervision trips and the run fails
//!    with a *typed* error instead of hanging.
//!
//! Replay either scenario bit-identically by keeping the seed fixed.
//!
//! ```bash
//! cargo run --release --example chaos_drill
//! LCR_CHAOS_SEED=7 cargo run --release --example chaos_drill
//! ```

use lossy_ckpt::chaos::ChaosPlan;
use lossy_ckpt::ckpt::{
    CheckpointLevel, ClusterConfig, PfsModel, RetryPolicy, StorageBackend,
};
use lossy_ckpt::core::runner::{ExecutionBackend, FaultTolerantRunner, Persistence, RunConfig};
use lossy_ckpt::core::sharded::{try_run_sharded, ShardedRunConfig};
use lossy_ckpt::core::strategy::CheckpointStrategy;
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::solvers::SolverKind;
use lossy_ckpt::sparse::poisson::poisson3d;
use lossy_ckpt::sparse::{CommInterposer, Vector};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let seed: u64 = std::env::var("LCR_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);

    // --- Scenario 1: seeded storage faults through the simulated runner.
    println!("=== chaos drill: storage faults (seed {seed}) ===");
    // Hotter than the soak's 5% mix so a short drill run reliably shows
    // the retry layer doing work.
    let plan = ChaosPlan {
        transient_io: 0.25,
        bit_flip: 0.10,
        ..ChaosPlan::storage_mix(seed)
    };
    let backend = plan.backend(0);
    let dir = std::env::temp_dir().join(format!("lcr-chaos-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workload = PaperWorkload::poisson(4, 8);
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, SolverKind::Cg, 200_000);
    let config = RunConfig {
        strategy: CheckpointStrategy::Traditional,
        checkpoint_interval_iterations: 5,
        anchor_interval_snapshots: 0,
        cluster: ClusterConfig::bebop_like(4, 1.0),
        pfs: PfsModel::bebop_like(),
        level: CheckpointLevel::Pfs,
        mtti_seconds: f64::MAX,
        failure_seed: None,
        max_failures: 0,
        max_executed_iterations: 200_000,
        num_threads: 0,
        persistence: Persistence::disk(&dir),
        backend: ExecutionBackend::Simulated,
    };
    let report = FaultTolerantRunner::new(config)
        .with_storage_backend(backend.clone() as Arc<dyn StorageBackend>)
        .with_retry_policy(RetryPolicy {
            max_retries: 3,
            base_delay_seconds: 0.001,
            multiplier: 2.0,
        })
        .run(solver.as_mut(), &problem);
    println!("  converged in {} iterations", report.convergence_iterations);
    println!(
        "  checkpoints: {} committed, {} failed, {} committed only after retries",
        report.checkpoints_taken, report.failed_checkpoints, report.retried_checkpoints
    );
    println!(
        "  io retries: {} (backoff schedule {:?} s), degraded_tier: {}",
        report.io_retries, report.io_backoff_seconds, report.degraded_tier
    );
    println!("  injected faults:");
    for rec in backend.fault_log() {
        println!(
            "    op {:>3} {:<10} {:?}  {}",
            rec.op,
            rec.operation,
            rec.kind,
            rec.path.file_name().map(|f| f.to_string_lossy().into_owned()).unwrap_or_default()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // --- Scenario 2: a stalled shard under a heartbeat.
    println!("\n=== chaos drill: peer stall under heartbeat ===");
    // The Poisson operator is negative definite; CG needs SPD.
    let a = poisson3d(6).negated();
    let b = Vector::filled(a.nrows(), 1.0);
    let stall_plan = ChaosPlan {
        stall_at_msg: Some(3),
        stall: Duration::from_millis(300),
        ..ChaosPlan::quiet(seed)
    };
    let mut cfg = ShardedRunConfig::new(2, SolverKind::Cg);
    cfg.rtol = 1e-7;
    cfg.reduce_block = 128;
    cfg.heartbeat_timeout = Some(Duration::from_millis(50));
    cfg.interposer_factory = Some(Arc::new(move |shard| {
        let plan = if shard == 1 { stall_plan } else { ChaosPlan::quiet(0) };
        plan.interposer(shard as u64) as Box<dyn CommInterposer>
    }));
    match try_run_sharded(&a, &b, &cfg) {
        Ok(_) => println!("  unexpected: the stalled run converged"),
        Err(e) => println!("  typed failure (as designed): {e}"),
    }
}
