//! Chaos soak: sweeps > 200 seeded fault schedules across the simulated
//! runner and the sharded executor, asserting the safety invariant the
//! chaos engine exists to prove — **every run either converges with a
//! correct residual or fails with a typed error; never a silent wrong
//! answer** — and that every schedule replays bit-identically from its
//! seed (synchronous stores only; write-behind would interleave I/O
//! nondeterministically).
//!
//! CI runs this file at `LCR_NUM_THREADS=1` and `=4`; the deterministic
//! kernels make every assertion thread-count independent.

use lossy_ckpt::chaos::ChaosPlan;
use lossy_ckpt::ckpt::disk::read_checkpoint_file;
use lossy_ckpt::ckpt::{
    CheckpointLevel, ClusterConfig, DiskStore, PfsModel, RetryPolicy, StorageBackend,
};
use lossy_ckpt::core::runner::{ExecutionBackend, FaultTolerantRunner, Persistence, RunConfig};
use lossy_ckpt::core::sharded::{try_run_sharded, KillSpec, ShardedError, ShardedRunConfig};
use lossy_ckpt::core::strategy::CheckpointStrategy;
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::solvers::SolverKind;
use lossy_ckpt::sparse::poisson::poisson3d;
use lossy_ckpt::sparse::{CommInterposer, CsrMatrix, Vector};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tempdir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcr-soak-{tag}-{seed}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Zero-delay bounded retries: the supervision layer's schedule without
/// the wall-clock cost (the backoff *log* still records every retry).
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 3,
        base_delay_seconds: 0.0,
        multiplier: 1.0,
    }
}

/// The paper's Poisson operator is negative definite; CG needs SPD.
fn spd_poisson(edge: usize) -> (CsrMatrix, Vector) {
    let a = poisson3d(edge).negated();
    let b = Vector::filled(a.nrows(), 1.0);
    (a, b)
}

fn residual_norm(a: &CsrMatrix, b: &Vector, x: &Vector) -> f64 {
    let mut r = vec![0.0; b.len()];
    let (ip, ix, vs) = (a.indptr(), a.indices(), a.values());
    for i in 0..b.len() {
        let mut acc = 0.0;
        for k in ip[i]..ip[i + 1] {
            acc += vs[k] * x.as_slice()[ix[k] as usize];
        }
        r[i] = b.as_slice()[i] - acc;
    }
    r.iter().map(|v| v * v).sum::<f64>().sqrt()
}

fn sim_config(dir: &Path, failure_seed: u64) -> RunConfig {
    RunConfig {
        strategy: CheckpointStrategy::Traditional,
        checkpoint_interval_iterations: 5,
        anchor_interval_snapshots: 0,
        cluster: ClusterConfig::bebop_like(4, 1.0),
        pfs: PfsModel::bebop_like(),
        level: CheckpointLevel::Pfs,
        mtti_seconds: 37.0,
        failure_seed: Some(failure_seed),
        max_failures: 10,
        max_executed_iterations: 200_000,
        num_threads: 0,
        // Synchronous disk mirror: the chaos fault schedule is a pure
        // function of the op sequence only without write-behind.
        persistence: Persistence::disk(dir),
        backend: ExecutionBackend::Simulated,
    }
}

fn run_simulated(plan: ChaosPlan, dir: &Path) -> (lossy_ckpt::core::runner::RunReport, Vec<PathBuf>) {
    let backend = plan.backend(0);
    let workload = PaperWorkload::poisson(4, 8);
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, SolverKind::Cg, 200_000);
    let report = FaultTolerantRunner::new(sim_config(dir, plan.seed.wrapping_mul(31).wrapping_add(7)))
        .with_storage_backend(backend.clone() as Arc<dyn StorageBackend>)
        .with_retry_policy(fast_retry())
        .run(solver.as_mut(), &problem);
    (report, backend.corrupted_files())
}

/// ~110 seeded storage-fault schedules through the simulated runner: the
/// in-memory tier always converges, transient faults are retried (and
/// counted, never silent), and every surviving corrupted file is rejected
/// by CRC validation.
#[test]
fn storage_mix_soak_on_simulated_runner() {
    let mut total_retries = 0usize;
    let mut retried_runs = 0usize;
    let mut corrupt_detected = 0usize;
    for seed in 0..110u64 {
        let plan = ChaosPlan::storage_mix(seed);
        let dir = tempdir("sim", seed);
        let (report, corrupted) = run_simulated(plan, &dir);

        // Safety invariant, part 1: the run itself always converges — the
        // in-memory tier is untouched by disk chaos (possibly degraded).
        assert!(
            !report.hit_iteration_limit,
            "seed {seed}: simulated run failed to converge"
        );
        assert_eq!(
            report.io_backoff_seconds.len(),
            report.io_retries,
            "seed {seed}: backoff schedule must log every retry"
        );
        total_retries += report.io_retries;
        retried_runs += usize::from(report.retried_checkpoints > 0);

        // Safety invariant, part 2: every corrupted committed file that
        // still exists must fail validation — corruption is detected,
        // never returned.
        for path in corrupted {
            if path.exists() {
                assert!(
                    read_checkpoint_file(&path).is_err(),
                    "seed {seed}: corrupted {} passed validation",
                    path.display()
                );
                corrupt_detected += 1;
            }
        }
        // Reopening the directory after the run must yield either a
        // CRC-valid checkpoint or a typed error — never a panic.
        if let Ok(mut store) = DiskStore::open(&dir, 2) {
            let _ = store.latest_valid();
        }
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(total_retries > 0, "a 5% transient mix over 110 runs must retry");
    assert!(retried_runs > 0, "some checkpoint must commit only after retries");
    assert!(corrupt_detected > 0, "some injected corruption must survive to be detected");
}

/// Replays two full simulated runs from the same seed and asserts the
/// *entire* reports and fault logs are identical — simulated time included,
/// so the check is bit-level, not statistical.
#[test]
fn simulated_chaos_replays_bit_identically() {
    for seed in [3u64, 57] {
        let plan = ChaosPlan::storage_mix(seed);
        let runs: Vec<_> = (0..2)
            .map(|rep| {
                let backend = plan.backend(0);
                let dir = tempdir(&format!("replay{rep}"), seed);
                let workload = PaperWorkload::poisson(4, 8);
                let problem = workload.build();
                let mut solver = workload.build_solver(&problem, SolverKind::Cg, 200_000);
                let report = FaultTolerantRunner::new(sim_config(&dir, seed))
                    .with_storage_backend(backend.clone() as Arc<dyn StorageBackend>)
                    .with_retry_policy(fast_retry())
                    .run(solver.as_mut(), &problem);
                // Normalize the per-repetition temp directory away so the
                // logs compare on (op index, operation, file name, kind).
                let log: Vec<_> = backend
                    .fault_log()
                    .into_iter()
                    .map(|mut rec| {
                        rec.path = rec
                            .path
                            .strip_prefix(&dir)
                            .map(PathBuf::from)
                            .unwrap_or_default();
                        rec
                    })
                    .collect();
                let _ = fs::remove_dir_all(&dir);
                (report, log)
            })
            .collect();
        assert_eq!(runs[0].0, runs[1].0, "seed {seed}: reports must replay identically");
        assert_eq!(runs[0].1, runs[1].1, "seed {seed}: fault logs must replay identically");
    }
}

/// Ten dying-disk schedules: the device hard-fails a few operations in,
/// the supervised runner retries, gives up after the degrade threshold,
/// drops the durable tier (`degraded_tier`) and still converges in memory.
#[test]
fn dying_disk_degrades_to_memory_and_converges() {
    for seed in 0..10u64 {
        let plan = ChaosPlan::dying_disk(seed, 12);
        let backend = plan.backend(0);
        let dir = tempdir("dying", seed);
        let workload = PaperWorkload::poisson(4, 8);
        let problem = workload.build();
        let mut solver = workload.build_solver(&problem, SolverKind::Jacobi, 200_000);
        let mut cfg = sim_config(&dir, seed);
        cfg.mtti_seconds = f64::MAX;
        cfg.failure_seed = None;
        cfg.max_failures = 0;
        let report = FaultTolerantRunner::new(cfg)
            .with_storage_backend(backend as Arc<dyn StorageBackend>)
            .with_retry_policy(fast_retry())
            .run(solver.as_mut(), &problem);
        assert!(
            report.degraded_tier,
            "seed {seed}: a dead disk must degrade the durable tier"
        );
        assert!(
            !report.hit_iteration_limit,
            "seed {seed}: the run must keep converging after degrading"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

fn sharded_cfg(plan: ChaosPlan, shards: usize, method: SolverKind, dir: &Path) -> ShardedRunConfig {
    let mut cfg = ShardedRunConfig::new(shards, method);
    cfg.rtol = 1e-7;
    cfg.reduce_block = 128;
    cfg.checkpoint_interval = 4;
    cfg.retain = 2;
    cfg.ckpt_dir = Some(dir.to_path_buf());
    cfg.retry = Some(fast_retry());
    cfg.backend_factory = Some(Arc::new(move |shard| {
        plan.backend(shard as u64) as Arc<dyn StorageBackend>
    }));
    cfg
}

/// Classifies one sharded outcome against the safety invariant; returns
/// whether the run succeeded.
fn assert_safe_outcome(
    seed: u64,
    a: &CsrMatrix,
    b: &Vector,
    rtol: f64,
    result: &Result<lossy_ckpt::core::sharded::ShardedReport, ShardedError>,
) -> bool {
    match result {
        Ok(report) => {
            assert!(report.converged, "seed {seed}: Ok report must have converged");
            let bb = b.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt();
            let rn = residual_norm(a, b, &report.solution);
            assert!(
                rn <= rtol * bb * 10.0,
                "seed {seed}: silent wrong answer — residual {rn:.3e}"
            );
            true
        }
        // Typed failure: acceptable under chaos, by construction of the
        // error enum (Storage{..} | Comm(..)) there is nothing to assert
        // beyond having got here without panicking.
        Err(_) => false,
    }
}

/// 80 seeded storage schedules on the real sharded executor, CG and
/// GMRES(30) alternating, with a fail-stop kill (a double fault every 10th
/// seed) layered on top of the injected disk faults.  Every failing seed
/// must replay to the *same* typed error; sampled succeeding seeds must
/// replay the identical trace.
#[test]
fn sharded_storage_soak_with_kills() {
    let (a, b) = spd_poisson(6);
    let run = |seed: u64| {
        let shards = 2 + (seed % 2) as usize;
        let method = if seed.is_multiple_of(2) { SolverKind::Cg } else { SolverKind::Gmres };
        let plan = ChaosPlan::storage_mix(seed);
        let dir = tempdir("shard", seed);
        let mut cfg = sharded_cfg(plan, shards, method, &dir);
        cfg.kills = vec![KillSpec {
            shard: (seed as usize) % shards,
            at_iteration: 10,
        }];
        if seed.is_multiple_of(10) && shards > 1 {
            // Double fault: a second shard dies at the same iteration.
            cfg.kills.push(KillSpec {
                shard: (seed as usize + 1) % shards,
                at_iteration: 10,
            });
        }
        let result = try_run_sharded(&a, &b, &cfg);
        let _ = fs::remove_dir_all(&dir);
        result
    };

    let mut ok = 0usize;
    let mut failed_seeds = Vec::new();
    for seed in 0..80u64 {
        let result = run(seed);
        if assert_safe_outcome(seed, &a, &b, 1e-7, &result) {
            ok += 1;
        } else {
            failed_seeds.push((seed, result.unwrap_err()));
        }
    }
    assert!(ok >= 20, "only {ok}/80 sharded chaos runs succeeded");

    // Replay every failing schedule: same seed, same typed error.
    for (seed, first_err) in &failed_seeds {
        let replay = run(*seed);
        assert_eq!(
            replay.as_ref().err(),
            Some(first_err),
            "seed {seed}: failing schedule must replay to the identical error"
        );
    }
    // Replay a sample of succeeding schedules bit-identically.
    let ok_seeds: Vec<u64> = (0..80u64)
        .filter(|s| !failed_seeds.iter().any(|(f, _)| f == s))
        .take(3)
        .collect();
    for seed in ok_seeds {
        let (r1, r2) = (run(seed).unwrap(), run(seed).unwrap());
        assert_eq!(r1.iterations, r2.iterations, "seed {seed}");
        assert_eq!(r1.residual_trace, r2.residual_trace, "seed {seed}");
        assert_eq!(r1.solution.as_slice(), r2.solution.as_slice(), "seed {seed}");
    }
}

/// 20 seeded comm-chaos schedules: message delays and drops under a
/// heartbeat.  Dropped halo messages surface as typed timeout errors —
/// never hangs, never wrong answers.  (Outcomes here depend on wall-clock
/// timing, so this part asserts safety per run, not cross-run stability.)
#[test]
fn sharded_comm_chaos_is_typed_or_correct() {
    let (a, b) = spd_poisson(6);
    let mut ok = 0usize;
    for seed in 200..220u64 {
        let plan = ChaosPlan {
            msg_delay: 0.05,
            msg_drop: 0.01,
            delay: Duration::from_millis(1),
            ..ChaosPlan::quiet(seed)
        };
        let dir = tempdir("comm", seed);
        let mut cfg = sharded_cfg(ChaosPlan::quiet(seed), 3, SolverKind::Cg, &dir);
        cfg.heartbeat_timeout = Some(Duration::from_millis(250));
        cfg.interposer_factory = Some(Arc::new(move |shard| {
            plan.interposer(shard as u64) as Box<dyn CommInterposer>
        }));
        let result = try_run_sharded(&a, &b, &cfg);
        ok += usize::from(assert_safe_outcome(seed, &a, &b, 1e-7, &result));
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(ok > 0, "no comm-chaos run converged");
}

/// Five stall schedules: one shard sleeps 600 ms mid-halo-send under a
/// 120 ms heartbeat — supervision must flag it and abort the run with a
/// typed error on every shard instead of hanging.
#[test]
fn peer_stall_trips_heartbeat_into_typed_error() {
    let (a, b) = spd_poisson(6);
    for seed in 300..305u64 {
        let stall_plan = ChaosPlan {
            stall_at_msg: Some(3),
            stall: Duration::from_millis(600),
            ..ChaosPlan::quiet(seed)
        };
        let dir = tempdir("stall", seed);
        let mut cfg = sharded_cfg(ChaosPlan::quiet(seed), 2, SolverKind::Cg, &dir);
        cfg.heartbeat_timeout = Some(Duration::from_millis(120));
        cfg.interposer_factory = Some(Arc::new(move |shard| {
            let plan = if shard == 1 { stall_plan } else { ChaosPlan::quiet(seed) };
            plan.interposer(shard as u64) as Box<dyn CommInterposer>
        }));
        let result = try_run_sharded(&a, &b, &cfg);
        assert!(
            result.is_err(),
            "seed {seed}: a stalled peer must surface as a typed error"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
