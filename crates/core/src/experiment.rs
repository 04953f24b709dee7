//! Experiment harness: the rows behind Table 3 and Figures 4–10.
//!
//! Each function regenerates the data of one table or figure of the paper's
//! evaluation section, returning plain row structs that the `lcr-bench`
//! binaries print as aligned text and JSON.  The shape of each
//! result (who wins, by what factor, how it scales) is the reproduction
//! target; absolute seconds come from the simulated Bebop-like PFS model.

use crate::runner::{FaultTolerantRunner, RunConfig, RunReport};
use crate::strategy::CheckpointStrategy;
use crate::workload::{paper_rtol, PaperWorkload, ScaledProblem};
use lcr_ckpt::{ClusterConfig, PfsModel};
use lcr_perfmodel::{
    lossy_overhead_ratio, theorem2_extra_iterations_upper_bound, traditional_overhead_ratio,
    young_optimal_interval, young_optimal_interval_iterations,
};
use lcr_solvers::SolverKind;

/// The process counts of the paper's weak-scaling study.
pub const PAPER_PROCESS_COUNTS: &[usize] = &[256, 512, 768, 1024, 1280, 1536, 1792, 2048];

/// The paper's baseline (failure-free, checkpoint-free) execution times at
/// 2,048 processes, in seconds: Jacobi ≈50 min, GMRES ≈120 min, CG ≈35 min
/// (§5.4).  Used to calibrate the simulated per-iteration cost.
pub fn paper_baseline_seconds(kind: SolverKind) -> f64 {
    match kind {
        SolverKind::Gmres => 120.0 * 60.0,
        SolverKind::Cg => 35.0 * 60.0,
        SolverKind::Jacobi => 50.0 * 60.0,
    }
}

/// Compression ratios measured on real solver state, used to extrapolate
/// paper-scale checkpoint sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MeasuredRatios {
    /// Lossless (FPC+LZSS) compression ratio on the dynamic vectors.
    pub lossless: f64,
    /// Lossy (SZ, paper error-bound policy) compression ratio.
    pub lossy: f64,
}

/// Measures lossless and lossy compression ratios on the converged dynamic
/// state of the given solver, which is the regime the paper's Table 3
/// averages over.
fn measure_strategy_ratios(
    workload: &PaperWorkload,
    problem: &ScaledProblem,
    kind: SolverKind,
    max_iterations: usize,
) -> MeasuredRatios {
    let mut solver = workload.build_solver(problem, kind, max_iterations);
    // Run halfway to convergence so the state is representative of the bulk
    // of the checkpoints, then measure on that state.
    let mut probe = workload.build_solver(problem, kind, max_iterations);
    probe.run_to_convergence();
    let total = probe.iteration().max(2);
    for _ in 0..total / 2 {
        solver.step();
    }

    let strategies = [
        CheckpointStrategy::Traditional,
        CheckpointStrategy::lossless_default(),
        if kind == SolverKind::Gmres {
            CheckpointStrategy::lossy_gmres()
        } else {
            CheckpointStrategy::lossy_default()
        },
    ];
    let sizes: Vec<usize> = strategies
        .iter()
        .map(|s| s.encode(solver.as_ref()).expect("encode").encoded_bytes())
        .collect();

    // A production checkpointing system falls back to storing the raw bytes
    // when compression would expand them (as gzip's "stored" blocks do), so
    // the effective ratio never drops below 1.
    MeasuredRatios {
        lossless: (sizes[0] as f64 / sizes[1] as f64).max(1.0),
        lossy: (sizes[0] as f64 / sizes[2] as f64).max(1.0),
    }
}

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

/// Measures the lossy per-shard compression ratio on the *real* sharded
/// checkpoint path: runs the local instance on the sharded executor with
/// per-shard SZ epoch checkpoints and returns `original_bytes /
/// stored_bytes` of the newest committed epoch (all shard segments
/// summed), `None` if no epoch committed.
fn measured_shard_segment_ratio(
    problem: &ScaledProblem,
    kind: SolverKind,
    max_iterations: usize,
) -> Option<f64> {
    // Every method, CG included, runs on the paper's system as is.
    let (a, b) = (&*problem.system.a, &*problem.system.b);
    let n = a.nrows();
    let shards = 4.min(n);
    let dir = std::env::temp_dir().join(format!(
        "lcr-table3-shard-{}-{}",
        std::process::id(),
        kind.name()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = crate::sharded::ShardedRunConfig::new(shards, kind);
    cfg.rtol = paper_rtol(kind);
    cfg.max_iterations = max_iterations.min(2_000);
    // Small local instances must still span all shards.
    cfg.reduce_block = cfg.reduce_block.min(n.div_ceil(shards * 4).max(1));
    cfg.checkpoint_interval = 5;
    cfg.ckpt_dir = Some(dir.clone());
    let report = crate::sharded::try_run_sharded(a, b, &cfg);
    let _ = std::fs::remove_dir_all(&dir);
    let report = report.expect("fault-free sharded run on the OS temp directory");
    let stored = report.committed_epochs.last()?.total_bytes();
    (stored > 0).then(|| (n * std::mem::size_of::<f64>()) as f64 / stored as f64)
}

/// One row of Table 3: per-process checkpoint sizes for one solver at one
/// scale under the three schemes.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Number of processes.
    pub processes: usize,
    /// Paper-scale problem edge (`n` of `n³`).
    pub problem_edge: usize,
    /// Solver.
    pub solver: String,
    /// Traditional checkpoint size per process, MB.
    pub traditional_mb: f64,
    /// Lossless checkpoint size per process, MB.
    pub lossless_mb: f64,
    /// Lossy checkpoint size per process, MB.
    pub lossy_mb: f64,
    /// *Measured* lossy checkpoint size per process, MB: the per-shard SZ
    /// segment sizes actually written by the sharded checkpoint path
    /// (newest committed epoch), extrapolated to paper scale with the same
    /// per-process byte accounting as the estimate columns.  `None` when the
    /// sharded run committed no epoch.
    pub measured_shard_mb: Option<f64>,
}

/// Regenerates Table 3 for the given solvers and process counts.
///
/// `local_grid_edge` controls the size of the locally solved instance used
/// to measure the compression ratios.
pub fn table3(
    solvers: &[SolverKind],
    process_counts: &[usize],
    local_grid_edge: usize,
    max_iterations: usize,
) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for &kind in solvers {
        // Ratios depend on the solver state, not on the process count.
        let workload = PaperWorkload::poisson(process_counts[0], local_grid_edge);
        let problem = workload.build();
        let ratios = measure_strategy_ratios(&workload, &problem, kind, max_iterations);
        // Measured (not estimated) per-shard segment ratio from the real
        // sharded checkpoint path; like the estimate ratios, it depends on
        // the solver state, not on the process count.
        let shard_ratio = measured_shard_segment_ratio(&problem, kind, max_iterations);
        for &procs in process_counts {
            let w = PaperWorkload::poisson(procs, local_grid_edge);
            let p = w.build();
            let vectors = kind.traditional_checkpoint_vectors() as f64;
            let trad_mb = vectors * p.paper_vector_bytes_per_process() / 1e6;
            rows.push(Table3Row {
                processes: procs,
                problem_edge: (p.paper_global_unknowns as f64).cbrt().round() as usize,
                solver: kind.name().to_string(),
                traditional_mb: trad_mb,
                lossless_mb: trad_mb / ratios.lossless,
                // The lossy scheme always checkpoints a single vector (x).
                lossy_mb: (p.paper_vector_bytes_per_process() / 1e6) / ratios.lossy,
                measured_shard_mb: shard_ratio
                    .map(|r| (p.paper_vector_bytes_per_process() / 1e6) / r),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figures 4–6: checkpoint / recovery times
// ---------------------------------------------------------------------------

/// One row of Figures 4–6: average time of one checkpoint and one recovery
/// for a solver/scheme/scale combination.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointTimeRow {
    /// Number of processes.
    pub processes: usize,
    /// Solver.
    pub solver: String,
    /// Scheme ("traditional", "lossless", "lossy").
    pub strategy: String,
    /// Average time of one checkpoint, seconds.
    pub checkpoint_seconds: f64,
    /// Average time of one recovery, seconds.
    pub recovery_seconds: f64,
}

/// Regenerates the Figure 4/5/6 series for one solver.
pub fn checkpoint_recovery_times(
    kind: SolverKind,
    process_counts: &[usize],
    local_grid_edge: usize,
    pfs: &PfsModel,
    max_iterations: usize,
) -> Vec<CheckpointTimeRow> {
    let workload = PaperWorkload::poisson(process_counts[0], local_grid_edge);
    let problem = workload.build();
    let ratios = measure_strategy_ratios(&workload, &problem, kind, max_iterations);
    let mut rows = Vec::new();
    for &procs in process_counts {
        let w = PaperWorkload::poisson(procs, local_grid_edge);
        let p = w.build();
        let cluster = ClusterConfig::bebop_like(procs, 1.0);
        let vectors = kind.traditional_checkpoint_vectors();
        let dynamic_bytes = vectors * p.paper_vector_bytes();
        let lossy_dynamic_bytes = p.paper_vector_bytes();
        // Static-variable reconstruction cost during recovery: the matrix
        // and preconditioner are regenerated from the stencil rather than
        // read back from storage (as the paper's PETSc set-up does), so the
        // I/O part of static recovery is re-reading the right-hand side —
        // one more global vector.  This is what makes recovery moderately
        // more expensive than checkpointing in Figures 4–6.
        let static_bytes = p.paper_vector_bytes();

        let mk = |strategy: &str, ckpt_bytes: f64, with_codec: bool, lossy: bool| {
            let write = pfs.write_seconds(ckpt_bytes as usize, procs);
            let read = pfs.read_seconds(ckpt_bytes as usize + static_bytes, procs);
            let (comp, decomp) = if with_codec {
                let original = if lossy { lossy_dynamic_bytes } else { dynamic_bytes };
                (
                    cluster.compression_seconds(original),
                    cluster.decompression_seconds(original),
                )
            } else {
                (0.0, 0.0)
            };
            CheckpointTimeRow {
                processes: procs,
                solver: kind.name().to_string(),
                strategy: strategy.to_string(),
                checkpoint_seconds: write + comp,
                recovery_seconds: read + decomp,
            }
        };

        rows.push(mk("traditional", dynamic_bytes as f64, false, false));
        rows.push(mk(
            "lossless",
            dynamic_bytes as f64 / ratios.lossless,
            true,
            false,
        ));
        rows.push(mk(
            "lossy",
            lossy_dynamic_bytes as f64 / ratios.lossy,
            true,
            true,
        ));
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 7: expected overhead from the performance model
// ---------------------------------------------------------------------------

/// One point of Figure 7: the model-predicted fault-tolerance overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedOverheadRow {
    /// Number of processes.
    pub processes: usize,
    /// Solver.
    pub solver: String,
    /// Scheme.
    pub strategy: String,
    /// Mean time to interruption, hours.
    pub mtti_hours: f64,
    /// Expected overhead as a fraction of productive time.
    pub expected_overhead: f64,
}

/// The paper's per-solver expected extra iterations per lossy recovery
/// (`N′`): ≈6 for Jacobi (Theorem 2 with R ≈ 0.99998, eb = 1e-4,
/// N = 3941), 0 for GMRES (Theorem 3), 25 % of the iteration count for CG
/// (the empirical Figure 2 value).
fn paper_n_extra(kind: SolverKind, total_iterations: usize) -> f64 {
    match kind {
        SolverKind::Gmres => 0.0,
        SolverKind::Cg => 0.25 * total_iterations as f64,
        SolverKind::Jacobi => theorem2_extra_iterations_upper_bound(0.99998, 1e-4, 3941),
    }
}

/// The paper's convergence iteration counts at 2,048 processes, used
/// together with [`paper_baseline_seconds`] to calibrate `T_it`: Jacobi
/// 3,941 iterations, GMRES 5,875, CG 2,376 (§4.3 and §5.3).
fn paper_iteration_count(kind: SolverKind) -> usize {
    match kind {
        SolverKind::Gmres => 5875,
        SolverKind::Cg => 2376,
        SolverKind::Jacobi => 3941,
    }
}

/// Regenerates Figure 7 for one MTTI.
pub fn expected_overhead(
    solvers: &[SolverKind],
    process_counts: &[usize],
    mtti_hours: f64,
    local_grid_edge: usize,
    pfs: &PfsModel,
    max_iterations: usize,
) -> Vec<ExpectedOverheadRow> {
    let lambda = 1.0 / (mtti_hours * 3600.0);
    let mut rows = Vec::new();
    for &kind in solvers {
        let times =
            checkpoint_recovery_times(kind, process_counts, local_grid_edge, pfs, max_iterations);
        let n_total = paper_iteration_count(kind);
        let t_it = paper_baseline_seconds(kind) / n_total as f64;
        for row in &times {
            let overhead = match row.strategy.as_str() {
                "lossy" => {
                    let n_extra = paper_n_extra(kind, n_total);
                    lossy_overhead_ratio(row.checkpoint_seconds, lambda, n_extra, t_it)
                }
                _ => traditional_overhead_ratio(row.checkpoint_seconds, lambda),
            };
            rows.push(ExpectedOverheadRow {
                processes: row.processes,
                solver: row.solver.clone(),
                strategy: row.strategy.clone(),
                mtti_hours,
                expected_overhead: overhead,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 10: experimental vs expected overhead
// ---------------------------------------------------------------------------

/// One bar of Figure 10: experimental and expected fault-tolerance overhead
/// for one solver under one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultToleranceOverheadRow {
    /// Solver.
    pub solver: String,
    /// Scheme.
    pub strategy: String,
    /// Number of processes.
    pub processes: usize,
    /// Checkpoint interval used (seconds, from Young's formula).
    pub checkpoint_interval_seconds: f64,
    /// Measured (simulated-experiment) overhead fraction, averaged over runs.
    pub experimental_overhead: f64,
    /// Model-expected overhead fraction.
    pub expected_overhead: f64,
    /// Mean number of failures per run.
    pub mean_failures: f64,
    /// Mean number of convergence iterations (for Figure 8).
    pub mean_convergence_iterations: f64,
    /// Convergence iterations of the failure-free baseline.
    pub baseline_iterations: usize,
}

/// Configuration of the Figure 8/10 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadExperimentConfig {
    /// Number of simulated processes (the paper uses 2,048).
    pub processes: usize,
    /// Local grid edge of the solved instance.
    pub local_grid_edge: usize,
    /// Mean time to interruption in seconds (the paper uses 3,600).
    pub mtti_seconds: f64,
    /// Number of runs to average (the paper uses 10).
    pub runs: usize,
    /// Base random seed.
    pub seed: u64,
    /// Iteration cap per run.
    pub max_iterations: usize,
}

/// Runs the Figure 10 experiment (which also yields the Figure 8 iteration
/// counts) for one solver under the three checkpointing schemes.
pub fn fault_tolerance_overhead(
    kind: SolverKind,
    cfg: &OverheadExperimentConfig,
    pfs: &PfsModel,
) -> Vec<FaultToleranceOverheadRow> {
    let workload = PaperWorkload::poisson(cfg.processes, cfg.local_grid_edge);
    let problem = workload.build();

    // Failure-free baseline: calibrate T_it so the simulated baseline time
    // matches the paper's reported baseline at this scale.
    let mut baseline_solver = workload.build_solver(&problem, kind, cfg.max_iterations);
    baseline_solver.run_to_convergence();
    let baseline_iterations = baseline_solver.iteration().max(1);
    let t_it = paper_baseline_seconds(kind) / baseline_iterations as f64;
    let cluster = ClusterConfig::bebop_like(cfg.processes, t_it);

    // Per-scheme checkpoint costs (for Young's interval and the model).
    let times = checkpoint_recovery_times(
        kind,
        &[cfg.processes],
        cfg.local_grid_edge,
        pfs,
        cfg.max_iterations,
    );

    let lambda = 1.0 / cfg.mtti_seconds;
    let mut rows = Vec::new();
    for time_row in &times {
        let strategy = match time_row.strategy.as_str() {
            "traditional" => CheckpointStrategy::Traditional,
            "lossless" => CheckpointStrategy::lossless_default(),
            _ => {
                if kind == SolverKind::Gmres {
                    CheckpointStrategy::lossy_gmres()
                } else {
                    CheckpointStrategy::lossy_default()
                }
            }
        };
        let interval_seconds =
            young_optimal_interval(cfg.mtti_seconds, time_row.checkpoint_seconds);
        let interval_iterations = young_optimal_interval_iterations(
            cfg.mtti_seconds,
            time_row.checkpoint_seconds,
            t_it,
        )
        .min(baseline_iterations.max(2) / 2)
        .max(1);

        let mut total_overhead = 0.0;
        let mut total_failures = 0.0;
        let mut total_iters = 0.0;
        for run in 0..cfg.runs {
            let mut solver = workload.build_solver(&problem, kind, cfg.max_iterations);
            let mut run_cfg = RunConfig::baseline(cluster, *pfs);
            run_cfg.strategy = strategy.clone();
            run_cfg.checkpoint_interval_iterations = interval_iterations;
            run_cfg.mtti_seconds = cfg.mtti_seconds;
            run_cfg.failure_seed = Some(cfg.seed + run as u64 * 7919);
            run_cfg.max_failures = 1000;
            run_cfg.max_executed_iterations = cfg.max_iterations;
            let report: RunReport =
                FaultTolerantRunner::new(run_cfg).run(solver.as_mut(), &problem);
            total_overhead += report.overhead_ratio();
            total_failures += report.failures as f64;
            total_iters += report.convergence_iterations as f64;
        }

        let expected = match time_row.strategy.as_str() {
            "lossy" => lossy_overhead_ratio(
                time_row.checkpoint_seconds,
                lambda,
                paper_n_extra(kind, baseline_iterations),
                t_it,
            ),
            _ => traditional_overhead_ratio(time_row.checkpoint_seconds, lambda),
        };

        rows.push(FaultToleranceOverheadRow {
            solver: kind.name().to_string(),
            strategy: time_row.strategy.clone(),
            processes: cfg.processes,
            checkpoint_interval_seconds: interval_seconds,
            experimental_overhead: total_overhead / cfg.runs as f64,
            expected_overhead: expected,
            mean_failures: total_failures / cfg.runs as f64,
            mean_convergence_iterations: total_iters / cfg.runs as f64,
            baseline_iterations,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_ratios_are_ordered() {
        let w = PaperWorkload::poisson(256, 12);
        let p = w.build();
        let r = measure_strategy_ratios(&w, &p, SolverKind::Jacobi, 200_000);
        assert!(r.lossless >= 1.0, "lossless ratio {}", r.lossless);
        assert!(r.lossy > r.lossless, "lossy {} vs lossless {}", r.lossy, r.lossless);
        assert!(r.lossy > 3.0);
    }

    #[test]
    fn table3_shape_matches_paper() {
        let rows = table3(
            &[SolverKind::Jacobi, SolverKind::Cg],
            &[256, 2048],
            12,
            200_000,
        );
        assert_eq!(rows.len(), 4);
        let jacobi_256 = &rows[0];
        assert_eq!(jacobi_256.solver, "jacobi");
        assert_eq!(jacobi_256.processes, 256);
        assert_eq!(jacobi_256.problem_edge, 1088);
        // Table 3: traditional Jacobi ≈38.4 MB/process at 256 procs.
        assert!((jacobi_256.traditional_mb - 38.4).abs() < 2.0);
        assert!(jacobi_256.lossless_mb < jacobi_256.traditional_mb);
        assert!(jacobi_256.lossy_mb < jacobi_256.lossless_mb);

        // CG traditional checkpoints are twice the Jacobi size (x and p).
        let cg_256 = rows.iter().find(|r| r.solver == "cg" && r.processes == 256).unwrap();
        assert!((cg_256.traditional_mb / jacobi_256.traditional_mb - 2.0).abs() < 0.1);
    }

    #[test]
    fn checkpoint_times_scale_and_order_correctly() {
        let pfs = PfsModel::bebop_like();
        let rows =
            checkpoint_recovery_times(SolverKind::Jacobi, &[256, 2048], 12, &pfs, 200_000);
        assert_eq!(rows.len(), 6);
        let trad_256 = rows
            .iter()
            .find(|r| r.strategy == "traditional" && r.processes == 256)
            .unwrap();
        let trad_2048 = rows
            .iter()
            .find(|r| r.strategy == "traditional" && r.processes == 2048)
            .unwrap();
        let lossy_2048 = rows
            .iter()
            .find(|r| r.strategy == "lossy" && r.processes == 2048)
            .unwrap();
        let lossless_2048 = rows
            .iter()
            .find(|r| r.strategy == "lossless" && r.processes == 2048)
            .unwrap();
        // Weak scaling: more processes → more data → longer checkpoints.
        assert!(trad_2048.checkpoint_seconds > trad_256.checkpoint_seconds);
        // Figure 4 ordering: lossy < lossless < traditional.
        assert!(lossy_2048.checkpoint_seconds < lossless_2048.checkpoint_seconds);
        assert!(lossless_2048.checkpoint_seconds < trad_2048.checkpoint_seconds);
        // Paper §3: the traditional checkpoint at 2,048 procs takes ≈120 s
        // (one 78.8 GB vector).
        assert!(
            (trad_2048.checkpoint_seconds - 120.0).abs() < 10.0,
            "traditional checkpoint at 2048 procs: {}",
            trad_2048.checkpoint_seconds
        );
        // Recovery is more expensive than checkpointing (static variables).
        assert!(trad_2048.recovery_seconds > trad_2048.checkpoint_seconds);
    }

    #[test]
    fn expected_overhead_prefers_lossy() {
        let pfs = PfsModel::bebop_like();
        let rows = expected_overhead(
            &[SolverKind::Gmres],
            &[2048],
            1.0,
            12,
            &pfs,
            200_000,
        );
        assert_eq!(rows.len(), 3);
        let get = |s: &str| {
            rows.iter()
                .find(|r| r.strategy == s)
                .unwrap()
                .expected_overhead
        };
        assert!(get("lossy") < get("lossless"));
        assert!(get("lossless") < get("traditional"));
        // Figure 7(a): traditional GMRES overhead at 2,048 procs and hourly
        // MTTI is in the tens of percent.
        assert!(get("traditional") > 0.15 && get("traditional") < 0.6);
    }

    #[test]
    fn paper_constants() {
        assert_eq!(paper_iteration_count(SolverKind::Gmres), 5875);
        assert!(paper_n_extra(SolverKind::Gmres, 1000) == 0.0);
        assert!(paper_n_extra(SolverKind::Cg, 1000) == 250.0);
        let jacobi_extra = paper_n_extra(SolverKind::Jacobi, 1000);
        assert!(jacobi_extra > 0.0 && jacobi_extra < 30.0);
        assert_eq!(paper_rtol(SolverKind::Cg), 1e-7);
        assert!((paper_baseline_seconds(SolverKind::Cg) - 2100.0).abs() < 1.0);
        assert_eq!(PAPER_PROCESS_COUNTS.len(), 8);
    }

    #[test]
    fn fault_tolerance_overhead_smoke() {
        // A miniature Figure-10 run: small problem, 2 runs, to keep the test
        // fast while exercising the full path.
        let cfg = OverheadExperimentConfig {
            processes: 2048,
            local_grid_edge: 6,
            mtti_seconds: 3600.0,
            runs: 2,
            seed: 1,
            max_iterations: 200_000,
        };
        let rows = fault_tolerance_overhead(SolverKind::Jacobi, &cfg, &PfsModel::bebop_like());
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.experimental_overhead >= 0.0);
            assert!(row.expected_overhead >= 0.0);
            assert!(row.checkpoint_interval_seconds > 0.0);
            assert!(row.baseline_iterations > 0);
            assert!(row.mean_convergence_iterations > 0.0);
        }
        // The lossy scheme should not be worse than traditional in the mean.
        let get = |s: &str| {
            rows.iter()
                .find(|r| r.strategy == s)
                .unwrap()
                .experimental_overhead
        };
        assert!(get("lossy") <= get("traditional") * 1.2 + 0.05);
    }
}
