//! Cross-crate integration tests: the full lossy checkpointing pipeline
//! (solvers + compressors + checkpoint substrate + performance model)
//! exercised end to end through the public API of the umbrella crate.

use lossy_ckpt::ckpt::{ClusterConfig, PfsModel};
use lossy_ckpt::core::experiment::{
    checkpoint_recovery_times, expected_overhead, table3, PAPER_PROCESS_COUNTS,
};
use lossy_ckpt::core::runner::{FaultTolerantRunner, RunConfig};
use lossy_ckpt::core::strategy::CheckpointStrategy;
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::perfmodel::{theorem1_max_extra_iterations, Theorem1Inputs};
use lossy_ckpt::solvers::SolverKind;

// Local grid edge: 12³ = 1,728 unknowns — large enough for the compression
// ratios measured on the solver state to be representative, small enough
// for the full matrix of solvers × schemes to run in seconds.
const EDGE: usize = 12;
const MAX_ITERS: usize = 200_000;

fn run_config(strategy: CheckpointStrategy, mtti: f64, seed: u64, t_it: f64) -> RunConfig {
    let mut cfg =
        RunConfig::baseline(ClusterConfig::bebop_like(2048, t_it), PfsModel::bebop_like());
    cfg.strategy = strategy;
    cfg.checkpoint_interval_iterations = 10;
    cfg.mtti_seconds = mtti;
    cfg.failure_seed = Some(seed);
    cfg.max_failures = 200;
    cfg.max_executed_iterations = MAX_ITERS;
    cfg
}

#[test]
fn all_three_solvers_survive_failures_under_all_three_schemes() {
    let workload = PaperWorkload::poisson(2048, EDGE);
    let problem = workload.build();
    for kind in [SolverKind::Jacobi, SolverKind::Gmres, SolverKind::Cg] {
        let mut baseline = workload.build_solver(&problem, kind, MAX_ITERS);
        baseline.run_to_convergence();
        let baseline_iters = baseline.iteration();
        // Calibrate the per-iteration cost so every failure-free run lasts
        // ≈400 simulated seconds: with a 60-second MTTI this guarantees
        // several failures regardless of how many iterations the solver
        // needs locally.
        let t_it = 400.0 / baseline_iters.max(1) as f64;
        for strategy in [
            CheckpointStrategy::Traditional,
            CheckpointStrategy::lossless_default(),
            if kind == SolverKind::Gmres {
                CheckpointStrategy::lossy_gmres()
            } else {
                CheckpointStrategy::lossy_default()
            },
        ] {
            let mut solver = workload.build_solver(&problem, kind, MAX_ITERS);
            let report = FaultTolerantRunner::new(run_config(strategy.clone(), 60.0, 7, t_it))
                .run(solver.as_mut(), &problem);
            assert!(
                report.failures > 0,
                "{kind:?}/{}: expected at least one failure",
                strategy.name()
            );
            assert!(
                !report.hit_iteration_limit,
                "{kind:?}/{}: solver did not converge",
                strategy.name()
            );
            // Exact schemes resume the identical trajectory for Jacobi and
            // CG (their full dynamic state is restored), so they converge in
            // exactly the baseline number of iterations.  GMRES checkpoints
            // only x even traditionally (Table 3), so its post-recovery
            // trajectory can differ slightly; the lossy scheme may add some
            // iterations for CG.
            let exact = strategy.recovery_mode()
                == lossy_ckpt::core::strategy::RecoveryMode::Exact;
            if exact && kind != SolverKind::Gmres {
                assert_eq!(report.convergence_iterations, baseline_iters);
            } else {
                assert!(report.convergence_iterations >= baseline_iters.min(2));
                assert!(report.convergence_iterations <= baseline_iters * 3 + 50);
            }
            // Solution quality: the relative residual honours the paper's
            // tolerance for this solver.
            let rel = problem
                .system
                .a
                .residual(solver.solution(), &problem.system.b)
                .norm2()
                / problem.system.b.norm2();
            assert!(
                rel < 1e-2,
                "{kind:?}/{}: relative residual {rel}",
                strategy.name()
            );
        }
    }
}

#[test]
fn lossy_scheme_has_lowest_overhead_for_gmres() {
    // The paper's headline claim, checked end to end on the simulated
    // cluster for GMRES (the solver with the biggest win).
    let workload = PaperWorkload::poisson(2048, EDGE);
    let problem = workload.build();
    let t_it = 4.0;
    let mut overheads = Vec::new();
    for strategy in [
        CheckpointStrategy::Traditional,
        CheckpointStrategy::lossless_default(),
        CheckpointStrategy::lossy_gmres(),
    ] {
        let mut solver = workload.build_solver(&problem, SolverKind::Gmres, MAX_ITERS);
        let report = FaultTolerantRunner::new(run_config(strategy.clone(), 120.0, 13, t_it))
            .run(solver.as_mut(), &problem);
        overheads.push((strategy.name(), report.overhead_seconds));
    }
    let get = |name: &str| overheads.iter().find(|(n, _)| *n == name).unwrap().1;
    assert!(
        get("lossy") < get("traditional"),
        "lossy {} vs traditional {}",
        get("lossy"),
        get("traditional")
    );
    assert!(
        get("lossy") < get("lossless"),
        "lossy {} vs lossless {}",
        get("lossy"),
        get("lossless")
    );
}

#[test]
fn table3_and_figures_have_consistent_shapes() {
    // Table 3 rows exist for every solver × process count and sizes are
    // ordered lossy < lossless ≤ traditional.
    let solvers = [SolverKind::Jacobi, SolverKind::Gmres, SolverKind::Cg];
    let rows = table3(&solvers, PAPER_PROCESS_COUNTS, EDGE, MAX_ITERS);
    assert_eq!(rows.len(), solvers.len() * PAPER_PROCESS_COUNTS.len());
    for row in &rows {
        assert!(row.lossy_mb < row.traditional_mb);
        assert!(row.lossless_mb <= row.traditional_mb * 1.01);
        assert!(row.lossy_mb < row.lossless_mb);
    }

    // Figures 4–6: checkpoint times grow with scale; lossy is cheapest.
    let pfs = PfsModel::bebop_like();
    for kind in solvers {
        let times = checkpoint_recovery_times(kind, &[256, 2048], EDGE, &pfs, MAX_ITERS);
        let at = |procs: usize, strategy: &str| {
            times
                .iter()
                .find(|r| r.processes == procs && r.strategy == strategy)
                .unwrap()
        };
        assert!(
            at(2048, "traditional").checkpoint_seconds > at(256, "traditional").checkpoint_seconds
        );
        assert!(at(2048, "lossy").checkpoint_seconds < at(2048, "lossless").checkpoint_seconds);
        assert!(
            at(2048, "lossless").checkpoint_seconds < at(2048, "traditional").checkpoint_seconds
        );
        // Recovery includes static variables and is never cheaper than the
        // checkpoint for the same scheme and scale.
        assert!(at(2048, "traditional").recovery_seconds > at(2048, "traditional").checkpoint_seconds);
    }

    // Figure 7: the model ranks lossy best for GMRES at 2,048 processes.
    let f7 = expected_overhead(&[SolverKind::Gmres], &[2048], 1.0, EDGE, &pfs, MAX_ITERS);
    let get = |s: &str| {
        f7.iter()
            .find(|r| r.strategy == s)
            .unwrap()
            .expected_overhead
    };
    assert!(get("lossy") < get("lossless"));
    assert!(get("lossless") < get("traditional"));
}

#[test]
fn theorem1_budget_exceeds_measured_gmres_delay() {
    // End-to-end consistency of the theory and the implementation: the
    // extra iterations a GMRES lossy recovery actually causes stay within
    // the Theorem-1 budget computed from the measured checkpoint times.
    let workload = PaperWorkload::poisson(2048, EDGE);
    let problem = workload.build();
    let pfs = PfsModel::bebop_like();
    let times = checkpoint_recovery_times(SolverKind::Gmres, &[2048], EDGE, &pfs, MAX_ITERS);
    let trad = times
        .iter()
        .find(|r| r.strategy == "traditional")
        .unwrap()
        .checkpoint_seconds;
    let lossy = times
        .iter()
        .find(|r| r.strategy == "lossy")
        .unwrap()
        .checkpoint_seconds;

    let mut baseline = workload.build_solver(&problem, SolverKind::Gmres, MAX_ITERS);
    baseline.run_to_convergence();
    let baseline_iters = baseline.iteration();
    let t_it = 72.0 * 60.0 / baseline_iters as f64; // paper-ish baseline

    let budget = theorem1_max_extra_iterations(&Theorem1Inputs {
        t_trad_ckp: trad,
        t_lossy_ckp: lossy,
        lambda: 1.0 / 3600.0,
        t_it,
    });

    // One lossy recovery in the middle of the run.
    let mut solver = workload.build_solver(&problem, SolverKind::Gmres, MAX_ITERS);
    for _ in 0..baseline_iters / 2 {
        solver.step();
    }
    let strategy = CheckpointStrategy::lossy_gmres();
    let enc = strategy.encode(solver.as_ref()).unwrap();
    strategy
        .recover(solver.as_mut(), &enc.payloads, enc.iteration, &enc.scalars)
        .unwrap();
    solver.run_to_convergence();
    let extra = solver.iteration().saturating_sub(baseline_iters) as f64;
    // The locally solved instance has far fewer (and far more expensive,
    // once calibrated) iterations than the paper-scale run, which shrinks
    // the budget; allow a small absolute slack on top of it.
    assert!(
        extra <= budget + 5.0,
        "measured extra iterations {extra} exceed the Theorem-1 budget {budget}"
    );
}
