//! Compare the three checkpointing schemes (traditional, lossless, lossy)
//! on the paper's 3-D Poisson workload with the Jacobi, GMRES and CG
//! solvers — a miniature version of the paper's Figure 10 experiment that
//! prints a per-scheme overhead summary.
//!
//! ```bash
//! cargo run --release --example poisson3d_resilient
//! ```

use lossy_ckpt::ckpt::{ClusterConfig, PfsModel};
use lossy_ckpt::core::experiment::paper_baseline_seconds;
use lossy_ckpt::core::runner::{FaultTolerantRunner, RunConfig};
use lossy_ckpt::core::strategy::CheckpointStrategy;
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::perfmodel::young_optimal_interval_iterations;
use lossy_ckpt::solvers::SolverKind;

fn main() {
    let processes = 2048;
    let mtti = 3600.0;
    let workload = PaperWorkload::poisson(processes, 10);
    let problem = workload.build();
    let pfs = PfsModel::bebop_like();

    println!(
        "3-D Poisson, paper scale {} unknowns over {} ranks, MTTI = {:.0} min\n",
        problem.paper_global_unknowns,
        processes,
        mtti / 60.0
    );
    println!(
        "{:<8} {:<12} {:>10} {:>10} {:>12} {:>10} {:>12}",
        "solver", "scheme", "failures", "ckpts", "overhead(s)", "overhead%", "extra iters"
    );

    for kind in [SolverKind::Jacobi, SolverKind::Gmres, SolverKind::Cg] {
        // Calibrate the per-iteration cost so the failure-free run matches
        // the paper's baseline duration for this solver.
        let mut baseline = workload.build_solver(&problem, kind, 500_000);
        baseline.run_to_convergence();
        let baseline_iters = baseline.iteration().max(1);
        let t_it = paper_baseline_seconds(kind) / baseline_iters as f64;
        let cluster = ClusterConfig::bebop_like(processes, t_it);

        for strategy in [
            CheckpointStrategy::Traditional,
            CheckpointStrategy::lossless_default(),
            if kind == SolverKind::Gmres {
                CheckpointStrategy::lossy_gmres()
            } else {
                CheckpointStrategy::lossy_default()
            },
        ] {
            // A rough per-scheme checkpoint cost to pick the Young interval:
            // traditional ≈120 s, lossless ≈100 s, lossy ≈25 s (Figures 4–6).
            let t_ckp = match strategy.name() {
                "traditional" => 120.0,
                "lossless" => 100.0,
                _ => 25.0,
            };
            let interval = young_optimal_interval_iterations(mtti, t_ckp, t_it)
                .min(baseline_iters / 2)
                .max(1);

            let mut solver = workload.build_solver(&problem, kind, 500_000);
            let mut config = RunConfig::baseline(cluster, pfs);
            config.strategy = strategy.clone();
            config.checkpoint_interval_iterations = interval;
            config.mtti_seconds = mtti;
            config.failure_seed = Some(20180611);
            config.max_failures = 200;
            config.max_executed_iterations = 500_000;
            let report = FaultTolerantRunner::new(config).run(solver.as_mut(), &problem);

            println!(
                "{:<8} {:<12} {:>10} {:>10} {:>12.1} {:>9.1}% {:>12}",
                kind.name(),
                strategy.name(),
                report.failures,
                report.checkpoints_taken,
                report.overhead_seconds,
                report.overhead_ratio() * 100.0,
                report
                    .convergence_iterations
                    .saturating_sub(baseline_iters)
            );
        }
    }
    println!(
        "\nExpected shape (paper, Figure 10): lossy has the lowest overhead for every \
         solver; CG pays a ~25% iteration penalty per lossy recovery yet still wins \
         because its traditional checkpoints are twice the size."
    );
}
