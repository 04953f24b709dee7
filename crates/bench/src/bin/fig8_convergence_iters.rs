//! Figure 8: number of convergence iterations with lossy checkpointing
//! versus the failure-free baseline, for Jacobi, GMRES and CG across
//! process counts (the paper shows 256–2,048), under MTTI = 1 hour.
//!
//! The paper's finding: Jacobi sees no delay, GMRES is sometimes slightly
//! *accelerated*, and CG is delayed by ≈25 % on average.

use lcr_bench::{fmt, print_json, print_table, BenchScale};
use lcr_ckpt::{ClusterConfig, PfsModel};
use lcr_core::experiment::{
    checkpoint_recovery_times, paper_baseline_seconds,
};
use lcr_core::runner::{FaultTolerantRunner, RunConfig};
use lcr_core::strategy::CheckpointStrategy;
use lcr_core::workload::PaperWorkload;
use lcr_perfmodel::young_optimal_interval_iterations;
use lcr_solvers::SolverKind;

struct Fig8Row {
    processes: usize,
    solver: String,
    failure_free_iterations: usize,
    lossy_iterations: f64,
    delay_percent: f64,
    mean_failures: f64,
}

lcr_bench::json_object!(Fig8Row {
    processes, solver, failure_free_iterations, lossy_iterations, delay_percent, mean_failures,
});

fn main() {
    let scale = BenchScale::from_env_and_args();
    let pfs = PfsModel::bebop_like();
    let mtti = 3600.0;
    let process_counts = [256usize, 512, 1024, 2048];
    let solvers = [SolverKind::Jacobi, SolverKind::Gmres, SolverKind::Cg];

    let mut rows = Vec::new();
    for kind in solvers {
        for &procs in &process_counts {
            let workload = PaperWorkload::poisson(procs, scale.local_grid_edge);
            let problem = workload.build();
            let mut baseline = workload.build_solver(&problem, kind, scale.max_iterations);
            baseline.run_to_convergence();
            let baseline_iters = baseline.iteration();
            let t_it = paper_baseline_seconds(kind) / baseline_iters.max(1) as f64;
            let cluster = ClusterConfig::bebop_like(procs, t_it);

            let lossy_ckpt_seconds = checkpoint_recovery_times(
                kind,
                &[procs],
                scale.local_grid_edge,
                &pfs,
                scale.max_iterations,
            )
            .into_iter()
            .find(|r| r.strategy == "lossy")
            .map(|r| r.checkpoint_seconds)
            .unwrap_or(25.0);
            let interval = young_optimal_interval_iterations(mtti, lossy_ckpt_seconds, t_it)
                .min(baseline_iters.max(2) / 2)
                .max(1);

            let strategy = if kind == SolverKind::Gmres {
                CheckpointStrategy::lossy_gmres()
            } else {
                CheckpointStrategy::lossy_default()
            };
            let mut iters_sum = 0.0;
            let mut failures_sum = 0.0;
            for rep in 0..scale.repetitions {
                let mut solver = workload.build_solver(&problem, kind, scale.max_iterations);
                let mut cfg = RunConfig::baseline(cluster, pfs);
                cfg.strategy = strategy.clone();
                cfg.checkpoint_interval_iterations = interval;
                cfg.mtti_seconds = mtti;
                cfg.failure_seed = Some(42 + rep as u64 * 1009 + procs as u64);
                cfg.max_failures = 1000;
                cfg.max_executed_iterations = scale.max_iterations;
                let report = FaultTolerantRunner::new(cfg).run(solver.as_mut(), &problem);
                iters_sum += report.convergence_iterations as f64;
                failures_sum += report.failures as f64;
            }
            let lossy_iters = iters_sum / scale.repetitions as f64;
            rows.push(Fig8Row {
                processes: procs,
                solver: kind.name().to_string(),
                failure_free_iterations: baseline_iters,
                lossy_iterations: lossy_iters,
                delay_percent: 100.0 * (lossy_iters - baseline_iters as f64)
                    / baseline_iters.max(1) as f64,
                mean_failures: failures_sum / scale.repetitions as f64,
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.processes.to_string(),
                r.solver.clone(),
                r.failure_free_iterations.to_string(),
                fmt(r.lossy_iterations, 1),
                format!("{:+.1}%", r.delay_percent),
                fmt(r.mean_failures, 1),
            ]
        })
        .collect();
    print_table(
        "Figure 8 — convergence iterations: failure-free vs lossy checkpointing (MTTI = 1 h)",
        &[
            "processes",
            "solver",
            "failure-free iters",
            "lossy iters",
            "delay",
            "mean failures",
        ],
        &table,
    );
    println!(
        "\nPaper reference: Jacobi shows no delay, GMRES no delay (occasionally a \
         slight acceleration), CG ≈+25% iterations on average."
    );
    print_json("figure8", &rows);
}
