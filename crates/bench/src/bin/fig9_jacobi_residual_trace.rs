//! Figure 9: residual-versus-iteration traces of the Jacobi method — a
//! failure-free execution compared with lossy-checkpointed executions that
//! suffer one and two failures/restarts.
//!
//! The paper's point: after a lossy recovery the Jacobi residual rejoins the
//! failure-free trajectory almost immediately (no extra iterations).

use lcr_bench::{fmt, print_json, print_table, BenchScale};
use lcr_ckpt::{ClusterConfig, PfsModel};
use lcr_core::runner::{FaultTolerantRunner, RunConfig};
use lcr_core::strategy::CheckpointStrategy;
use lcr_core::workload::PaperWorkload;
use lcr_solvers::SolverKind;

struct Fig9Trace {
    label: String,
    failures: usize,
    restart_iterations: Vec<usize>,
    convergence_iterations: usize,
    residuals: Vec<f64>,
}

lcr_bench::json_object!(Fig9Trace {
    label, failures, restart_iterations, convergence_iterations, residuals,
});

fn run_trace(
    workload: &PaperWorkload,
    scale: &BenchScale,
    mtti: f64,
    seed: Option<u64>,
    max_failures: usize,
) -> Fig9Trace {
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, SolverKind::Jacobi, scale.max_iterations);
    let mut cfg = RunConfig::baseline(ClusterConfig::bebop_like(2048, 1.0), PfsModel::bebop_like());
    cfg.strategy = CheckpointStrategy::lossy_default();
    cfg.checkpoint_interval_iterations = 10;
    cfg.mtti_seconds = mtti;
    cfg.failure_seed = seed;
    cfg.max_failures = max_failures;
    cfg.max_executed_iterations = scale.max_iterations;
    let report = FaultTolerantRunner::new(cfg).run(solver.as_mut(), &problem);
    Fig9Trace {
        label: format!("{} failure(s)", report.failures),
        failures: report.failures,
        restart_iterations: report.restart_iterations,
        convergence_iterations: report.convergence_iterations,
        residuals: report.residual_history,
    }
}

fn main() {
    let scale = BenchScale::from_env_and_args();
    let workload = PaperWorkload::poisson(2048, scale.local_grid_edge);

    // Failure-free, one-failure and two-failure executions.  The MTTI is
    // set relative to the run length so the requested number of failures
    // actually lands inside the execution.
    let clean = run_trace(&workload, &scale, f64::MAX, None, 0);
    let run_seconds = clean.convergence_iterations as f64 * 1.0;
    let one = run_trace(&workload, &scale, run_seconds / 2.0, Some(7), 1);
    let two = run_trace(&workload, &scale, run_seconds / 3.0, Some(11), 2);

    let traces = vec![clean, one, two];
    let table: Vec<Vec<String>> = traces
        .iter()
        .map(|t| {
            vec![
                t.label.clone(),
                t.failures.to_string(),
                format!("{:?}", t.restart_iterations),
                t.convergence_iterations.to_string(),
                fmt(*t.residuals.last().unwrap_or(&f64::NAN), 8),
            ]
        })
        .collect();
    print_table(
        "Figure 9 — Jacobi executions with lossy checkpointing",
        &[
            "execution",
            "failures",
            "restart at iters",
            "iters to converge",
            "final residual",
        ],
        &table,
    );

    // A compact view of the traces: residual every ~10% of the run.
    println!("\nResidual traces (sampled):");
    for t in &traces {
        let n = t.residuals.len().max(1);
        let samples: Vec<String> = (0..=10)
            .map(|k| {
                let idx = (k * (n - 1)) / 10;
                format!("{:.2e}", t.residuals.get(idx).copied().unwrap_or(f64::NAN))
            })
            .collect();
        println!("  {:>12}: {}", t.label, samples.join(" "));
    }
    println!(
        "\nPaper reference: all three executions converge in the same number of \
         iterations; the residual after each lossy restart returns to the \
         failure-free trajectory immediately."
    );
    print_json("figure9", &traces);
}
