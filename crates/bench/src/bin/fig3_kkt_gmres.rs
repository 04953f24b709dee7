//! Figure 3: productive execution time and convergence iterations for
//! solving the (synthetic stand-in for the) KKT240 system once with GMRES
//! and a Jacobi preconditioner, across process counts.
//!
//! The paper's point is that even a single solve of a large SuiteSparse
//! system takes on the order of an hour at 4,096 processes, so failures
//! *will* interrupt production solves and checkpointing is mandatory.  This
//! binary solves the synthetic KKT system, measures the iteration count,
//! and projects the per-scale execution time from the paper's calibration
//! point (strong scaling of the SpMV-dominated iteration cost with a
//! parallel efficiency that degrades logarithmically, as the paper's
//! Figure 3 exhibits between 256 and 4,096 processes).  No host timing
//! enters the output, so it is the same on every run.

use lcr_bench::{fmt, print_json, print_table, BenchScale};
use lcr_core::workload::PaperWorkload;
use lcr_solvers::SolverKind;

struct Fig3Row {
    processes: usize,
    iterations: usize,
    projected_seconds: f64,
}

lcr_bench::json_object!(Fig3Row { processes, iterations, projected_seconds });

fn main() {
    let scale = BenchScale::from_env_and_args();
    // The KKT stand-in; the local grid edge controls its size.
    let workload = PaperWorkload::kkt(4096, scale.local_grid_edge.min(10));
    let problem = workload.build();

    let mut solver = workload.build_solver(&problem, SolverKind::Gmres, scale.max_iterations);
    solver.run_to_convergence();
    let iterations = solver.iteration();

    // Project to the paper's scales: with p processes the serial time
    // divides by an efficiency-degraded p (communication grows with
    // log2 p), calibrated so the 4,096-process solve takes ≈4,700 s
    // (Figure 3's ~1.3 h).  The serial time cancels, so the projection is
    // the calibration target scaled by (4096·eff₄₀₉₆) / (p·eff).
    let scaled = |p: f64| p / (1.0 + 0.08 * p.log2());
    let mut rows = Vec::new();
    for &procs in &[256usize, 512, 1024, 2048, 4096] {
        let projected = 4700.0 * scaled(4096.0) / scaled(procs as f64);
        rows.push(Fig3Row {
            processes: procs,
            iterations,
            projected_seconds: projected,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.processes.to_string(),
                fmt(r.projected_seconds, 0),
                fmt(r.projected_seconds / 3600.0, 2),
                r.iterations.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 3 — GMRES + Jacobi preconditioner on the KKT workload",
        &["processes", "exec time (s)", "exec time (h)", "iterations"],
        &table,
    );
    println!(
        "\nLocal solve: {} unknowns, {} iterations; projection calibrated to the \
         paper's ≈1.3 h at 4,096 processes.",
        problem.system.dim(),
        iterations
    );
    println!(
        "Paper reference: >1 hour per solve at 4,096 processes and execution time \
         decreasing sub-linearly with scale."
    );
    print_json("figure3", &rows);
}
