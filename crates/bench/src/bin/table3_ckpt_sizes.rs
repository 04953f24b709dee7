//! Table 3: problem sizes and average checkpoint sizes per process for the
//! three checkpointing schemes and the three solvers across the paper's
//! weak-scaling grid (256–2,048 processes).

use lcr_bench::{fmt, print_json, print_table, BenchScale};
use lcr_core::experiment::{table3, PAPER_PROCESS_COUNTS};
use lcr_solvers::SolverKind;

fn main() {
    let scale = BenchScale::from_env_and_args();
    let solvers = [SolverKind::Jacobi, SolverKind::Gmres, SolverKind::Cg];
    let rows = table3(
        &solvers,
        PAPER_PROCESS_COUNTS,
        scale.local_grid_edge,
        scale.max_iterations,
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.processes.to_string(),
                format!("{}^3", r.problem_edge),
                r.solver.clone(),
                fmt(r.traditional_mb, 1),
                fmt(r.lossless_mb, 2),
                fmt(r.lossy_mb, 2),
                r.measured_shard_mb.map_or_else(|| "—".to_string(), |mb| fmt(mb, 2)),
            ]
        })
        .collect();
    print_table(
        "Table 3 — checkpoint size per process (MB)",
        &[
            "processes",
            "problem size",
            "solver",
            "traditional",
            "lossless",
            "lossy (est)",
            "lossy (measured)",
        ],
        &table,
    );
    println!(
        "\nPaper reference (2,048 procs): traditional 39.4/39.4/78.8 MB, lossless \
         6.2/32.7/67.9 MB, lossy 1.2/1.2/1.3 MB for Jacobi/GMRES/CG.\n\
         Reproduction note: compression ratios are measured on the locally solved \
         instance and extrapolated to the paper-scale vector sizes; the lossless \
         ratio for Jacobi is the one quantity that differs qualitatively.  The \
         \"lossy (measured)\" column replaces the even-division \
         estimate with the per-shard SZ segment sizes actually written by the \
         sharded checkpoint path (— where that run committed no epoch)."
    );
    print_json("table3", &rows);
}
