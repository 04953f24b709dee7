//! Figure 10: experimental versus expected fault-tolerance overhead for
//! Jacobi, GMRES and CG under traditional, lossless and lossy checkpointing
//! with their optimal (Young) checkpoint intervals, at 2,048 processes and
//! MTTI = 1 hour.
//!
//! The paper's headline numbers: lossy checkpointing reduces the fault
//! tolerance overhead by 23 %–70 % versus traditional checkpointing and
//! 20 %–58 % versus lossless checkpointing.

use lcr_bench::{fmt, print_json, print_table, BenchScale};
use lcr_ckpt::PfsModel;
use lcr_core::experiment::{fault_tolerance_overhead, OverheadExperimentConfig};
use lcr_solvers::SolverKind;

fn main() {
    let scale = BenchScale::from_env_and_args();
    let pfs = PfsModel::bebop_like();
    let solvers = [SolverKind::Jacobi, SolverKind::Gmres, SolverKind::Cg];

    let mut all = Vec::new();
    for kind in solvers {
        let cfg = OverheadExperimentConfig {
            processes: 2048,
            local_grid_edge: scale.local_grid_edge,
            mtti_seconds: 3600.0,
            runs: scale.repetitions.max(3),
            seed: 20180611,
            max_iterations: scale.max_iterations,
        };
        let rows = fault_tolerance_overhead(kind, &cfg, &pfs);
        all.extend(rows);
    }

    let table: Vec<Vec<String>> = all
        .iter()
        .map(|r| {
            vec![
                r.solver.clone(),
                r.strategy.clone(),
                fmt(r.checkpoint_interval_seconds / 60.0, 1),
                format!("{:.1}%", r.experimental_overhead * 100.0),
                format!("{:.1}%", r.expected_overhead * 100.0),
                fmt(r.mean_failures, 1),
                fmt(r.mean_convergence_iterations, 0),
                r.baseline_iterations.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 10 — experimental vs expected fault-tolerance overhead (2,048 procs, MTTI = 1 h)",
        &[
            "solver",
            "scheme",
            "ckpt interval (min)",
            "experimental",
            "expected",
            "mean failures",
            "mean iters",
            "baseline iters",
        ],
        &table,
    );

    // Summarise the headline reductions.
    println!("\nOverhead reduction of lossy checkpointing:");
    for kind in ["jacobi", "gmres", "cg"] {
        let find = |strategy: &str| {
            all.iter()
                .find(|r| r.solver == kind && r.strategy == strategy)
                .map(|r| r.experimental_overhead)
        };
        if let (Some(trad), Some(lossless), Some(lossy)) =
            (find("traditional"), find("lossless"), find("lossy"))
        {
            let vs_trad = 100.0 * (trad - lossy) / trad.max(f64::MIN_POSITIVE);
            let vs_lossless = 100.0 * (lossless - lossy) / lossless.max(f64::MIN_POSITIVE);
            println!(
                "  {kind:>7}: {vs_trad:.0}% vs traditional, {vs_lossless:.0}% vs lossless \
                 (paper: 23–70% and 20–58% across the three solvers)"
            );
        }
    }
    print_json("figure10", &all);
}
