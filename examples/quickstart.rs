//! Quickstart: solve a 3-D Poisson system with the conjugate gradient
//! method under lossy checkpointing, with failures injected on the
//! simulated cluster.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use lossy_ckpt::ckpt::{ClusterConfig, PfsModel};
use lossy_ckpt::core::runner::{FaultTolerantRunner, RunConfig};
use lossy_ckpt::core::strategy::CheckpointStrategy;
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::solvers::SolverKind;

fn main() {
    // 1. Build the paper's workload: the 3-D Poisson system of Equation 15,
    //    sized for this host but accounted (for checkpoint I/O) as if it
    //    were the 2,048-process weak-scaling configuration of Table 3.
    let workload = PaperWorkload::poisson(2048, 12);
    let problem = workload.build();
    println!(
        "Local system: {} unknowns ({} non-zeros); paper-scale system: {} unknowns over {} ranks",
        problem.system.dim(),
        problem.system.a.nnz(),
        problem.paper_global_unknowns,
        problem.processes
    );

    // 2. Build the solver the paper evaluates (CG at rtol 1e-7 with a
    //    block-Jacobi/ILU(0) preconditioner).
    let mut solver = workload.build_solver(&problem, SolverKind::Cg, 500_000);

    // 3. Configure the fault-tolerant run: lossy (SZ, 1e-4 relative bound)
    //    checkpoints every 20 iterations, failures with a 30-minute MTTI on
    //    the simulated Bebop-like cluster.
    let mut config =
        RunConfig::baseline(ClusterConfig::bebop_like(2048, 0.9), PfsModel::bebop_like());
    config.strategy = CheckpointStrategy::lossy_default();
    config.checkpoint_interval_iterations = 20;
    config.mtti_seconds = 1800.0;
    config.failure_seed = Some(42);
    config.max_failures = 100;
    config.max_executed_iterations = 500_000;

    // 4. Run and report.
    let report = FaultTolerantRunner::new(config).run(solver.as_mut(), &problem);
    println!("\n--- run report ---");
    println!("strategy:                {}", report.strategy);
    println!("convergence iterations:  {}", report.convergence_iterations);
    println!("executed iterations:     {}", report.executed_iterations);
    println!("checkpoints taken:       {}", report.checkpoints_taken);
    println!("failures / recoveries:   {} / {}", report.failures, report.recoveries);
    println!("mean compression ratio:  {:.1}x", report.mean_compression_ratio);
    println!("total simulated time:    {:.1} s", report.total_seconds);
    println!("productive time:         {:.1} s", report.productive_seconds);
    println!(
        "fault-tolerance overhead: {:.1} s ({:.1}% of productive time)",
        report.overhead_seconds,
        report.overhead_ratio() * 100.0
    );

    // 5. Validate the final answer against the manufactured exact solution.
    let err = solver.solution().max_abs_diff(&problem.exact_solution);
    println!("max |x - x*| = {err:.3e}");
    assert!(err < 1e-3, "solution accuracy degraded beyond tolerance");
    println!("solution verified against the exact manufactured solution ✔");
}
