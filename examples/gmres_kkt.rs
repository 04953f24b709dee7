//! GMRES with a Jacobi preconditioner on a symmetric-indefinite KKT
//! (saddle-point) system — the Figure 3 workload — under the Theorem-3
//! adaptive lossy checkpointing policy.
//!
//! ```bash
//! cargo run --release --example gmres_kkt
//! ```

use lossy_ckpt::ckpt::{ClusterConfig, PfsModel};
use lossy_ckpt::core::runner::{FaultTolerantRunner, RunConfig};
use lossy_ckpt::core::strategy::CheckpointStrategy;
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::solvers::SolverKind;

fn main() {
    // The synthetic stand-in for SuiteSparse KKT240 (see DESIGN.md): a
    // saddle-point system [[H, Aᵀ], [A, −δI]] that is symmetric and
    // indefinite, which is what makes GMRES + Jacobi the right pairing.
    let workload = PaperWorkload::kkt(4096, 8);
    let problem = workload.build();
    println!(
        "KKT system: {} unknowns locally, accounted as {} unknowns over {} ranks",
        problem.system.dim(),
        problem.paper_global_unknowns,
        problem.processes
    );

    // Failure-free reference.
    let mut reference = workload.build_solver(&problem, SolverKind::Gmres, 500_000);
    reference.run_to_convergence();
    println!(
        "failure-free GMRES(30): {} iterations, final residual {:.3e}",
        reference.iteration(),
        reference.residual_norm()
    );

    // Lossy-checkpointed run with failures every ~10 minutes of simulated
    // time and the Theorem-3 adaptive error bound.
    let mut solver = workload.build_solver(&problem, SolverKind::Gmres, 500_000);
    let mut config =
        RunConfig::baseline(ClusterConfig::bebop_like(4096, 1.2), PfsModel::bebop_like());
    config.strategy = CheckpointStrategy::lossy_gmres();
    config.checkpoint_interval_iterations = 25;
    config.mtti_seconds = 600.0;
    config.failure_seed = Some(99);
    config.max_failures = 100;
    config.max_executed_iterations = 500_000;
    let report = FaultTolerantRunner::new(config).run(solver.as_mut(), &problem);

    println!("\n--- lossy-checkpointed run ---");
    println!("iterations to converge:  {}", report.convergence_iterations);
    println!(
        "extra vs failure-free:   {} (paper/Theorem 3: ≈0 for GMRES)",
        report
            .convergence_iterations
            .saturating_sub(reference.iteration())
    );
    println!("failures / recoveries:   {} / {}", report.failures, report.recoveries);
    println!("checkpoints taken:       {}", report.checkpoints_taken);
    println!("mean compression ratio:  {:.1}x", report.mean_compression_ratio);
    println!(
        "fault-tolerance overhead: {:.1} s ({:.1}%)",
        report.overhead_seconds,
        report.overhead_ratio() * 100.0
    );

    let rel_residual = problem
        .system
        .a
        .residual(solver.solution(), &problem.system.b)
        .norm2()
        / problem.system.b.norm2();
    println!("final relative residual: {rel_residual:.3e}");
    // GMRES stops on the left-preconditioned residual ‖M⁻¹(b − Ax)‖ (the
    // PETSc default the paper inherits), so that is the quantity held to the
    // paper's 7e-5 tolerance; with the Jacobi preconditioner on an
    // indefinite KKT diagonal the *true* relative residual lands around
    // 1e-2 — the same contract lcr-core's workload tests assert.
    let precond_rel = solver.residual_norm() / solver.reference_norm();
    println!("preconditioned rel residual: {precond_rel:.3e}");
    assert!(
        precond_rel < 1e-4,
        "GMRES failed to reach the preconditioned tolerance: {precond_rel:.3e}"
    );
    assert!(rel_residual < 1e-2, "GMRES failed to reach the tolerance");
}
