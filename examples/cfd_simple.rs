//! A SIMPLE-style pressure-correction loop (the CFD motivation of the
//! paper's introduction) with lossy checkpointing of the pressure solve.
//!
//! The introduction of the paper motivates lossy checkpointing with 3-D CFD
//! codes using the SIMPLE algorithm, where the pressure-Poisson solve inside
//! every outer iteration dominates both runtime and checkpoint volume.  This
//! example builds a small 2-D lid-driven-cavity-like pressure-correction
//! loop: each outer step assembles a Poisson right-hand side from the
//! current velocity divergence, solves it with CG under lossy
//! checkpointing, and relaxes the velocity field with the pressure
//! gradient.  Failures are injected during the pressure solves.
//!
//! ```bash
//! cargo run --release --example cfd_simple
//! ```

use lossy_ckpt::ckpt::{CheckpointLevel, ClusterConfig, PfsModel};
use lossy_ckpt::core::runner::{ExecutionBackend, FaultTolerantRunner, Persistence, RunConfig};
use lossy_ckpt::core::strategy::CheckpointStrategy;
use lossy_ckpt::core::workload::{PaperWorkload, ScaledProblem};
use lossy_ckpt::solvers::{ConjugateGradient, IterativeMethod, LinearSystem, StoppingCriteria};
use lossy_ckpt::sparse::poisson::poisson2d;
use lossy_ckpt::sparse::Vector;

/// Grid edge of the cavity.
const N: usize = 24;
/// Number of outer SIMPLE iterations.
const OUTER_STEPS: usize = 8;
/// Under-relaxation factor for the velocity update.
const ALPHA_U: f64 = 0.7;

/// Builds the SPD pressure-Poisson matrix for the cavity.
fn pressure_matrix() -> LinearSystem {
    // SPD sign convention for CG.
    let a = poisson2d(N).negated();
    LinearSystem::new(a, Vector::zeros(N * N))
}

/// Central-difference divergence of the (u, v) velocity field.
fn divergence(u: &Vector, v: &Vector) -> Vector {
    let idx = |i: usize, j: usize| j * N + i;
    let mut div = Vector::zeros(N * N);
    for j in 0..N {
        for i in 0..N {
            let dudx = if i + 1 < N && i > 0 {
                (u[idx(i + 1, j)] - u[idx(i - 1, j)]) * 0.5
            } else {
                0.0
            };
            let dvdy = if j + 1 < N && j > 0 {
                (v[idx(i, j + 1)] - v[idx(i, j - 1)]) * 0.5
            } else {
                0.0
            };
            div[idx(i, j)] = dudx + dvdy;
        }
    }
    div
}

/// Corrects the velocity with the pressure gradient (projection step).
fn correct_velocity(u: &mut Vector, v: &mut Vector, p: &Vector) {
    let idx = |i: usize, j: usize| j * N + i;
    for j in 1..N - 1 {
        for i in 1..N - 1 {
            let dpdx = (p[idx(i + 1, j)] - p[idx(i - 1, j)]) * 0.5;
            let dpdy = (p[idx(i, j + 1)] - p[idx(i, j - 1)]) * 0.5;
            u[idx(i, j)] -= ALPHA_U * dpdx;
            v[idx(i, j)] -= ALPHA_U * dpdy;
        }
    }
}

fn main() {
    // Lid-driven cavity initial condition: the top lid moves with u = 1.
    let idx = |i: usize, j: usize| j * N + i;
    let mut u = Vector::zeros(N * N);
    let mut v = Vector::zeros(N * N);
    for i in 0..N {
        u[idx(i, N - 1)] = 1.0;
    }

    // Checkpoint accounting mirrors a 1,024-rank production run.
    let accounting: ScaledProblem = PaperWorkload::poisson(1024, 10).build();
    let cluster = ClusterConfig::bebop_like(1024, 0.8);
    let pfs = PfsModel::bebop_like();

    let mut total_pressure_iters = 0usize;
    let mut total_failures = 0usize;
    let mut total_overhead = 0.0f64;

    println!("SIMPLE-style pressure-correction loop, {N}x{N} cavity, {OUTER_STEPS} outer steps\n");
    for outer in 0..OUTER_STEPS {
        // Pressure-Poisson equation: ∇²p' = ∇·u (discretised, SPD sign).
        let system = pressure_matrix();
        let rhs = divergence(&u, &v);
        let system = LinearSystem::new((*system.a).clone(), rhs);
        let mut solver = ConjugateGradient::unpreconditioned(
            system,
            Vector::zeros(N * N),
            StoppingCriteria::new(1e-6, 100_000),
        );

        let report = FaultTolerantRunner::new(RunConfig {
            strategy: CheckpointStrategy::lossy_default(),
            checkpoint_interval_iterations: 10,
            anchor_interval_snapshots: 0,
            cluster,
            pfs,
            level: CheckpointLevel::Pfs,
            mtti_seconds: 120.0,
            failure_seed: Some(1000 + outer as u64),
            max_failures: 20,
            max_executed_iterations: 100_000,
            num_threads: 0,
            persistence: Persistence::InMemory,
            backend: ExecutionBackend::Simulated,
        })
        .run(&mut solver, &accounting);

        let p = solver.solution().clone();
        correct_velocity(&mut u, &mut v, &p);
        let div_norm = divergence(&u, &v).norm2();
        total_pressure_iters += report.convergence_iterations;
        total_failures += report.failures;
        total_overhead += report.overhead_seconds;
        println!(
            "outer {outer:>2}: pressure solve {:>4} iters, {} failure(s), overhead {:>7.1} s, |div u| = {:.3e}",
            report.convergence_iterations, report.failures, report.overhead_seconds, div_norm
        );
    }

    println!(
        "\ntotals: {} pressure iterations, {} failures survived, {:.1} s simulated \
         fault-tolerance overhead",
        total_pressure_iters, total_failures, total_overhead
    );
    // The projection loop must reduce the divergence of the velocity field.
    let final_div = divergence(&u, &v).norm2();
    assert!(final_div.is_finite());
    println!("final |div u| = {final_div:.3e} (driven cavity, top lid u = 1)");
}
