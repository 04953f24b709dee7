//! Absolute goldens of the preconditioned Krylov paths the benchmark runs:
//! `PaperWorkload::build_solver` with block Jacobi (16 blocks, ILU(0)
//! inside) under CG and GMRES(30) on the manufactured-solution Poisson
//! systems at 12³ / 40³ / 48³.  Iteration count, residual-trace bits and
//! final-solution bits are pinned, so any change to the factorisation or
//! the triangular sweeps that moves one bit fails here.

use lossy_ckpt::core::PaperWorkload;
use lossy_ckpt::solvers::SolverKind;

/// Order-sensitive bit fingerprint (same fold as `tests/fused_kernels.rs`).
fn fingerprint(values: &[f64]) -> u64 {
    values
        .iter()
        .fold(0u64, |h, v| h.rotate_left(13) ^ v.to_bits())
}

/// `(iterations, trace fingerprint, solution fingerprint)` of one solve.
fn solve(edge: usize, kind: SolverKind) -> (usize, u64, u64) {
    let workload = PaperWorkload::poisson(256, edge);
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, kind, 10_000);
    solver.run_to_convergence();
    assert!(solver.converged(), "{kind:?} at {edge}^3 did not converge");
    (
        solver.iteration(),
        fingerprint(solver.history().residuals()),
        fingerprint(solver.solution().as_slice()),
    )
}

/// Solves at 12³ / 40³ / 48³ and compares all three results at once, so a
/// failure prints every observed value.
fn assert_pinned(kind: SolverKind, golden: [(usize, u64, u64); 3]) {
    let got = [12, 40, 48].map(|edge| solve(edge, kind));
    assert_eq!(
        got, golden,
        "{kind:?}+bjacobi(16) at 12^3/40^3/48^3: {got:#x?}"
    );
}

#[test]
fn block_jacobi_cg_iterations_trace_and_solution_are_pinned() {
    assert_pinned(
        SolverKind::Cg,
        [
            (29, 0xd2432dc9d5656b9d, 0xd782cba84c887769),
            (61, 0xba7454c7278d2b08, 0x82edaaba9db7620e),
            (66, 0x2faca99240a9fe67, 0xe84d879ecf708b31),
        ],
    );
}

#[test]
fn block_jacobi_gmres_iterations_trace_and_solution_are_pinned() {
    assert_pinned(
        SolverKind::Gmres,
        [
            (18, 0x18b29f50e0805883, 0xfae27bd9b3fd644f),
            (40, 0x2c9ed0a668171870, 0xa10567a08fb2920d),
            (44, 0x644a360aa0b7e446, 0xbc519d805c00bdd6),
        ],
    );
}
