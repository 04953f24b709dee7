//! Starting from the zero guess: a solver built with `x0 = None` skips the
//! residual against zero that `Some(zeros)` computes, and must take the
//! very same steps — `b − A·0` is `b` bit for bit, because every SpMV row
//! sum starts from `+0.0`.

use std::sync::Arc;

use lcr_solvers::{
    BlockJacobiPreconditioner, ConjugateGradient, Gmres, Jacobi, LinearSystem, LocalSpace,
    Preconditioner, StoppingCriteria, TryIterativeMethod,
};
use lcr_sparse::poisson::{manufactured_rhs, poisson3d};
use lcr_sparse::Vector;

const STEPS: usize = 25;

/// 8³ Poisson (the paper's negative-definite matrix) with a manufactured
/// right-hand side.
fn system() -> LinearSystem {
    let a = poisson3d(8);
    let (_, b) = manufactured_rhs(&a);
    LinearSystem::new(a, b)
}

fn space(preconditioned: bool) -> LocalSpace {
    let sys = system();
    if preconditioned {
        let precond: Arc<dyn Preconditioner> =
            Arc::new(BlockJacobiPreconditioner::new(&sys.a, 16).unwrap());
        LocalSpace::new(sys, precond)
    } else {
        LocalSpace::unpreconditioned(sys)
    }
}

/// The bits of everything `solver` reports after [`STEPS`] steps: the
/// reference and initial residual norms, the residual history and `x`.
fn trace(mut solver: impl TryIterativeMethod<Error = std::convert::Infallible>) -> Vec<u64> {
    for _ in 0..STEPS {
        let Ok(()) = solver.try_step();
    }
    let progress = solver.progress();
    let history = progress.history();
    let mut bits = vec![progress.reference_norm().to_bits(), history.initial_residual().to_bits()];
    bits.extend(history.residuals().iter().map(|r| r.to_bits()));
    bits.extend(progress.solution().as_slice().iter().map(|v| v.to_bits()));
    bits
}

#[test]
fn every_method_steps_the_same_bits_from_none_as_from_zeros() {
    let criteria = StoppingCriteria::new(1e-300, 10_000);
    let zeros = || Some(Vector::zeros(system().dim()));
    let cases = [
        (
            "cg",
            trace(ConjugateGradient::on(space(true), zeros(), criteria).unwrap()),
            trace(ConjugateGradient::on(space(true), None, criteria).unwrap()),
        ),
        (
            "gmres",
            trace(Gmres::on(space(true), zeros(), 10, criteria).unwrap()),
            trace(Gmres::on(space(true), None, 10, criteria).unwrap()),
        ),
        (
            "jacobi",
            trace(Jacobi::on(space(false), zeros(), criteria).unwrap()),
            trace(Jacobi::on(space(false), None, criteria).unwrap()),
        ),
    ];
    for (method, from_zeros, from_none) in cases {
        assert_eq!(from_zeros.len(), 2 + STEPS + system().dim(), "{method}");
        assert_eq!(from_zeros, from_none, "{method}");
    }
}
