//! The Jacobi method, the paper's representative of the stationary
//! methods.
//!
//! Section 4.4.1 of the paper analyses the impact of lossy checkpointing on
//! stationary methods through the contraction `‖x⁽ⁱ⁾ − x*‖ ≈ Rⁱ‖x*‖` of the
//! iteration `x⁽ⁱ⁾ = G x⁽ⁱ⁻¹⁾ + c`, where `R` is the spectral radius of the
//! iteration matrix `G`; for Jacobi, `G = I − D⁻¹A`.
//!
//! Each step performs one sweep.  The residual is recomputed as
//! `r = b − A x` (a *recomputed variable* in the paper's classification),
//! fused into one traversal by [`Space::residual_norm2`], and only `x` and
//! the iteration counter are dynamic state.  The sweep reads only the
//! previous iterate, so rows are independent: it is an operation of the
//! [`Space`] ([`Space::jacobi_sweep`]) and runs on the whole system or on
//! one shard of it.

use crate::convergence::StoppingCriteria;
use crate::progress::Progress;
use crate::space::{LocalSpace, Space};
use crate::{DynamicState, LinearSystem, StateView};
use lcr_sparse::Vector;

/// The Jacobi method on any [`Space`] ([`LocalSpace`] unless named
/// otherwise).
#[derive(Clone)]
pub struct Jacobi<S = LocalSpace> {
    space: S,
    state: Progress,
    /// The next iterate during a sweep, the residual between sweeps.
    scratch: Vector,
}

impl Jacobi {
    /// Creates a Jacobi solver on the whole `system`.
    ///
    /// # Panics
    /// Panics if the matrix has a zero diagonal entry or on dimension
    /// mismatch.
    pub fn new(system: LinearSystem, x0: Vector, criteria: StoppingCriteria) -> Self {
        system
            .a
            .require_nonzero_diagonal()
            .expect("Jacobi needs a non-zero diagonal");
        let Ok(solver) = Self::on(LocalSpace::unpreconditioned(system), Some(x0), criteria);
        solver
    }
}

impl<S: Space> Jacobi<S> {
    /// Creates a Jacobi solver on `space`, starting from `x0` (`None`: the
    /// zero guess, which needs no operator application).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn on(
        mut space: S,
        x0: Option<Vector>,
        criteria: StoppingCriteria,
    ) -> Result<Self, S::Error> {
        let (state, scratch, _) = Progress::start(&mut space, x0, criteria)?;
        Ok(Jacobi {
            space,
            state,
            scratch,
        })
    }
}

impl<S: Space> crate::TryIterativeMethod for Jacobi<S> {
    type Error = S::Error;

    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn progress(&self) -> &Progress {
        &self.state
    }

    fn progress_mut(&mut self) -> &mut Progress {
        &mut self.state
    }

    fn try_step(&mut self) -> Result<(), S::Error> {
        if self.state.converged() {
            return Ok(());
        }
        self.space.jacobi_sweep(&self.state.x, &mut self.scratch)?;
        std::mem::swap(&mut self.state.x, &mut self.scratch);
        let rr = self
            .space
            .residual_norm2(&self.state.x, &mut self.scratch)?;
        self.state.accept(rr.sqrt());
        Ok(())
    }

    fn state_view(&self) -> StateView<'_> {
        StateView {
            iteration: self.state.iteration(),
            scalars: Vec::new(),
            vectors: vec![("x".into(), self.state.x.as_slice().into())],
        }
    }

    fn try_restore_state(&mut self, state: &DynamicState) -> Result<(), S::Error> {
        self.state.x = state
            .vector("x")
            .expect("Jacobi checkpoint must contain x")
            .clone();
        self.try_restart(state.iteration)
    }

    fn try_restart(&mut self, iteration: usize) -> Result<(), S::Error> {
        // No recurrence state beyond x: recovery is recomputing the
        // residual from the restored solution.
        self.state.restarted(iteration);
        let rr = self
            .space
            .residual_norm2(&self.state.x, &mut self.scratch)?;
        self.state.residual_norm = rr.sqrt();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterativeMethod;
    use lcr_sparse::poisson::{manufactured_rhs, poisson2d, poisson3d};

    fn criteria(rtol: f64) -> StoppingCriteria {
        StoppingCriteria::new(rtol, 100_000)
    }

    fn poisson2d_system(n: usize) -> (LinearSystem, Vector) {
        let a = poisson2d(n);
        let (xstar, b) = manufactured_rhs(&a);
        (LinearSystem::new(a, b), xstar)
    }

    #[test]
    fn jacobi_converges_on_poisson2d() {
        let (sys, xstar) = poisson2d_system(8);
        let mut solver = Jacobi::new(sys, Vector::zeros(64), criteria(1e-8));
        let iters = solver.run_to_convergence();
        assert!(iters > 0);
        assert!(solver.converged());
        assert!(!solver.history().limit_reached);
        assert!(solver.solution().max_abs_diff(&xstar) < 1e-5);
        assert_eq!(solver.name(), "jacobi");
    }

    #[test]
    fn jacobi_on_poisson3d_paper_matrix() {
        let a = poisson3d(5);
        let (xstar, b) = manufactured_rhs(&a);
        let sys = LinearSystem::new(a, b);
        let n = sys.dim();
        let mut solver = Jacobi::new(sys, Vector::zeros(n), criteria(1e-10));
        solver.run_to_convergence();
        assert!(solver.solution().max_abs_diff(&xstar) < 1e-6);
    }

    #[test]
    fn residual_decreases_monotonically_for_jacobi_on_poisson() {
        let (sys, _) = poisson2d_system(6);
        let n = sys.dim();
        let mut solver = Jacobi::new(sys, Vector::zeros(n), criteria(1e-6));
        let mut prev = solver.residual_norm();
        for _ in 0..50 {
            solver.step();
            assert!(solver.residual_norm() <= prev * (1.0 + 1e-12));
            prev = solver.residual_norm();
        }
    }

    #[test]
    fn capture_restore_roundtrip_is_exact() {
        let (sys, _) = poisson2d_system(6);
        let n = sys.dim();
        let mut solver = Jacobi::new(sys.clone(), Vector::zeros(n), criteria(1e-12));
        for _ in 0..20 {
            solver.step();
        }
        let state = solver.capture_state();
        assert_eq!(state.iteration, 20);

        // Run the original forward as the reference.
        let mut reference = solver.clone();
        for _ in 0..10 {
            reference.step();
        }

        // Restore a fresh solver from the checkpoint: it must follow the
        // exact same trajectory (traditional checkpointing is exact).
        let mut restored = Jacobi::new(sys, Vector::zeros(n), criteria(1e-12));
        restored.restore_state(&state);
        assert_eq!(restored.iteration(), 20);
        for _ in 0..10 {
            restored.step();
        }
        assert!(restored
            .solution()
            .max_abs_diff(reference.solution())
            .abs()
            < 1e-15);
    }

    #[test]
    fn lossy_restart_still_converges_to_same_tolerance() {
        let (sys, xstar) = poisson2d_system(8);
        let n = sys.dim();
        let mut solver = Jacobi::new(sys, Vector::zeros(n), criteria(1e-8));
        for _ in 0..30 {
            solver.step();
        }
        // Perturb the solution like a lossy decompression with a relative
        // error bound of 1e-4 would.
        let mut x = solver.solution().clone();
        for (i, v) in x.iter_mut().enumerate() {
            *v *= 1.0 + 1e-4 * if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        solver.restart_from_solution(x, 30);
        solver.run_to_convergence();
        assert!(solver.converged());
        assert!(solver.solution().max_abs_diff(&xstar) < 1e-4);
        assert_eq!(solver.history().restarts(), &[30]);
    }

    #[test]
    fn spectral_radius_estimate_is_below_one() {
        let (sys, _) = poisson2d_system(8);
        let n = sys.dim();
        let mut solver = Jacobi::new(sys, Vector::zeros(n), criteria(1e-10));
        solver.run_to_convergence();
        let r = solver.history().contraction_factor().unwrap();
        assert!(r > 0.0 && r < 1.0, "estimated R = {r}");
    }

    #[test]
    fn iteration_limit_reported() {
        let (sys, _) = poisson2d_system(8);
        let n = sys.dim();
        let mut solver = Jacobi::new(sys, Vector::zeros(n), StoppingCriteria::new(1e-14, 5));
        solver.run_to_convergence();
        assert_eq!(solver.iteration(), 5);
        assert!(solver.history().limit_reached);
        // Further steps are no-ops.
        solver.step();
        assert_eq!(solver.iteration(), 5);
    }

    #[test]
    #[should_panic(expected = "x0 dimension mismatch")]
    fn dimension_mismatch_panics() {
        let (sys, _) = poisson2d_system(4);
        let _ = Jacobi::new(sys, Vector::zeros(3), criteria(1e-6));
    }
}
