//! BiCGStab (biconjugate gradient stabilised) solver.
//!
//! Not evaluated in the paper's experiments but included because it is one
//! of the standard Krylov methods PETSc users run on nonsymmetric systems,
//! and because it exercises the lossy checkpointing scheme on a method
//! whose recurrence state (`r̂₀`, `p`, `v`, scalars) is larger than CG's —
//! making the restart-style recovery (only `x` checkpointed) an even bigger
//! storage win.

use crate::convergence::StoppingCriteria;
use crate::precond::Preconditioner;
use crate::progress::Progress;
use crate::space::{LocalSpace, Space};
use crate::{DynamicState, LinearSystem};
use lcr_sparse::Vector;
use std::sync::Arc;

/// Preconditioned BiCGStab solver on any [`Space`] ([`LocalSpace`] unless
/// named otherwise).
///
/// The inner loop runs on the fused operations of the space: the direction
/// refresh `p = r + β (p − ω v)` is one pass
/// ([`Space::bicgstab_p_update`]), `v = A p̂` carries the `r̂ᵀv` dot
/// ([`Space::apply_dot`]), the `s` and `r` updates return their norms in
/// the producing pass ([`Space::waxpy_norm2`]), the stabilisation pair
/// `(tᵀt, tᵀs)` is one reduction ([`Space::dot2`]) and the solution update
/// folds both axpys into one pass ([`Space::axpy2`]).
pub struct BiCgStab<S = LocalSpace> {
    space: S,
    state: Progress,
    r: Vector,
    r_hat: Vector,
    p: Vector,
    v: Vector,
    /// Preallocated scratch (`M⁻¹p`, `s`, `M⁻¹s`, `As_hat`) so the inner
    /// loop performs no per-iteration allocations.
    p_hat: Vector,
    s: Vector,
    s_hat: Vector,
    t: Vector,
    rho: f64,
    alpha: f64,
    omega: f64,
}

impl BiCgStab {
    /// Creates a preconditioned BiCGStab solver.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn new(
        system: LinearSystem,
        precond: Arc<dyn Preconditioner>,
        x0: Vector,
        criteria: StoppingCriteria,
    ) -> Self {
        let Ok(solver) = Self::on(LocalSpace::new(system, precond), Some(x0), criteria);
        solver
    }

    /// Creates an unpreconditioned BiCGStab solver.
    pub fn unpreconditioned(system: LinearSystem, x0: Vector, criteria: StoppingCriteria) -> Self {
        let Ok(solver) = Self::on(LocalSpace::unpreconditioned(system), Some(x0), criteria);
        solver
    }
}

impl<S: Space> BiCgStab<S> {
    /// Creates a BiCGStab solver on `space`, starting from `x0` (`None`:
    /// the zero guess, which needs no operator application).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn on(
        mut space: S,
        x0: Option<Vector>,
        criteria: StoppingCriteria,
    ) -> Result<Self, S::Error> {
        let (state, r, _) = Progress::start(&mut space, x0, criteria)?;
        let n = r.len();
        Ok(BiCgStab {
            space,
            state,
            r_hat: r.clone(),
            r,
            p: Vector::zeros(n),
            v: Vector::zeros(n),
            p_hat: Vector::zeros(n),
            s: Vector::zeros(n),
            s_hat: Vector::zeros(n),
            t: Vector::zeros(n),
            rho: 1.0,
            alpha: 1.0,
            omega: 1.0,
        })
    }

    fn rebuild_from_x(&mut self) -> Result<(), S::Error> {
        let rr = self.space.residual_norm2(&self.state.x, &mut self.r)?;
        self.state.residual_norm = rr.sqrt();
        self.r_hat.copy_from(&self.r);
        self.p.set_zero();
        self.v.set_zero();
        self.rho = 1.0;
        self.alpha = 1.0;
        self.omega = 1.0;
        Ok(())
    }

    /// Breakdown (`r̂ᵀr` or `r̂ᵀv` vanished): restart from the current
    /// solution.
    fn break_down(&mut self) -> Result<(), S::Error> {
        if self.state.break_down() {
            self.rebuild_from_x()?;
        }
        Ok(())
    }
}

impl<S: Space> crate::TryIterativeMethod for BiCgStab<S> {
    type Error = S::Error;

    fn name(&self) -> &'static str {
        "bicgstab"
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
        let rho_next = self.space.dot(&self.r_hat, &self.r)?;
        if rho_next == 0.0 || !rho_next.is_finite() {
            return self.break_down();
        }
        let beta = (rho_next / self.rho) * (self.alpha / self.omega);
        self.rho = rho_next;
        // p = r + beta (p - omega v) in one fused pass.
        self.space
            .bicgstab_p_update(&mut self.p, &self.r, &self.v, beta, self.omega);

        // With M = I, p̂ = p and ŝ = s: no copies.
        let p_hat = match self.space.precond() {
            None => &self.p,
            Some(m) => {
                m.apply_into(&self.p, &mut self.p_hat);
                &self.p_hat
            }
        };
        // v = A p_hat and r_hat'v in one application.
        let denom = self.space.apply_dot(p_hat, &mut self.v, &self.r_hat)?;
        if denom == 0.0 || !denom.is_finite() {
            return self.break_down();
        }
        self.alpha = self.rho / denom;
        // s = r - alpha v and ||s||^2 in the producing pass.
        let ss = self
            .space
            .waxpy_norm2(&mut self.s, &self.r, -self.alpha, &self.v)?;
        if ss.sqrt() <= self.state.criteria.atol {
            // Exact first half-step: accept x += α p̂ (the ω = 0 form of
            // the full update) and end the iteration early.
            self.space
                .axpy2(&mut self.state.x, self.alpha, p_hat, 0.0, p_hat);
            self.r.copy_from(&self.s);
            self.state.accept(ss.sqrt());
            return Ok(());
        }
        let s_hat = match self.space.precond() {
            None => &self.s,
            Some(m) => {
                m.apply_into(&self.s, &mut self.s_hat);
                &self.s_hat
            }
        };
        self.space.apply(s_hat, &mut self.t)?;
        // Stabilisation pair (t't, t's) over the shared operand t, fused.
        let (tt, ts) = self.space.dot2(&self.t, &self.t, &self.s)?;
        self.omega = if tt > 0.0 { ts / tt } else { 0.0 };
        // x += alpha p_hat + omega s_hat in one pass.
        self.space
            .axpy2(&mut self.state.x, self.alpha, p_hat, self.omega, s_hat);
        // r = s - omega t and ||r||^2 in the producing pass.
        let rr = self
            .space
            .waxpy_norm2(&mut self.r, &self.s, -self.omega, &self.t)?;
        self.state.accept(rr.sqrt());
        if self.omega == 0.0 {
            self.state.restarted(self.state.iteration());
            self.rebuild_from_x()?;
        }
        Ok(())
    }

    fn capture_state(&self) -> DynamicState {
        DynamicState {
            iteration: self.state.iteration(),
            scalars: vec![
                ("rho".to_string(), self.rho),
                ("alpha".to_string(), self.alpha),
                ("omega".to_string(), self.omega),
            ],
            vectors: vec![
                ("x".to_string(), self.state.x.clone()),
                ("p".to_string(), self.p.clone()),
                ("v".to_string(), self.v.clone()),
                ("r_hat".to_string(), self.r_hat.clone()),
            ],
        }
    }

    fn try_restore_state(&mut self, state: &DynamicState) -> Result<(), S::Error> {
        self.state.x = state
            .vector("x")
            .expect("BiCGStab checkpoint must contain x")
            .clone();
        self.p = state.vector("p").expect("missing p").clone();
        self.v = state.vector("v").expect("missing v").clone();
        self.r_hat = state.vector("r_hat").expect("missing r_hat").clone();
        self.rho = state.scalar("rho").expect("missing rho");
        self.alpha = state.scalar("alpha").expect("missing alpha");
        self.omega = state.scalar("omega").expect("missing omega");
        self.state.restarted(state.iteration);
        let rr = self.space.residual_norm2(&self.state.x, &mut self.r)?;
        self.state.residual_norm = rr.sqrt();
        Ok(())
    }

    fn try_restart(&mut self, iteration: usize) -> Result<(), S::Error> {
        self.state.restarted(iteration);
        self.rebuild_from_x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterativeMethod;
    use lcr_sparse::poisson::{manufactured_rhs, poisson2d};

    fn criteria(rtol: f64) -> StoppingCriteria {
        StoppingCriteria::new(rtol, 20_000)
    }

    fn nonsymmetric_system(n: usize) -> (LinearSystem, Vector) {
        let mut a = poisson2d(n);
        let dim = a.nrows();
        {
            let indptr = a.indptr().to_vec();
            let indices = a.indices().to_vec();
            let values = a.values_mut();
            for i in 0..dim {
                for k in indptr[i]..indptr[i + 1] {
                    if indices[k] == i + 1 {
                        values[k] += 0.4;
                    }
                }
            }
        }
        let (xstar, b) = manufactured_rhs(&a);
        (LinearSystem::new(a, b), xstar)
    }

    #[test]
    fn bicgstab_converges_on_nonsymmetric_system() {
        let (sys, xstar) = nonsymmetric_system(8);
        let n = sys.dim();
        let mut solver = BiCgStab::unpreconditioned(sys, Vector::zeros(n), criteria(1e-10));
        solver.run_to_convergence();
        assert!(solver.converged());
        assert!(solver.solution().max_abs_diff(&xstar) < 1e-5);
        assert_eq!(solver.name(), "bicgstab");
    }

    #[test]
    fn bicgstab_converges_on_symmetric_poisson() {
        let a = poisson2d(8);
        let (xstar, b) = manufactured_rhs(&a);
        let sys = LinearSystem::new(a, b);
        let n = sys.dim();
        let mut solver = BiCgStab::unpreconditioned(sys, Vector::zeros(n), criteria(1e-10));
        solver.run_to_convergence();
        assert!(solver.solution().max_abs_diff(&xstar) < 1e-5);
    }

    #[test]
    fn capture_restore_roundtrip() {
        let (sys, _) = nonsymmetric_system(6);
        let n = sys.dim();
        let mut solver =
            BiCgStab::unpreconditioned(sys.clone(), Vector::zeros(n), criteria(1e-12));
        for _ in 0..5 {
            solver.step();
        }
        let state = solver.capture_state();
        assert_eq!(state.vectors.len(), 4);
        let mut restored = BiCgStab::unpreconditioned(sys, Vector::zeros(n), criteria(1e-12));
        restored.restore_state(&state);
        assert_eq!(restored.iteration(), 5);
        // Both continue and converge.
        solver.run_to_convergence();
        restored.run_to_convergence();
        assert!(restored.converged());
        assert!(restored.solution().max_abs_diff(solver.solution()) < 1e-6);
    }

    #[test]
    fn lossy_restart_converges() {
        let (sys, xstar) = nonsymmetric_system(8);
        let n = sys.dim();
        let mut solver = BiCgStab::unpreconditioned(sys, Vector::zeros(n), criteria(1e-10));
        for _ in 0..10 {
            solver.step();
        }
        let mut x = solver.solution().clone();
        for (i, v) in x.iter_mut().enumerate() {
            *v *= 1.0 + 1e-4 * if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        solver.restart_from_solution(x, 10);
        solver.run_to_convergence();
        assert!(solver.converged());
        assert!(solver.solution().max_abs_diff(&xstar) < 1e-4);
        assert!(!solver.history().restarts().is_empty());
    }
}
