//! Restarted generalized minimum residual method, GMRES(m).
//!
//! GMRES (Saad & Schultz, 1986) minimises the residual norm over a Krylov
//! subspace built by the Arnoldi process.  The paper always runs the
//! *restarted* variant GMRES(m) (PETSc's default `m = 30`), which is also
//! what makes lossy checkpointing cheap for it: the only dynamic variable
//! that must be saved is the solution vector `x`, because the Krylov basis
//! is discarded at every restart anyway (§4.4.2).  Theorem 3 shows that if
//! the compression error follows a relative bound of `O(‖r‖/‖b‖)` the
//! post-recovery residual stays on the same order, so `N′ ≈ 0` for GMRES.
//!
//! The implementation uses left preconditioning, the Arnoldi process with
//! modified Gram–Schmidt, and Givens rotations to maintain the residual
//! norm estimate cheaply.  One [`step`](crate::IterativeMethod::step)
//! performs one *inner* iteration (one new Krylov vector), which matches the
//! per-iteration checkpointing granularity used by the fault-tolerance
//! driver.

use crate::convergence::StoppingCriteria;
use crate::precond::{IdentityPreconditioner, Preconditioner};
use crate::progress::Progress;
use crate::{DynamicState, LinearSystem};
use lcr_sparse::{kernels, Vector};
use std::convert::Infallible;
use std::sync::Arc;

/// Restarted GMRES(m) solver.
pub struct Gmres {
    system: LinearSystem,
    precond: Arc<dyn Preconditioner>,
    restart: usize,
    /// The iterate, the stopping rule and the history; the residual it
    /// tracks is the left-preconditioned one, `‖M⁻¹(b − A x)‖`.
    state: Progress,
    /// Krylov basis vectors (up to `restart + 1`).
    basis: Vec<Vector>,
    /// Upper-Hessenberg matrix stored column-wise: `hessenberg[j]` holds
    /// column `j` (length `j + 2`).
    hessenberg: Vec<Vec<f64>>,
    /// Givens rotation cosines/sines.
    givens: Vec<(f64, f64)>,
    /// Right-hand side of the least-squares problem.
    g: Vec<f64>,
    /// Preallocated scratch for `A v_j` (also reused as the residual buffer
    /// at cycle starts).
    av: Vector,
    /// Preallocated scratch for the vector being orthogonalised,
    /// `w = M⁻¹ A v_j`; only cloned when it actually extends the basis.
    w: Vector,
    /// Inner iteration index within the current cycle.
    inner: usize,
}

impl Gmres {
    /// Creates a GMRES(m) solver with restart length `restart`.
    ///
    /// # Panics
    /// Panics if `restart == 0` or on dimension mismatch.
    pub fn new(
        system: LinearSystem,
        precond: Arc<dyn Preconditioner>,
        x0: Vector,
        restart: usize,
        criteria: StoppingCriteria,
    ) -> Self {
        assert!(restart > 0, "restart length must be positive");
        assert_eq!(x0.len(), system.dim(), "x0 dimension mismatch");
        let n = system.dim();
        let (mut av, mut w) = (Vector::zeros(n), Vector::zeros(n));
        // Left preconditioning: convergence is measured on M⁻¹(b − Ax).
        precond.apply_into(&system.b, &mut w);
        let reference_norm = w.norm2();
        let beta = left_residual(&system, precond.as_ref(), &x0, &mut av, &mut w);
        let mut solver = Gmres {
            system,
            precond,
            restart,
            state: Progress::new(x0, criteria, reference_norm, beta),
            basis: Vec::new(),
            hessenberg: Vec::new(),
            givens: Vec::new(),
            g: Vec::new(),
            av,
            w,
            inner: 0,
        };
        solver.open_basis(beta);
        solver
    }

    /// Creates an unpreconditioned GMRES(m) solver.
    pub fn unpreconditioned(
        system: LinearSystem,
        x0: Vector,
        restart: usize,
        criteria: StoppingCriteria,
    ) -> Self {
        Self::new(
            system,
            Arc::new(IdentityPreconditioner::new()),
            x0,
            restart,
            criteria,
        )
    }

    /// Starts a new outer cycle from the current `x`.
    fn begin_cycle(&mut self) {
        let (system, precond) = (&self.system, self.precond.as_ref());
        let beta = left_residual(system, precond, &self.state.x, &mut self.av, &mut self.w);
        self.state.residual_norm = beta;
        self.open_basis(beta);
    }

    /// Empties the cycle and opens the basis with `v0 = w / β`, where `w`
    /// holds the preconditioned residual and `β` its norm.
    fn open_basis(&mut self, beta: f64) {
        self.basis.clear();
        self.hessenberg.clear();
        self.givens.clear();
        self.g.clear();
        self.inner = 0;
        if beta > 0.0 {
            // v0 = w / beta written in one pass (no clone + rescale).
            let mut v0 = Vector::zeros(self.w.len());
            kernels::scale_into(v0.as_mut_slice(), 1.0 / beta, self.w.as_slice());
            self.basis.push(v0);
            self.g.push(beta);
        }
    }

    /// `x + Σ y_j v_j`, where `y` solves the `k×k` upper-triangular
    /// least-squares system `R y = g` of the current cycle.
    fn corrected(&self, mut x: Vector) -> Vector {
        let k = self.inner;
        let mut y = vec![0.0f64; k];
        for i in (0..k).rev() {
            let mut sum = self.g[i];
            for (j, yj) in y.iter().enumerate().take(k).skip(i + 1) {
                sum -= self.hessenberg[j][i] * yj;
            }
            y[i] = sum / self.hessenberg[i][i];
        }
        for (j, &yj) in y.iter().enumerate() {
            x.axpy(yj, &self.basis[j]);
        }
        x
    }

    /// True (unpreconditioned) residual norm of the current `x`.
    #[cfg(test)]
    fn true_residual_norm(&self) -> f64 {
        self.system
            .a
            .residual(&self.state.x, &self.system.b)
            .norm2()
    }
}

/// `w = M⁻¹(b − A x)` through the `av` scratch; returns `‖w‖`.
fn left_residual(
    system: &LinearSystem,
    precond: &dyn Preconditioner,
    x: &Vector,
    av: &mut Vector,
    w: &mut Vector,
) -> f64 {
    system
        .a
        .residual_into(x.as_slice(), system.b.as_slice(), av.as_mut_slice());
    precond.apply_into(av, w);
    w.norm2()
}

impl crate::TryIterativeMethod for Gmres {
    type Error = Infallible;

    fn name(&self) -> &'static str {
        "gmres"
    }

    fn progress(&self) -> &Progress {
        &self.state
    }

    fn progress_mut(&mut self) -> &mut Progress {
        &mut self.state
    }

    fn try_step(&mut self) -> Result<(), Infallible> {
        // An empty basis means a zero residual: the solve is exact.
        if self.state.converged() || self.basis.is_empty() {
            return Ok(());
        }

        let j = self.inner;
        // Arnoldi: w = M⁻¹ A v_j, computed in the preallocated scratch.
        self.system
            .a
            .spmv(self.basis[j].as_slice(), self.av.as_mut_slice());
        self.precond.apply_into(&self.av, &mut self.w);
        // Modified Gram–Schmidt.  The last projection is fused with the
        // norm of what remains: one pass instead of an axpy sweep followed
        // by a separate norm sweep.
        let mut h_col = Vec::with_capacity(j + 2);
        let mut w_norm2 = 0.0;
        for (i, vi) in self.basis.iter().take(j + 1).enumerate() {
            let hij = self.w.dot(vi);
            if i == j {
                w_norm2 = kernels::axpy_norm2(-hij, vi.as_slice(), self.w.as_mut_slice());
            } else {
                self.w.axpy(-hij, vi);
            }
            h_col.push(hij);
        }
        let h_next = w_norm2.sqrt();
        h_col.push(h_next);

        // Apply the accumulated Givens rotations to the new column.
        for (i, &(c, s)) in self.givens.iter().enumerate() {
            let temp = c * h_col[i] + s * h_col[i + 1];
            h_col[i + 1] = -s * h_col[i] + c * h_col[i + 1];
            h_col[i] = temp;
        }
        // New rotation eliminating h_col[j+1].
        let (c, s) = {
            let a = h_col[j];
            let b = h_col[j + 1];
            let denom = (a * a + b * b).sqrt();
            if denom == 0.0 {
                (1.0, 0.0)
            } else {
                (a / denom, b / denom)
            }
        };
        let rotated = c * h_col[j] + s * h_col[j + 1];
        h_col[j] = rotated;
        h_col[j + 1] = 0.0;
        self.givens.push((c, s));
        // Update g.
        let gj = self.g[j];
        self.g.push(-s * gj);
        self.g[j] = c * gj;

        self.hessenberg.push(h_col);
        self.inner += 1;
        self.state.accept(self.g[self.inner].abs());

        let happy_breakdown = h_next == 0.0;
        let cycle_full = self.inner == self.restart;
        if self.state.converged() || cycle_full || happy_breakdown {
            // Fold the accumulated correction into x and restart the cycle.
            let x = std::mem::take(&mut self.state.x);
            self.state.x = self.corrected(x);
            self.begin_cycle();
        } else {
            // Extend the basis (the one allocation the Arnoldi process
            // genuinely needs: the basis keeps growing until the restart),
            // normalising in a single write pass instead of clone + scale.
            let mut v_next = Vector::zeros(self.w.len());
            kernels::scale_into(v_next.as_mut_slice(), 1.0 / h_next, self.w.as_slice());
            self.basis.push(v_next);
        }
        Ok(())
    }

    fn capture_state(&self) -> DynamicState {
        // §4.4.2: for restarted GMRES the only dynamic vector worth saving
        // is x — the Krylov basis is discarded at restarts anyway.  To keep
        // the checkpoint consistent we capture the *restart-consistent*
        // solution: x with the current partial correction folded in.
        DynamicState {
            iteration: self.state.iteration(),
            scalars: Vec::new(),
            vectors: vec![("x".to_string(), self.corrected(self.state.x.clone()))],
        }
    }

    fn try_restore_state(&mut self, state: &DynamicState) -> Result<(), Infallible> {
        self.state.x = state
            .vector("x")
            .expect("GMRES checkpoint must contain x")
            .clone();
        self.try_restart(state.iteration)
    }

    fn try_restart(&mut self, iteration: usize) -> Result<(), Infallible> {
        // A restart is a new cycle from x: the Krylov state is rebuilt.
        self.state.restarted(iteration);
        self.begin_cycle();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::JacobiPreconditioner;
    use crate::IterativeMethod;
    use lcr_sparse::kkt::{kkt_system, KktConfig};
    use lcr_sparse::poisson::{manufactured_rhs, poisson2d, poisson3d};
    use lcr_sparse::CsrMatrix;

    fn criteria(rtol: f64) -> StoppingCriteria {
        StoppingCriteria::new(rtol, 100_000)
    }

    fn poisson_system(n: usize, three_d: bool) -> (LinearSystem, Vector) {
        let a = if three_d { poisson3d(n) } else { poisson2d(n) };
        let (xstar, b) = manufactured_rhs(&a);
        (LinearSystem::new(a, b), xstar)
    }

    #[test]
    fn gmres_converges_on_poisson2d() {
        let (sys, xstar) = poisson_system(10, false);
        let n = sys.dim();
        let mut g = Gmres::unpreconditioned(sys, Vector::zeros(n), 30, criteria(1e-10));
        g.run_to_convergence();
        assert!(g.converged());
        assert!(g.solution().max_abs_diff(&xstar) < 1e-5);
        assert!(g.true_residual_norm() < 1e-6);
        assert_eq!(g.name(), "gmres");
        assert_eq!(g.restart, 30);
    }

    #[test]
    fn gmres_converges_on_nonsymmetric_system() {
        // Make the Poisson matrix nonsymmetric by adding a convection-like
        // off-diagonal perturbation; GMRES must still converge.
        let mut a = poisson2d(8);
        let n = a.nrows();
        {
            let indptr = a.indptr().to_vec();
            let indices = a.indices().to_vec();
            let values = a.values_mut();
            for i in 0..n {
                for k in indptr[i]..indptr[i + 1] {
                    if indices[k] == i + 1 {
                        values[k] += 0.3;
                    }
                }
            }
        }
        let (xstar, b) = manufactured_rhs(&a);
        assert!(!a.is_symmetric(1e-12));
        let sys = LinearSystem::new(a, b);
        let mut g = Gmres::unpreconditioned(sys, Vector::zeros(n), 20, criteria(1e-10));
        g.run_to_convergence();
        assert!(g.solution().max_abs_diff(&xstar) < 1e-5);
    }

    #[test]
    fn gmres_with_jacobi_preconditioner_on_kkt() {
        // Figure 3 of the paper: GMRES + Jacobi preconditioner on a
        // symmetric indefinite KKT system.
        let (k, xstar, b) = kkt_system(&KktConfig {
            grid_n: 4,
            ..KktConfig::default()
        });
        let n = k.nrows();
        let jacobi = Arc::new(JacobiPreconditioner::new(&k).unwrap());
        let sys = LinearSystem::new(k, b);
        let mut g = Gmres::new(sys, jacobi, Vector::zeros(n), 30, criteria(1e-8));
        g.run_to_convergence();
        assert!(g.converged());
        assert!(!g.history().limit_reached);
        assert!(g.solution().max_abs_diff(&xstar) < 1e-3);
    }

    #[test]
    fn restart_length_affects_iteration_count() {
        let (sys, _) = poisson_system(10, false);
        let n = sys.dim();
        let full =
            Gmres::unpreconditioned(sys.clone(), Vector::zeros(n), n, criteria(1e-8))
                .run_to_convergence();
        let short = Gmres::unpreconditioned(sys, Vector::zeros(n), 5, criteria(1e-8))
            .run_to_convergence();
        assert!(
            full <= short,
            "full-memory GMRES ({full}) should need no more iterations than GMRES(5) ({short})"
        );
    }

    #[test]
    fn gmres_on_3d_poisson() {
        let (sys, xstar) = poisson_system(4, true);
        let n = sys.dim();
        let mut g = Gmres::unpreconditioned(sys, Vector::zeros(n), 30, criteria(1e-9));
        g.run_to_convergence();
        assert!(g.solution().max_abs_diff(&xstar) < 1e-5);
    }

    #[test]
    fn capture_state_contains_only_x_and_is_consistent() {
        let (sys, _) = poisson_system(8, false);
        let n = sys.dim();
        let mut g = Gmres::unpreconditioned(sys.clone(), Vector::zeros(n), 10, criteria(1e-10));
        for _ in 0..7 {
            g.step();
        }
        let state = g.capture_state();
        assert_eq!(state.vectors.len(), 1);
        // The captured x folds in the partial Krylov correction: restoring
        // it and continuing must converge to the same solution.
        let mut restored =
            Gmres::unpreconditioned(sys, Vector::zeros(n), 10, criteria(1e-10));
        restored.restore_state(&state);
        assert_eq!(restored.iteration(), 7);
        restored.run_to_convergence();
        assert!(restored.converged());
        assert!(restored.true_residual_norm() < 1e-6);
    }

    #[test]
    fn lossy_restart_does_not_stall_gmres() {
        // §4.4.2 / Theorem 3: restarting GMRES from a perturbed x whose
        // perturbation follows a ‖r‖/‖b‖ relative bound does not delay
        // convergence by more than a handful of iterations.
        let (sys, _) = poisson_system(10, false);
        let n = sys.dim();
        let mut clean =
            Gmres::unpreconditioned(sys.clone(), Vector::zeros(n), 30, criteria(1e-8));
        let clean_total = clean.run_to_convergence();

        let mut lossy = Gmres::unpreconditioned(sys, Vector::zeros(n), 30, criteria(1e-8));
        for _ in 0..clean_total / 2 {
            lossy.step();
        }
        let state = lossy.capture_state();
        let x = state.vector("x").unwrap().clone();
        // Perturb with the Theorem-3 error bound eb = ||r|| / ||b||.
        let eb = lossy.true_residual_norm() / lossy.system.b.norm2();
        let mut xp = x;
        for (i, v) in xp.iter_mut().enumerate() {
            *v *= 1.0 + eb * if i % 2 == 0 { 0.9 } else { -0.9 };
        }
        lossy.restart_from_solution(xp, clean_total / 2);
        lossy.run_to_convergence();
        let total = lossy.iteration();
        assert!(lossy.converged());
        assert!(
            total <= clean_total * 2 + 30,
            "lossy GMRES took {total} vs clean {clean_total}"
        );
    }

    #[test]
    fn identity_system_converges_immediately() {
        let a = CsrMatrix::identity(6);
        let b = Vector::filled(6, 2.0);
        let sys = LinearSystem::new(a, b.clone());
        let mut g = Gmres::unpreconditioned(sys, Vector::zeros(6), 30, criteria(1e-12));
        g.run_to_convergence();
        assert!(g.iteration() <= 2);
        assert!(g.solution().max_abs_diff(&b) < 1e-12);
        // Steps after convergence are no-ops.
        let it = g.iteration();
        g.step();
        assert_eq!(g.iteration(), it);
    }

    #[test]
    fn starting_from_exact_solution_needs_no_iterations() {
        let (sys, xstar) = poisson_system(6, false);
        let mut g = Gmres::unpreconditioned(sys, xstar.clone(), 30, criteria(1e-8));
        assert!(g.converged());
        assert_eq!(g.run_to_convergence(), 0);
        assert!(g.solution().max_abs_diff(&xstar) < 1e-14);
    }

    #[test]
    #[should_panic(expected = "restart length")]
    fn zero_restart_panics() {
        let (sys, _) = poisson_system(4, false);
        let n = sys.dim();
        let _ = Gmres::unpreconditioned(sys, Vector::zeros(n), 0, criteria(1e-6));
    }
}
