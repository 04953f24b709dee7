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
//! driver.  The basis vectors live in a [`Space`], so the method runs on the
//! whole system or on one shard of it; the Hessenberg, Givens and
//! least-squares state are scalars derived from reductions, held identically
//! by every shard.

use crate::convergence::StoppingCriteria;
use crate::precond::Preconditioner;
use crate::progress::Progress;
use crate::space::{residual, LocalSpace, Space};
use crate::{DynamicState, LinearSystem, StateView};
use lcr_sparse::Vector;
use std::sync::Arc;

/// Restarted GMRES(m) on any [`Space`] ([`LocalSpace`] unless named
/// otherwise).
///
/// An inner step is one operator application ([`Space::apply`]), the left
/// preconditioner of the space, and modified Gram–Schmidt at one pass per
/// basis vector: each projection takes the next vector's coefficient in the
/// same pass ([`Space::axpy_dot`]), and the last one the norm of what
/// remains ([`Space::axpy_norm2`]).  After its first cycle a step
/// allocates no vector.
pub struct Gmres<S = LocalSpace> {
    space: S,
    restart: usize,
    /// The iterate, the stopping rule and the history; the residual it
    /// tracks is the left-preconditioned one, `‖M⁻¹(b − A x)‖`.  `x`
    /// excludes the open cycle's correction.
    state: Progress,
    /// Krylov basis vectors, kept for the solver's life: the open cycle
    /// uses the first `givens.len() + 1`, each made the first time a cycle
    /// reaches it and overwritten by every later cycle.
    basis: Vec<Vector>,
    /// Upper-Hessenberg matrix stored column-wise: column `j` holds `j + 2`
    /// entries from offset `j(j + 3)/2` ([`Gmres::h`]).
    hessenberg: Vec<f64>,
    /// Givens rotation cosines/sines; its length is the inner iteration
    /// index within the cycle.
    givens: Vec<(f64, f64)>,
    /// Right-hand side of the least-squares problem; empty while no cycle
    /// is open.
    g: Vec<f64>,
    /// Preallocated scratch for `A v_j` and for the residual at cycle
    /// starts.
    av: Vector,
    /// Preallocated scratch for the vector being orthogonalised,
    /// `w = M⁻¹ A v_j`.
    w: Vector,
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
        let space = LocalSpace::new(system, precond);
        let Ok(solver) = Self::on(space, Some(x0), restart, criteria);
        solver
    }

    /// Creates an unpreconditioned GMRES(m) solver.
    pub fn unpreconditioned(
        system: LinearSystem,
        x0: Vector,
        restart: usize,
        criteria: StoppingCriteria,
    ) -> Self {
        let space = LocalSpace::unpreconditioned(system);
        let Ok(solver) = Self::on(space, Some(x0), restart, criteria);
        solver
    }
}

impl<S: Space> Gmres<S> {
    /// Creates a GMRES(m) solver with restart length `restart` on `space`,
    /// starting from `x0` (`None`: the zero guess, whose residual is `b`).
    ///
    /// # Panics
    /// Panics if `restart == 0` or on dimension mismatch.
    pub fn on(
        mut space: S,
        x0: Option<Vector>,
        restart: usize,
        criteria: StoppingCriteria,
    ) -> Result<Self, S::Error> {
        assert!(restart > 0, "restart length must be positive");
        let n = space.rhs().len();
        let (mut av, mut w) = (Vector::from_vec(space.rhs().to_vec()), Vector::zeros(n));
        // Left preconditioning: convergence is measured on M⁻¹(b − Ax).
        precondition(&space, &mut av, &mut w);
        let reference_norm = space.dot(&w, &w)?.sqrt();
        let (x, beta) = match x0 {
            None => (Vector::zeros(n), reference_norm),
            Some(x0) => {
                assert_eq!(x0.len(), n, "x0 dimension mismatch");
                let beta = left_residual(&mut space, &x0, &mut av, &mut w)?;
                (x0, beta)
            }
        };
        let mut solver = Gmres {
            space,
            restart,
            state: Progress::new(x, criteria, reference_norm, beta),
            basis: Vec::new(),
            hessenberg: Vec::new(),
            givens: Vec::new(),
            g: Vec::new(),
            av,
            w,
        };
        solver.open_basis(beta);
        Ok(solver)
    }

    /// Starts a new outer cycle from the current `x`.
    fn begin_cycle(&mut self) -> Result<(), S::Error> {
        let beta = left_residual(&mut self.space, &self.state.x, &mut self.av, &mut self.w)?;
        self.state.residual_norm = beta;
        self.open_basis(beta);
        Ok(())
    }

    /// Opens the basis with `v0 = w / β`, where `w` holds the preconditioned
    /// residual and `β` its norm; a zero residual opens none.
    fn open_basis(&mut self, beta: f64) {
        if beta > 0.0 {
            self.keep(0, 1.0 / beta);
            self.g.push(beta);
        }
    }

    /// Writes `v_i = scale · w` over the kept basis vector `i`, making it
    /// the first time a cycle reaches `i`.
    fn keep(&mut self, i: usize, scale: f64) {
        if i == self.basis.len() {
            self.basis.push(Vector::zeros(self.w.len()));
        }
        self.space.scale_into(&mut self.basis[i], scale, &self.w);
    }

    /// Entry `(i, j)` of the upper-Hessenberg matrix.
    fn h(&self, i: usize, j: usize) -> f64 {
        self.hessenberg[j * (j + 3) / 2 + i]
    }

    /// Closes the open cycle without its correction: until the next
    /// [`Gmres::begin_cycle`] a step does nothing.  The basis stays.
    fn drop_cycle(&mut self) {
        self.hessenberg.clear();
        self.givens.clear();
        self.g.clear();
    }

    /// Folds the open cycle's correction into `x` and closes the cycle.
    fn close_cycle(&mut self) {
        let x = std::mem::take(&mut self.state.x);
        self.state.x = self.corrected(x);
        self.drop_cycle();
    }

    /// `x + Σ y_j v_j`, where `y` solves the `k×k` upper-triangular
    /// least-squares system `R y = g` of the current cycle.
    fn corrected(&self, mut x: Vector) -> Vector {
        let k = self.givens.len();
        let mut y = vec![0.0f64; k];
        for i in (0..k).rev() {
            let mut sum = self.g[i];
            for (j, yj) in y.iter().enumerate().skip(i + 1) {
                sum -= self.h(i, j) * yj;
            }
            y[i] = sum / self.h(i, i);
        }
        self.space.multi_axpy(&mut x, &y, &self.basis[..k]);
        x
    }
}

/// `w = M⁻¹ av`; for `M = I` the two buffers trade places, which leaves in
/// `w` the bits the identity's copy would.
fn precondition<S: Space>(space: &S, av: &mut Vector, w: &mut Vector) {
    match space.precond() {
        None => std::mem::swap(av, w),
        Some(m) => m.apply_into(av, w),
    }
}

/// `w = M⁻¹(b − A x)` through the `av` scratch; returns `‖w‖`.
fn left_residual<S: Space>(
    space: &mut S,
    x: &[f64],
    av: &mut Vector,
    w: &mut Vector,
) -> Result<f64, S::Error> {
    residual(space, x, av)?;
    precondition(space, av, w);
    Ok(space.dot(w, w)?.sqrt())
}

impl<S: Space> crate::TryIterativeMethod for Gmres<S> {
    type Error = S::Error;

    fn name(&self) -> &'static str {
        "gmres"
    }

    fn progress(&self) -> &Progress {
        &self.state
    }

    /// The caller overwrites `x` before it restarts, so the open cycle,
    /// whose correction belongs to the old `x`, is dropped.
    fn progress_mut(&mut self) -> &mut Progress {
        self.drop_cycle();
        &mut self.state
    }

    fn try_step(&mut self) -> Result<(), S::Error> {
        // No open cycle means a zero residual (the solve is exact) or a
        // cycle dropped for a restart that has not come yet.
        if self.state.converged() || self.g.is_empty() {
            return Ok(());
        }

        let j = self.givens.len();
        // Arnoldi: w = M⁻¹ A v_j, computed in the preallocated scratch.
        self.space.apply(&self.basis[j], &mut self.av)?;
        precondition(&self.space, &mut self.av, &mut self.w);
        // Modified Gram–Schmidt, one pass per basis vector: projecting v_i
        // out of w takes h_{i+1,j} = wᵀv_{i+1} in the same pass, and the
        // last projection the norm of what remains.
        let (basis, w) = (&self.basis[..=j], &mut self.w);
        let col = self.hessenberg.len();
        let mut hij = self.space.dot(w, &basis[0])?;
        for i in 0..j {
            self.hessenberg.push(hij);
            hij = self.space.axpy_dot(w, -hij, &basis[i], &basis[i + 1])?;
        }
        self.hessenberg.push(hij);
        let h_next = self.space.axpy_norm2(w, -hij, &basis[j])?.sqrt();
        self.hessenberg.push(h_next);
        let h_col = &mut self.hessenberg[col..];

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

        self.state.accept(self.g[j + 1].abs());

        let happy_breakdown = h_next == 0.0;
        let cycle_full = j + 1 == self.restart;
        if self.state.converged() || cycle_full || happy_breakdown {
            // Fold the accumulated correction into x and restart the cycle.
            self.close_cycle();
            self.begin_cycle()?;
        } else {
            // Extend the basis over the kept v_{j+1}, normalising in the
            // write.
            self.keep(j + 1, 1.0 / h_next);
        }
        Ok(())
    }

    fn state_view(&self) -> StateView<'_> {
        // §4.4.2: for restarted GMRES the only dynamic vector worth saving
        // is x — the Krylov basis is discarded at restarts anyway.  To keep
        // the checkpoint consistent we capture the *restart-consistent*
        // solution: x with the current partial correction folded in, which
        // the view owns.
        let x = self.corrected(self.state.x.clone());
        StateView {
            iteration: self.state.iteration(),
            scalars: Vec::new(),
            vectors: vec![("x".into(), x.into_vec().into())],
        }
    }

    fn try_restore_state(&mut self, state: &DynamicState) -> Result<(), S::Error> {
        self.progress_mut().x = state
            .vector("x")
            .expect("GMRES checkpoint must contain x")
            .clone();
        self.try_restart(state.iteration)
    }

    fn try_restart(&mut self, iteration: usize) -> Result<(), S::Error> {
        // A restart is a new cycle from the restart-consistent x, the one
        // `state_view` saves: the open cycle's correction goes in first.
        self.close_cycle();
        self.state.restarted(iteration);
        self.begin_cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::JacobiPreconditioner;
    use crate::{IterativeMethod, TryIterativeMethod};
    use lcr_sparse::kkt::{kkt_system, KktConfig};
    use lcr_sparse::poisson::{manufactured_rhs, poisson2d, poisson3d};
    use lcr_sparse::{vector, CsrMatrix};

    impl Gmres {
        /// True (unpreconditioned) residual norm of the current `x`.
        fn true_residual_norm(&mut self) -> f64 {
            let mut r = Vector::zeros(self.state.x.len());
            let Ok(rr) = self.space.residual_norm2(&self.state.x, &mut r);
            rr.sqrt()
        }
    }

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
        assert_eq!(IterativeMethod::name(&g), "gmres");
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
                    if indices[k] as usize == i + 1 {
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
        let state = IterativeMethod::capture_state(&g);
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
    fn mid_cycle_restart_keeps_the_open_cycle_and_a_handed_in_x_stays() {
        // A sharded survivor restarts without handing in x: the 12 steps of
        // the open cycle must survive as the captured x.  A recovery that
        // hands x in gets exactly that x, whatever cycle was open.
        let (sys, _) = poisson_system(8, false);
        let n = sys.dim();
        let mut g = Gmres::unpreconditioned(sys, Vector::zeros(n), 30, criteria(1e-12));
        for _ in 0..12 {
            g.step();
        }
        let x = IterativeMethod::capture_state(&g).vectors.remove(0).1;
        assert_ne!(g.solution(), &x, "the open cycle corrects x");
        let Ok(()) = g.try_restart(12);
        let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(g.solution()),
            bits(&x),
            "try_restart dropped the open cycle"
        );
        for _ in 0..5 {
            g.step();
        }
        let handed_in = IterativeMethod::capture_state(&g).vectors.remove(0).1;
        assert_ne!(g.solution(), &handed_in);
        g.restart_from_solution(x.clone(), 17);
        assert_eq!(
            bits(g.solution()),
            bits(&x),
            "restart_from_solution kept a stale cycle"
        );
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
        let state = IterativeMethod::capture_state(&lossy);
        let x = state.vector("x").unwrap().clone();
        // Perturb with the Theorem-3 error bound eb = ||r|| / ||b||.
        let eb = lossy.true_residual_norm() / vector::norm2(lossy.space.rhs());
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
