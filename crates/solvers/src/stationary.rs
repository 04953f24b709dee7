//! Stationary iterative methods: Jacobi, Gauss–Seidel, SOR and SSOR.
//!
//! Section 4.4.1 of the paper analyses the impact of lossy checkpointing on
//! these methods through the contraction `‖x⁽ⁱ⁾ − x*‖ ≈ Rⁱ‖x*‖` of the
//! iteration `x⁽ⁱ⁾ = G x⁽ⁱ⁻¹⁾ + c`, where `R` is the spectral radius of the
//! iteration matrix `G`.  All four methods share that form, so they share a
//! single implementation parameterised by [`StationaryKind`], with
//! [`Jacobi`], [`GaussSeidel`], [`Sor`] and [`Ssor`] as thin constructors.
//!
//! Each `step()` performs one sweep.  The residual is recomputed as
//! `r = b − A x` (a *recomputed variable* in the paper's classification),
//! and only `x` and the iteration counter are dynamic state.
//!
//! The Jacobi sweep reads only the previous iterate, so it runs on the
//! matrix's nnz-balanced [`SpmvPlan`](lcr_sparse::SpmvPlan) row chunks
//! ([`kernels::jacobi_sweep`]); the residual refresh fuses the subtraction
//! and the norm into the matrix traversal ([`kernels::residual_norm2`]),
//! replacing a per-step allocation plus two extra sweeps.  Gauss–Seidel and
//! SOR update in place (loop-carried dependence) and stay sequential.

use crate::convergence::{ConvergenceHistory, StoppingCriteria};
use crate::{DynamicState, IterativeMethod, LinearSystem};
use lcr_sparse::{kernels, Vector};

/// Which stationary sweep to perform.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StationaryKind {
    /// Jacobi sweep (simultaneous updates).
    Jacobi,
    /// Gauss–Seidel sweep (in-place forward updates).
    GaussSeidel,
    /// Successive over-relaxation with factor ω.
    Sor(f64),
    /// Symmetric SOR: a forward followed by a backward relaxed sweep.
    Ssor(f64),
}

impl StationaryKind {
    fn name(&self) -> &'static str {
        match self {
            StationaryKind::Jacobi => "jacobi",
            StationaryKind::GaussSeidel => "gauss-seidel",
            StationaryKind::Sor(_) => "sor",
            StationaryKind::Ssor(_) => "ssor",
        }
    }
}

/// A stationary iterative solver.
#[derive(Debug, Clone)]
// lcr-analyze: allow(dead-public-item): return type of `Jacobi::new` and its siblings; callers take it by inference
pub struct StationarySolver {
    system: LinearSystem,
    kind: StationaryKind,
    criteria: StoppingCriteria,
    x: Vector,
    scratch: Vector,
    iteration: usize,
    residual_norm: f64,
    reference_norm: f64,
    history: ConvergenceHistory,
}

/// Jacobi method constructor alias.
pub struct Jacobi;
/// Gauss–Seidel method constructor alias.
pub struct GaussSeidel;
/// SOR method constructor alias.
pub struct Sor;
/// SSOR method constructor alias.
pub struct Ssor;

impl Jacobi {
    /// Creates a Jacobi solver.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(system: LinearSystem, x0: Vector, criteria: StoppingCriteria) -> StationarySolver {
        StationarySolver::new(system, StationaryKind::Jacobi, x0, criteria)
    }
}

impl GaussSeidel {
    /// Creates a Gauss–Seidel solver.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(system: LinearSystem, x0: Vector, criteria: StoppingCriteria) -> StationarySolver {
        StationarySolver::new(system, StationaryKind::GaussSeidel, x0, criteria)
    }
}

impl Sor {
    /// Creates an SOR solver with relaxation factor `omega`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        system: LinearSystem,
        x0: Vector,
        omega: f64,
        criteria: StoppingCriteria,
    ) -> StationarySolver {
        StationarySolver::new(system, StationaryKind::Sor(omega), x0, criteria)
    }
}

impl Ssor {
    /// Creates an SSOR solver with relaxation factor `omega`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        system: LinearSystem,
        x0: Vector,
        omega: f64,
        criteria: StoppingCriteria,
    ) -> StationarySolver {
        StationarySolver::new(system, StationaryKind::Ssor(omega), x0, criteria)
    }
}

impl StationarySolver {
    /// Creates a stationary solver of the given kind.
    ///
    /// # Panics
    /// Panics if the matrix has a zero diagonal entry, if dimensions are
    /// inconsistent, or if an SOR/SSOR relaxation factor is outside `(0, 2)`.
    fn new(
        system: LinearSystem,
        kind: StationaryKind,
        x0: Vector,
        criteria: StoppingCriteria,
    ) -> Self {
        assert_eq!(x0.len(), system.dim(), "x0 dimension mismatch");
        system
            .a
            .require_nonzero_diagonal()
            .expect("stationary methods need a non-zero diagonal");
        if let StationaryKind::Sor(w) | StationaryKind::Ssor(w) = kind {
            assert!(w > 0.0 && w < 2.0, "relaxation factor must be in (0, 2)");
        }
        let reference_norm = system.b.norm2();
        let residual_norm = system.a.residual(&x0, &system.b).norm2();
        let history = ConvergenceHistory::new(residual_norm);
        let n = system.dim();
        StationarySolver {
            system,
            kind,
            criteria,
            x: x0,
            scratch: Vector::zeros(n),
            iteration: 0,
            residual_norm,
            reference_norm,
            history,
        }
    }

    /// The stopping criteria in use.
    pub fn criteria(&self) -> &StoppingCriteria {
        &self.criteria
    }

    fn jacobi_sweep(&mut self) {
        kernels::jacobi_sweep(
            &self.system.a,
            self.x.as_slice(),
            self.system.b.as_slice(),
            self.scratch.as_mut_slice(),
        );
        std::mem::swap(&mut self.x, &mut self.scratch);
    }

    fn relaxed_forward_sweep(&mut self, omega: f64) {
        let a = &self.system.a;
        let b = &self.system.b;
        let n = self.x.len();
        for i in 0..n {
            let mut sigma = 0.0;
            let mut diag = 0.0;
            for (pos, &j) in a.row_indices(i).iter().enumerate() {
                let v = a.row_values(i)[pos];
                if j == i {
                    diag = v;
                } else {
                    sigma += v * self.x[j];
                }
            }
            let gs_value = (b[i] - sigma) / diag;
            self.x[i] = (1.0 - omega) * self.x[i] + omega * gs_value;
        }
    }

    fn relaxed_backward_sweep(&mut self, omega: f64) {
        let a = &self.system.a;
        let b = &self.system.b;
        let n = self.x.len();
        for i in (0..n).rev() {
            let mut sigma = 0.0;
            let mut diag = 0.0;
            for (pos, &j) in a.row_indices(i).iter().enumerate() {
                let v = a.row_values(i)[pos];
                if j == i {
                    diag = v;
                } else {
                    sigma += v * self.x[j];
                }
            }
            let gs_value = (b[i] - sigma) / diag;
            self.x[i] = (1.0 - omega) * self.x[i] + omega * gs_value;
        }
    }

    fn refresh_residual(&mut self) {
        // Fused r = b - A x and ||r||^2 into the scratch buffer (dead
        // between sweeps): no allocation, no separate subtraction or norm
        // sweep.
        self.residual_norm = kernels::residual_norm2(
            &self.system.a,
            self.x.as_slice(),
            self.system.b.as_slice(),
            self.scratch.as_mut_slice(),
        )
        .sqrt();
    }
}

impl IterativeMethod for StationarySolver {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn iteration(&self) -> usize {
        self.iteration
    }

    fn residual_norm(&self) -> f64 {
        self.residual_norm
    }

    fn reference_norm(&self) -> f64 {
        self.reference_norm
    }

    fn solution(&self) -> &Vector {
        &self.x
    }

    fn converged(&self) -> bool {
        self.criteria
            .is_satisfied(self.residual_norm, self.reference_norm)
            || self.criteria.limit_reached(self.iteration)
    }

    fn step(&mut self) {
        if self.converged() {
            return;
        }
        match self.kind {
            StationaryKind::Jacobi => self.jacobi_sweep(),
            StationaryKind::GaussSeidel => self.relaxed_forward_sweep(1.0),
            StationaryKind::Sor(w) => self.relaxed_forward_sweep(w),
            StationaryKind::Ssor(w) => {
                self.relaxed_forward_sweep(w);
                self.relaxed_backward_sweep(w);
            }
        }
        self.iteration += 1;
        self.refresh_residual();
        self.history.record(self.residual_norm);
        if self.criteria.limit_reached(self.iteration) {
            self.history.limit_reached = true;
        }
    }

    fn capture_state(&self) -> DynamicState {
        DynamicState {
            iteration: self.iteration,
            scalars: Vec::new(),
            vectors: vec![("x".to_string(), self.x.clone())],
        }
    }

    fn restore_state(&mut self, state: &DynamicState) {
        let x = state
            .vector("x")
            .expect("stationary checkpoint must contain x")
            .clone();
        self.restart_from_solution(x, state.iteration);
    }

    fn restart_from_solution(&mut self, x: Vector, iteration: usize) {
        assert_eq!(x.len(), self.system.dim(), "restart vector dimension");
        self.x = x;
        self.iteration = iteration;
        self.refresh_residual();
        self.history.record_restart(iteration);
    }

    fn history(&self) -> &ConvergenceHistory {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterativeMethod;
    use lcr_sparse::poisson::{manufactured_rhs, poisson1d, poisson2d, poisson3d};

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
    fn gauss_seidel_converges_faster_than_jacobi() {
        let (sys, _) = poisson2d_system(8);
        let mut j = Jacobi::new(sys.clone(), Vector::zeros(64), criteria(1e-8));
        let mut gs = GaussSeidel::new(sys, Vector::zeros(64), criteria(1e-8));
        let ji = j.run_to_convergence();
        let gi = gs.run_to_convergence();
        assert!(gi < ji, "Gauss-Seidel ({gi}) should beat Jacobi ({ji})");
    }

    #[test]
    fn sor_with_good_omega_beats_gauss_seidel() {
        let (sys, _) = poisson2d_system(10);
        let n = sys.dim();
        let mut gs = GaussSeidel::new(sys.clone(), Vector::zeros(n), criteria(1e-8));
        // Near-optimal omega for the 10x10 Poisson problem.
        let mut sor = Sor::new(sys, Vector::zeros(n), 1.5, criteria(1e-8));
        let gi = gs.run_to_convergence();
        let si = sor.run_to_convergence();
        assert!(si < gi, "SOR ({si}) should beat Gauss-Seidel ({gi})");
    }

    #[test]
    fn ssor_converges() {
        let (sys, xstar) = poisson2d_system(6);
        let n = sys.dim();
        let mut solver = Ssor::new(sys, Vector::zeros(n), 1.2, criteria(1e-9));
        solver.run_to_convergence();
        assert!(solver.solution().max_abs_diff(&xstar) < 1e-5);
        assert_eq!(solver.name(), "ssor");
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
    fn solves_1d_system_exactly_eventually() {
        let a = poisson1d(20);
        let (xstar, b) = manufactured_rhs(&a);
        let sys = LinearSystem::new(a, b);
        let mut solver = GaussSeidel::new(sys, Vector::zeros(20), criteria(1e-12));
        solver.run_to_convergence();
        assert!(solver.solution().max_abs_diff(&xstar) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "x0 dimension mismatch")]
    fn dimension_mismatch_panics() {
        let (sys, _) = poisson2d_system(4);
        let _ = Jacobi::new(sys, Vector::zeros(3), criteria(1e-6));
    }

    #[test]
    #[should_panic(expected = "relaxation factor")]
    fn bad_omega_panics() {
        let (sys, _) = poisson2d_system(4);
        let n = sys.dim();
        let _ = Sor::new(sys, Vector::zeros(n), 2.5, criteria(1e-6));
    }
}
