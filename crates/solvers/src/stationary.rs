//! Stationary iterative methods: Jacobi, Gauss–Seidel, SOR and SSOR.
//!
//! Section 4.4.1 of the paper analyses the impact of lossy checkpointing on
//! these methods through the contraction `‖x⁽ⁱ⁾ − x*‖ ≈ Rⁱ‖x*‖` of the
//! iteration `x⁽ⁱ⁾ = G x⁽ⁱ⁻¹⁾ + c`, where `R` is the spectral radius of the
//! iteration matrix `G`.  All four methods share that form, so they share a
//! single implementation parameterised by the sweep, with [`Jacobi`],
//! [`GaussSeidel`], [`Sor`] and [`Ssor`] as thin constructors.
//!
//! Each step performs one sweep.  The residual is recomputed as
//! `r = b − A x` (a *recomputed variable* in the paper's classification),
//! fused into one traversal by [`Space::residual_norm2`], and only `x` and
//! the iteration counter are dynamic state.
//!
//! The Jacobi sweep reads only the previous iterate, so rows are
//! independent: it is an operation of the [`Space`]
//! ([`Space::jacobi_sweep`]) and runs on the whole system or on one shard
//! of it.  Gauss–Seidel, SOR and SSOR update in place (loop-carried
//! dependence): they need the whole matrix, stay sequential and exist on
//! [`LocalSpace`] only.

use crate::convergence::StoppingCriteria;
use crate::progress::Progress;
use crate::space::{LocalSpace, Space};
use crate::{DynamicState, LinearSystem};
use lcr_sparse::Vector;

/// Which stationary sweep to perform.
#[derive(Debug, Clone)]
enum Sweep {
    /// Jacobi sweep (simultaneous updates), on the solver's space.
    Jacobi,
    /// In-place relaxed sweeps with factor ω over the whole `system`:
    /// forward only (Gauss–Seidel is ω = 1), or forward then backward.
    InPlace {
        system: LinearSystem,
        omega: f64,
        symmetric: bool,
        name: &'static str,
    },
}

/// A stationary iterative solver on any [`Space`] ([`LocalSpace`] unless
/// named otherwise).
#[derive(Clone)]
// lcr-analyze: allow(dead-public-item): return type of `Jacobi::new` and its siblings; callers take it by inference
pub struct StationarySolver<S = LocalSpace> {
    space: S,
    sweep: Sweep,
    state: Progress,
    /// The next iterate during a Jacobi sweep, the residual between sweeps.
    scratch: Vector,
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
    ///
    /// # Panics
    /// Panics if the matrix has a zero diagonal entry or on dimension
    /// mismatch.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(system: LinearSystem, x0: Vector, criteria: StoppingCriteria) -> StationarySolver {
        StationarySolver::local(system, Sweep::Jacobi, x0, criteria)
    }

    /// Creates a Jacobi solver on `space`, starting from `x0` (`None`: the
    /// zero guess, which needs no operator application).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn on<S: Space>(
        mut space: S,
        x0: Option<Vector>,
        criteria: StoppingCriteria,
    ) -> Result<StationarySolver<S>, S::Error> {
        let (state, scratch, _) = Progress::start(&mut space, x0, criteria)?;
        Ok(StationarySolver {
            space,
            sweep: Sweep::Jacobi,
            state,
            scratch,
        })
    }
}

impl GaussSeidel {
    /// Creates a Gauss–Seidel solver.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(system: LinearSystem, x0: Vector, criteria: StoppingCriteria) -> StationarySolver {
        StationarySolver::in_place(system, x0, 1.0, false, "gauss-seidel", criteria)
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
        StationarySolver::in_place(system, x0, omega, false, "sor", criteria)
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
        StationarySolver::in_place(system, x0, omega, true, "ssor", criteria)
    }
}

impl StationarySolver {
    /// Creates a stationary solver on the whole `system`.
    ///
    /// # Panics
    /// Panics if the matrix has a zero diagonal entry or if dimensions are
    /// inconsistent.
    fn local(system: LinearSystem, sweep: Sweep, x0: Vector, criteria: StoppingCriteria) -> Self {
        system
            .a
            .require_nonzero_diagonal()
            .expect("stationary methods need a non-zero diagonal");
        let mut space = LocalSpace::unpreconditioned(system);
        let Ok((state, scratch, _)) = Progress::start(&mut space, Some(x0), criteria);
        StationarySolver {
            space,
            sweep,
            state,
            scratch,
        }
    }

    /// [`StationarySolver::local`] for the in-place sweeps.
    ///
    /// # Panics
    /// Additionally panics if the relaxation factor is outside `(0, 2)`.
    fn in_place(
        system: LinearSystem,
        x0: Vector,
        omega: f64,
        symmetric: bool,
        name: &'static str,
        criteria: StoppingCriteria,
    ) -> Self {
        assert!(
            omega > 0.0 && omega < 2.0,
            "relaxation factor must be in (0, 2)"
        );
        let sweep = Sweep::InPlace {
            system: system.clone(),
            omega,
            symmetric,
            name,
        };
        Self::local(system, sweep, x0, criteria)
    }
}

/// One in-place relaxed sweep over the rows of `system`, last row first if
/// `backward`.
fn relaxed_sweep(system: &LinearSystem, x: &mut Vector, omega: f64, backward: bool) {
    let (a, b) = (&system.a, &system.b);
    let n = x.len();
    for k in 0..n {
        let i = if backward { n - 1 - k } else { k };
        let mut sigma = 0.0;
        let mut diag = 0.0;
        for (pos, &j) in a.row_indices(i).iter().enumerate() {
            let v = a.row_values(i)[pos];
            if j == i {
                diag = v;
            } else {
                sigma += v * x[j];
            }
        }
        let gs_value = (b[i] - sigma) / diag;
        x[i] = (1.0 - omega) * x[i] + omega * gs_value;
    }
}

impl<S: Space> crate::TryIterativeMethod for StationarySolver<S> {
    type Error = S::Error;

    fn name(&self) -> &'static str {
        match self.sweep {
            Sweep::Jacobi => "jacobi",
            Sweep::InPlace { name, .. } => name,
        }
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
        match &self.sweep {
            Sweep::Jacobi => {
                self.space.jacobi_sweep(&self.state.x, &mut self.scratch)?;
                std::mem::swap(&mut self.state.x, &mut self.scratch);
            }
            Sweep::InPlace {
                system,
                omega,
                symmetric,
                ..
            } => {
                relaxed_sweep(system, &mut self.state.x, *omega, false);
                if *symmetric {
                    relaxed_sweep(system, &mut self.state.x, *omega, true);
                }
            }
        }
        let rr = self
            .space
            .residual_norm2(&self.state.x, &mut self.scratch)?;
        self.state.accept(rr.sqrt());
        Ok(())
    }

    fn capture_state(&self) -> DynamicState {
        DynamicState {
            iteration: self.state.iteration(),
            scalars: Vec::new(),
            vectors: vec![("x".to_string(), self.state.x.clone())],
        }
    }

    fn try_restore_state(&mut self, state: &DynamicState) -> Result<(), S::Error> {
        self.state.x = state
            .vector("x")
            .expect("stationary checkpoint must contain x")
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
