//! Preconditioned conjugate gradient (PCG).
//!
//! Algorithm 1 of the paper is the fault-tolerant PCG with traditional
//! checkpointing: the dynamic variables are the iteration counter `i`, the
//! scalar `ρ`, the direction vector `p` and the solution `x`; the residual
//! `r` is recomputed after recovery.  [`ConjugateGradient`] implements
//! exactly that state machine.
//!
//! Algorithm 2 is the lossy-checkpointing variant: only `x` is saved, and a
//! recovery performs a *restart* — the decompressed `x` becomes a new
//! initial guess and a fresh Krylov space is built (`r = b − A x`,
//! `z = M⁻¹ r`, `p = z`, `ρ = rᵀz`), because the compression error breaks
//! the orthogonality relations CG's superlinear convergence rests on
//! (§4.2).

use crate::convergence::StoppingCriteria;
use crate::precond::Preconditioner;
use crate::progress::Progress;
use crate::space::{LocalSpace, Space};
use crate::{DynamicState, LinearSystem, StateView};
use lcr_sparse::Vector;
use std::sync::Arc;

/// The preconditioned conjugate gradient method on any [`Space`]
/// ([`LocalSpace`] unless named otherwise).
///
/// The inner loop runs on the fused operations of the space: `q = A p` and
/// `pᵀq` are one operator application ([`Space::apply_dot`]), and the
/// `x`/`r` updates produce ‖r‖² in the same pass
/// ([`Space::axpy2_norm2`]), eliminating the separate dot and norm sweeps
/// of the textbook formulation.  With the identity preconditioner the
/// `z = M⁻¹ r` copy and the `rᵀz` sweep vanish as well, because
/// `rᵀz = ‖r‖²` is already in hand.
pub struct ConjugateGradient<S = LocalSpace> {
    space: S,
    state: Progress,
    r: Vector,
    p: Vector,
    /// Scratch for `q = A p` — preallocated so the inner loop never hits
    /// the allocator (which would serialize concurrent solver instances).
    q: Vector,
    /// Scratch for `z = M⁻¹ r`.
    z: Vector,
    rho: f64,
}

impl ConjugateGradient {
    /// Creates a PCG solver with the given preconditioner.
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

    /// Creates an unpreconditioned CG solver.
    pub fn unpreconditioned(system: LinearSystem, x0: Vector, criteria: StoppingCriteria) -> Self {
        let Ok(solver) = Self::on(LocalSpace::unpreconditioned(system), Some(x0), criteria);
        solver
    }
}

impl<S: Space> ConjugateGradient<S> {
    /// Creates a CG solver on `space`, starting from `x0` (`None`: the zero
    /// guess, which needs no operator application).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn on(
        mut space: S,
        x0: Option<Vector>,
        criteria: StoppingCriteria,
    ) -> Result<Self, S::Error> {
        let (state, r, rr) = Progress::start(&mut space, x0, criteria)?;
        let n = r.len();
        let mut solver = ConjugateGradient {
            space,
            state,
            r,
            p: Vector::zeros(n),
            q: Vector::zeros(n),
            z: Vector::zeros(n),
            rho: 0.0,
        };
        solver.seed_direction(rr)?;
        Ok(solver)
    }

    /// `z = M⁻¹ r`, `p = z`, `ρ = rᵀz` from the current `r` with squared
    /// norm `rr` (Algorithm 2 lines 11–13); the identity fast path reuses
    /// `rr` as `ρ`.
    fn seed_direction(&mut self, rr: f64) -> Result<(), S::Error> {
        match self.space.precond() {
            None => {
                self.rho = rr;
                self.p.copy_from(&self.r);
            }
            Some(m) => {
                m.apply_into(&self.r, &mut self.z);
                self.rho = self.space.dot(&self.r, &self.z)?;
                self.p.copy_from(&self.z);
            }
        }
        Ok(())
    }

    /// Rebuilds `r`, `z`, `p`, `ρ` from the current `x` (the recovery steps
    /// of Algorithm 2, lines 10–13).
    fn rebuild_krylov_state(&mut self) -> Result<(), S::Error> {
        let rr = self.space.residual_norm2(&self.state.x, &mut self.r)?;
        self.state.residual_norm = rr.sqrt();
        self.seed_direction(rr)
    }
}

impl<S: Space> crate::TryIterativeMethod for ConjugateGradient<S> {
    type Error = S::Error;

    fn name(&self) -> &'static str {
        "cg"
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
        // Algorithm 1 lines 10–17 on the fused operations, allocation-free:
        // q and z live in preallocated scratch, and the five separate
        // sweeps of the textbook loop (dot, two axpys, dot, norm) collapse
        // into two fused passes plus the direction refresh.
        let pq = self.space.apply_dot(&self.p, &mut self.q, &self.p)?; // q = A p, pᵀq
        if pq == 0.0 || !pq.is_finite() {
            // Breakdown: restart from the current solution.
            if self.state.break_down() {
                self.rebuild_krylov_state()?;
            }
            return Ok(());
        }
        let alpha = self.rho / pq;
        // x += α p, r -= α q and ‖r‖² in one pass over the four vectors.
        let rr =
            self.space
                .axpy2_norm2(alpha, &self.p, &self.q, &mut self.state.x, &mut self.r)?;
        let (z, rho_next) = match self.space.precond() {
            // z = r, so ρ' = rᵀz = ‖r‖² is already in hand: no copy, no
            // extra dot sweep (bit-identical to performing both).
            None => (&self.r, rr),
            Some(m) => {
                m.apply_into(&self.r, &mut self.z); // M z = r
                (&self.z, self.space.dot(&self.r, &self.z)?)
            }
        };
        let beta = rho_next / self.rho;
        self.rho = rho_next;
        self.space.xpby(&mut self.p, z, beta); // p = z + β p
        self.state.accept(rr.sqrt());
        Ok(())
    }

    fn state_view(&self) -> StateView<'_> {
        // Algorithm 1 line 4: checkpoint i, ρ, p, x.
        StateView {
            iteration: self.state.iteration(),
            scalars: vec![("rho".into(), self.rho)],
            vectors: vec![
                ("x".into(), self.state.x.as_slice().into()),
                ("p".into(), self.p.as_slice().into()),
            ],
        }
    }

    fn try_restore_state(&mut self, state: &DynamicState) -> Result<(), S::Error> {
        // Algorithm 1 lines 7–8: recover i, ρ, p, x and recompute r.
        self.state.x = state
            .vector("x")
            .expect("CG checkpoint must contain x")
            .clone();
        self.p = state
            .vector("p")
            .expect("CG traditional checkpoint must contain p")
            .clone();
        self.rho = state.scalar("rho").expect("CG checkpoint must contain rho");
        self.state.restarted(state.iteration);
        let rr = self.space.residual_norm2(&self.state.x, &mut self.r)?;
        self.state.residual_norm = rr.sqrt();
        Ok(())
    }

    fn try_restart(&mut self, iteration: usize) -> Result<(), S::Error> {
        // Algorithm 2 lines 8–13: only x is recovered; r, z, p, ρ rebuilt.
        self.state.restarted(iteration);
        self.rebuild_krylov_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{BlockJacobiPreconditioner, JacobiPreconditioner};
    use crate::IterativeMethod;
    use lcr_sparse::poisson::{manufactured_rhs, poisson2d, poisson3d};
    use lcr_sparse::CsrMatrix;

    /// SPD Poisson system: the paper's generator negated on both sides
    /// (CG on the paper's sign is pinned against this twin below).
    fn spd_system(n: usize, three_d: bool) -> (LinearSystem, Vector) {
        let a = if three_d { poisson3d(n) } else { poisson2d(n) }.negated();
        let (xstar, b) = manufactured_rhs(&a);
        (LinearSystem::new(a, b), xstar)
    }

    fn criteria(rtol: f64) -> StoppingCriteria {
        StoppingCriteria::new(rtol, 50_000)
    }

    #[test]
    fn cg_converges_on_spd_poisson2d() {
        let (sys, xstar) = spd_system(10, false);
        let n = sys.dim();
        let mut cg = ConjugateGradient::unpreconditioned(sys, Vector::zeros(n), criteria(1e-10));
        let iters = cg.run_to_convergence();
        assert!(cg.converged());
        assert!(cg.solution().max_abs_diff(&xstar) < 1e-6);
        // CG on an n-dimensional SPD system converges in at most n steps in
        // exact arithmetic; with rounding we allow a small slack.
        assert!(iters <= n + 10, "took {iters} iterations for n = {n}");
        assert_eq!(cg.name(), "cg");
    }

    #[test]
    fn preconditioned_cg_converges_faster() {
        let (sys, _) = spd_system(12, false);
        let n = sys.dim();
        let plain =
            ConjugateGradient::unpreconditioned(sys.clone(), Vector::zeros(n), criteria(1e-10))
                .run_to_convergence();
        let ilu = Arc::new(BlockJacobiPreconditioner::new(&sys.a, 1).unwrap());
        let pcg = ConjugateGradient::new(sys.clone(), ilu, Vector::zeros(n), criteria(1e-10))
            .run_to_convergence();
        let jac = Arc::new(JacobiPreconditioner::new(&sys.a).unwrap());
        let jcg = ConjugateGradient::new(sys, jac, Vector::zeros(n), criteria(1e-10))
            .run_to_convergence();
        assert!(pcg < plain, "ILU(0)-PCG {pcg} vs CG {plain}");
        // Jacobi preconditioning of the constant-diagonal Poisson matrix is
        // a pure scaling, so it cannot be slower than plain CG by more than
        // rounding noise.
        assert!(jcg <= plain + 2);
    }

    #[test]
    fn cg_on_3d_poisson_paper_matrix() {
        let (sys, xstar) = spd_system(5, true);
        let n = sys.dim();
        let mut cg = ConjugateGradient::unpreconditioned(sys, Vector::zeros(n), criteria(1e-7));
        cg.run_to_convergence();
        assert!(cg.solution().max_abs_diff(&xstar) < 1e-4);
    }

    #[test]
    fn capture_restore_is_exact() {
        let (sys, _) = spd_system(8, false);
        let n = sys.dim();
        let mut cg =
            ConjugateGradient::unpreconditioned(sys.clone(), Vector::zeros(n), criteria(1e-12));
        for _ in 0..10 {
            cg.step();
        }
        let state = cg.capture_state();
        assert!(state.vector("p").is_some());
        assert!(state.scalar("rho").is_some());
        assert_eq!(state.vector_bytes(), 2 * n * 8);

        // Reference trajectory.
        let mut reference_iters = Vec::new();
        for _ in 0..5 {
            cg.step();
            reference_iters.push(cg.residual_norm());
        }

        let mut restored =
            ConjugateGradient::unpreconditioned(sys, Vector::zeros(n), criteria(1e-12));
        restored.restore_state(&state);
        assert_eq!(restored.iteration(), 10);
        for expected in reference_iters {
            restored.step();
            assert!((restored.residual_norm() - expected).abs() <= 1e-12 * expected.max(1.0));
        }
    }

    /// Bits of `sign · v`, with a zero of either sign read as `+0.0`: the
    /// sign of an exact zero is the one thing negating a system may move.
    fn signed_bits(v: &Vector, sign: f64) -> Vec<u64> {
        v.iter().map(|&x| if x == 0.0 { 0 } else { (sign * x).to_bits() }).collect()
    }

    /// CG on the paper's `poisson3d(8)` as is and on its negated twin,
    /// `M = I` or block Jacobi(16) built from each system's own matrix.
    fn paper_and_twin(preconditioned: bool) -> [ConjugateGradient; 2] {
        let a = poisson3d(8);
        let (_, b) = manufactured_rhs(&a);
        let mut minus_b = b.clone();
        minus_b.scale(-1.0);
        let twin = LinearSystem::new(a.negated(), minus_b);
        [LinearSystem::new(a, b), twin].map(|sys| {
            let x0 = Vector::zeros(sys.dim());
            if preconditioned {
                let m = Arc::new(BlockJacobiPreconditioner::new(&sys.a, 16).unwrap());
                ConjugateGradient::new(sys, m, x0, criteria(1e-10))
            } else {
                ConjugateGradient::unpreconditioned(sys, x0, criteria(1e-10))
            }
        })
    }

    /// Asserts the sign relation between the two solvers' states: `x` and
    /// the residual history share their bits, `r` is negated, and so is
    /// `ρ` where `M` flips with `A` (block Jacobi) or `p` where it does not
    /// (`M = I`: then `ρ = ‖r‖²` and `α` flips with `p`).
    fn assert_twins(on_a: &ConjugateGradient, twin: &ConjugateGradient, preconditioned: bool) {
        let it = on_a.iteration();
        assert_eq!(it, twin.iteration());
        let (x, twin_x) = (&on_a.state.x, &twin.state.x);
        assert!(x.iter().zip(twin_x.iter()).all(|(a, b)| a.to_bits() == b.to_bits()), "x at {it}");
        assert_eq!(signed_bits(&on_a.r, 1.0), signed_bits(&twin.r, -1.0), "r at {it}");
        let p_sign = if preconditioned { 1.0 } else { -1.0 };
        assert_eq!(signed_bits(&on_a.p, 1.0), signed_bits(&twin.p, p_sign), "p at {it}");
        assert_eq!(on_a.rho.to_bits(), (-p_sign * twin.rho).to_bits(), "rho at {it}");
        let bits = |cg: &ConjugateGradient| -> Vec<u64> {
            cg.history().residuals().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(on_a), bits(twin), "residual history at {it}");
    }

    #[test]
    fn cg_on_the_paper_matrix_runs_the_negated_systems_iterates() {
        for preconditioned in [false, true] {
            let [mut on_a, mut twin] = paper_and_twin(preconditioned);
            assert_twins(&on_a, &twin, preconditioned);
            while !on_a.converged() {
                on_a.step();
                twin.step();
                assert_twins(&on_a, &twin, preconditioned);
            }
            assert!(twin.converged() && on_a.iteration() > 10);
        }
    }

    #[test]
    fn traditional_round_trip_on_the_paper_matrix_resumes_as_its_twin() {
        for preconditioned in [false, true] {
            let [mut on_a, mut twin] = paper_and_twin(preconditioned);
            for _ in 0..10 {
                on_a.step();
                twin.step();
            }
            // The checkpoints hold the same x; ρ (or, with M = I, p) with
            // the opposite sign.
            let (saved, twin_saved) = (on_a.capture_state(), twin.capture_state());
            let [mut resumed, mut twin_resumed] = paper_and_twin(preconditioned);
            resumed.restore_state(&saved);
            twin_resumed.restore_state(&twin_saved);
            assert_twins(&resumed, &twin_resumed, preconditioned);
            assert_eq!(signed_bits(&resumed.p, 1.0), signed_bits(&on_a.p, 1.0));
            assert_eq!(resumed.rho.to_bits(), on_a.rho.to_bits());
            for _ in 0..10 {
                resumed.step();
                twin_resumed.step();
                assert_twins(&resumed, &twin_resumed, preconditioned);
            }
        }
    }

    #[test]
    fn lossy_restart_converges_with_extra_iterations() {
        // §4.4.3: lossy recovery delays CG convergence but still converges.
        let (sys, xstar) = spd_system(10, false);
        let n = sys.dim();

        let mut clean =
            ConjugateGradient::unpreconditioned(sys.clone(), Vector::zeros(n), criteria(1e-10));
        let clean_iters = clean.run_to_convergence();

        let mut lossy =
            ConjugateGradient::unpreconditioned(sys, Vector::zeros(n), criteria(1e-10));
        for _ in 0..clean_iters / 2 {
            lossy.step();
        }
        // Perturb x like a 1e-4 relative-error-bound decompression.
        let mut x = lossy.solution().clone();
        for (i, v) in x.iter_mut().enumerate() {
            *v *= 1.0 + 1e-4 * if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        lossy.restart_from_solution(x, clean_iters / 2);
        let extra = lossy.run_to_convergence();
        assert!(lossy.converged());
        assert!(lossy.solution().max_abs_diff(&xstar) < 1e-4);
        // It must converge, possibly needing extra work compared to the
        // remaining half of the clean run.
        assert!(extra >= clean_iters / 2 - 2);
        assert_eq!(lossy.history().restarts().len(), 1);
    }

    #[test]
    fn cg_handles_identity_system_in_one_step() {
        let a = CsrMatrix::identity(5);
        let b = Vector::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let sys = LinearSystem::new(a, b.clone());
        let mut cg = ConjugateGradient::unpreconditioned(sys, Vector::zeros(5), criteria(1e-12));
        cg.run_to_convergence();
        assert!(cg.iteration() <= 2);
        assert!(cg.solution().max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn converged_solver_steps_are_noops() {
        let (sys, _) = spd_system(6, false);
        let n = sys.dim();
        let mut cg = ConjugateGradient::unpreconditioned(sys, Vector::zeros(n), criteria(1e-8));
        cg.run_to_convergence();
        let it = cg.iteration();
        cg.step();
        cg.step();
        assert_eq!(cg.iteration(), it);
    }
}
