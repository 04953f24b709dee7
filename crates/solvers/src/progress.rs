//! The bookkeeping every method written over a [`Space`] shares.

use lcr_sparse::Vector;

use crate::convergence::{ConvergenceHistory, StoppingCriteria};
use crate::space::Space;

/// The iterate, the stopping rule and how far the solve has come — what
/// CG, BiCGStab and Jacobi track besides their own recurrence vectors.
#[derive(Debug, Clone)]
pub struct Progress {
    pub(crate) x: Vector,
    pub(crate) criteria: StoppingCriteria,
    iteration: usize,
    pub(crate) residual_norm: f64,
    reference_norm: f64,
    history: ConvergenceHistory,
    /// Breakdown restarts since the last accepted iteration or recovery.
    /// A restart rebuilds exactly the state that broke down, so a second
    /// one cannot help and ends the solve.
    breakdowns: u8,
}

impl Progress {
    /// Starts a solve on `space` from `x0` (`None`: the zero guess, for
    /// which `r = b` needs no operator application), returning the
    /// progress, `r = b − A x₀` and ‖r‖².
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub(crate) fn start<S: Space>(
        space: &mut S,
        x0: Option<Vector>,
        criteria: StoppingCriteria,
    ) -> Result<(Self, Vector, f64), S::Error> {
        let mut r = Vector::from_vec(space.rhs().to_vec());
        let reference_norm = space.dot(&r, &r)?.sqrt();
        let x = match x0 {
            None => Vector::zeros(r.len()),
            Some(x0) => {
                assert_eq!(x0.len(), r.len(), "x0 dimension mismatch");
                space.apply(&x0, &mut r)?;
                for (ri, bi) in r.iter_mut().zip(space.rhs()) {
                    *ri = bi - *ri;
                }
                x0
            }
        };
        let rr = space.dot(&r, &r)?;
        let progress = Progress {
            x,
            criteria,
            iteration: 0,
            residual_norm: rr.sqrt(),
            reference_norm,
            history: ConvergenceHistory::new(rr.sqrt()),
            breakdowns: 0,
        };
        Ok((progress, r, rr))
    }

    /// Iterations completed so far.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Current residual 2-norm.
    pub fn residual_norm(&self) -> f64 {
        self.residual_norm
    }

    /// Norm used as the convergence reference (‖b‖).
    pub fn reference_norm(&self) -> f64 {
        self.reference_norm
    }

    /// Current approximate solution.
    pub fn solution(&self) -> &Vector {
        &self.x
    }

    /// The solution, for a recovery to overwrite before the solver is
    /// restarted from it.
    pub fn solution_mut(&mut self) -> &mut Vector {
        &mut self.x
    }

    /// Convergence history (residual norm per iteration).
    pub fn history(&self) -> &ConvergenceHistory {
        &self.history
    }

    /// Whether the residual meets the tolerance.
    pub fn satisfied(&self) -> bool {
        self.criteria
            .is_satisfied(self.residual_norm, self.reference_norm)
    }

    /// Whether iterating should stop: tolerance met, iteration limit hit or
    /// a repeated breakdown (the latter two flagged by
    /// `history().limit_reached`).
    pub fn converged(&self) -> bool {
        self.satisfied() || self.criteria.limit_reached(self.iteration) || self.breakdowns > 1
    }

    /// Records a completed iteration that left the residual at
    /// `residual_norm`.
    pub(crate) fn accept(&mut self, residual_norm: f64) {
        self.residual_norm = residual_norm;
        self.iteration += 1;
        self.breakdowns = 0;
        self.history.record(residual_norm);
        if self.criteria.limit_reached(self.iteration) {
            self.history.limit_reached = true;
        }
    }

    /// Records a breakdown of the recurrence and returns whether to restart
    /// it from the current solution; `false` means this breakdown directly
    /// follows another, and the solve has ended unconverged.
    pub(crate) fn break_down(&mut self) -> bool {
        self.breakdowns += 1;
        if self.breakdowns > 1 {
            self.history.limit_reached = true;
            return false;
        }
        self.history.record_restart(self.iteration);
        true
    }

    /// Records a restart at `iteration` from a solution handed in from
    /// outside (a recovery) or just accepted.
    pub(crate) fn restarted(&mut self, iteration: usize) {
        self.iteration = iteration;
        self.breakdowns = 0;
        self.history.record_restart(iteration);
    }
}
