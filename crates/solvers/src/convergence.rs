//! Stopping criteria and convergence history.


/// Stopping criteria shared by all solvers, following PETSc's convention
/// used in the paper: convergence when the (possibly preconditioned)
/// residual norm has decreased by the relative tolerance `rtol` with respect
/// to the reference norm, or has fallen below the absolute tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingCriteria {
    /// Relative tolerance (the paper uses 1e-4 for Jacobi, 7e-5 for GMRES
    /// and 1e-7 for CG in §5.1).
    pub rtol: f64,
    /// Absolute tolerance on the residual norm.
    pub atol: f64,
    /// Hard iteration limit; the solver reports convergence (with a
    /// `limit_reached` flag in the history) once it is hit so that driver
    /// loops always terminate.
    pub max_iterations: usize,
}

impl Default for StoppingCriteria {
    fn default() -> Self {
        StoppingCriteria {
            rtol: 1e-5,
            atol: 1e-50,
            max_iterations: 1_000_000,
        }
    }
}

impl StoppingCriteria {
    /// Creates criteria with the given relative tolerance and iteration cap.
    pub fn new(rtol: f64, max_iterations: usize) -> Self {
        StoppingCriteria {
            rtol,
            max_iterations,
            ..StoppingCriteria::default()
        }
    }

    /// Whether a residual norm satisfies the tolerance part of the criteria
    /// relative to `reference_norm`.
    pub fn is_satisfied(&self, residual_norm: f64, reference_norm: f64) -> bool {
        residual_norm <= self.atol || residual_norm <= self.rtol * reference_norm
    }

    /// Whether the iteration budget is exhausted.
    pub fn limit_reached(&self, iteration: usize) -> bool {
        iteration >= self.max_iterations
    }
}

/// Residual-norm history of a solve, including restart/recovery markers so
/// the Figure 9-style residual traces can be reconstructed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceHistory {
    /// Residual norm after each iteration (`residuals[k]` is the norm after
    /// iteration `k+1`; the norm of the initial guess is `initial`).
    residuals: Vec<f64>,
    /// Residual norm of the initial guess.
    initial: f64,
    /// Iteration indices at which a (lossy or exact) recovery happened.
    restarts: Vec<usize>,
    /// Whether the iteration limit was hit before the tolerance.
    pub limit_reached: bool,
}

impl ConvergenceHistory {
    /// Creates an empty history with the given initial residual norm.
    pub fn new(initial_residual: f64) -> Self {
        ConvergenceHistory {
            residuals: Vec::new(),
            initial: initial_residual,
            restarts: Vec::new(),
            limit_reached: false,
        }
    }

    /// Records the residual norm after an iteration.
    pub fn record(&mut self, residual_norm: f64) {
        self.residuals.push(residual_norm);
    }

    /// Records that a recovery/restart occurred before iteration `iteration`.
    pub fn record_restart(&mut self, iteration: usize) {
        self.restarts.push(iteration);
    }

    /// Residual norm of the initial guess.
    pub fn initial_residual(&self) -> f64 {
        self.initial
    }

    /// Residual norms per iteration.
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }

    /// Indices of iterations at which restarts/recoveries happened.
    pub fn restarts(&self) -> &[usize] {
        &self.restarts
    }

    /// Number of iterations recorded.
    pub fn iterations(&self) -> usize {
        self.residuals.len()
    }

    /// Last recorded residual norm (or the initial one if none recorded).
    fn last_residual(&self) -> f64 {
        *self.residuals.last().unwrap_or(&self.initial)
    }

    /// Estimates the average contraction factor per iteration,
    /// `(‖r_k‖ / ‖r_0‖)^(1/k)` — an empirical estimate of the spectral
    /// radius `R` of the iteration matrix used by Theorem 2.
    pub fn contraction_factor(&self) -> Option<f64> {
        let k = self.residuals.len();
        if k == 0 || self.initial <= 0.0 {
            return None;
        }
        let last = self.last_residual();
        if last <= 0.0 {
            return None;
        }
        Some((last / self.initial).powf(1.0 / k as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn criteria_default_and_custom() {
        let d = StoppingCriteria::default();
        assert!(d.rtol > 0.0);
        let c = StoppingCriteria::new(1e-7, 500);
        assert_eq!(c.rtol, 1e-7);
        assert_eq!(c.max_iterations, 500);
        assert!(c.is_satisfied(1e-9, 1.0));
        assert!(!c.is_satisfied(1e-5, 1.0));
        assert!(c.is_satisfied(1e-60, 0.0));
        assert!(c.limit_reached(500));
        assert!(!c.limit_reached(499));
    }

    #[test]
    fn history_records_and_restarts() {
        let mut h = ConvergenceHistory::new(1.0);
        h.record(0.5);
        h.record(0.25);
        h.record_restart(2);
        h.record(0.125);
        assert_eq!(h.iterations(), 3);
        assert_eq!(h.last_residual(), 0.125);
        assert_eq!(h.restarts(), &[2]);
        assert_eq!(h.initial, 1.0);
        assert_eq!(h.residuals().len(), 3);
    }

    #[test]
    fn contraction_factor_estimate() {
        let mut h = ConvergenceHistory::new(1.0);
        // Perfect geometric decay with factor 0.5.
        for k in 1..=10 {
            h.record(0.5f64.powi(k));
        }
        let r = h.contraction_factor().unwrap();
        assert!((r - 0.5).abs() < 1e-12);

        let empty = ConvergenceHistory::new(1.0);
        assert!(empty.contraction_factor().is_none());

        let mut zero_init = ConvergenceHistory::new(0.0);
        zero_init.record(0.1);
        assert!(zero_init.contraction_factor().is_none());
    }

    #[test]
    fn last_residual_falls_back_to_initial() {
        let h = ConvergenceHistory::new(3.0);
        assert_eq!(h.last_residual(), 3.0);
    }
}
