//! Theorems 1–3 of the paper: when lossy checkpointing pays off, and how
//! much convergence delay the compression error can cause.

use serde::{Deserialize, Serialize};

/// Inputs of Theorem 1 (the sufficient condition for a performance gain).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Theorem1Inputs {
    /// Mean time of one traditional checkpoint, seconds.
    pub t_trad_ckp: f64,
    /// Mean time of one lossy checkpoint (including compression), seconds.
    pub t_lossy_ckp: f64,
    /// Failure rate λ in failures per second.
    pub lambda: f64,
    /// Mean time of one solver iteration, seconds.
    pub t_it: f64,
}

/// Theorem 1: the maximum number of extra iterations per lossy recovery,
/// `N′ ≤ (f(T_trad, λ) − f(T_lossy, λ)) / (λ·T_it)` with
/// `f(t, λ) = sqrt(2λt) + λt`, under which lossy checkpointing still
/// improves on traditional checkpointing.
///
/// Returns 0 when λ or T_it is zero (no failures → the bound is vacuous and
/// lossy checkpointing trivially cannot lose time to re-convergence).
///
/// # Panics
/// Panics on negative or non-finite inputs.
pub fn theorem1_max_extra_iterations(inputs: &Theorem1Inputs) -> f64 {
    let Theorem1Inputs {
        t_trad_ckp,
        t_lossy_ckp,
        lambda,
        t_it,
    } = *inputs;
    assert!(t_trad_ckp.is_finite() && t_trad_ckp >= 0.0, "invalid T_trad");
    assert!(t_lossy_ckp.is_finite() && t_lossy_ckp >= 0.0, "invalid T_lossy");
    assert!(lambda.is_finite() && lambda >= 0.0, "invalid lambda");
    assert!(t_it.is_finite() && t_it >= 0.0, "invalid T_it");
    if lambda == 0.0 || t_it == 0.0 {
        return 0.0;
    }
    let f = |t: f64| (2.0 * lambda * t).sqrt() + lambda * t;
    ((f(t_trad_ckp) - f(t_lossy_ckp)) / (lambda * t_it)).max(0.0)
}

/// Theorem 2: for a stationary iterative method with spectral radius `r`
/// (of the iteration matrix), restarting at iteration `t` from a lossy
/// checkpoint with relative error bound `eb` costs at most
/// `t − log_R(Rᵗ + eb)` extra iterations.
///
/// Returns 0 if the inputs are degenerate (`r` outside (0, 1)).
fn theorem2_extra_iterations_at(r: f64, eb: f64, t: usize) -> f64 {
    if !(r > 0.0 && r < 1.0) || eb < 0.0 {
        return 0.0;
    }
    let rt = r.powi(t as i32);
    let bound = t as f64 - (rt + eb).log(r);
    bound.max(0.0)
}

/// Theorem 2's expected-value interval: the expected upper bound on the
/// number of extra iterations lies in
/// `[ (N+1)/2 − log_R(R^((N+1)/2) + eb),  N − log_R(R^N + eb) ]`
/// where `N` is the failure-free iteration count, `R` the spectral radius
/// and `eb` the relative error bound.
///
/// Returns `(low, high)`; both are 0 for degenerate inputs.
pub fn theorem2_extra_iterations_interval(r: f64, eb: f64, n: usize) -> (f64, f64) {
    if !(r > 0.0 && r < 1.0) || eb < 0.0 || n == 0 {
        return (0.0, 0.0);
    }
    let mid = (n as f64 + 1.0) / 2.0;
    let low = {
        let rm = r.powf(mid);
        (mid - (rm + eb).log(r)).max(0.0)
    };
    let high = theorem2_extra_iterations_at(r, eb, n);
    (low.min(high), high)
}

/// The upper end of the Theorem-2 interval — the value the paper uses when
/// quoting "the expectation of N′ is about 6" for Jacobi (§5.3, with
/// `N = 3941`, `eb = 1e-4`, `R ≈ 0.99998`).
pub fn theorem2_extra_iterations_upper_bound(r: f64, eb: f64, n: usize) -> f64 {
    theorem2_extra_iterations_interval(r, eb, n).1
}

/// Theorem 3: the relative error bound that keeps a restarted GMRES
/// recovery from degrading convergence is `eb = c·‖r⁽ᵗ⁾‖ / ‖b‖` — on the
/// order of the current relative residual.  `safety` is the constant `c`
/// (the paper uses order-1; the default strategy passes 1.0).
///
/// Returns a bound clamped to `[min_bound, max_bound]` so extremely small
/// residuals near convergence do not drive the compressor into a regime
/// where compression stops paying (and zero is never returned).
pub fn theorem3_gmres_error_bound(
    residual_norm: f64,
    rhs_norm: f64,
    safety: f64,
    min_bound: f64,
    max_bound: f64,
) -> f64 {
    if rhs_norm <= 0.0 || rhs_norm.is_nan() || !residual_norm.is_finite() || residual_norm < 0.0 {
        return min_bound.max(f64::MIN_POSITIVE);
    }
    let raw = safety * residual_norm / rhs_norm;
    raw.clamp(min_bound.max(f64::MIN_POSITIVE), max_bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_worked_example_from_section_4_3() {
        // §4.3: GMRES on Bebop with 2,048 cores — T_ckp 120 s → 25 s,
        // MTTI = 1 hour, 5,875 iterations in 7,160 s (T_it ≈ 1.2 s).
        // The paper derives a maximum acceptable N′ of about 500.
        let inputs = Theorem1Inputs {
            t_trad_ckp: 120.0,
            t_lossy_ckp: 25.0,
            lambda: 1.0 / 3600.0,
            t_it: 7160.0 / 5875.0,
        };
        let n_max = theorem1_max_extra_iterations(&inputs);
        assert!(
            (n_max - 500.0).abs() < 30.0,
            "expected ≈500 iterations, got {n_max:.0}"
        );
        // That is roughly 9 % of the total iteration count, as the paper
        // remarks.
        assert!((n_max / 5875.0 - 0.09).abs() < 0.02);
    }

    #[test]
    fn theorem1_degenerate_cases() {
        let zero_lambda = Theorem1Inputs {
            t_trad_ckp: 120.0,
            t_lossy_ckp: 25.0,
            lambda: 0.0,
            t_it: 1.0,
        };
        assert_eq!(theorem1_max_extra_iterations(&zero_lambda), 0.0);

        // Lossy slower than traditional → no budget for extra iterations.
        let inverted = Theorem1Inputs {
            t_trad_ckp: 25.0,
            t_lossy_ckp: 120.0,
            lambda: 1.0 / 3600.0,
            t_it: 1.0,
        };
        assert_eq!(theorem1_max_extra_iterations(&inverted), 0.0);
    }

    #[test]
    fn theorem1_budget_grows_with_checkpoint_gap() {
        let mk = |lossy: f64| Theorem1Inputs {
            t_trad_ckp: 120.0,
            t_lossy_ckp: lossy,
            lambda: 1.0 / 3600.0,
            t_it: 1.2,
        };
        assert!(
            theorem1_max_extra_iterations(&mk(10.0))
                > theorem1_max_extra_iterations(&mk(60.0))
        );
    }

    #[test]
    fn theorem2_jacobi_expectation_is_small() {
        // §5.3: N = 3941, eb = 1e-4, R ≈ 0.99998 → expected N′ ≈ 6.
        let (low, high) = theorem2_extra_iterations_interval(0.99998, 1e-4, 3941);
        assert!(low >= 0.0);
        assert!(high >= low);
        assert!(
            high < 30.0,
            "upper bound should be a handful of iterations, got {high:.1}"
        );
        // And the interval brackets the paper's quoted ≈6 within reason.
        assert!(high > 1.0, "bound unexpectedly tiny: {high:.2}");
    }

    #[test]
    fn theorem2_larger_error_bound_costs_more() {
        let small = theorem2_extra_iterations_upper_bound(0.999, 1e-6, 2000);
        let large = theorem2_extra_iterations_upper_bound(0.999, 1e-3, 2000);
        assert!(large > small);
    }

    #[test]
    fn theorem2_degenerate_inputs() {
        assert_eq!(theorem2_extra_iterations_interval(1.5, 1e-4, 100), (0.0, 0.0));
        assert_eq!(theorem2_extra_iterations_interval(0.9, -1.0, 100), (0.0, 0.0));
        assert_eq!(theorem2_extra_iterations_interval(0.9, 1e-4, 0), (0.0, 0.0));
        assert_eq!(theorem2_extra_iterations_at(0.0, 1e-4, 10), 0.0);
    }

    #[test]
    fn theorem2_zero_error_bound_means_no_delay() {
        // With eb = 0 the bound is t − log_R(R^t) = 0: exact recovery.
        let v = theorem2_extra_iterations_at(0.99, 0.0, 500);
        assert!(v.abs() < 1e-9);
    }

    #[test]
    fn theorem3_bound_tracks_residual() {
        let b = 100.0;
        let early = theorem3_gmres_error_bound(10.0, b, 1.0, 1e-12, 1e-1);
        let late = theorem3_gmres_error_bound(1e-3, b, 1.0, 1e-12, 1e-1);
        assert!((early - 0.1).abs() < 1e-12); // clamped to max
        assert!((late - 1e-5).abs() < 1e-18);
        assert!(late < early);
    }

    #[test]
    fn theorem3_clamps_and_degenerates() {
        assert_eq!(
            theorem3_gmres_error_bound(1e-30, 1.0, 1.0, 1e-10, 1e-2),
            1e-10
        );
        assert_eq!(theorem3_gmres_error_bound(1.0, 0.0, 1.0, 1e-10, 1e-2), 1e-10);
        assert_eq!(
            theorem3_gmres_error_bound(f64::NAN, 1.0, 1.0, 1e-10, 1e-2),
            1e-10
        );
    }
}
