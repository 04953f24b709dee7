//! Expected fault-tolerance overhead (Equations 2–8 and Figures 1 & 7).
//!
//! The paper derives the expected total execution time under checkpointing
//! with the optimal (Young) interval:
//!
//! ```text
//! T_t = N·T_it / (1 − sqrt(2λT_ckp) − λT_rc)                    (2)
//! ```
//!
//! and, approximating `T_rc ≈ T_ckp`, the overhead *ratio* relative to the
//! failure-free productive time `N·T_it` becomes `f(T_ckp, λ) / (1 −
//! f(T_ckp, λ))` with `f(t, λ) = sqrt(2λt) + λt` (Equations 4–5), plotted
//! as the surface of Figure 1.  The lossy model adds the extra-iteration
//! penalty `λ·N′·T_it` (Equations 7–8, Figure 7).

use serde::{Deserialize, Serialize};

/// The helper `f(t, λ) = sqrt(2λt) + λt` used throughout Section 4.
fn f(t_ckp: f64, lambda: f64) -> f64 {
    (2.0 * lambda * t_ckp).sqrt() + lambda * t_ckp
}

/// Expected fault-tolerance overhead of *traditional* checkpointing as a
/// fraction of the productive execution time (Equation 5).
///
/// Returns `f / (1 − f)`; if the denominator is non-positive the system
/// cannot make progress (failures arrive faster than recovery) and
/// `f64::INFINITY` is returned.
///
/// # Panics
/// Panics if `t_ckp` or `lambda` is negative or not finite.
pub fn traditional_overhead_ratio(t_ckp: f64, lambda: f64) -> f64 {
    assert!(t_ckp.is_finite() && t_ckp >= 0.0, "invalid checkpoint time");
    assert!(lambda.is_finite() && lambda >= 0.0, "invalid failure rate");
    let fv = f(t_ckp, lambda);
    if fv >= 1.0 {
        f64::INFINITY
    } else {
        fv / (1.0 - fv)
    }
}

/// Expected fault-tolerance overhead of *lossy* checkpointing as a fraction
/// of the productive execution time (Equation 8): the checkpoint is cheaper
/// (`t_lossy_ckp`, which includes the compression time) but each recovery
/// costs `n_extra` additional iterations of `t_it` seconds.
///
/// # Panics
/// Panics on negative or non-finite inputs.
pub fn lossy_overhead_ratio(t_lossy_ckp: f64, lambda: f64, n_extra: f64, t_it: f64) -> f64 {
    assert!(
        t_lossy_ckp.is_finite() && t_lossy_ckp >= 0.0,
        "invalid checkpoint time"
    );
    assert!(lambda.is_finite() && lambda >= 0.0, "invalid failure rate");
    assert!(n_extra.is_finite() && n_extra >= 0.0, "invalid extra iterations");
    assert!(t_it.is_finite() && t_it >= 0.0, "invalid iteration time");
    let fv = f(t_lossy_ckp, lambda) + lambda * n_extra * t_it;
    if fv >= 1.0 {
        f64::INFINITY
    } else {
        fv / (1.0 - fv)
    }
}

/// One point of the Figure 1 / Figure 7 overhead surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
// lcr-analyze: allow(dead-public-item): element type of the public `ExpectedOverheadSurface::points`
pub struct OverheadPoint {
    /// Failure rate in failures per hour.
    pub failures_per_hour: f64,
    /// Checkpoint time in seconds.
    pub checkpoint_seconds: f64,
    /// Expected overhead as a fraction of productive time.
    pub overhead_ratio: f64,
}

/// The Figure 1 surface: expected traditional-checkpointing overhead over a
/// grid of failure rates and checkpoint times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpectedOverheadSurface {
    /// Grid points in row-major order (failure rate varying slowest).
    pub points: Vec<OverheadPoint>,
}

impl ExpectedOverheadSurface {
    /// Generates the surface over `failures_per_hour` ∈ [0, max_rate] and
    /// `checkpoint_seconds` ∈ [0, max_ckpt] with the given resolutions —
    /// the paper plots 0–3.5 failures/hour and 0–140 s.
    ///
    /// # Panics
    /// Panics if a resolution is zero.
    pub fn generate(
        max_failures_per_hour: f64,
        rate_steps: usize,
        max_checkpoint_seconds: f64,
        ckpt_steps: usize,
    ) -> Self {
        assert!(rate_steps > 0 && ckpt_steps > 0, "resolution must be positive");
        let mut points = Vec::with_capacity((rate_steps + 1) * (ckpt_steps + 1));
        for i in 0..=rate_steps {
            let rate = max_failures_per_hour * i as f64 / rate_steps as f64;
            let lambda = rate / 3600.0;
            for j in 0..=ckpt_steps {
                let t_ckp = max_checkpoint_seconds * j as f64 / ckpt_steps as f64;
                points.push(OverheadPoint {
                    failures_per_hour: rate,
                    checkpoint_seconds: t_ckp,
                    overhead_ratio: traditional_overhead_ratio(t_ckp, lambda),
                });
            }
        }
        ExpectedOverheadSurface { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOURLY: f64 = 1.0 / 3600.0;

    #[test]
    fn zero_failure_rate_means_zero_overhead() {
        assert_eq!(traditional_overhead_ratio(120.0, 0.0), 0.0);
        assert_eq!(lossy_overhead_ratio(25.0, 0.0, 500.0, 1.2), 0.0);
    }

    #[test]
    fn figure1_magnitude_check() {
        // §4.1 / Figure 1: with T_ckp = 120 s and an hourly MTTI the
        // expected overhead is roughly 40 %.
        let overhead = traditional_overhead_ratio(120.0, HOURLY);
        assert!(
            overhead > 0.30 && overhead < 0.45,
            "expected ≈40 % overhead, got {:.1}%",
            overhead * 100.0
        );
        // With a 3-hour MTTI it drops well below.
        let overhead3 = traditional_overhead_ratio(120.0, HOURLY / 3.0);
        assert!(overhead3 < overhead / 1.8);
    }

    #[test]
    fn lossy_beats_traditional_when_extra_iterations_small() {
        // GMRES example of §4.3: T_ckp 120 → 25 s, T_it = 1.2 s, MTTI 1 h.
        let trad = traditional_overhead_ratio(120.0, HOURLY);
        let lossy_no_delay = lossy_overhead_ratio(25.0, HOURLY, 0.0, 1.2);
        let lossy_at_bound = lossy_overhead_ratio(25.0, HOURLY, 500.0, 1.2);
        let lossy_over_bound = lossy_overhead_ratio(25.0, HOURLY, 1200.0, 1.2);
        assert!(lossy_no_delay < trad);
        // At the Theorem-1 bound the two schemes are comparable.
        assert!((lossy_at_bound - trad).abs() / trad < 0.12);
        // Far beyond the bound, lossy loses.
        assert!(lossy_over_bound > trad);
    }

    #[test]
    fn overhead_increases_with_rate_and_ckpt_time() {
        let base = traditional_overhead_ratio(60.0, HOURLY);
        assert!(traditional_overhead_ratio(120.0, HOURLY) > base);
        assert!(traditional_overhead_ratio(60.0, 2.0 * HOURLY) > base);
    }

    #[test]
    fn saturation_returns_infinity() {
        // Absurdly slow checkpointing with a high failure rate.
        let r = traditional_overhead_ratio(36_000.0, 10.0 * HOURLY);
        assert!(r.is_infinite());
    }

    #[test]
    fn figure1_surface_shape() {
        let surface = ExpectedOverheadSurface::generate(3.5, 10, 140.0, 14);
        assert_eq!(surface.points.len(), 11 * 15);
        // The corner with zero rate or zero checkpoint time has zero
        // overhead; the opposite corner has the maximum.
        assert_eq!(surface.points[0].overhead_ratio, 0.0);
        let max = surface.points.iter().map(|p| p.overhead_ratio).fold(0.0, f64::max);
        let corner = surface.points.last().unwrap();
        assert_eq!(corner.overhead_ratio, max);
        assert!(max > 1.0, "3.5 failures/hour at 140 s ckpt is > 100 % overhead");
        // Monotone along the checkpoint-time axis for a fixed rate.
        let row: Vec<_> = surface.points[15 * 5..15 * 6].to_vec();
        for w in row.windows(2) {
            assert!(w[1].overhead_ratio >= w[0].overhead_ratio);
        }
    }

    #[test]
    #[should_panic(expected = "invalid checkpoint time")]
    fn negative_checkpoint_time_panics() {
        let _ = traditional_overhead_ratio(-1.0, HOURLY);
    }
}
