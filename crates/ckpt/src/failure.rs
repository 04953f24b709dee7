//! Fail-stop failure injection.
//!
//! Section 5.4 of the paper injects failures whose inter-arrival times
//! follow an exponential distribution with a mean of one hour (the MTTI),
//! striking at arbitrary points of the execution — during computation as
//! well as during checkpoint/recovery I/O.  [`FailureInjector`] reproduces
//! that process deterministically from a seed so experiments are
//! repeatable.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Exponentially distributed fail-stop failure process.
#[derive(Debug, Clone)]
pub struct FailureInjector {
    mtti_seconds: f64,
    rng: ChaCha8Rng,
    /// Absolute simulated time of the next failure.
    next_failure: f64,
    /// Number of failures generated so far.
    count: usize,
}

impl FailureInjector {
    /// Creates an injector with mean time to interruption `mtti_seconds`,
    /// starting at simulated time 0.
    ///
    /// # Panics
    /// Panics if the MTTI is not positive and finite.
    pub fn new(mtti_seconds: f64, seed: u64) -> Self {
        assert!(
            mtti_seconds.is_finite() && mtti_seconds > 0.0,
            "MTTI must be positive"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let first = Self::sample_exponential(&mut rng, mtti_seconds);
        FailureInjector {
            mtti_seconds,
            rng,
            next_failure: first,
            count: 0,
        }
    }

    /// An injector that never fails (for failure-free baselines).
    pub fn never() -> Self {
        FailureInjector {
            mtti_seconds: f64::MAX,
            rng: ChaCha8Rng::seed_from_u64(0),
            next_failure: f64::INFINITY,
            count: 0,
        }
    }

    fn sample_exponential(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
        // Inverse-CDF sampling; guard against u == 0.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// The configured mean time to interruption in seconds.
    pub fn mtti_seconds(&self) -> f64 {
        self.mtti_seconds
    }

    /// The failure rate λ = 1 / MTTI in failures per second.
    pub fn rate(&self) -> f64 {
        1.0 / self.mtti_seconds
    }

    /// Absolute time of the next scheduled failure.
    #[cfg(test)]
    fn next_failure_time(&self) -> f64 {
        self.next_failure
    }

    /// Number of failures that have struck so far.
    #[cfg(test)]
    fn failures_so_far(&self) -> usize {
        self.count
    }

    /// Returns `true` — and schedules the following failure — if a failure
    /// strikes within the interval `(from, to]` of simulated time.
    ///
    /// The caller is expected to poll intervals in non-decreasing order.
    pub fn fails_during(&mut self, from: f64, to: f64) -> bool {
        debug_assert!(to >= from, "interval must be non-decreasing");
        if self.next_failure > from && self.next_failure <= to {
            self.count += 1;
            let gap = Self::sample_exponential(&mut self.rng, self.mtti_seconds);
            self.next_failure += gap.max(f64::MIN_POSITIVE);
            true
        } else {
            false
        }
    }

    /// Draws the first `n` failure times without consuming the injector.
    #[cfg(test)]
    fn preview(&self, n: usize) -> Vec<f64> {
        let mut copy = self.clone();
        let mut times = Vec::with_capacity(n);
        let mut t = copy.next_failure;
        for _ in 0..n {
            times.push(t);
            let gap = Self::sample_exponential(&mut copy.rng, copy.mtti_seconds);
            t += gap;
        }
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = FailureInjector::new(3600.0, 42).preview(10);
        let b = FailureInjector::new(3600.0, 42).preview(10);
        assert_eq!(a, b);
        let c = FailureInjector::new(3600.0, 43).preview(10);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_interarrival_close_to_mtti() {
        let mtti = 3600.0;
        let times = FailureInjector::new(mtti, 7).preview(4000);
        let mut gaps = Vec::with_capacity(times.len());
        let mut prev = 0.0;
        for &t in &times {
            gaps.push(t - prev);
            prev = t;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!(
            (mean - mtti).abs() / mtti < 0.1,
            "empirical mean {mean} vs MTTI {mtti}"
        );
        // All gaps positive and times increasing.
        assert!(gaps.iter().all(|&g| g > 0.0));
    }

    #[test]
    fn fails_during_detects_intervals() {
        let mut inj = FailureInjector::new(100.0, 1);
        let first = inj.next_failure_time();
        assert!(!inj.fails_during(0.0, first * 0.5));
        assert!(inj.fails_during(first * 0.5, first + 1.0));
        assert_eq!(inj.failures_so_far(), 1);
        // Next failure is strictly later.
        assert!(inj.next_failure_time() > first);
    }

    #[test]
    fn rate_is_inverse_mtti() {
        let inj = FailureInjector::new(1800.0, 3);
        assert!((inj.rate() - 1.0 / 1800.0).abs() < 1e-15);
        assert_eq!(inj.mtti_seconds(), 1800.0);
    }

    #[test]
    fn never_fails() {
        let mut inj = FailureInjector::never();
        assert!(!inj.fails_during(0.0, 1e12));
        assert_eq!(inj.failures_so_far(), 0);
    }

    #[test]
    #[should_panic(expected = "MTTI must be positive")]
    fn invalid_mtti_panics() {
        let _ = FailureInjector::new(0.0, 1);
    }
}
