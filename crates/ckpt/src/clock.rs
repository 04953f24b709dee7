//! Simulated wall clock.
//!
//! All performance accounting in the reproduction flows through this clock:
//! solver iterations advance it by a modelled per-iteration cost, checkpoint
//! and recovery I/O advance it by the PFS model's predictions, and the
//! failure injector compares its event times against it.  Using simulated
//! time is what lets a 2,048-rank study with hour-scale MTTIs run in
//! seconds on one node while keeping the *relative* overheads faithful.


/// A simulated wall clock measured in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimClock {
    now: f64,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        SimClock { now: 0.0 }
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the clock by `seconds`.
    ///
    /// # Panics
    /// Panics if `seconds` is negative or not finite (a negative advance is
    /// always a logic error in the harness).
    pub fn advance(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "cannot advance clock by {seconds}"
        );
        self.now += seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        c.advance(2.5);
        assert_eq!(c.now(), 4.0);
    }

    #[test]
    #[should_panic(expected = "cannot advance clock")]
    fn negative_advance_panics() {
        let mut c = SimClock::new();
        c.advance(-1.0);
    }
}
