//! Anchored temporal-delta checkpoint selection.
//!
//! The lossy (SZ) strategy can encode checkpoint *k*'s quantization codes
//! as temporal deltas against checkpoint *k−1*'s codes — smaller streams
//! on converging solvers, at the cost of a recovery that replays the
//! chain from the nearest self-contained *anchor* (see `lcr_compress`'s
//! delta module).  [`TemporalEncodingSelector`] owns the policy side of
//! that trade:
//!
//! * every `anchor_interval` snapshots one anchor is **forced**, bounding
//!   the chain length (and hence recovery read amplification) to at most
//!   `anchor_interval` links;
//! * between anchors the compressor is *allowed* (never required) to
//!   delta-code: it keeps whichever encoding is smaller per stream, so a
//!   delta checkpoint is only ever written when it actually wins;
//! * the per-variable compressor state (the previous snapshots' codes) is
//!   retained here between checkpoints, and [`reset`] drops it whenever
//!   the chain is broken — a recovery, an aborted write, or a failed
//!   commit — forcing the next checkpoint back to an anchor that the
//!   store can actually decode.
//!
//! [`reset`]: TemporalEncodingSelector::reset

use lcr_compress::{DeltaMode, SzTemporalState};

/// Decides, per checkpoint, whether the SZ encoder may temporal-delta
/// against the previous checkpoint and carries the encoder state between
/// checkpoints.
///
/// Variable states are kept in a name-keyed vector (not a hash map) so
/// iteration order — and therefore every byte the encoder emits — is
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct TemporalEncodingSelector {
    /// Force an anchor every this many snapshots; `0` or `1` disables
    /// delta coding entirely (every checkpoint is an anchor).
    anchor_interval: usize,
    /// Highest delta order the encoder may choose.
    max_order: DeltaMode,
    /// Snapshots encoded since the last [`TemporalEncodingSelector::reset`].
    snapshot_index: usize,
    /// Retained compressor state per protected variable.
    states: Vec<(String, SzTemporalState)>,
}

impl TemporalEncodingSelector {
    /// Creates a selector forcing an anchor every `anchor_interval`
    /// snapshots (`0`/`1` = always anchor) and allowing deltas up to
    /// `max_order` in between.
    pub fn new(anchor_interval: usize, max_order: DeltaMode) -> Self {
        TemporalEncodingSelector {
            anchor_interval,
            max_order,
            snapshot_index: 0,
            states: Vec::new(),
        }
    }

    /// Whether delta coding is enabled at all.
    pub fn delta_enabled(&self) -> bool {
        self.anchor_interval > 1 && self.max_order != DeltaMode::None
    }

    /// The highest delta order the encoder may choose.
    pub fn max_order(&self) -> DeltaMode {
        self.max_order
    }

    /// Starts the next snapshot: returns `true` when this snapshot must be
    /// an anchor (the first after construction or a reset, and every
    /// `anchor_interval`-th thereafter) and advances the snapshot counter.
    pub fn begin_snapshot(&mut self) -> bool {
        let force_anchor =
            !self.delta_enabled() || self.snapshot_index.is_multiple_of(self.anchor_interval);
        self.snapshot_index += 1;
        force_anchor
    }

    /// The retained compressor state for variable `name`, created empty on
    /// first use.
    pub fn state_for(&mut self, name: &str) -> &mut SzTemporalState {
        if let Some(idx) = self.states.iter().position(|(n, _)| n == name) {
            return &mut self.states[idx].1;
        }
        self.states.push((name.to_string(), SzTemporalState::new()));
        &mut self.states.last_mut().expect("just pushed").1
    }

    /// Drops all retained state and restarts the anchor cadence.  Must be
    /// called whenever the last *encoded* snapshot is not the last
    /// *committed* checkpoint — after a recovery, an aborted mid-write
    /// checkpoint, or a failed commit — because a delta against a
    /// checkpoint the store no longer agrees on is undecodable.
    pub fn reset(&mut self) {
        self.snapshot_index = 0;
        for (_, state) in &mut self.states {
            state.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_cadence_is_every_kth_snapshot() {
        let mut sel = TemporalEncodingSelector::new(3, DeltaMode::Order1);
        let forced: Vec<bool> = (0..7).map(|_| sel.begin_snapshot()).collect();
        assert_eq!(forced, vec![true, false, false, true, false, false, true]);
    }

    #[test]
    fn reset_restarts_the_cadence_and_clears_state() {
        let mut sel = TemporalEncodingSelector::new(4, DeltaMode::Order2);
        assert!(sel.begin_snapshot());
        assert!(!sel.begin_snapshot());
        sel.state_for("x");
        sel.reset();
        assert!(sel.begin_snapshot(), "first snapshot after reset is an anchor");
        assert!(!sel.state_for("x").has_prior());
    }

    #[test]
    fn zero_or_one_interval_always_anchors() {
        for interval in [0, 1] {
            let mut sel = TemporalEncodingSelector::new(interval, DeltaMode::Order1);
            assert!(!sel.delta_enabled());
            assert!((0..5).all(|_| sel.begin_snapshot()));
        }
    }

    #[test]
    fn none_max_order_disables_delta() {
        let mut sel = TemporalEncodingSelector::new(8, DeltaMode::None);
        assert!(!sel.delta_enabled());
        assert!((0..5).all(|_| sel.begin_snapshot()));
    }

    #[test]
    fn state_is_per_variable_and_order_stable() {
        let mut sel = TemporalEncodingSelector::new(4, DeltaMode::Order1);
        sel.state_for("x");
        sel.state_for("p");
        sel.state_for("x");
        assert_eq!(sel.states.len(), 2);
        assert_eq!(sel.states[0].0, "x");
        assert_eq!(sel.states[1].0, "p");
    }
}
