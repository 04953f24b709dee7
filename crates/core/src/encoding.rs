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

use lcr_compress::{Chain, DeltaMode, SzTemporalState};

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

    /// Starts the next snapshot: `None` while delta coding is off (an
    /// interval of `0`/`1` or a `None` order — every checkpoint is a
    /// chainless anchor), else whether this snapshot must be an anchor (the
    /// first after construction or a reset, and every `anchor_interval`-th
    /// thereafter).
    pub(crate) fn begin_snapshot(&mut self) -> Option<bool> {
        if self.anchor_interval <= 1 || self.max_order == DeltaMode::None {
            return None;
        }
        let force_anchor = self.snapshot_index.is_multiple_of(self.anchor_interval);
        self.snapshot_index += 1;
        Some(force_anchor)
    }

    /// Where variable `name` stands in its chain for the snapshot
    /// [`begin_snapshot`](Self::begin_snapshot) opened; its retained
    /// compressor state is created empty on first use.
    pub(crate) fn chain_for(&mut self, name: &str, force_anchor: bool) -> Chain<'_> {
        let idx = match self.states.iter().position(|(n, _)| n == name) {
            Some(idx) => idx,
            None => {
                self.states.push((name.to_string(), SzTemporalState::new()));
                self.states.len() - 1
            }
        };
        Chain {
            max_order: self.max_order,
            force_anchor,
            state: &mut self.states[idx].1,
        }
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
        let forced: Vec<bool> = (0..7).map(|_| sel.begin_snapshot().unwrap()).collect();
        assert_eq!(forced, vec![true, false, false, true, false, false, true]);
    }

    #[test]
    fn reset_restarts_the_cadence_and_clears_state() {
        let mut sel = TemporalEncodingSelector::new(4, DeltaMode::Order2);
        assert_eq!(sel.begin_snapshot(), Some(true));
        assert_eq!(sel.begin_snapshot(), Some(false));
        sel.chain_for("x", false);
        sel.reset();
        assert_eq!(
            sel.begin_snapshot(),
            Some(true),
            "first snapshot after reset is an anchor"
        );
        let chain = sel.chain_for("x", true);
        assert_eq!(chain.max_order, DeltaMode::Order2);
        assert!(chain.force_anchor && !chain.state.has_prior());
    }

    #[test]
    fn zero_or_one_interval_or_none_order_never_chains() {
        for (interval, order) in [
            (0, DeltaMode::Order1),
            (1, DeltaMode::Order1),
            (8, DeltaMode::None),
        ] {
            let mut sel = TemporalEncodingSelector::new(interval, order);
            assert!((0..5).all(|_| sel.begin_snapshot().is_none()));
        }
        assert!(TemporalEncodingSelector::default().begin_snapshot().is_none());
    }

    #[test]
    fn state_is_per_variable_and_order_stable() {
        let mut sel = TemporalEncodingSelector::new(4, DeltaMode::Order1);
        sel.chain_for("x", true);
        sel.chain_for("p", true);
        sel.chain_for("x", false);
        assert_eq!(sel.states.len(), 2);
        assert_eq!(sel.states[0].0, "x");
        assert_eq!(sel.states[1].0, "p");
    }
}
