//! Checkpoint storage and metadata.
//!
//! Stores the encoded checkpoint payloads (already compressed or raw —
//! encoding is the business of the checkpoint *strategy* in `lcr-core`)
//! together with the metadata the experiment harness reports: per-variable
//! sizes, total bytes, the simulated time the write finished, and which
//! storage level holds it.  Only the most recent `retain` checkpoints are
//! kept, mirroring FTI's behaviour of discarding superseded checkpoints.
//!
//! ## Delta chains
//!
//! A checkpoint may be stored as a **temporal delta** against the
//! checkpoint pushed immediately before it ([`CheckpointEncoding::Delta`]);
//! such a checkpoint only decodes together with its whole chain back to
//! the nearest self-contained **anchor**.  The store honours the chain
//! invariant everywhere: retention never evicts an anchor (or intermediate
//! delta) that a retained delta still depends on — it evicts whole chains
//! from the front instead, temporarily stretching the window — and
//! [`CheckpointStore::latest_chain`] returns the full decode chain for the
//! newest checkpoint.

use crate::pfs::CheckpointLevel;
use crate::{CkptError, Result};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How one checkpoint's payload streams are encoded relative to earlier
/// checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CheckpointEncoding {
    /// Self-contained anchor: decodes on its own.
    #[default]
    Anchor,
    /// Temporal delta against an earlier checkpoint's streams: decodes
    /// only by replaying the chain from the nearest anchor.
    Delta {
        /// Id of the checkpoint this delta is coded against (always the
        /// checkpoint pushed immediately before this one).
        base_id: u64,
        /// Temporal delta order (1 or 2).
        order: u8,
    },
}

impl CheckpointEncoding {
    /// True for delta-encoded checkpoints.
    pub fn is_delta(&self) -> bool {
        matches!(self, CheckpointEncoding::Delta { .. })
    }

    /// The base checkpoint id a delta depends on (`None` for anchors).
    pub fn base_id(&self) -> Option<u64> {
        match *self {
            CheckpointEncoding::Anchor => None,
            CheckpointEncoding::Delta { base_id, .. } => Some(base_id),
        }
    }
}

/// Metadata describing one stored checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointMetadata {
    /// Monotonically increasing checkpoint id.
    pub id: u64,
    /// Solver iteration at which the checkpoint was taken.
    pub iteration: usize,
    /// Simulated time at which the checkpoint write completed.
    pub completed_at: f64,
    /// Storage level holding the checkpoint.
    pub level: CheckpointLevel,
    /// Total encoded bytes across all variables.
    pub total_bytes: usize,
    /// Original (uncompressed) bytes across all variables.
    pub original_bytes: usize,
    /// Anchor-vs-delta encoding of the payload streams.
    pub encoding: CheckpointEncoding,
    /// Per-variable encoded sizes.
    pub variable_bytes: Vec<(String, usize)>,
}

impl CheckpointMetadata {
    /// Compression ratio achieved by the encoding (1.0 when stored raw).
    pub fn compression_ratio(&self) -> f64 {
        if self.total_bytes == 0 {
            return 1.0;
        }
        self.original_bytes as f64 / self.total_bytes as f64
    }
}

/// One stored checkpoint: metadata plus the encoded payload per variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// lcr-analyze: allow(dead-public-item): return type of `CheckpointStore::latest`; callers take it by inference
pub struct StoredCheckpoint {
    /// Descriptive metadata.
    pub metadata: CheckpointMetadata,
    /// Encoded payload per protected variable id.
    pub payloads: Vec<(String, Vec<u8>)>,
}

impl StoredCheckpoint {
    /// Returns the payload for a variable id.
    ///
    /// # Errors
    /// Returns [`CkptError::UnknownVariable`] if the id is absent.
    pub fn payload(&self, id: &str) -> Result<&[u8]> {
        self.payloads
            .iter()
            .find(|(name, _)| name == id)
            .map(|(_, bytes)| bytes.as_slice())
            .ok_or_else(|| CkptError::UnknownVariable(id.to_string()))
    }
}

/// A reusable arena for building one checkpoint's encoded payloads:
/// every variable's bytes are appended to one growing buffer and
/// addressed by range, so compressors write straight into the arena via
/// their `compress_into` entry points with no intermediate per-variable
/// `Vec<u8>`s.  The experiment runner keeps a single `CheckpointBuffer`
/// alive across checkpoints, so after the first snapshot the *encode*
/// side writes into already-sized memory; storing a snapshot
/// ([`CheckpointStore::push_from_buffer`]) still copies each payload once
/// out of the arena into the owned form the store retains.
#[derive(Debug, Clone, Default)]
pub struct CheckpointBuffer {
    bytes: Vec<u8>,
    /// `(variable id, end offset)`; the segment starts at the previous end.
    segments: Vec<(String, usize)>,
}

impl CheckpointBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards all payloads, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.segments.clear();
    }

    /// Appends one variable's payload: `write` receives the underlying byte
    /// buffer positioned at the segment start and appends the encoded
    /// bytes; whatever it appended becomes the payload of `id`.  Returns
    /// `write`'s result so fallible encoders compose with `?`.
    pub fn push_with<R>(&mut self, id: &str, write: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let result = write(&mut self.bytes);
        self.segments.push((id.to_string(), self.bytes.len()));
        result
    }

    /// Number of variables recorded.
    pub fn n_variables(&self) -> usize {
        self.segments.len()
    }

    /// Whether no variable has been recorded.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total payload bytes across all variables.
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The raw arena: every payload concatenated in insertion order — the
    /// exact byte image the disk tier streams into a checkpoint file after
    /// its segment table.
    pub fn arena_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Iterates over `(variable id, payload bytes)` in insertion order.
    pub fn segments(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.segments.iter().enumerate().map(|(i, (id, end))| {
            let start = if i == 0 { 0 } else { self.segments[i - 1].1 };
            (id.as_str(), &self.bytes[start..*end])
        })
    }

    /// Copies the payloads out into owned per-variable vectors (the form
    /// [`StoredCheckpoint`] retains).
    pub fn to_payloads(&self) -> Vec<(String, Vec<u8>)> {
        self.segments()
            .map(|(id, bytes)| (id.to_string(), bytes.to_vec()))
            .collect()
    }
}

/// In-memory checkpoint store retaining the most recent checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    retain: usize,
    next_id: u64,
    checkpoints: VecDeque<StoredCheckpoint>,
    /// Cumulative number of bytes ever written (for I/O-volume reporting).
    pub total_bytes_written: u64,
}

impl CheckpointStore {
    /// Creates a store keeping the `retain` most recent checkpoints.
    ///
    /// # Panics
    /// Panics if `retain` is zero.
    pub fn new(retain: usize) -> Self {
        assert!(retain > 0, "must retain at least one checkpoint");
        CheckpointStore {
            retain,
            next_id: 0,
            checkpoints: VecDeque::new(),
            total_bytes_written: 0,
        }
    }

    /// Number of checkpoints currently held.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Stores a new checkpoint, evicting whole chains from the front if
    /// over the retention limit, and returns its metadata.
    ///
    /// `delta_order` is `None` for a self-contained anchor; `Some(order)`
    /// marks the payloads as temporal deltas against the checkpoint
    /// pushed immediately before this one (whose id becomes the
    /// [`CheckpointEncoding::Delta`] base).
    ///
    /// # Panics
    /// Panics if `delta_order` is set while the store is empty — a delta
    /// without its base is undecodable, so pushing one is a caller bug.
    pub fn push(
        &mut self,
        iteration: usize,
        completed_at: f64,
        level: CheckpointLevel,
        original_bytes: usize,
        delta_order: Option<u8>,
        payloads: Vec<(String, Vec<u8>)>,
    ) -> CheckpointMetadata {
        let encoding = match delta_order {
            None => CheckpointEncoding::Anchor,
            Some(order) => {
                let base = self
                    .checkpoints
                    .back()
                    .expect("delta checkpoint pushed into an empty store");
                CheckpointEncoding::Delta {
                    base_id: base.metadata.id,
                    order,
                }
            }
        };
        let variable_bytes: Vec<(String, usize)> = payloads
            .iter()
            .map(|(name, bytes)| (name.clone(), bytes.len()))
            .collect();
        let total_bytes: usize = variable_bytes.iter().map(|(_, b)| *b).sum();
        let metadata = CheckpointMetadata {
            id: self.next_id,
            iteration,
            completed_at,
            level,
            total_bytes,
            original_bytes,
            encoding,
            variable_bytes,
        };
        self.next_id += 1;
        self.total_bytes_written += total_bytes as u64;
        self.checkpoints.push_back(StoredCheckpoint {
            metadata: metadata.clone(),
            payloads,
        });
        self.evict_over_retention();
        metadata
    }

    /// Chain-aware retention: evicts the oldest retained *chain* (an
    /// anchor plus every delta transitively based on it) wholesale while
    /// more than `retain` checkpoints are held — never a base that a
    /// retained delta still depends on.  With a live chain longer than
    /// the window, the window stretches until the chain is superseded.
    fn evict_over_retention(&mut self) {
        while self.checkpoints.len() > self.retain {
            let chain_len = self.front_chain_len();
            if chain_len >= self.checkpoints.len() {
                break;
            }
            for _ in 0..chain_len {
                self.checkpoints.pop_front();
            }
        }
    }

    /// Length of the dependency chain at the front of the store: the
    /// oldest checkpoint plus every following checkpoint that (directly
    /// or transitively) delta-depends on it.
    fn front_chain_len(&self) -> usize {
        let mut len = 1;
        while len < self.checkpoints.len() {
            let prev_id = self.checkpoints[len - 1].metadata.id;
            match self.checkpoints[len].metadata.encoding {
                CheckpointEncoding::Delta { base_id, .. } if base_id == prev_id => len += 1,
                _ => break,
            }
        }
        len
    }

    /// Stores a new checkpoint from a [`CheckpointBuffer`], copying each
    /// payload exactly once out of the arena (the buffer itself stays
    /// untouched and reusable).
    pub fn push_from_buffer(
        &mut self,
        iteration: usize,
        completed_at: f64,
        level: CheckpointLevel,
        original_bytes: usize,
        delta_order: Option<u8>,
        buffer: &CheckpointBuffer,
    ) -> CheckpointMetadata {
        self.push(
            iteration,
            completed_at,
            level,
            original_bytes,
            delta_order,
            buffer.to_payloads(),
        )
    }

    /// The most recent checkpoint.
    ///
    /// # Errors
    /// Returns [`CkptError::NoCheckpoint`] if none has been stored yet.
    pub fn latest(&self) -> Result<&StoredCheckpoint> {
        self.checkpoints.back().ok_or(CkptError::NoCheckpoint)
    }

    /// The full decode chain of the most recent checkpoint: its anchor
    /// first, then each dependent delta in order, ending at the newest
    /// checkpoint.  For an anchor checkpoint the chain has length one.
    ///
    /// # Errors
    /// Returns [`CkptError::NoCheckpoint`] if the store is empty, and
    /// [`CkptError::Corrupt`] if the newest checkpoint's chain walks off
    /// the retained window (a retention-invariant violation).
    pub fn latest_chain(&self) -> Result<Vec<&StoredCheckpoint>> {
        if self.checkpoints.is_empty() {
            return Err(CkptError::NoCheckpoint);
        }
        let mut chain: Vec<&StoredCheckpoint> = Vec::new();
        let mut idx = self.checkpoints.len() - 1;
        loop {
            let ckpt = &self.checkpoints[idx];
            chain.push(ckpt);
            match ckpt.metadata.encoding {
                CheckpointEncoding::Anchor => break,
                CheckpointEncoding::Delta { base_id, .. } => {
                    if idx == 0 || self.checkpoints[idx - 1].metadata.id != base_id {
                        return Err(CkptError::Corrupt(format!(
                            "delta checkpoint {} depends on evicted base {base_id}",
                            ckpt.metadata.id
                        )));
                    }
                    idx -= 1;
                }
            }
        }
        chain.reverse();
        Ok(chain)
    }

    /// Metadata of every retained checkpoint, oldest first.
    pub fn metadata(&self) -> Vec<&CheckpointMetadata> {
        self.checkpoints.iter().map(|c| &c.metadata).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(name: &str, len: usize) -> (String, Vec<u8>) {
        (name.to_string(), vec![0xAB; len])
    }

    #[test]
    fn push_and_latest() {
        let mut store = CheckpointStore::new(2);
        assert!(store.is_empty());
        assert_eq!(store.latest().unwrap_err(), CkptError::NoCheckpoint);

        let meta = store.push(
            10,
            123.0,
            CheckpointLevel::Pfs,
            800,
            None,
            vec![payload("x", 100), payload("p", 60)],
        );
        assert_eq!(meta.id, 0);
        assert_eq!(meta.total_bytes, 160);
        assert_eq!(meta.original_bytes, 800);
        assert!((meta.compression_ratio() - 5.0).abs() < 1e-12);
        assert_eq!(store.len(), 1);

        let latest = store.latest().unwrap();
        assert_eq!(latest.metadata.iteration, 10);
        assert_eq!(latest.payload("x").unwrap().len(), 100);
        assert!(matches!(
            latest.payload("nope"),
            Err(CkptError::UnknownVariable(_))
        ));
    }

    #[test]
    fn retention_evicts_oldest() {
        let mut store = CheckpointStore::new(2);
        for i in 0..5 {
            store.push(
                i,
                i as f64,
                CheckpointLevel::Pfs,
                10,
                None,
                vec![payload("x", 10)],
            );
        }
        assert_eq!(store.len(), 2);
        let ids: Vec<u64> = store.metadata().iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![3, 4]);
        assert_eq!(store.latest().unwrap().metadata.iteration, 4);
        assert_eq!(store.total_bytes_written, 50);
    }

    #[test]
    fn chain_retention_never_orphans_a_delta() {
        // Chain [A0, d1, d2, d3] under retain=2: the window stretches to
        // hold the whole chain because evicting A0 (or d1, d2) would
        // orphan the retained tail.
        let mut store = CheckpointStore::new(2);
        store.push(0, 0.0, CheckpointLevel::Pfs, 10, None, vec![payload("x", 10)]);
        for i in 1..4 {
            store.push(
                i,
                i as f64,
                CheckpointLevel::Pfs,
                10,
                Some(1),
                vec![payload("x", 4)],
            );
        }
        assert_eq!(store.len(), 4, "live chain must stretch the window");
        let chain = store.latest_chain().unwrap();
        let ids: Vec<u64> = chain.iter().map(|c| c.metadata.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(chain[0].metadata.encoding, CheckpointEncoding::Anchor);
        assert_eq!(
            chain[3].metadata.encoding,
            CheckpointEncoding::Delta { base_id: 2, order: 1 }
        );

        // A new anchor supersedes the chain: the whole old chain is
        // evicted at once (retain=2 keeps [d3-old-tail?…] — no: the old
        // chain of 4 leaves with the next eviction pass).
        store.push(4, 4.0, CheckpointLevel::Pfs, 10, None, vec![payload("x", 10)]);
        let ids: Vec<u64> = store.metadata().iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![4], "superseded chain evicts wholesale");
        assert_eq!(store.latest_chain().unwrap().len(), 1);
    }

    #[test]
    fn chain_retention_evicts_anchor_only_prefixes_normally() {
        // Anchors only: behaves exactly like the classic window.
        let mut store = CheckpointStore::new(3);
        for i in 0..5 {
            store.push(
                i,
                i as f64,
                CheckpointLevel::Pfs,
                10,
                None,
                vec![payload("x", 10)],
            );
        }
        let ids: Vec<u64> = store.metadata().iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);

        // Two chains [A5, d6] [A7, d8]: eviction drops the oldest whole
        // chain, never splitting one — pushing d8 overflows the window
        // while [A5, d6] sits at the front, so both leave together.
        store.push(5, 5.0, CheckpointLevel::Pfs, 10, None, vec![payload("x", 10)]);
        store.push(6, 6.0, CheckpointLevel::Pfs, 10, Some(1), vec![payload("x", 4)]);
        store.push(7, 7.0, CheckpointLevel::Pfs, 10, None, vec![payload("x", 10)]);
        store.push(8, 8.0, CheckpointLevel::Pfs, 10, Some(2), vec![payload("x", 4)]);
        let ids: Vec<u64> = store.metadata().iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![7, 8], "oldest chain evicted wholesale");
        let chain = store.latest_chain().unwrap();
        let chain_ids: Vec<u64> = chain.iter().map(|c| c.metadata.id).collect();
        assert_eq!(chain_ids, vec![7, 8]);
        assert_eq!(
            chain[1].metadata.encoding,
            CheckpointEncoding::Delta { base_id: 7, order: 2 }
        );
    }

    #[test]
    #[should_panic(expected = "delta checkpoint pushed into an empty store")]
    fn delta_into_empty_store_panics() {
        let mut store = CheckpointStore::new(2);
        store.push(0, 0.0, CheckpointLevel::Pfs, 10, Some(1), vec![payload("x", 4)]);
    }

    #[test]
    fn retain_one_churn_keeps_only_newest_and_accounts_every_byte() {
        // The tightest retention setting under sustained churn: after every
        // push exactly one checkpoint survives, ids keep increasing, and
        // total_bytes_written reflects every byte ever pushed (eviction
        // must not rewind the I/O-volume counter).
        let mut store = CheckpointStore::new(1);
        let mut expected_written = 0u64;
        for i in 0..100usize {
            let len = 1 + (i % 7);
            expected_written += len as u64;
            let meta = store.push(
                i,
                i as f64,
                CheckpointLevel::Local,
                len * 10,
                None,
                vec![payload("x", len)],
            );
            assert_eq!(meta.id, i as u64);
            assert_eq!(store.len(), 1);
            assert_eq!(store.latest().unwrap().metadata.iteration, i);
            assert_eq!(store.total_bytes_written, expected_written);
        }
    }

    #[test]
    fn push_from_buffer_accounts_bytes_like_push() {
        let mut buf = CheckpointBuffer::new();
        buf.push_with("x", |bytes| bytes.extend_from_slice(&[1u8; 30]));
        buf.push_with("p", |bytes| bytes.extend_from_slice(&[2u8; 12]));
        let mut store = CheckpointStore::new(2);
        store.push_from_buffer(0, 0.0, CheckpointLevel::Pfs, 100, None, &buf);
        store.push_from_buffer(1, 1.0, CheckpointLevel::Pfs, 100, None, &buf);
        store.push_from_buffer(2, 2.0, CheckpointLevel::Pfs, 100, None, &buf);
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_bytes_written, 3 * 42);
        assert_eq!(buf.arena_bytes().len(), 42);
    }

    #[test]
    fn empty_payload_ratio_is_one() {
        let mut store = CheckpointStore::new(1);
        let meta = store.push(0, 0.0, CheckpointLevel::Local, 0, None, vec![]);
        assert_eq!(meta.compression_ratio(), 1.0);
        assert_eq!(meta.total_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "retain at least one")]
    fn zero_retention_panics() {
        let _ = CheckpointStore::new(0);
    }

    #[test]
    fn checkpoint_buffer_segments() {
        let mut buf = CheckpointBuffer::new();
        assert!(buf.is_empty());
        buf.push_with("x", |bytes| bytes.extend_from_slice(&[1, 2, 3]));
        let res: std::result::Result<(), ()> = buf.push_with("p", |bytes| {
            bytes.extend_from_slice(&[4, 5]);
            Ok(())
        });
        res.unwrap();
        // An empty payload is a valid (zero-length) segment.
        buf.push_with("i", |_| ());

        assert_eq!(buf.n_variables(), 3);
        assert_eq!(buf.total_bytes(), 5);
        let segs: Vec<(String, Vec<u8>)> = buf
            .segments()
            .map(|(id, b)| (id.to_string(), b.to_vec()))
            .collect();
        assert_eq!(
            segs,
            vec![
                ("x".to_string(), vec![1, 2, 3]),
                ("p".to_string(), vec![4, 5]),
                ("i".to_string(), vec![]),
            ]
        );
        assert_eq!(buf.to_payloads(), segs);

        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.total_bytes(), 0);
    }

    #[test]
    fn push_from_buffer_matches_push() {
        let mut buf = CheckpointBuffer::new();
        buf.push_with("x", |bytes| bytes.extend_from_slice(&[0xAB; 100]));
        buf.push_with("p", |bytes| bytes.extend_from_slice(&[0xAB; 60]));

        let mut store_a = CheckpointStore::new(2);
        let meta_a = store_a.push_from_buffer(10, 123.0, CheckpointLevel::Pfs, 800, None, &buf);
        let mut store_b = CheckpointStore::new(2);
        let meta_b = store_b.push(
            10,
            123.0,
            CheckpointLevel::Pfs,
            800,
            None,
            vec![payload("x", 100), payload("p", 60)],
        );
        assert_eq!(meta_a, meta_b);
        assert_eq!(
            store_a.latest().unwrap().payloads,
            store_b.latest().unwrap().payloads
        );
    }
}
