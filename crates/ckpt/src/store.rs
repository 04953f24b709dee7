//! Checkpoint metadata and the encoding arena.
//!
//! What every checkpoint store of this crate speaks: [`CheckpointMetadata`]
//! (sizes, iteration, completion time — what the experiment
//! harness reports) and the [`CheckpointBuffer`] arena a checkpoint
//! *strategy* (in `lcr-core`) encodes its payloads into.  The store itself
//! is [`DiskStore`](crate::disk::DiskStore), for both tiers.

use crate::disk::crc32;
use std::sync::OnceLock;

/// Metadata describing one stored checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointMetadata {
    /// Monotonically increasing checkpoint id.
    pub id: u64,
    /// Solver iteration at which the checkpoint was taken.
    pub iteration: usize,
    /// Simulated time at which the checkpoint write completed.
    pub completed_at: f64,
    /// Total encoded bytes across all variables.
    pub total_bytes: usize,
    /// Original (uncompressed) bytes across all variables.
    pub original_bytes: usize,
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

/// A reusable arena for building one checkpoint's encoded payloads:
/// every variable's bytes are appended to one growing buffer and
/// addressed by range, so compressors write straight into the arena via
/// their `compress_into` entry points with no intermediate per-variable
/// `Vec<u8>`s.  The experiment runner keeps a single `CheckpointBuffer`
/// alive across checkpoints, so after the first snapshot the *encode*
/// side writes into already-sized memory; storing a snapshot copies the
/// arena once, into the checkpoint file.
///
/// The buffer also carries each segment's CRC-32, computed lazily: the
/// first tier that writes the checkpoint computes it on its commit path,
/// every later tier reads the same values, and [`CheckpointBuffer::clear`]
/// and [`CheckpointBuffer::push_with`] drop it.  So a commit checksums
/// each payload once however many tiers it writes.
#[derive(Debug, Clone, Default)]
pub struct CheckpointBuffer {
    bytes: Vec<u8>,
    /// `(variable id, end offset)`; the segment starts at the previous end.
    segments: Vec<(String, usize)>,
    /// Each segment's CRC-32, once a tier asked for it; empty again
    /// whenever the bytes change.
    crcs: OnceLock<Vec<u32>>,
}

impl CheckpointBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards all payloads and their CRCs, keeping the allocations for
    /// reuse.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.segments.clear();
        self.crcs.take();
    }

    /// Appends one variable's payload: `write` receives the underlying byte
    /// buffer positioned at the segment start and appends the encoded
    /// bytes; whatever it appended becomes the payload of `id`.  Returns
    /// `write`'s result so fallible encoders compose with `?`.
    pub fn push_with<R>(&mut self, id: &str, write: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        self.crcs.take();
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

    /// Each segment's CRC-32, in insertion order: computed on the first
    /// call since the bytes last changed, then read back.
    pub(crate) fn segment_crcs(&self) -> &[u32] {
        self.crcs
            .get_or_init(|| self.segments().map(|(_, payload)| crc32(payload)).collect())
    }

    /// Copies the payloads out into owned per-variable vectors (the form a
    /// recovered checkpoint has).
    pub fn to_payloads(&self) -> Vec<(String, Vec<u8>)> {
        self.segments()
            .map(|(id, bytes)| (id.to_string(), bytes.to_vec()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
