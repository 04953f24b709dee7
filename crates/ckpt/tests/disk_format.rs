//! Property-based hardening of the on-disk checkpoint format, in the
//! corruption-proptest style of the compress crate: arbitrary bit flips,
//! truncations, extensions and garbage files must never panic, never
//! validate, and never be selected for recovery — a checkpoint is either
//! byte-perfect or it does not exist.

use lcr_ckpt::disk::{crc32, read_checkpoint_file, DiskStore};
use lcr_ckpt::{CheckpointBuffer, CheckpointLevel, CkptError};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory per proptest case (cases may run with
/// overlapping lifetimes across test binaries sharing one temp dir).
fn scratch() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "lcr-disk-prop-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn payload_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..=255, 0..200), 1..5)
}

/// Writes one checkpoint built from `payloads` and returns the bytes of
/// the resulting file.
fn write_reference(dir: &PathBuf, payloads: &[Vec<u8>]) -> (PathBuf, Vec<u8>) {
    let mut store = DiskStore::open(dir, 1).expect("open scratch store");
    let mut buffer = CheckpointBuffer::new();
    for (i, p) in payloads.iter().enumerate() {
        buffer.push_with(&format!("v{i}"), |out| out.extend_from_slice(p));
    }
    store
        .push_from_buffer(
            7,
            3.25,
            CheckpointLevel::Pfs,
            4096,
            None,
            "lossy",
            &[("rho".to_string(), 0.5)],
            &mut buffer,
        )
        .expect("write reference checkpoint");
    let path = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "lcr"))
        .expect("one checkpoint file");
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

/// Writes four checkpoints: a standalone anchor (iteration 100) followed
/// by a delta chain anchor→delta→delta (iterations 200/300/400), deriving
/// each link's payloads from `payloads`.  Returns the four file paths in
/// id order.
fn write_chain(dir: &PathBuf, payloads: &[Vec<u8>]) -> Vec<PathBuf> {
    let mut store = DiskStore::open(dir, 4).expect("open scratch store");
    let mut buffer = CheckpointBuffer::new();
    for (k, delta) in [None, None, Some(1u8), Some(2u8)].into_iter().enumerate() {
        buffer.clear();
        for (i, p) in payloads.iter().enumerate() {
            buffer.push_with(&format!("v{i}"), |out| {
                out.extend_from_slice(p);
                out.push(k as u8); // make every link's bytes distinct
            });
        }
        store
            .push_from_buffer(
                100 * (k + 1),
                k as f64,
                CheckpointLevel::Pfs,
                4096,
                delta,
                "lossy-delta",
                &[],
                &mut buffer,
            )
            .expect("write chain link");
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "lcr"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 4);
    paths
}

/// Iteration recovery must land on when chain member `member` (0 = the
/// standalone anchor, 1..=3 = the delta chain) is destroyed: corrupting a
/// link abandons every dependent, falling back to the newest link that
/// still has a complete chain.
fn expected_fallback_iteration(member: usize) -> usize {
    match member {
        0 => 400, // the delta chain is untouched
        1 => 100, // chain anchor gone: every dependent dies with it
        2 => 200, // mid-chain delta gone: its base anchor still recovers
        3 => 300, // only the newest delta gone
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bit_flipped_chain_member_invalidates_dependents_not_ancestors(
        payloads in payload_strategy(),
        member in 0usize..4,
        flip_pos in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let dir = scratch();
        let paths = write_chain(&dir, &payloads);
        let mut bytes = std::fs::read(&paths[member]).unwrap();
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        std::fs::write(&paths[member], &bytes).unwrap();

        let mut reopened = DiskStore::open(&dir, 4).unwrap();
        let chain = reopened.latest_valid_chain().expect("some chain survives");
        let last = chain.last().unwrap();
        prop_assert_eq!(last.metadata.iteration, expected_fallback_iteration(member));
        // The recovered chain is complete: anchor first, contiguous links.
        prop_assert!(!chain[0].metadata.encoding.is_delta());
        for pair in chain.windows(2) {
            prop_assert_eq!(pair[1].metadata.encoding.base_id(), Some(pair[0].metadata.id));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_chain_member_invalidates_dependents_not_ancestors(
        payloads in payload_strategy(),
        member in 0usize..4,
        cut in 0usize..10_000,
    ) {
        let dir = scratch();
        let paths = write_chain(&dir, &payloads);
        let bytes = std::fs::read(&paths[member]).unwrap();
        let keep = cut % bytes.len();
        std::fs::write(&paths[member], &bytes[..keep]).unwrap();

        let mut reopened = DiskStore::open(&dir, 4).unwrap();
        let chain = reopened.latest_valid_chain().expect("some chain survives");
        let last = chain.last().unwrap();
        prop_assert_eq!(last.metadata.iteration, expected_fallback_iteration(member));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_bit_flips_are_always_rejected(
        payloads in payload_strategy(),
        flip_pos in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let dir = scratch();
        let (path, mut bytes) = write_reference(&dir, &payloads);
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        std::fs::write(&path, &bytes).unwrap();
        // Every byte of the file is covered by either the metadata CRC or
        // a payload CRC (or pins the length), so any flip must surface as
        // Corrupt — never a panic, never a silently different checkpoint.
        prop_assert!(matches!(
            read_checkpoint_file(&path),
            Err(CkptError::Corrupt(_))
        ));
        // And the store-level scan never selects it either.
        let mut reopened = DiskStore::open(&dir, 1).unwrap();
        prop_assert!(reopened.latest_valid().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncations_and_extensions_are_always_rejected(
        payloads in payload_strategy(),
        cut in 0usize..10_000,
        extend in 1usize..64,
    ) {
        let dir = scratch();
        let (path, bytes) = write_reference(&dir, &payloads);

        // Any proper prefix fails validation (mid-write crash image).
        let keep = cut % bytes.len();
        std::fs::write(&path, &bytes[..keep]).unwrap();
        prop_assert!(read_checkpoint_file(&path).is_err());
        let mut reopened = DiskStore::open(&dir, 1).unwrap();
        prop_assert!(reopened.latest_valid().is_err());

        // Appending garbage breaks the length pinned by the segment table.
        let mut extended = bytes.clone();
        extended.extend(std::iter::repeat_n(0xA5u8, extend));
        std::fs::write(&path, &extended).unwrap();
        prop_assert!(read_checkpoint_file(&path).is_err());

        // The pristine bytes still validate (the reference is sound).
        std::fs::write(&path, &bytes).unwrap();
        let restored = read_checkpoint_file(&path).unwrap();
        prop_assert_eq!(restored.payloads.len(), payloads.len());
        for (i, p) in payloads.iter().enumerate() {
            prop_assert_eq!(&restored.payloads[i].1, p);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arbitrary_garbage_never_panics_or_validates(
        garbage in prop::collection::vec(0u8..=255, 0..600),
    ) {
        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-0000000000.lcr");
        std::fs::write(&path, &garbage).unwrap();
        // Random bytes essentially never form a valid file (magic + two
        // CRCs); reject without panicking and without huge allocations.
        prop_assert!(read_checkpoint_file(&path).is_err());
        let mut store = DiskStore::open(&dir, 1).unwrap();
        prop_assert!(store.latest_valid().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_detects_any_single_bit_flip(
        data in prop::collection::vec(0u8..=255, 1..300),
        pos in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let reference = crc32(&data);
        let mut flipped = data.clone();
        let at = pos % flipped.len();
        flipped[at] ^= 1 << bit;
        prop_assert_ne!(crc32(&flipped), reference);
    }
}
