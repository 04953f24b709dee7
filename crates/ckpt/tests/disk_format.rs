//! Property-based hardening of the on-disk checkpoint format, in the
//! corruption-proptest style of the compress crate: arbitrary bit flips,
//! truncations, extensions and garbage files must never panic, never
//! validate, and never be selected for recovery — a checkpoint is either
//! byte-perfect or it does not exist.

use lcr_ckpt::disk::{crc32, read_checkpoint_file, DiskStore};
use lcr_ckpt::{CheckpointBuffer, CkptError};
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
            4096,
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

/// Writes four checkpoints (iterations 100 to 400), deriving each one's
/// payloads from `payloads`.  Returns the four file paths in id order.
fn write_four(dir: &PathBuf, payloads: &[Vec<u8>]) -> Vec<PathBuf> {
    let mut store = DiskStore::open(dir, 4).expect("open scratch store");
    let mut buffer = CheckpointBuffer::new();
    for k in 0..4 {
        buffer.clear();
        for (i, p) in payloads.iter().enumerate() {
            buffer.push_with(&format!("v{i}"), |out| {
                out.extend_from_slice(p);
                out.push(k as u8); // make every checkpoint's bytes distinct
            });
        }
        store
            .push_from_buffer(100 * (k + 1), k as f64, 4096, "lossy", &[], &mut buffer)
            .expect("write checkpoint");
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

/// Iteration recovery must land on when checkpoint `member` (0 = the
/// oldest) is destroyed: the newest intact one.
fn expected_fallback_iteration(member: usize) -> usize {
    if member == 3 {
        300
    } else {
        400
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_bit_flipped_checkpoint_leaves_the_newest_intact_one_recoverable(
        payloads in payload_strategy(),
        member in 0usize..4,
        flip_pos in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let dir = scratch();
        let paths = write_four(&dir, &payloads);
        let mut bytes = std::fs::read(&paths[member]).unwrap();
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        std::fs::write(&paths[member], &bytes).unwrap();

        let mut reopened = DiskStore::open(&dir, 4).unwrap();
        let recovered = reopened.latest_valid().expect("some checkpoint survives");
        prop_assert_eq!(recovered.metadata.iteration, expected_fallback_iteration(member));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_truncated_checkpoint_leaves_the_newest_intact_one_recoverable(
        payloads in payload_strategy(),
        member in 0usize..4,
        cut in 0usize..10_000,
    ) {
        let dir = scratch();
        let paths = write_four(&dir, &payloads);
        let bytes = std::fs::read(&paths[member]).unwrap();
        let keep = cut % bytes.len();
        std::fs::write(&paths[member], &bytes[..keep]).unwrap();

        let mut reopened = DiskStore::open(&dir, 4).unwrap();
        let recovered = reopened.latest_valid().expect("some checkpoint survives");
        prop_assert_eq!(recovered.metadata.iteration, expected_fallback_iteration(member));
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

/// The header's storage-level byte (offset 40: the 16-byte fixed header,
/// then the id, iteration and completed-at words) is always FTI's L4, `3`.
/// A CRC-valid file carrying any other level is corrupt, and the store's
/// scan never selects it.
#[test]
fn a_crc_valid_file_of_another_storage_level_is_rejected() {
    const LEVEL_AT: usize = 40;
    for level in [2u8, 4] {
        let dir = scratch();
        let (path, mut bytes) = write_reference(&dir, &[vec![1, 2, 3], vec![]]);
        assert_eq!(bytes[LEVEL_AT], 3, "the writer records FTI's L4");
        bytes[LEVEL_AT] = level;
        let meta_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let crc_at = 16 + meta_len;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        match read_checkpoint_file(&path) {
            Err(CkptError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("unknown storage level {level}")), "{msg}");
            }
            other => panic!("level {level} must be rejected as corrupt, got {other:?}"),
        }
        let mut reopened = DiskStore::open(&dir, 1).unwrap();
        assert_eq!(reopened.latest_valid().unwrap_err(), CkptError::NoCheckpoint);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The header's encoding tag (offset 49: the level byte at 40, then the
/// original-bytes word) is always 0.  A CRC-valid file carrying a delta
/// order of the retired chains (1, 2) or any other tag is corrupt, and the
/// store's scan never selects it.
#[test]
fn a_crc_valid_file_of_a_delta_encoding_tag_is_rejected() {
    const TAG_AT: usize = 49;
    for tag in [1u8, 2, 3] {
        let dir = scratch();
        let (path, mut bytes) = write_reference(&dir, &[vec![1, 2, 3], vec![]]);
        assert_eq!(bytes[TAG_AT], 0, "the writer records encoding tag 0");
        bytes[TAG_AT] = tag;
        let meta_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let crc_at = 16 + meta_len;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        match read_checkpoint_file(&path) {
            Err(CkptError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("unknown encoding tag {tag}")), "{msg}");
            }
            other => panic!("tag {tag} must be rejected as corrupt, got {other:?}"),
        }
        let mut reopened = DiskStore::open(&dir, 1).unwrap();
        assert_eq!(reopened.latest_valid().unwrap_err(), CkptError::NoCheckpoint);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
