//! The bytes of every checkpoint file a two-tier [`FtiContext`] writes,
//! pinned: the length and FNV-1a hash of each file, for single-payload
//! checkpoints from empty to past a mebibyte and one three-segment
//! checkpoint, and the CRC-32 of every payload.  The memory tier writes
//! each checkpoint first and the durable tier second, so whatever the
//! second tier takes over from the first shows up here as a changed file.
//! The same files must come out whether the durable tier is a directory or
//! a `MemBackend`, writes synchronously or behind, and with or without the
//! memory tier in front of it.

use lcr_ckpt::disk::{crc32, DiskStore};
use lcr_ckpt::{
    CheckpointBuffer, CheckpointLevel, ClusterConfig, FtiContext, MemBackend, OsBackend,
    PfsModel, SimClock, StorageBackend,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Lengths of the single-payload checkpoints: empty, shorter than one
/// eight-byte step, around a kibibyte on both sides, and past 64 KiB and
/// 1 MiB by an odd amount.
const LENGTHS: [usize; 6] = [0, 7, 1023, 1029, (64 << 10) + 5, (1 << 20) + 3];

/// `(name, length, seed)` of the three-segment checkpoint's payloads.
const SEGMENTS: [(&str, usize, u64); 3] =
    [("x", 1029, 101), ("p", (64 << 10) + 5, 102), ("r", 7, 103)];

/// CRC-32 of the payloads: the six of `LENGTHS`, then the three of
/// `SEGMENTS`.
const PAYLOAD_CRCS: [u32; 9] = [
    0x0000_0000, 0x64d7_58c4, 0xc75d_87b2, 0x8067_20a1, 0x399e_b7f3, 0x2edd_cbfb,
    0x8c5c_9130, 0xec41_85ce, 0xcbe1_432f,
];

/// `(file name, length, FNV-1a)` of every checkpoint file the schedule
/// leaves in the durable tier.
const FILES: [(&str, usize, u64); 7] = [
    ("ckpt-0000000000.lcr", 103, 0x464e_636f_f3d3_a679),
    ("ckpt-0000000001.lcr", 110, 0x7232_2940_5ad7_9e6f),
    ("ckpt-0000000002.lcr", 1126, 0x16b5_8470_0f7b_2840),
    ("ckpt-0000000003.lcr", 1132, 0xaa0c_837f_114f_d7fc),
    ("ckpt-0000000004.lcr", 65644, 0x29a6_8e77_e88f_5156),
    ("ckpt-0000000005.lcr", 1048682, 0xbac7_5c9b_2d5c_640b),
    ("ckpt-0000000006.lcr", 66718, 0xe1c5_34eb_f0e3_c3d8),
];

/// `len` bytes of a xorshift64 stream seeded with `seed`.
fn xorshift_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 32) as u8
        })
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One checkpoint: its payloads and its delta order.
type Checkpoint = (Vec<(String, Vec<u8>)>, Option<u8>);

/// The commits, in order: one anchor per entry of `LENGTHS`, then the
/// three segments of `SEGMENTS` as an order-1 delta.
fn schedule() -> Vec<Checkpoint> {
    let single = LENGTHS
        .iter()
        .enumerate()
        .map(|(k, &len)| (vec![("x".to_string(), xorshift_bytes(k as u64 + 1, len))], None));
    let segments = SEGMENTS
        .iter()
        .map(|&(name, len, seed)| (name.to_string(), xorshift_bytes(seed, len)))
        .collect();
    single.chain([(segments, Some(1))]).collect()
}

/// Commits the schedule through `fti`, reusing one buffer as a solver run
/// does, and waits for the durable tier's last write.
fn commit_all(fti: &mut FtiContext) {
    let mut buffer = CheckpointBuffer::new();
    for (k, (payloads, order)) in schedule().into_iter().enumerate() {
        buffer.clear();
        for (name, bytes) in &payloads {
            buffer.push_with(name, |out| out.extend_from_slice(bytes));
        }
        let scalars = [("rho".to_string(), 0.25 * k as f64)];
        fti.commit_snapshot_from_buffer(
            k as f64,
            10 * k,
            "traditional",
            &scalars,
            order,
            &mut buffer,
            0.0,
        )
        .expect("commit");
    }
    fti.disk_store_mut().expect("a durable tier").flush().expect("flush");
}

/// `(file name, length, FNV-1a)` of every file in `dir` of `backend`.
fn file_table(backend: &dyn StorageBackend, dir: &Path) -> Vec<(String, usize, u64)> {
    let mut table: Vec<(String, usize, u64)> = backend
        .list_dir(dir)
        .expect("listing the durable tier")
        .into_iter()
        .map(|path| {
            let bytes = backend.read(&path).expect("reading a checkpoint file");
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, bytes.len(), fnv1a(&bytes))
        })
        .collect();
    table.sort();
    table
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcr-file-goldens-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Commits the schedule into a context with the memory tier (unless
/// `memory_tier` is false) and a durable tier over `backend` in `dir`,
/// checks the durable files against `FILES` and that every tier recovers
/// the last checkpoint's chain.
fn check(
    tag: &str,
    backend: Arc<dyn StorageBackend>,
    dir: &Path,
    write_behind: bool,
    memory_tier: bool,
) {
    let mut disk = DiskStore::open_with_backend(dir, FILES.len(), Arc::clone(&backend)).unwrap();
    disk.set_write_behind(write_behind).unwrap();
    let mut fti = FtiContext::new(
        ClusterConfig::bebop_like(64, 1.0),
        PfsModel::bebop_like(),
        CheckpointLevel::Pfs,
    );
    if !memory_tier {
        fti = fti.without_memory_tier();
    }
    fti.attach_disk_store(disk);
    commit_all(&mut fti);

    let expected: Vec<(String, usize, u64)> =
        FILES.iter().map(|&(name, len, hash)| (name.to_string(), len, hash)).collect();
    assert_eq!(file_table(backend.as_ref(), dir), expected, "{tag}: durable files");

    // The durable tier serves first; with it detached, the memory tier.
    let schedule = schedule();
    let last_chain: Vec<Vec<(String, Vec<u8>)>> =
        schedule[schedule.len() - 2..].iter().map(|(payloads, _)| payloads.clone()).collect();
    let recovered = fti.recover(&mut SimClock::new(), 0).unwrap();
    assert_eq!((recovered.durable, recovered.id), (true, 6), "{tag}");
    assert_eq!(recovered.chain, last_chain, "{tag}: durable chain");
    fti.detach_disk_store();
    if memory_tier {
        let recovered = fti.recover(&mut SimClock::new(), 0).unwrap();
        assert_eq!((recovered.durable, recovered.id), (false, 6), "{tag}");
        assert_eq!(recovered.chain, last_chain, "{tag}: memory chain");
    }
}

#[test]
fn payload_crcs_are_pinned() {
    let crcs: Vec<u32> = schedule()
        .iter()
        .flat_map(|(payloads, _)| payloads.iter().map(|(_, bytes)| crc32(bytes)))
        .collect();
    assert_eq!(crcs, PAYLOAD_CRCS);
}

#[test]
fn a_two_tier_context_writes_the_pinned_files() {
    let dir = tempdir("sync");
    check("sync", Arc::new(OsBackend), &dir, false, true);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_write_behind_durable_tier_writes_the_pinned_files() {
    let dir = tempdir("write-behind");
    check("write-behind", Arc::new(OsBackend), &dir, true, true);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_durable_tier_alone_writes_the_pinned_files() {
    let dir = tempdir("alone");
    check("alone", Arc::new(OsBackend), &dir, true, false);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_store_over_memory_writes_the_pinned_files() {
    check("memory", Arc::new(MemBackend::default()), Path::new("durable"), false, true);
}
