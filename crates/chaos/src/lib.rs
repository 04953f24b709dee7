//! # lcr-chaos
//!
//! Deterministic chaos engine for the lossy-checkpointing reproduction:
//! seeded fault injection across the storage tier, the shard communication
//! fabric and the recovery paths.
//!
//! Everything is driven by a [`ChaosPlan`] — a plain value holding a seed
//! and per-operation fault probabilities.  From one plan the campaign
//! derives:
//!
//! * [`FaultyBackend`] — a [`StorageBackend`] wrapper injecting transient
//!   `EIO`, torn writes, short writes, fsync lies, post-commit bit flips
//!   and persistent device death into every file operation the
//!   [`DiskStore`](lcr_ckpt::DiskStore) performs;
//! * [`ChaosInterposer`] — a [`CommInterposer`] injecting message delay,
//!   message drops and a one-shot peer stall into the halo exchange.
//!
//! Both draw their schedule from a `ChaCha8Rng` seeded *only* by the plan
//! (plus a caller-supplied salt so each shard gets an independent stream):
//! the same plan replays the same faults at the same operation indices,
//! every time.  Each injected fault is recorded in an ordered
//! [`FaultRecord`] log, so a failing schedule can be replayed and
//! diff'd bit-for-bit from nothing but its seed.
//!
//! The safety invariant this crate exists to prove: under any plan, a run
//! either converges with a correct residual or fails with a *typed* error
//! — injected corruption is always detected (CRC/chain validation), never
//! silently returned as an answer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lcr_ckpt::{OsBackend, StorageBackend};
use lcr_sparse::{CommAction, CommInterposer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seeded fault-injection schedule: probabilities per storage operation
/// and per halo message, plus one-shot scenario triggers.  Two runs with
/// the same plan (and salts) observe identical fault sequences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Master seed; every injector stream derives from it.
    pub seed: u64,
    /// Probability of a transient `EIO` on any storage operation
    /// (retryable: the next attempt redraws).
    pub transient_io: f64,
    /// Probability that a `write_file` tears: a prefix lands on disk and
    /// the call fails with `EIO`.
    pub torn_write: f64,
    /// Probability that a `write_file` is silently short: a prefix lands
    /// and the call *succeeds* — only CRC validation can catch it later.
    pub short_write: f64,
    /// Probability that an `fsync` lies: it reports success but the tail
    /// of the file is lost (modelled by truncating it), as a dying disk's
    /// volatile cache would.
    pub fsync_lie: f64,
    /// Probability that a committed (renamed) file gets one bit flipped
    /// right after its rename — post-commit media corruption.
    pub bit_flip: f64,
    /// After this many storage operations the device dies for good: every
    /// subsequent *mutating* operation fails with a hard `EIO`.  `None`
    /// keeps the device alive.
    pub persistent_fail_after: Option<u64>,
    /// Probability that a halo message is dropped (withheld: its reader
    /// ends with a typed error).
    pub msg_drop: f64,
    /// Probability that a halo message is delayed by [`ChaosPlan::delay`].
    pub msg_delay: f64,
    /// Delay applied to delayed messages.
    pub delay: Duration,
    /// One-shot peer stall: before publishing halo message number `n`
    /// (0-based, per shard), the shard sleeps [`ChaosPlan::stall`] — long
    /// enough for a peer's wait at the barrier to outlast the heartbeat.
    pub stall_at_msg: Option<u64>,
    /// Sleep length of the one-shot stall.
    pub stall: Duration,
}

impl ChaosPlan {
    /// A fault-free plan (baseline / control runs).
    pub fn quiet(seed: u64) -> Self {
        ChaosPlan {
            seed,
            transient_io: 0.0,
            torn_write: 0.0,
            short_write: 0.0,
            fsync_lie: 0.0,
            bit_flip: 0.0,
            persistent_fail_after: None,
            msg_drop: 0.0,
            msg_delay: 0.0,
            delay: Duration::from_millis(1),
            stall_at_msg: None,
            stall: Duration::from_millis(200),
        }
    }

    /// A moderate storage-fault mix: occasional transient `EIO`, rare torn
    /// / short writes, fsync lies and bit flips — the soak's bread and
    /// butter.
    pub fn storage_mix(seed: u64) -> Self {
        ChaosPlan {
            transient_io: 0.05,
            torn_write: 0.02,
            short_write: 0.02,
            fsync_lie: 0.02,
            bit_flip: 0.02,
            ..ChaosPlan::quiet(seed)
        }
    }

    /// A plan whose disk dies for good after `ops` operations — the
    /// degrade-to-memory scenario.
    pub fn dying_disk(seed: u64, ops: u64) -> Self {
        ChaosPlan {
            persistent_fail_after: Some(ops),
            ..ChaosPlan::storage_mix(seed)
        }
    }

    /// Builds the seeded fault-injecting storage backend for this plan.
    /// `salt` decorrelates streams (use the shard index); the returned
    /// `Arc` can be cloned into a [`DiskStore`] while the caller keeps a
    /// handle for [`FaultyBackend::fault_log`] inspection.
    pub fn backend(&self, salt: u64) -> Arc<FaultyBackend> {
        Arc::new(FaultyBackend::new(*self, salt))
    }

    /// Builds the seeded comm interposer for this plan (`salt` = shard).
    pub fn interposer(&self, salt: u64) -> Box<ChaosInterposer> {
        Box::new(ChaosInterposer::new(*self, salt))
    }

    fn rng(&self, salt: u64) -> ChaCha8Rng {
        // SplitMix-style decorrelation so shard 0/salt 0 is not the plain
        // seed stream shared with other components.
        ChaCha8Rng::seed_from_u64(
            self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5),
        )
    }
}

/// What kind of fault an injector fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lcr-analyze: allow(dead-public-item): type of the public `FaultRecord::kind` field; the drill prints it
pub enum FaultKind {
    /// Transient `EIO`; a retry may succeed.
    TransientIo,
    /// Torn write: prefix persisted, call failed.
    TornWrite,
    /// Short write: prefix persisted, call *succeeded*.
    ShortWrite,
    /// Fsync lie: success reported, file tail lost.
    FsyncLie,
    /// Post-commit bit flip in a committed file.
    BitFlip,
    /// Persistent device failure (every mutation fails from now on).
    PersistentIo,
    /// Halo message dropped.
    MsgDrop,
    /// Halo message delayed.
    MsgDelay,
    /// One-shot peer stall.
    Stall,
}

/// One injected fault, in schedule order — the replayable evidence trail.
#[derive(Debug, Clone, PartialEq)]
// lcr-analyze: allow(dead-public-item): element type of `fault_log()`; callers take it by inference
pub struct FaultRecord {
    /// Operation index (per injector) at which the fault fired.
    pub op: u64,
    /// The operation that was hit (e.g. `"write_file"`, `"halo_send"`).
    pub operation: &'static str,
    /// Path of the affected file (empty for comm faults).
    pub path: PathBuf,
    /// What was injected.
    pub kind: FaultKind,
}

struct FaultyState {
    rng: ChaCha8Rng,
    ops: u64,
    log: Vec<FaultRecord>,
    corrupted: BTreeSet<PathBuf>,
}

/// A [`StorageBackend`] wrapper injecting seeded faults into every file
/// operation, while delegating the real I/O to an inner backend
/// ([`OsBackend`]).
///
/// Determinism: the fault schedule is a pure function of the plan, the
/// salt and the *operation sequence*.  Use synchronous stores (no
/// write-behind) when bit-identical replay matters — a background I/O
/// thread interleaves its operations nondeterministically.
// lcr-analyze: allow(dead-public-item): return type of `ChaosPlan::backend`; callers take it by inference
pub struct FaultyBackend {
    inner: OsBackend,
    plan: ChaosPlan,
    state: Mutex<FaultyState>,
}

impl std::fmt::Debug for FaultyBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("chaos state poisoned");
        f.debug_struct("FaultyBackend")
            .field("plan", &self.plan)
            .field("ops", &state.ops)
            .field("faults", &state.log.len())
            .finish()
    }
}

impl FaultyBackend {
    /// Creates the injector for `plan`, decorrelated by `salt`.
    pub fn new(plan: ChaosPlan, salt: u64) -> Self {
        FaultyBackend {
            inner: OsBackend,
            plan,
            state: Mutex::new(FaultyState {
                rng: plan.rng(salt),
                ops: 0,
                log: Vec::new(),
                corrupted: BTreeSet::new(),
            }),
        }
    }

    /// The ordered log of every fault injected so far.
    pub fn fault_log(&self) -> Vec<FaultRecord> {
        self.state.lock().expect("chaos state poisoned").log.clone()
    }

    /// Paths of committed files this injector corrupted post-commit
    /// (bit flips) — each of these MUST later fail validation.
    pub fn corrupted_files(&self) -> Vec<PathBuf> {
        self.state
            .lock()
            .expect("chaos state poisoned")
            .corrupted
            .iter()
            .cloned()
            .collect()
    }

    /// Number of storage operations observed.
    pub fn ops(&self) -> u64 {
        self.state.lock().expect("chaos state poisoned").ops
    }

    /// Draws the fault decision for one operation.  `mutating` gates the
    /// persistent-death mode (reads keep working off the page cache).
    fn decide(&self, operation: &'static str, path: &Path, mutating: bool) -> Option<FaultKind> {
        let mut state = self.state.lock().expect("chaos state poisoned");
        state.ops += 1;
        let op = state.ops;
        if mutating {
            if let Some(after) = self.plan.persistent_fail_after {
                if op > after {
                    state.log.push(FaultRecord {
                        op,
                        operation,
                        path: path.to_path_buf(),
                        kind: FaultKind::PersistentIo,
                    });
                    return Some(FaultKind::PersistentIo);
                }
            }
        }
        let kind = if state.rng.gen_bool(self.plan.transient_io) {
            Some(FaultKind::TransientIo)
        } else if operation == "write_file" && state.rng.gen_bool(self.plan.torn_write) {
            Some(FaultKind::TornWrite)
        } else if operation == "write_file" && state.rng.gen_bool(self.plan.short_write) {
            Some(FaultKind::ShortWrite)
        } else if operation == "fsync" && state.rng.gen_bool(self.plan.fsync_lie) {
            Some(FaultKind::FsyncLie)
        } else if operation == "rename" && state.rng.gen_bool(self.plan.bit_flip) {
            Some(FaultKind::BitFlip)
        } else {
            None
        };
        if let Some(kind) = kind {
            state.log.push(FaultRecord {
                op,
                operation,
                path: path.to_path_buf(),
                kind,
            });
        }
        kind
    }

    fn mark_corrupted(&self, path: &Path) {
        self.state
            .lock()
            .expect("chaos state poisoned")
            .corrupted
            .insert(path.to_path_buf());
    }

    fn eio(kind: FaultKind) -> io::Error {
        io::Error::other(format!("chaos-injected {kind:?}"))
    }
}

impl StorageBackend for FaultyBackend {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        match self.decide("create_dir_all", dir, true) {
            Some(k @ (FaultKind::TransientIo | FaultKind::PersistentIo)) => Err(Self::eio(k)),
            _ => self.inner.create_dir_all(dir),
        }
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        match self.decide("list_dir", dir, false) {
            Some(FaultKind::TransientIo) => Err(Self::eio(FaultKind::TransientIo)),
            _ => self.inner.list_dir(dir),
        }
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        match self.decide("file_len", path, false) {
            Some(FaultKind::TransientIo) => Err(Self::eio(FaultKind::TransientIo)),
            _ => self.inner.file_len(path),
        }
    }

    fn read_prefix(&self, path: &Path, len: usize) -> io::Result<Vec<u8>> {
        match self.decide("read_prefix", path, false) {
            Some(FaultKind::TransientIo) => Err(Self::eio(FaultKind::TransientIo)),
            _ => self.inner.read_prefix(path, len),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.decide("read", path, false) {
            Some(FaultKind::TransientIo) => Err(Self::eio(FaultKind::TransientIo)),
            _ => self.inner.read(path),
        }
    }

    fn write_file(&self, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
        match self.decide("write_file", path, true) {
            Some(k @ (FaultKind::TransientIo | FaultKind::PersistentIo)) => Err(Self::eio(k)),
            Some(FaultKind::TornWrite) => {
                // A prefix lands, then the write fails: the caller sees the
                // error and retries or aborts; the torn temp file must
                // never become a valid checkpoint.
                let flat: Vec<u8> = parts.concat();
                let cut = flat.len() / 2;
                self.inner.write_file(path, &[&flat[..cut]])?;
                Err(Self::eio(FaultKind::TornWrite))
            }
            Some(FaultKind::ShortWrite) => {
                // A prefix lands and the call *succeeds* — the classic
                // silent short write.  Detection is deferred to CRC/length
                // validation on the read side.
                let flat: Vec<u8> = parts.concat();
                let cut = flat.len().saturating_sub(1 + flat.len() / 4);
                self.inner.write_file(path, &[&flat[..cut]])?;
                self.mark_corrupted(path);
                Ok(())
            }
            _ => self.inner.write_file(path, parts),
        }
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        match self.decide("fsync", path, true) {
            Some(k @ (FaultKind::TransientIo | FaultKind::PersistentIo)) => Err(Self::eio(k)),
            Some(FaultKind::FsyncLie) => {
                // The drive acks the flush but its volatile cache never hit
                // the platter: model the lost tail by truncating, then
                // report success.
                let bytes = self.inner.read(path)?;
                let keep = bytes.len().saturating_sub(1 + bytes.len() / 8);
                self.inner.write_file(path, &[&bytes[..keep]])?;
                self.mark_corrupted(path);
                Ok(())
            }
            _ => self.inner.fsync(path),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.decide("rename", to, true) {
            Some(k @ (FaultKind::TransientIo | FaultKind::PersistentIo)) => Err(Self::eio(k)),
            Some(FaultKind::BitFlip) => {
                // Commit succeeds, then the medium flips one bit in the
                // committed file: CRC validation must reject it on read.
                self.inner.rename(from, to)?;
                let mut bytes = self.inner.read(to)?;
                if !bytes.is_empty() {
                    let (pos, bit) = {
                        let mut state = self.state.lock().expect("chaos state poisoned");
                        // Flip strictly inside the payload region (past the
                        // 16-byte header) when possible so the flip can
                        // never be mistaken for a wrong-magic file.
                        let lo = 16.min(bytes.len() - 1);
                        (state.rng.gen_range(lo..bytes.len()), state.rng.gen_range(0..8u32))
                    };
                    bytes[pos] ^= 1 << bit;
                    self.inner.write_file(to, &[&bytes])?;
                }
                self.mark_corrupted(to);
                Ok(())
            }
            _ => self.inner.rename(from, to),
        }
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.decide("fsync_dir", dir, true) {
            Some(k @ (FaultKind::TransientIo | FaultKind::PersistentIo)) => Err(Self::eio(k)),
            _ => self.inner.fsync_dir(dir),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.decide("remove_file", path, true) {
            Some(k @ (FaultKind::TransientIo | FaultKind::PersistentIo)) => Err(Self::eio(k)),
            _ => self.inner.remove_file(path),
        }
    }
}

/// A [`CommInterposer`] injecting seeded message delay, drops and a
/// one-shot stall into a shard's halo sends.
// lcr-analyze: allow(dead-public-item): return type of `ChaosPlan::interposer`; callers take it by inference
pub struct ChaosInterposer {
    plan: ChaosPlan,
    rng: ChaCha8Rng,
    stalled: bool,
    log: Vec<FaultRecord>,
}

impl ChaosInterposer {
    /// Creates the interposer for `plan`, decorrelated by `salt` (use the
    /// shard index).
    pub fn new(plan: ChaosPlan, salt: u64) -> Self {
        ChaosInterposer {
            plan,
            // Offset the salt so the comm stream never mirrors the storage
            // stream of the same shard.
            rng: plan.rng(salt.wrapping_add(0x5EED_C0DE)),
            stalled: false,
            log: Vec::new(),
        }
    }

    /// The ordered log of injected comm faults.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.log
    }
}

impl CommInterposer for ChaosInterposer {
    fn on_halo_send(&mut self, _from: usize, _to: usize, seq: u64) -> CommAction {
        if !self.stalled && self.plan.stall_at_msg == Some(seq) {
            self.stalled = true;
            self.log.push(FaultRecord {
                op: seq,
                operation: "halo_send",
                path: PathBuf::new(),
                kind: FaultKind::Stall,
            });
            std::thread::sleep(self.plan.stall);
        } else if self.plan.msg_delay > 0.0 && self.rng.gen_bool(self.plan.msg_delay) {
            self.log.push(FaultRecord {
                op: seq,
                operation: "halo_send",
                path: PathBuf::new(),
                kind: FaultKind::MsgDelay,
            });
            std::thread::sleep(self.plan.delay);
        }
        if self.plan.msg_drop > 0.0 && self.rng.gen_bool(self.plan.msg_drop) {
            self.log.push(FaultRecord {
                op: seq,
                operation: "halo_send",
                path: PathBuf::new(),
                kind: FaultKind::MsgDrop,
            });
            return CommAction::Drop;
        }
        CommAction::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lcr-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let plan = ChaosPlan::storage_mix(42);
        let dir = tempdir("replay");
        OsBackend.create_dir_all(&dir).unwrap();
        let runs: Vec<Vec<FaultRecord>> = (0..2)
            .map(|_| {
                let fb = plan.backend(0);
                for i in 0..200u32 {
                    let path = dir.join(format!("f{i}.tmp"));
                    let _ = fb.write_file(&path, &[&i.to_le_bytes()]);
                    let _ = fb.fsync(&path);
                    let _ = fb.rename(&path, &dir.join(format!("f{i}.bin")));
                }
                fb.fault_log()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "fault schedule must replay bit-identically");
        assert!(!runs[0].is_empty(), "a 5% mix over 600 ops fires");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_salts_decorrelate_streams() {
        let plan = ChaosPlan::storage_mix(7);
        let dir = tempdir("salt");
        OsBackend.create_dir_all(&dir).unwrap();
        let logs: Vec<Vec<FaultRecord>> = [0u64, 1].iter().map(|&salt| {
            let fb = plan.backend(salt);
            for i in 0..200u32 {
                let path = dir.join(format!("s{salt}-{i}.tmp"));
                let _ = fb.write_file(&path, &[&i.to_le_bytes()]);
            }
            fb.fault_log()
        }).collect();
        assert_ne!(logs[0], logs[1], "salted streams must differ");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_death_fails_every_later_mutation() {
        let plan = ChaosPlan {
            persistent_fail_after: Some(3),
            ..ChaosPlan::quiet(1)
        };
        let dir = tempdir("death");
        OsBackend.create_dir_all(&dir).unwrap();
        let fb = plan.backend(0);
        let p = dir.join("x.tmp");
        assert!(fb.write_file(&p, &[b"a"]).is_ok()); // op 1
        assert!(fb.fsync(&p).is_ok()); // op 2
        assert!(fb.write_file(&p, &[b"b"]).is_ok()); // op 3
        for _ in 0..5 {
            assert!(fb.write_file(&p, &[b"c"]).is_err(), "device stays dead");
        }
        // Reads keep working (page-cache semantics).
        assert!(fb.read(&p).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_recorded_and_visible_on_disk() {
        let plan = ChaosPlan {
            bit_flip: 1.0,
            ..ChaosPlan::quiet(9)
        };
        let dir = tempdir("flip");
        OsBackend.create_dir_all(&dir).unwrap();
        let fb = plan.backend(0);
        let tmp = dir.join("c.tmp");
        let fin = dir.join("c.bin");
        let payload = vec![0u8; 64];
        fb.write_file(&tmp, &[&payload]).unwrap();
        fb.rename(&tmp, &fin).unwrap();
        assert_eq!(fb.corrupted_files(), vec![fin.clone()]);
        let bytes = OsBackend.read(&fin).unwrap();
        assert_ne!(bytes, payload, "one bit must differ post-commit");
        assert_eq!(bytes.len(), payload.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interposer_drop_schedule_is_deterministic() {
        let plan = ChaosPlan {
            msg_drop: 0.3,
            ..ChaosPlan::quiet(5)
        };
        let decisions: Vec<Vec<CommAction>> = (0..2)
            .map(|_| {
                let mut ip = plan.interposer(2);
                (0..100).map(|seq| ip.on_halo_send(0, 1, seq)).collect()
            })
            .collect();
        assert_eq!(decisions[0], decisions[1]);
        assert!(decisions[0].contains(&CommAction::Drop));
        assert!(decisions[0].contains(&CommAction::Deliver));
    }
}
