//! Write-behind is the synchronous commit moved onto an I/O thread, and
//! nothing else: the same commits leave the same files, and a write that
//! fails there invalidates only its own checkpoint and surfaces on the next
//! commit or flush.  Recovery only ever returns a completed write (FTI's
//! rule).

use lcr_ckpt::disk::{read_checkpoint_file, DiskStore};
use lcr_ckpt::{
    CheckpointBuffer, CheckpointLevel, CheckpointMetadata, CkptError, ClusterConfig, FtiContext,
    MemBackend, OsBackend, PfsModel, RetryPolicy, SimClock, StorageBackend,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A context whose only tier is `disk`, so every commit goes through it.
fn context(disk: DiskStore) -> FtiContext {
    let mut fti = FtiContext::new(
        ClusterConfig::bebop_like(64, 1.0),
        PfsModel::bebop_like(),
        CheckpointLevel::Pfs,
    )
    .without_memory_tier();
    fti.attach_disk_store(disk);
    fti
}

/// Commit `k` of a run: two variables whose bytes differ per commit.
fn commit(
    fti: &mut FtiContext,
    buffer: &mut CheckpointBuffer,
    k: usize,
    delta_order: Option<u8>,
) -> Result<CheckpointMetadata, CkptError> {
    buffer.clear();
    buffer.push_with("x", |out| out.extend((0..40 + 8 * k).map(|i| (i * 7 + k) as u8)));
    buffer.push_with("p", |out| out.extend_from_slice(&[k as u8; 24]));
    let scalars = [("rho".to_string(), 0.5 * k as f64)];
    fti.commit_snapshot_from_buffer(k as f64, 10 * k, "lossy-delta", &scalars, delta_order, buffer, 0.0)
}

/// Two anchored chains, each an anchor, an order-1 and an order-2 delta.
const SCHEDULE: [Option<u8>; 6] = [None, Some(1), Some(2), None, Some(1), Some(2)];

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcr-write-behind-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The checkpoint files of `dir`, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .map(|path| {
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn write_behind_leaves_the_files_a_synchronous_store_leaves() {
    let mut runs = Vec::new();
    for write_behind in [false, true] {
        let dir = tempdir(if write_behind { "async" } else { "sync" });
        let mut disk = DiskStore::open_with_backend(&dir, 2, Arc::new(OsBackend)).unwrap();
        disk.set_write_behind(write_behind).unwrap();
        let mut fti = context(disk);
        let mut buffer = CheckpointBuffer::new();
        let committed: Vec<CheckpointMetadata> = SCHEDULE
            .into_iter()
            .enumerate()
            .map(|(k, order)| commit(&mut fti, &mut buffer, k, order).unwrap())
            .collect();
        fti.disk_store_mut().unwrap().flush().unwrap();
        let recovered = fti.recover(&mut SimClock::new(), 0).unwrap();
        let files = files(&dir);
        // Every file left behind is the checkpoint its commit reported.
        for (name, _) in &files {
            let on_disk = read_checkpoint_file(&dir.join(name)).unwrap();
            assert_eq!(on_disk.metadata, committed[on_disk.metadata.id as usize], "{name}");
        }
        runs.push((committed, files, recovered));
        drop(fti);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (sync, write_behind) = (&runs[0], &runs[1]);
    assert_eq!(sync.0, write_behind.0, "commit metadata");
    let names: Vec<&str> = sync.1.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        ["ckpt-0000000003.lcr", "ckpt-0000000004.lcr", "ckpt-0000000005.lcr"],
        "retention evicted the first chain whole"
    );
    assert!(sync.1 == write_behind.1, "the files differ byte for byte");
    assert_eq!(sync.2, write_behind.2, "recovery");
    assert_eq!((sync.2.id, sync.2.chain.len()), (5, 3));
}

/// A backend over memory whose `fail_at`-th `write_file` (1-based) fails.
#[derive(Debug)]
struct FailsOneWrite {
    inner: MemBackend,
    writes: AtomicUsize,
    fail_at: usize,
}

impl FailsOneWrite {
    fn new(fail_at: usize) -> Self {
        FailsOneWrite {
            inner: MemBackend::default(),
            writes: AtomicUsize::new(0),
            fail_at,
        }
    }
}

impl StorageBackend for FailsOneWrite {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(dir)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }
    fn read_prefix(&self, path: &Path, len: usize) -> io::Result<Vec<u8>> {
        self.inner.read_prefix(path, len)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write_file(&self, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
        if self.writes.fetch_add(1, Ordering::SeqCst) + 1 == self.fail_at {
            return Err(io::Error::other("injected"));
        }
        self.inner.write_file(path, parts)
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.inner.fsync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.fsync_dir(dir)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
}

/// A write-behind context over a backend that fails its second write,
/// with no retries.
fn failing_second_write() -> FtiContext {
    let backend = Arc::new(FailsOneWrite::new(2));
    let mut disk = DiskStore::open_with_backend("ckpts", 2, backend).unwrap();
    disk.set_retry_policy(RetryPolicy {
        max_retries: 0,
        base_delay_seconds: 0.0,
        multiplier: 2.0,
    });
    disk.set_write_behind(true).unwrap();
    context(disk)
}

fn valid_ids(fti: &mut FtiContext) -> Vec<u64> {
    let disk = fti.disk_store_mut().unwrap();
    disk.metadata().iter().map(|m| m.id).collect()
}

#[test]
fn a_failed_write_behind_write_surfaces_on_the_next_commit_and_only_its_checkpoint_is_lost() {
    let mut fti = failing_second_write();
    let mut buffer = CheckpointBuffer::new();
    assert_eq!(commit(&mut fti, &mut buffer, 0, None).unwrap().id, 0);
    assert_eq!(commit(&mut fti, &mut buffer, 1, None).unwrap().id, 1);
    assert_eq!(
        commit(&mut fti, &mut buffer, 2, None),
        Err(CkptError::Io("writing checkpoint 1: injected".into()))
    );
    // The error was reported once, and the third checkpoint landed.
    fti.disk_store_mut().unwrap().flush().unwrap();
    assert_eq!(valid_ids(&mut fti), [0, 2]);
    assert_eq!(fti.recover(&mut SimClock::new(), 0).unwrap().id, 2);
}

#[test]
fn a_failed_last_write_behind_write_surfaces_on_flush_and_recovery_falls_back() {
    let mut fti = failing_second_write();
    let mut buffer = CheckpointBuffer::new();
    assert_eq!(commit(&mut fti, &mut buffer, 0, None).unwrap().id, 0);
    assert_eq!(commit(&mut fti, &mut buffer, 1, None).unwrap().id, 1);
    assert_eq!(
        fti.disk_store_mut().unwrap().flush(),
        Err(CkptError::Io("writing checkpoint 1: injected".into()))
    );
    assert_eq!(valid_ids(&mut fti), [0]);
    assert_eq!(fti.recover(&mut SimClock::new(), 0).unwrap().id, 0);
}
