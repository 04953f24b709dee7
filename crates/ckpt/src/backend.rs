//! Pluggable storage backend behind [`DiskStore`](crate::disk::DiskStore).
//!
//! Every file-system operation the durable checkpoint tier performs is
//! routed through the [`StorageBackend`] trait: directory scans, header
//! reads, full reads, the temp-write / fsync / rename commit sequence and
//! eviction.  The durable tier uses [`OsBackend`] (plain `std::fs`), the
//! in-memory tier [`MemBackend`] (a map from path to bytes that dies with
//! the process); the `lcr-chaos` crate wraps any backend in a fault
//! injector to exercise torn writes, fsync lies, transient `EIO` and
//! post-commit bit flips without touching the store logic itself.
//!
//! The trait is deliberately *operation-shaped* rather than
//! handle-shaped: each call names the path it touches, so a fault
//! injector can key its schedule on the operation sequence and a future
//! remote tier can map calls onto an object store.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// The file-system surface [`DiskStore`](crate::disk::DiskStore) needs.
///
/// Implementations must be usable from the write-behind I/O thread, hence
/// `Send + Sync`.  All methods are `&self`: backends carry interior
/// mutability if they need state (the chaos injector keeps its seeded
/// schedule behind a mutex).
pub trait StorageBackend: std::fmt::Debug + Send + Sync {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Lists the entries of `dir` (files only; order is not significant —
    /// the store sorts by checkpoint id).
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Length of the file at `path` in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64>;

    /// Reads exactly the first `len` bytes of `path`.
    fn read_prefix(&self, path: &Path, len: usize) -> io::Result<Vec<u8>>;

    /// Reads the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Makes `path` hold exactly `parts`, back to back: a missing file is
    /// created, an existing one is overwritten in place and cut to the new
    /// length, so its storage is reused rather than freed and allocated
    /// again.
    ///
    /// Durability is *not* implied — callers follow up with
    /// [`StorageBackend::fsync`] before relying on the data surviving a
    /// crash.
    fn write_file(&self, path: &Path, parts: &[&[u8]]) -> io::Result<()>;

    /// Forces the file at `path` to stable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to` (the commit point of a
    /// checkpoint write).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Best-effort fsync of a directory so a preceding rename is durable.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The production backend: plain `std::fs` operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsBackend;

impl StorageBackend for OsBackend {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for item in fs::read_dir(dir)? {
            out.push(item?.path());
        }
        Ok(out)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }

    fn read_prefix(&self, path: &Path, len: usize) -> io::Result<Vec<u8>> {
        let mut file = File::open(path)?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write_file(&self, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
        let mut file = File::options().write(true).create(true).truncate(false).open(path)?;
        for part in parts {
            file.write_all(part)?;
        }
        file.set_len(parts.iter().map(|part| part.len() as u64).sum())
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        File::options().write(true).open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

/// A file system held in memory: each path maps to the bytes last written
/// there, and nothing outlives the value.  [`FtiContext`](crate::FtiContext)
/// keeps its in-memory tier in one; a test can crash a store over one as
/// often as it likes without touching a disk.  Directories are implicit —
/// a file is in the directory its path names.
#[derive(Debug, Default)]
pub struct MemBackend {
    files: Mutex<BTreeMap<PathBuf, Vec<u8>>>,
}

impl MemBackend {
    fn files(&self) -> MutexGuard<'_, BTreeMap<PathBuf, Vec<u8>>> {
        self.files.lock().expect("in-memory file table poisoned")
    }

    /// `read` applied to the bytes at `path`; `NotFound` when there are none.
    fn with_file<T>(&self, path: &Path, read: impl FnOnce(&[u8]) -> T) -> io::Result<T> {
        let files = self.files();
        let bytes = files.get(path).ok_or(io::ErrorKind::NotFound)?;
        Ok(read(bytes))
    }
}

impl StorageBackend for MemBackend {
    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let files = self.files();
        Ok(files.keys().filter(|p| p.parent() == Some(dir)).cloned().collect())
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.with_file(path, |bytes| bytes.len() as u64)
    }

    fn read_prefix(&self, path: &Path, len: usize) -> io::Result<Vec<u8>> {
        self.with_file(path, |bytes| bytes.get(..len).map(<[u8]>::to_vec))?
            .ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.with_file(path, <[u8]>::to_vec)
    }

    fn write_file(&self, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
        let mut files = self.files();
        let bytes = files.entry(path.to_path_buf()).or_default();
        bytes.clear();
        // Grow to the exact length, never to the doubled capacity a
        // growing `Vec` would otherwise keep.
        bytes.reserve_exact(parts.iter().map(|part| part.len()).sum());
        for part in parts {
            bytes.extend_from_slice(part);
        }
        Ok(())
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.with_file(path, |_| ())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files();
        let bytes = files.remove(from).ok_or(io::ErrorKind::NotFound)?;
        files.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn fsync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let removed = self.files().remove(path);
        removed.map(drop).ok_or_else(|| io::ErrorKind::NotFound.into())
    }
}

/// Bounded exponential-backoff policy for *transient* storage errors.
///
/// Only I/O errors are ever retried — a CRC/format validation failure is
/// deterministic and retrying it would only re-read the same corrupt
/// bytes.  Every retry is counted on the owning
/// [`DiskStore`](crate::disk::DiskStore) and every backoff sleep is
/// logged, so supervision is observable, never silent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of *re*-tries after the initial attempt.
    pub max_retries: u32,
    /// Sleep before the first retry, in seconds.
    pub base_delay_seconds: f64,
    /// Multiplier applied to the delay after each failed retry.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay_seconds: 0.002,
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// The backoff delay (seconds) before retry number `attempt`
    /// (1-based).
    fn delay_seconds(&self, attempt: u32) -> f64 {
        self.base_delay_seconds * self.multiplier.powi(attempt.saturating_sub(1) as i32)
    }

    /// Runs `op`, retrying transient failures up to `max_retries` times
    /// with exponential backoff.  Returns the result of the last attempt
    /// plus the number of retries performed and the seconds slept before
    /// each one.
    pub fn run<T>(
        &self,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> (io::Result<T>, u32, Vec<f64>) {
        let mut backoff = Vec::new();
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return (Ok(v), attempt, backoff),
                Err(e) if attempt < self.max_retries => {
                    attempt += 1;
                    let delay = self.delay_seconds(attempt);
                    if delay > 0.0 {
                        std::thread::sleep(std::time::Duration::from_secs_f64(delay));
                    }
                    backoff.push(delay);
                    let _ = e;
                }
                Err(e) => return (Err(e), attempt, backoff),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What [`DiskStore`](crate::disk::DiskStore) relies on, as a script
    /// every backend must pass over an empty `dir`.
    fn conforms(b: &dyn StorageBackend, dir: &Path) {
        b.create_dir_all(dir).unwrap();
        let tmp = dir.join("a.tmp");
        let fin = dir.join("a.bin");
        b.write_file(&tmp, &[b"hello ", b"world"]).unwrap();
        b.fsync(&tmp).unwrap();
        b.rename(&tmp, &fin).unwrap();
        b.fsync_dir(dir).unwrap();
        assert_eq!(b.file_len(&fin).unwrap(), 11);
        assert_eq!(b.read_prefix(&fin, 5).unwrap(), b"hello");
        assert_eq!(b.read(&fin).unwrap(), b"hello world");
        // A write over an existing file leaves exactly the new bytes,
        // shorter or longer; a rename replaces what its target held.
        b.write_file(&tmp, &[b"hello world"]).unwrap();
        b.write_file(&tmp, &[b"bye"]).unwrap();
        assert_eq!(b.read(&tmp).unwrap(), b"bye");
        b.write_file(&tmp, &[b"farewell", b"!"]).unwrap();
        assert_eq!(b.read(&tmp).unwrap(), b"farewell!");
        b.write_file(&tmp, &[b"bye"]).unwrap();
        b.rename(&tmp, &fin).unwrap();
        assert_eq!(b.read(&fin).unwrap(), b"bye");
        assert!(b.read_prefix(&fin, 4).is_err(), "a prefix longer than the file");

        // A directory lists its own files only.
        let sub = dir.join("sub");
        b.create_dir_all(&sub).unwrap();
        let nested = sub.join("b.bin");
        b.write_file(&nested, &[b"x"]).unwrap();
        let files = |d: &Path| -> Vec<PathBuf> {
            let mut listed = b.list_dir(d).unwrap();
            listed.retain(|p| *p != sub);
            listed
        };
        assert_eq!(files(dir), vec![fin.clone()]);
        assert_eq!(files(&sub), vec![nested.clone()]);

        // The renamed-away name is gone, and a missing path is `NotFound`.
        let not_found = |r: io::Result<()>| r.unwrap_err().kind() == io::ErrorKind::NotFound;
        assert!(not_found(b.read(&tmp).map(drop)));
        assert!(not_found(b.file_len(&tmp).map(drop)));
        assert!(not_found(b.fsync(&tmp)));
        assert!(not_found(b.rename(&tmp, &fin)));
        assert!(not_found(b.remove_file(&tmp)));
        b.remove_file(&fin).unwrap();
        b.remove_file(&nested).unwrap();
        assert!(files(dir).is_empty());
    }

    #[test]
    fn os_backend_conforms() {
        let dir = std::env::temp_dir().join(format!("lcr-backend-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        conforms(&OsBackend, &dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_backend_conforms() {
        conforms(&MemBackend::default(), Path::new("memory"));
    }

    #[test]
    fn retry_policy_counts_and_logs_backoff() {
        let policy = RetryPolicy {
            max_retries: 3,
            base_delay_seconds: 0.0,
            multiplier: 2.0,
        };
        let mut failures_left = 2;
        let (result, retries, backoff) = policy.run(|| {
            if failures_left > 0 {
                failures_left -= 1;
                Err(io::Error::other("transient"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(result.unwrap(), 42);
        assert_eq!(retries, 2);
        assert_eq!(backoff.len(), 2);
    }

    #[test]
    fn retry_policy_gives_up_after_budget() {
        let policy = RetryPolicy {
            max_retries: 2,
            base_delay_seconds: 0.0,
            multiplier: 2.0,
        };
        let (result, retries, _) = policy.run(|| -> io::Result<()> {
            Err(io::Error::other("persistent"))
        });
        assert!(result.is_err());
        assert_eq!(retries, 2);
    }

    #[test]
    fn delay_schedule_is_exponential() {
        let p = RetryPolicy {
            max_retries: 4,
            base_delay_seconds: 0.001,
            multiplier: 2.0,
        };
        assert!((p.delay_seconds(1) - 0.001).abs() < 1e-12);
        assert!((p.delay_seconds(2) - 0.002).abs() < 1e-12);
        assert!((p.delay_seconds(3) - 0.004).abs() < 1e-12);
    }
}
