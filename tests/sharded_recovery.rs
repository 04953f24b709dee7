//! Kill-one-shard end-to-end recovery on the sharded execution backend.
//!
//! A CG run on real domain-decomposed shards checkpoints every shard's
//! solution slice under the coordinated epoch commit, then one shard is
//! fail-stopped mid-run.  The assertions pin the ISSUE's acceptance
//! criteria: **only** the failed shard restarts from its lossy checkpoint
//! (recovery counters prove the survivors did not roll back), and the run
//! still converges.
//!
//! CI runs this file across the shard × thread matrix; `LCR_SHARDS`
//! selects the shard count (default 4).

use lossy_ckpt::ckpt::{OsBackend, StorageBackend};
use lossy_ckpt::core::sharded::{try_run_sharded, KillSpec, ShardedReport, ShardedRunConfig};
use lossy_ckpt::solvers::ShardedMethod;
use lossy_ckpt::sparse::poisson::poisson3d;
use lossy_ckpt::sparse::{CsrMatrix, Vector};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcr-sharded-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn env_shards() -> usize {
    std::env::var("LCR_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(4)
}

/// The paper's Poisson operator is negative definite; CG needs SPD.
fn spd_poisson(edge: usize) -> (CsrMatrix, Vector) {
    let mut a = poisson3d(edge);
    for v in a.values_mut() {
        *v = -*v;
    }
    let b = Vector::filled(a.nrows(), 1.0);
    (a, b)
}

/// Every fault injected here is one the run recovers from, so a typed
/// error is a test failure.
fn run(a: &CsrMatrix, b: &Vector, cfg: &ShardedRunConfig) -> ShardedReport {
    try_run_sharded(a, b, cfg).expect("the run recovers from its injected faults")
}

fn residual_norm(a: &CsrMatrix, b: &Vector, x: &Vector) -> f64 {
    let mut r = vec![0.0; b.len()];
    let (ip, ix, vs) = (a.indptr(), a.indices(), a.values());
    for i in 0..b.len() {
        let mut acc = 0.0;
        for k in ip[i]..ip[i + 1] {
            acc += vs[k] * x.as_slice()[ix[k]];
        }
        r[i] = b.as_slice()[i] - acc;
    }
    r.iter().map(|v| v * v).sum::<f64>().sqrt()
}

#[test]
fn kill_one_shard_recovers_only_that_shard_and_converges() {
    let shards = env_shards();
    let (a, b) = spd_poisson(16); // 4096 rows
    let dir = tempdir("kill");
    let victim = 1.min(shards - 1);

    let mut cfg = ShardedRunConfig::new(shards, ShardedMethod::Cg);
    cfg.rtol = 1e-7;
    cfg.reduce_block = 128; // 32 blocks: every shard count up to 32 is non-empty
    cfg.checkpoint_interval = 5;
    cfg.ckpt_dir = Some(dir.clone());
    cfg.kills = vec![KillSpec {
        shard: victim,
        at_iteration: 12,
    }];
    let report = run(&a, &b, &cfg);

    assert!(report.converged, "run must converge after the recovery");
    assert!(
        report.restart_iterations.contains(&12),
        "the recovery iteration triggers a Krylov rebuild"
    );
    // Epochs at iterations 5 and 10 committed before the kill at 12.
    assert!(report.committed_epochs.iter().any(|e| e.iteration == 10));
    assert!(report.committed_epochs.len() >= 2);
    assert!(report.wall_seconds > 0.0, "real wall-clock time elapsed");
    for stats in &report.shards {
        if stats.shard == victim {
            assert_eq!(stats.rollbacks, 1, "failed shard rolls back exactly once");
            assert_eq!(
                stats.resumed_from_iteration,
                Some(10),
                "failed shard resumes from the newest committed epoch"
            );
            assert_eq!(stats.halo_replays, 0);
        } else {
            assert_eq!(stats.rollbacks, 0, "survivor {} rolled back", stats.shard);
            assert_eq!(stats.halo_replays, 1, "survivors replay halo state once");
            assert_eq!(stats.resumed_from_iteration, None);
        }
    }
    // The gathered solution really solves the system to the tolerance.
    let bb = b.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt();
    let rn = residual_norm(&a, &b, &report.solution);
    assert!(
        rn <= 1e-7 * bb * 1.5,
        "gathered solution residual {rn:.3e} exceeds tolerance"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A failure before the first committed epoch restarts the shard from the
/// zero initial guess (Algorithm 2 with no checkpoint) and still
/// converges; survivors keep their state.
#[test]
fn kill_before_first_epoch_restarts_from_zero() {
    let shards = env_shards();
    let (a, b) = spd_poisson(12);
    let mut cfg = ShardedRunConfig::new(shards, ShardedMethod::Cg);
    cfg.rtol = 1e-7;
    cfg.reduce_block = 64;
    cfg.kills = vec![KillSpec {
        shard: 0,
        at_iteration: 3,
    }];
    let report = run(&a, &b, &cfg);
    assert!(report.converged);
    assert_eq!(report.shards[0].rollbacks, 1);
    assert_eq!(report.shards[0].resumed_from_iteration, None);
    for stats in &report.shards[1..] {
        assert_eq!(stats.rollbacks, 0);
        assert_eq!(stats.halo_replays, 1);
    }
}

/// Double fault: two shards are killed at the *same* iteration.  Both must
/// roll back to the newest committed epoch in the same recovery round, the
/// survivors keep their state, and the run still converges correctly.
#[test]
fn double_fault_rolls_back_both_shards_in_one_round() {
    let shards = env_shards().max(3);
    let (a, b) = spd_poisson(16);
    let dir = tempdir("double");
    let (v0, v1) = (0, 1);

    let mut cfg = ShardedRunConfig::new(shards, ShardedMethod::Cg);
    cfg.rtol = 1e-7;
    cfg.reduce_block = 128;
    cfg.checkpoint_interval = 5;
    cfg.ckpt_dir = Some(dir.clone());
    cfg.kills = vec![
        KillSpec {
            shard: v0,
            at_iteration: 12,
        },
        KillSpec {
            shard: v1,
            at_iteration: 12,
        },
    ];
    let report = run(&a, &b, &cfg);

    assert!(report.converged, "run must converge after the double fault");
    assert!(report.restart_iterations.contains(&12));
    for stats in &report.shards {
        if stats.shard == v0 || stats.shard == v1 {
            assert_eq!(stats.rollbacks, 1, "shard {} must roll back", stats.shard);
            assert_eq!(
                stats.resumed_from_iteration,
                Some(10),
                "both victims resume from the newest fully-committed epoch"
            );
            assert_eq!(stats.halo_replays, 0);
        } else {
            assert_eq!(stats.rollbacks, 0, "survivor {} rolled back", stats.shard);
            assert_eq!(stats.halo_replays, 1, "one recovery round, one replay");
        }
    }
    let bb = b.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt();
    let rn = residual_norm(&a, &b, &report.solution);
    assert!(rn <= 1e-7 * bb * 1.5, "residual {rn:.3e} exceeds tolerance");
    let _ = fs::remove_dir_all(&dir);
}

/// Delegating backend that flips one payload bit in the `n`-th committed
/// (renamed) checkpoint file — a deterministic fault that only becomes
/// visible during recovery replay, when the store validates the file.
#[derive(Debug)]
struct FlipNthCommit {
    inner: OsBackend,
    renames: AtomicU64,
    corrupt_at: u64,
}

impl FlipNthCommit {
    fn new(corrupt_at: u64) -> Self {
        FlipNthCommit {
            inner: OsBackend,
            renames: AtomicU64::new(0),
            corrupt_at,
        }
    }
}

impl StorageBackend for FlipNthCommit {
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
        self.inner.write_file(path, parts)
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.inner.fsync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)?;
        if self.renames.fetch_add(1, Ordering::SeqCst) + 1 == self.corrupt_at {
            let mut bytes = self.inner.read(to)?;
            if bytes.len() > 32 {
                bytes[32] ^= 0x40;
                self.inner.write_file(to, &[&bytes])?;
            }
        }
        Ok(())
    }
    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.fsync_dir(dir)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
}

/// Fault injected during recovery replay: the victim shard's *newest*
/// committed segment is silently corrupted post-commit.  Recovery detects
/// the corruption (CRC validation), walks back to the older committed
/// epoch, and the run still converges — never a silent wrong answer.
#[test]
fn corrupted_newest_epoch_falls_back_to_older_epoch_during_recovery() {
    let shards = env_shards();
    let (a, b) = spd_poisson(16);
    let dir = tempdir("replayfault");
    let victim = 1.min(shards - 1);

    let mut cfg = ShardedRunConfig::new(shards, ShardedMethod::Cg);
    cfg.rtol = 1e-7;
    cfg.reduce_block = 128;
    cfg.checkpoint_interval = 5;
    cfg.ckpt_dir = Some(dir.clone());
    cfg.kills = vec![KillSpec {
        shard: victim,
        at_iteration: 12,
    }];
    // Corrupt the victim's second committed file (the epoch at iteration
    // 10); other shards write through the plain backend.
    cfg.backend_factory = Some(Arc::new(move |shard| {
        if shard == victim {
            Arc::new(FlipNthCommit::new(2))
        } else {
            Arc::new(OsBackend)
        }
    }));
    let report = run(&a, &b, &cfg);

    assert!(report.converged, "run must converge despite replay fault");
    let stats = &report.shards[victim];
    assert_eq!(stats.rollbacks, 1);
    assert_eq!(
        stats.resumed_from_iteration,
        Some(5),
        "recovery must detect the corrupt epoch at 10 and fall back to 5"
    );
    let bb = b.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt();
    let rn = residual_norm(&a, &b, &report.solution);
    assert!(rn <= 1e-7 * bb * 1.5, "residual {rn:.3e} exceeds tolerance");
    let _ = fs::remove_dir_all(&dir);
}
