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

use lossy_ckpt::ckpt::disk::read_checkpoint_file;
use lossy_ckpt::ckpt::{
    CheckpointLevel, ClusterConfig, OsBackend, PfsModel, RetryPolicy, StorageBackend,
};
use lossy_ckpt::compress::ErrorBound;
use lossy_ckpt::core::runner::{FaultTolerantRunner, Persistence, RunConfig};
use lossy_ckpt::core::sharded::{try_run_sharded, KillSpec, ShardedReport, ShardedRunConfig};
use lossy_ckpt::core::strategy::{CheckpointStrategy, ErrorBoundPolicy, LossyCodecKind};
use lossy_ckpt::core::ScaledProblem;
use lossy_ckpt::solvers::{
    ConjugateGradient, IterativeMethod, Jacobi, LinearSystem, SolverKind, StoppingCriteria,
};
use lossy_ckpt::sparse::poisson::{poisson1d, poisson3d};
use lossy_ckpt::sparse::{CsrMatrix, Vector};
use std::fs;
use std::io;
use std::ops::RangeInclusive;
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
    let a = poisson3d(edge).negated();
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
            acc += vs[k] * x.as_slice()[ix[k] as usize];
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

    let mut cfg = ShardedRunConfig::new(shards, SolverKind::Cg);
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
    let mut cfg = ShardedRunConfig::new(shards, SolverKind::Cg);
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

    let mut cfg = ShardedRunConfig::new(shards, SolverKind::Cg);
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

    let mut cfg = ShardedRunConfig::new(shards, SolverKind::Cg);
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

/// Delegating backend whose commits (renames) numbered in `failing`
/// (1-based) fail with a hard I/O error: the segment never lands, so its
/// shard votes the epoch down.
#[derive(Debug)]
struct FailCommits {
    inner: OsBackend,
    renames: AtomicU64,
    failing: RangeInclusive<u64>,
}

impl FailCommits {
    fn new(failing: RangeInclusive<u64>) -> Self {
        FailCommits {
            inner: OsBackend,
            renames: AtomicU64::new(0),
            failing,
        }
    }
}

impl StorageBackend for FailCommits {
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
        if self.failing.contains(&(self.renames.fetch_add(1, Ordering::SeqCst) + 1)) {
            return Err(io::Error::other("injected commit failure"));
        }
        self.inner.rename(from, to)
    }
    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.fsync_dir(dir)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
}

/// A 16³ CG run checkpointing every `interval` iterations in which shard 0
/// fails the commits numbered `failing` (one attempt each, no retries) and
/// shard 1 is killed at `kill_at`.
fn run_with_a_failing_peer(
    tag: &str,
    shards: usize,
    interval: usize,
    failing: RangeInclusive<u64>,
    kill_at: usize,
) -> ShardedReport {
    let (a, b) = spd_poisson(16);
    let dir = tempdir(tag);
    let mut cfg = ShardedRunConfig::new(shards, SolverKind::Cg);
    cfg.rtol = 1e-7;
    cfg.reduce_block = 128;
    cfg.checkpoint_interval = interval;
    cfg.ckpt_dir = Some(dir.clone());
    cfg.retry = Some(RetryPolicy {
        max_retries: 0,
        ..RetryPolicy::default()
    });
    cfg.kills = vec![KillSpec {
        shard: 1,
        at_iteration: kill_at,
    }];
    cfg.backend_factory = Some(Arc::new(move |shard| {
        if shard == 0 {
            Arc::new(FailCommits::new(failing.clone()))
        } else {
            Arc::new(OsBackend)
        }
    }));
    let report = run(&a, &b, &cfg);
    let _ = fs::remove_dir_all(&dir);
    report
}

/// The epoch-commit safety rule: a shard never restores an epoch some peer
/// failed to commit, even though its own segment of that epoch landed on
/// disk and is CRC-valid.  Shard 0 fails its write of the epoch at
/// iteration 10; shard 1 — whose segment of that epoch was fine — dies at
/// 12 and must come back from the epoch at 5.
#[test]
fn a_shard_never_restores_an_epoch_a_peer_failed_to_commit() {
    let shards = env_shards();
    if shards < 2 {
        return; // the scenario needs a failing peer and a victim
    }
    let report = run_with_a_failing_peer("peerfail", shards, 5, 2..=2, 12);
    assert!(report.converged);
    assert!(report.committed_epochs.iter().all(|e| e.iteration != 10));
    assert!(report.committed_epochs.iter().any(|e| e.iteration == 5));
    for stats in &report.shards {
        assert_eq!(stats.aborted_epochs, 1, "shard {} saw one abort", stats.shard);
    }
    assert_eq!(report.shards[1].rollbacks, 1);
    assert_eq!(report.shards[1].resumed_from_iteration, Some(5));
}

/// An aborted epoch must not cost a retention slot.  Shard 0's disk fails
/// `retain` (= 4) consecutive epochs after the first one committed; shard
/// 1's own segments of those epochs all land.  Were they kept, the fourth
/// would evict shard 1's only committed epoch and the kill would restart
/// it from zero although a committed epoch exists.
#[test]
fn aborted_epochs_do_not_evict_the_last_committed_epoch() {
    let shards = env_shards();
    if shards < 2 {
        return;
    }
    // Epochs at 2, 4, 6, 8, 10; commits 2..=5 of shard 0 fail.
    let report = run_with_a_failing_peer("retention", shards, 2, 2..=5, 11);
    assert!(report.converged);
    for stats in &report.shards {
        assert_eq!(stats.aborted_epochs, 4, "shard {}", stats.shard);
    }
    assert_eq!(
        report.shards[1].resumed_from_iteration,
        Some(2),
        "the committed epoch at iteration 2 must still be there to restore"
    );
}

/// A segment is written, evicting the one before it, ahead of its epoch's
/// vote: with one retained checkpoint an aborted epoch would leave the
/// shard's store empty, and its next rollback would restart from zero
/// although a committed epoch exists.  So the run is refused up front.
#[test]
#[should_panic(expected = "requires retain >= 2")]
fn checkpointing_with_one_retained_epoch_is_refused() {
    let (a, b) = spd_poisson(8);
    let mut cfg = ShardedRunConfig::new(2, SolverKind::Cg);
    cfg.checkpoint_interval = 5;
    cfg.ckpt_dir = Some(tempdir("retain1"));
    cfg.retain = 1;
    let _ = try_run_sharded(&a, &b, &cfg);
}

/// A probe solver of dimension `n` for `CheckpointStrategy::recover` to
/// restart: only its solution vector is looked at.
fn probe(n: usize) -> impl IterativeMethod {
    let system = LinearSystem::new(poisson1d(n), Vector::filled(n, 1.0));
    Jacobi::new(system, Vector::zeros(n), StoppingCriteria::new(1e-6, 10))
}

fn newest_checkpoint_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "lcr"))
        .collect();
    files.sort();
    files.pop().expect("a committed checkpoint file")
}

/// Decodes the newest checkpoint in `dir` through the *public* strategy
/// and returns its iteration and values.
fn decode_newest(dir: &Path, strategy: &CheckpointStrategy) -> (usize, Vec<f64>) {
    let ckpt = read_checkpoint_file(&newest_checkpoint_file(dir)).unwrap();
    assert!(strategy.can_recover_from(&ckpt.tag), "tag {:?}", ckpt.tag);
    let n = ckpt.metadata.original_bytes / 8;
    let mut probe = probe(n);
    strategy
        .recover(&mut probe, &ckpt.payloads, ckpt.metadata.iteration, &ckpt.scalars)
        .expect("the public strategy decodes the checkpoint");
    assert_eq!(probe.iteration(), ckpt.metadata.iteration);
    (ckpt.metadata.iteration, probe.solution().as_slice().to_vec())
}

fn assert_within(bound: f64, decoded: &[f64], reference: &[f64]) {
    let (lo, hi) = reference
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    let allowed = bound * (hi - lo) * (1.0 + 1e-9) + 1e-12;
    assert_eq!(decoded.len(), reference.len());
    for (d, r) in decoded.iter().zip(reference) {
        assert!((d - r).abs() <= allowed, "|{d} - {r}| > {allowed}");
    }
}

/// Both fronts write one format.  A shard segment reads back through the
/// public lossy strategy (its tag, its frame, its codec) within the bound
/// of the shard's state at that iteration; and a single-process CG and a
/// 1-shard CG over the same system, interval and bound, each crashed
/// after the checkpoint at 10, took the same checkpoints, restore the same
/// one and restart at the same iteration.
#[test]
fn both_fronts_write_and_recover_one_checkpoint_format() {
    let (a, b) = spd_poisson(12);
    let n = a.nrows();
    let bound = 1e-4;
    let strategy = CheckpointStrategy::Lossy {
        codec: LossyCodecKind::Sz,
        policy: ErrorBoundPolicy::Fixed(ErrorBound::ValueRangeRel(bound)),
    };
    // CG checkpointing every 5 iterations, shard 0 killed at `kills`.
    let sharded = |shards: usize, tag: &str, kills: &[usize], max_iterations: usize| {
        let dir = tempdir(tag);
        let mut cfg = ShardedRunConfig::new(shards, SolverKind::Cg);
        cfg.rtol = 1e-12;
        cfg.max_iterations = max_iterations;
        cfg.reduce_block = 64;
        cfg.error_bound = ErrorBound::ValueRangeRel(bound);
        cfg.checkpoint_interval = 5;
        cfg.ckpt_dir = Some(dir.clone());
        cfg.kills = kills
            .iter()
            .map(|&at_iteration| KillSpec {
                shard: 0,
                at_iteration,
            })
            .collect();
        (run(&a, &b, &cfg), dir)
    };
    // The state every checkpoint at iteration 10 was taken from (the run
    // ends on it, so it is not itself checkpointed).
    let (reference, ref_dir) = sharded(1, "format-ref", &[], 10);
    assert_eq!(reference.iterations, 10);
    let x10 = reference.solution.as_slice();
    let _ = fs::remove_dir_all(&ref_dir);

    // A 2-shard run: each shard's newest segment is the epoch at 10.
    let (two, dir) = sharded(2, "format-two", &[], 12);
    assert_eq!(
        two.committed_epochs.iter().map(|e| e.iteration).collect::<Vec<_>>(),
        vec![5, 10]
    );
    let mut row = 0;
    for stats in &two.shards {
        let (iteration, slice) = decode_newest(&dir.join(format!("shard-{}", stats.shard)), &strategy);
        assert_eq!((iteration, slice.len()), (10, stats.rows));
        assert_within(bound, &slice, &x10[row..row + stats.rows]);
        row += stats.rows;
    }
    let _ = fs::remove_dir_all(&dir);

    // One shard, killed right after the checkpoint at 10 committed.
    let (one, one_dir) = sharded(1, "format-one", &[10], 200);
    let before_crash: Vec<usize> = one
        .committed_epochs
        .iter()
        .map(|e| e.iteration)
        .filter(|&it| it <= 10)
        .collect();

    // One process, "killed" after the same iteration, then a fresh one.
    let local_dir = tempdir("format-local");
    let problem = ScaledProblem {
        system: LinearSystem::new(a.clone(), b.clone()),
        exact_solution: Vector::zeros(n),
        processes: 1,
        paper_global_unknowns: n,
        local_grid_edge: 12,
    };
    let local = |max_executed_iterations: usize| {
        let mut cfg = RunConfig::baseline(ClusterConfig::bebop_like(1, 1.0), PfsModel::bebop_like());
        cfg.strategy = strategy.clone();
        cfg.checkpoint_interval_iterations = 5;
        cfg.level = CheckpointLevel::Pfs;
        cfg.max_executed_iterations = max_executed_iterations;
        cfg.persistence = Persistence::disk(&local_dir);
        let mut solver = ConjugateGradient::unpreconditioned(
            problem.system.clone(),
            Vector::zeros(n),
            StoppingCriteria::new(1e-12, 200),
        );
        FaultTolerantRunner::new(cfg).run(&mut solver, &problem)
    };
    let phase1 = local(10);
    assert_eq!(phase1.checkpoints_taken, before_crash.len());
    assert_eq!(before_crash, vec![5, 10]);
    let (iteration, x_local) = decode_newest(&local_dir, &strategy);
    assert_eq!(iteration, 10);
    assert_within(bound, &x_local, x10);
    let phase2 = local(200);

    assert_eq!(phase2.resumed_from_iteration, Some(10));
    assert_eq!(one.shards[0].resumed_from_iteration, Some(10));
    assert_eq!(phase2.restart_iterations, vec![10]);
    assert_eq!(one.restart_iterations, vec![10]);
    assert!(one.converged && !phase2.hit_iteration_limit);
    let _ = fs::remove_dir_all(&one_dir);
    let _ = fs::remove_dir_all(&local_dir);
}
