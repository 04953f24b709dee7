//! The sharded executor: steps the solvers of `lcr-solvers` on real
//! concurrent shard threads, one [`ShardSpace`] each, with per-shard lossy
//! checkpointing and per-shard crash recovery.
//!
//! This is the promotion of the paper's *simulated* cluster into a real
//! one: [`try_run_sharded`] carves the global system into
//! [`ShardedCsr`](lcr_sparse::ShardedCsr) views via
//! [`partition_csr`](lcr_sparse::shard::partition_csr), spawns one scoped
//! thread per shard, and services the reduction/barrier coordinator on the
//! calling thread.  Each shard owns its solver state, its halo endpoints
//! and — when checkpointing is enabled — its *own*
//! [`DiskStore`](lcr_ckpt::DiskStore) under `ckpt_dir/shard-{k}/`, into
//! which it writes an SZ-compressed segment of its local solution slice.
//! The shard thread owns its loop exactly as
//! [`FaultTolerantRunner::run`](crate::FaultTolerantRunner::run) does: one
//! solver step, then the checkpoint / commit-barrier / kill logic on the
//! local solution, then a solver restart when a recovery round fired.
//!
//! # Coordinated epoch commit
//!
//! A checkpoint *epoch* is the simultaneous checkpoint every shard takes at
//! the same iteration (the shards run in lockstep).  After writing its
//! segment, each shard votes in an all-ok barrier
//! ([`ShardComm::try_barrier_all_ok`](lcr_sparse::ShardComm::try_barrier_all_ok));
//! the epoch is **committed** — recoverable — only if every shard's
//! segment landed and CRC-validated.  A failed shard therefore never
//! restores an epoch some peer failed to complete, even if its *own*
//! segment of a later epoch exists on disk.
//!
//! # Per-shard crash recovery
//!
//! Failure injection is a deterministic [`KillSpec`] every shard knows: at
//! the configured iteration the designated shard fail-stops (its local
//! solution is wiped), reloads its slice from the newest *committed* epoch
//! in its own store ([`DiskStore::read_valid_by_id`]) and SZ-decompresses
//! it; surviving shards keep their in-memory state untouched and merely
//! replay halo values.  All shards then restart their solver, rebuilding
//! the Krylov recurrence from the partially restored global solution —
//! Algorithm 2 of the paper executed shard-locally, with rollback confined
//! to the failed shard.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcr_ckpt::{CheckpointBuffer, CheckpointLevel, DiskStore, RetryPolicy, StorageBackend};
use lcr_compress::{Compressed, ErrorBound, LossyCompressor, SzCompressor};
use lcr_solvers::{
    BiCgStab, ConjugateGradient, Jacobi, Progress, ShardSpace, ShardedMethod, StoppingCriteria,
    TryIterativeMethod,
};
use lcr_sparse::shard::{build_comms, gather_solution, partition_csr, CommError, CommInterposer};
use lcr_sparse::{CsrMatrix, ShardComm, ShardLayout, ShardedCsr, Vector, REDUCE_BLOCK};

/// Deterministic fail-stop injection: at the end of iteration
/// `at_iteration`, shard `shard` crashes and recovers from its newest
/// committed epoch.  Every shard holds the same spec, so the lockstep
/// shards agree on when the recovery round happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The shard that fail-stops.
    pub shard: usize,
    /// The (1-based) iteration after which it dies.
    pub at_iteration: usize,
}

/// Builds the [`StorageBackend`] a given shard's checkpoint store writes
/// through — the chaos-injection seam: production runs leave it unset
/// (plain OS-backed I/O), fault campaigns hand each shard a seeded
/// fault-injecting wrapper.
pub type ShardBackendFactory = Arc<dyn Fn(usize) -> Arc<dyn StorageBackend> + Send + Sync>;

/// Builds the [`CommInterposer`] installed on a given shard's comm
/// endpoint (message delay/drop/stall injection); `None` means faultless
/// delivery.
pub type ShardInterposerFactory = Arc<dyn Fn(usize) -> Box<dyn CommInterposer> + Send + Sync>;

/// Typed failure of a sharded run: the safety-invariant contract is that a
/// run either converges with a correct residual or surfaces one of these —
/// never a silent wrong answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardedError {
    /// A shard could not open or operate its durable checkpoint store.
    Storage {
        /// The shard whose store failed.
        shard: usize,
        /// What failed.
        message: String,
    },
    /// Shard communication failed (stall, abort, peer death, dropped
    /// message) — carries the typed comm error from `lcr-sparse`.
    Comm(CommError),
}

impl std::fmt::Display for ShardedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardedError::Storage { shard, message } => {
                write!(f, "shard {shard} storage failure: {message}")
            }
            ShardedError::Comm(e) => write!(f, "shard comm failure: {e}"),
        }
    }
}

impl std::error::Error for ShardedError {}

/// Configuration of one sharded run.
#[derive(Clone)]
pub struct ShardedRunConfig {
    /// Number of shards (concurrent worker threads).
    pub shards: usize,
    /// Which method to run.
    pub method: ShardedMethod,
    /// Relative convergence tolerance (`‖r‖ ≤ rtol · ‖b‖`).
    pub rtol: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Reduction-block size in rows; defaults to [`REDUCE_BLOCK`].  Traces
    /// are bit-identical across shard counts only for a fixed block size.
    pub reduce_block: usize,
    /// Checkpoint every this many iterations; `0` disables checkpointing.
    pub checkpoint_interval: usize,
    /// SZ error bound for the per-shard solution segments.
    pub error_bound: ErrorBound,
    /// Root directory for per-shard stores (`<dir>/shard-{k}/`).  Required
    /// when `checkpoint_interval > 0`.
    pub ckpt_dir: Option<PathBuf>,
    /// Checkpoints retained per shard store.
    pub retain: usize,
    /// Deterministic fail-stop injections.  Two entries with the same
    /// `at_iteration` and different shards model a *double fault*: both
    /// shards roll back in the same recovery round.
    pub kills: Vec<KillSpec>,
    /// Supervision heartbeat: when set, the coordinator flags a shard that
    /// stays silent this long as stalled ([`CommError::Stalled`]) and
    /// aborts the run with typed errors everywhere, and halo receives time
    /// out with [`CommError::PeerTimeout`] instead of blocking forever.
    pub heartbeat_timeout: Option<Duration>,
    /// Retry policy installed on each shard's checkpoint store (bounded
    /// exponential backoff for transient I/O faults).  `None` keeps the
    /// store default.
    pub retry: Option<RetryPolicy>,
    /// Per-shard storage-backend factory (chaos seam); `None` = plain OS
    /// file I/O.
    pub backend_factory: Option<ShardBackendFactory>,
    /// Per-shard comm-interposer factory (chaos seam); `None` = faultless
    /// message delivery.
    pub interposer_factory: Option<ShardInterposerFactory>,
}

impl std::fmt::Debug for ShardedRunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRunConfig")
            .field("shards", &self.shards)
            .field("method", &self.method)
            .field("rtol", &self.rtol)
            .field("max_iterations", &self.max_iterations)
            .field("reduce_block", &self.reduce_block)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("error_bound", &self.error_bound)
            .field("ckpt_dir", &self.ckpt_dir)
            .field("retain", &self.retain)
            .field("kills", &self.kills)
            .field("heartbeat_timeout", &self.heartbeat_timeout)
            .field("retry", &self.retry)
            .field("backend_factory", &self.backend_factory.is_some())
            .field("interposer_factory", &self.interposer_factory.is_some())
            .finish()
    }
}

impl ShardedRunConfig {
    /// A checkpoint-free, failure-free configuration with paper-style
    /// defaults (`reduce_block = `[`REDUCE_BLOCK`], SZ value-range bound
    /// `1e-4`, 4 retained checkpoints).
    pub fn new(shards: usize, method: ShardedMethod) -> Self {
        ShardedRunConfig {
            shards,
            method,
            rtol: 1e-7,
            max_iterations: 10_000,
            reduce_block: REDUCE_BLOCK,
            checkpoint_interval: 0,
            error_bound: ErrorBound::ValueRangeRel(1e-4),
            ckpt_dir: None,
            retain: 4,
            kills: Vec::new(),
            heartbeat_timeout: None,
            retry: None,
            backend_factory: None,
            interposer_factory: None,
        }
    }
}

/// Per-shard counters of a finished run — the recovery-isolation evidence:
/// a kill-one-shard run must show `rollbacks == 1` on the failed shard and
/// `rollbacks == 0` (with `halo_replays == 1`) on every survivor.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard rank.
    pub shard: usize,
    /// Locally owned rows.
    pub rows: usize,
    /// Times this shard lost its state and rolled back to a checkpoint
    /// (or to zero when no epoch was committed yet).
    pub rollbacks: usize,
    /// Recovery rounds this shard survived: it kept its in-memory state
    /// and only replayed halo values for a failed peer.
    pub halo_replays: usize,
    /// Checkpoint segments this shard durably wrote.
    pub checkpoints_written: usize,
    /// Epochs this shard saw fail their commit barrier.
    pub aborted_epochs: usize,
    /// Iteration of the epoch this shard last restored from, if any.
    pub resumed_from_iteration: Option<usize>,
    /// Total `f64` values this shard sent in halo messages.
    pub halo_doubles_sent: u64,
    /// Reduction rounds this shard participated in.
    pub reduce_rounds: u64,
    /// Transient storage-I/O retries this shard's store performed.
    pub io_retries: u64,
    /// Checkpoint segments that landed only after at least one retry.
    pub retried_checkpoints: u64,
    /// Backoff delays (seconds) the store slept before each retry, in
    /// order — the retry schedule, logged rather than silent.
    pub io_backoff_seconds: Vec<f64>,
}

/// One committed checkpoint epoch, merged across shards.
#[derive(Debug, Clone, PartialEq)]
// lcr-analyze: allow(dead-public-item): element type of `ShardedReport::committed_epochs`; callers read it by inference
pub struct EpochRecord {
    /// Epoch sequence number (0-based).
    pub epoch: u64,
    /// Iteration the epoch was taken at.
    pub iteration: usize,
    /// Stored segment bytes per shard (0 for empty shards).  These are the
    /// *measured* per-shard checkpoint sizes Table 3's estimate column is
    /// compared against.
    pub shard_bytes: Vec<usize>,
}

impl EpochRecord {
    /// Total bytes of the epoch across all shards.
    pub fn total_bytes(&self) -> usize {
        self.shard_bytes.iter().sum()
    }
}

/// The merged result of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Whether the global residual met `rtol · ‖b‖`.
    pub converged: bool,
    /// Global iteration count.
    pub iterations: usize,
    /// Residual-norm trace (`trace[0]` = initial residual) — verified
    /// bit-identical across every shard before being returned.
    pub residual_trace: Vec<f64>,
    /// The gathered global solution.
    pub solution: Vector,
    /// Iterations at which the Krylov state was rebuilt.
    pub restart_iterations: Vec<usize>,
    /// Per-shard execution statistics, in shard order.
    pub shards: Vec<ShardStats>,
    /// Committed checkpoint epochs, in commit order.
    pub committed_epochs: Vec<EpochRecord>,
    /// Real wall-clock seconds of the scoped execution (spawn → join).
    pub wall_seconds: f64,
}

/// A committed epoch as one shard observed it.
#[derive(Debug, Clone)]
struct LocalEpoch {
    epoch: u64,
    /// Checkpoint id in this shard's store; `None` for empty shards.
    ckpt_id: Option<u64>,
    iteration: usize,
    bytes: usize,
}

/// The checkpoint/failure half of each shard thread's loop: SZ-compress
/// the local slice each epoch, vote the commit barrier, and execute the
/// configured kill/recovery.
struct CkptHook {
    shard: usize,
    interval: usize,
    bound: ErrorBound,
    sz: SzCompressor,
    store: Option<DiskStore>,
    buffer: CheckpointBuffer,
    kills: Vec<KillSpec>,
    kills_fired: Vec<bool>,
    next_epoch: u64,
    epochs: Vec<LocalEpoch>,
    rollbacks: usize,
    halo_replays: usize,
    checkpoints_written: usize,
    aborted_epochs: usize,
    resumed_from_iteration: Option<usize>,
}

impl CkptHook {
    fn new(shard: usize, cfg: &ShardedRunConfig) -> Result<Self, String> {
        let store = if cfg.checkpoint_interval > 0 {
            let root = cfg
                .ckpt_dir
                .as_ref()
                .expect("checkpoint_interval > 0 requires ckpt_dir");
            let dir = root.join(format!("shard-{shard}"));
            let mut store = match &cfg.backend_factory {
                Some(factory) => DiskStore::open_with_backend(dir, cfg.retain, factory(shard)),
                None => DiskStore::open(dir, cfg.retain),
            }
            .map_err(|e| format!("opening per-shard checkpoint store: {e}"))?;
            if let Some(retry) = cfg.retry {
                store.set_retry_policy(retry);
            }
            Some(store)
        } else {
            None
        };
        Ok(CkptHook {
            shard,
            interval: cfg.checkpoint_interval,
            bound: cfg.error_bound,
            sz: SzCompressor::new(),
            store,
            buffer: CheckpointBuffer::new(),
            kills: cfg.kills.clone(),
            kills_fired: vec![false; cfg.kills.len()],
            next_epoch: 0,
            epochs: Vec::new(),
            rollbacks: 0,
            halo_replays: 0,
            checkpoints_written: 0,
            aborted_epochs: 0,
            resumed_from_iteration: None,
        })
    }

    /// Writes this shard's segment of epoch `epoch` and returns
    /// `(ok, ckpt_id, bytes)`.  Empty shards succeed trivially — they have
    /// no state to lose.
    fn write_segment(&mut self, epoch: u64, iteration: usize, x: &[f64]) -> (bool, Option<u64>, usize) {
        if x.is_empty() {
            return (true, None, 0);
        }
        let store = self.store.as_mut().expect("checkpointing requires a store");
        self.buffer.clear();
        let compressed = {
            let (sz, bound) = (&self.sz, self.bound);
            self.buffer
                .push_with("x", |out| sz.compress_into(x, bound, out))
        };
        if compressed.is_err() {
            return (false, None, 0);
        }
        match store.push_from_buffer(
            iteration,
            epoch as f64,
            CheckpointLevel::Pfs,
            std::mem::size_of_val(x),
            None,
            "sharded-lossy",
            &[
                ("epoch".to_string(), epoch as f64),
                ("iteration".to_string(), iteration as f64),
            ],
            &self.buffer,
        ) {
            Ok(meta) => (true, Some(meta.id), meta.total_bytes),
            Err(_) => (false, None, 0),
        }
    }

    /// Fail-stop this shard: wipe the local solution, then restore it from
    /// the newest committed epoch that still reads back valid, walking
    /// older epochs when a newer one fails its CRC or decompression — a
    /// fault injected *during* recovery degrades to an earlier epoch
    /// instead of producing a wrong answer.  Falls back to the zero
    /// initial guess when no epoch is readable.
    fn crash_and_restore(&mut self, x: &mut [f64]) {
        self.rollbacks += 1;
        x.fill(f64::NAN);
        let candidates: Vec<LocalEpoch> = self.epochs.iter().rev().cloned().collect();
        let mut restored = None;
        for epoch in candidates {
            let attempt = (|| {
                let id = epoch.ckpt_id?;
                let store = self.store.as_mut()?;
                let ckpt = store.read_valid_by_id(id).ok()?;
                let payload = ckpt
                    .payloads
                    .iter()
                    .find(|(name, _)| name == "x")
                    .map(|(_, bytes)| bytes.clone())?;
                let decoded = self
                    .sz
                    .decompress(&Compressed {
                        bytes: payload,
                        n_elements: x.len(),
                    })
                    .ok()?;
                (decoded.len() == x.len()).then(|| {
                    x.copy_from_slice(&decoded);
                    epoch.iteration
                })
            })();
            if attempt.is_some() {
                restored = attempt;
                break;
            }
        }
        match restored {
            Some(iteration) => self.resumed_from_iteration = Some(iteration),
            // No committed epoch (or none readable): restart from the
            // zero initial guess, as Algorithm 2 does with no checkpoint.
            None => x.fill(0.0),
        }
    }
}

impl CkptHook {
    /// Runs after iteration `iteration` (1-based) on the shard's local
    /// solution slice, issuing the same comm operations on every shard.
    /// Returns whether a recovery round fired: some shard replaced its `x`
    /// from a lossy checkpoint while the others kept theirs, so every shard
    /// must restart its solver from the current solution.
    fn after_iteration(
        &mut self,
        iteration: usize,
        x: &mut [f64],
        comm: &RefCell<ShardComm>,
    ) -> Result<bool, CommError> {
        // Checkpoint first, then kill: an epoch taken at the kill
        // iteration commits *before* the crash, exactly the ordering the
        // recovery e2e asserts on.
        if self.interval > 0 && iteration.is_multiple_of(self.interval) {
            let epoch = self.next_epoch;
            self.next_epoch += 1;
            let (ok, ckpt_id, bytes) = self.write_segment(epoch, iteration, x);
            if comm.borrow_mut().try_barrier_all_ok(ok)? {
                if ckpt_id.is_some() {
                    self.checkpoints_written += 1;
                }
                self.epochs.push(LocalEpoch {
                    epoch,
                    ckpt_id,
                    iteration,
                    bytes,
                });
            } else {
                self.aborted_epochs += 1;
            }
        }
        // A recovery round fires when any not-yet-fired kill names this
        // iteration; all kills sharing the iteration fire together (a
        // double fault rolls back every named shard in one round).
        let mut round = false;
        let mut this_shard_killed = false;
        for (k, kill) in self.kills.iter().enumerate() {
            if !self.kills_fired[k] && iteration == kill.at_iteration {
                self.kills_fired[k] = true;
                round = true;
                if kill.shard == self.shard {
                    this_shard_killed = true;
                }
            }
        }
        if round {
            if this_shard_killed {
                self.crash_and_restore(x);
            } else {
                self.halo_replays += 1;
            }
        }
        Ok(round)
    }
}

/// One shard's loop: steps its solver to global convergence, running the
/// checkpoint/failure logic after every accepted iteration.  The stopping
/// rule derives from reduced scalars, so every shard exits on the same
/// iteration.
fn run_shard(
    cfg: &ShardedRunConfig,
    part: &ShardedCsr,
    b_local: &[f64],
    comm: &RefCell<ShardComm>,
    hook: &mut CkptHook,
) -> Result<Progress, CommError> {
    let space = ShardSpace::new(part, b_local, comm);
    let criteria = StoppingCriteria {
        rtol: cfg.rtol,
        atol: 0.0,
        max_iterations: cfg.max_iterations,
    };
    let mut solver: Box<dyn TryIterativeMethod<Error = CommError> + '_> = match cfg.method {
        ShardedMethod::Cg => Box::new(ConjugateGradient::on(space, None, criteria)?),
        ShardedMethod::BiCgStab => Box::new(BiCgStab::on(space, None, criteria)?),
        ShardedMethod::Jacobi => Box::new(Jacobi::on(space, None, criteria)?),
    };
    while !solver.progress().converged() {
        let before = solver.progress().iteration();
        solver.try_step()?;
        let iteration = solver.progress().iteration();
        // A breakdown restart completes no iteration: nothing new to
        // checkpoint, and kills are keyed on completed iterations.
        if iteration != before
            && hook.after_iteration(iteration, solver.progress_mut().solution_mut(), comm)?
        {
            solver.try_restart(iteration)?;
        }
    }
    Ok(solver.progress().clone())
}

/// `trace[0]` is the initial residual, one entry per completed iteration
/// after that.
fn residual_trace(progress: &Progress) -> Vec<f64> {
    let mut trace = vec![progress.history().initial_residual()];
    trace.extend_from_slice(progress.history().residuals());
    trace
}

/// Runs `cfg.method` on `A x = b` over `cfg.shards` shard threads and
/// merges the per-shard outcomes, asserting the determinism contract
/// (every shard's residual trace bit-identical) on the way out.  Storage
/// failures and comm failures (stalls, aborts, injected drops) surface as
/// a typed [`ShardedError`].  All shard threads are always joined before
/// returning — the coordinator aborts and drains survivors when any shard
/// dies early, so an error return never leaks a thread.
///
/// The caller must hand over an operator matching the method's
/// requirements (CG needs SPD — negate the paper's negative-definite
/// Poisson system first, as [`crate::workload`] does).
///
/// # Panics
/// Panics on dimension mismatch, a configuration requiring a missing
/// `ckpt_dir`, a kill naming a nonexistent shard, a shard thread panic,
/// or a determinism-contract violation between shards.
pub fn try_run_sharded(
    a: &CsrMatrix,
    b: &Vector,
    cfg: &ShardedRunConfig,
) -> Result<ShardedReport, ShardedError> {
    assert_eq!(a.nrows(), b.len(), "matrix/rhs dimension mismatch");
    assert!(
        cfg.checkpoint_interval == 0 || cfg.ckpt_dir.is_some(),
        "checkpoint_interval > 0 requires ckpt_dir"
    );
    for kill in &cfg.kills {
        assert!(kill.shard < cfg.shards, "kill names a nonexistent shard");
    }
    let layout = ShardLayout::with_block(a.nrows(), cfg.shards, cfg.reduce_block);
    let parts = partition_csr(a, &layout);
    let (comms, mut coord) = build_comms(cfg.shards);
    coord.set_timeout(cfg.heartbeat_timeout);
    let b_all = b.as_slice();

    let start = Instant::now();
    let (coord_result, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .zip(comms)
            .map(|(part, mut comm)| {
                let layout = &layout;
                scope.spawn(move || {
                    comm.set_timeout(cfg.heartbeat_timeout);
                    if let Some(factory) = &cfg.interposer_factory {
                        comm.set_interposer(factory(part.shard));
                    }
                    let (r0, r1) = layout.range(part.shard);
                    let mut hook = match CkptHook::new(part.shard, cfg) {
                        Ok(hook) => hook,
                        Err(message) => {
                            // Still announce completion so the coordinator
                            // can abort the round and drain cleanly.
                            comm.finish();
                            return Err(ShardedError::Storage {
                                shard: part.shard,
                                message,
                            });
                        }
                    };
                    let comm = RefCell::new(comm);
                    let solved = run_shard(cfg, part, &b_all[r0..r1], &comm, &mut hook);
                    let comm = comm.into_inner();
                    let (io_retries, retried_checkpoints, io_backoff_seconds) =
                        hook.store.as_ref().map_or((0, 0, Vec::new()), |s| {
                            (s.io_retries(), s.retried_pushes(), s.backoff_log().to_vec())
                        });
                    let stats = ShardStats {
                        shard: part.shard,
                        rows: r1 - r0,
                        rollbacks: hook.rollbacks,
                        halo_replays: hook.halo_replays,
                        checkpoints_written: hook.checkpoints_written,
                        aborted_epochs: hook.aborted_epochs,
                        resumed_from_iteration: hook.resumed_from_iteration,
                        halo_doubles_sent: comm.halo_doubles_sent(),
                        reduce_rounds: comm.reduce_rounds(),
                        io_retries,
                        retried_checkpoints,
                        io_backoff_seconds,
                    };
                    comm.finish();
                    match solved {
                        Ok(outcome) => Ok((outcome, stats, hook.epochs)),
                        Err(e) => Err(ShardedError::Comm(e)),
                    }
                })
            })
            .collect();
        let coord_result = coord.try_serve();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect();
        (coord_result, results)
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    // Error aggregation: a storage failure is the root cause (comm aborts
    // are its fallout), then a coordinator-detected stall/abort, then the
    // first shard comm error.
    let mut comm_err = None;
    for result in &results {
        match result {
            Err(e @ ShardedError::Storage { .. }) => return Err(e.clone()),
            Err(e @ ShardedError::Comm(_)) if comm_err.is_none() => comm_err = Some(e.clone()),
            _ => {}
        }
    }
    if let Err(e) = coord_result {
        return Err(ShardedError::Comm(e));
    }
    if let Some(e) = comm_err {
        return Err(e);
    }
    let results: Vec<_> = results
        .into_iter()
        .map(|r| r.expect("checked above"))
        .collect();

    // Determinism contract: every shard observed the same global run.
    let (first, _, _) = &results[0];
    let trace = residual_trace(first);
    for (outcome, stats, _) in &results[1..] {
        assert_eq!(outcome.iteration(), first.iteration(), "iteration divergence");
        assert_eq!(outcome.satisfied(), first.satisfied(), "convergence divergence");
        let other = residual_trace(outcome);
        assert_eq!(other.len(), trace.len(), "trace length divergence");
        for (k, (a, b)) in other.iter().zip(&trace).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "residual trace diverged at entry {k} on shard {}",
                stats.shard
            );
        }
    }

    // Merge committed epochs: every shard must have committed the same
    // sequence; assemble the measured per-shard segment sizes.
    let epoch_seq: Vec<(u64, usize)> = results[0]
        .2
        .iter()
        .map(|e| (e.epoch, e.iteration))
        .collect();
    for (_, stats, epochs) in &results {
        let seq: Vec<(u64, usize)> = epochs.iter().map(|e| (e.epoch, e.iteration)).collect();
        assert_eq!(
            seq, epoch_seq,
            "shard {} committed a different epoch sequence",
            stats.shard
        );
    }
    let committed_epochs: Vec<EpochRecord> = epoch_seq
        .iter()
        .enumerate()
        .map(|(k, &(epoch, iteration))| EpochRecord {
            epoch,
            iteration,
            shard_bytes: results.iter().map(|(_, _, e)| e[k].bytes).collect(),
        })
        .collect();

    let locals: Vec<Vec<f64>> = results
        .iter()
        .map(|(outcome, _, _)| outcome.solution().to_vec())
        .collect();
    let solution = gather_solution(&layout, &locals);
    Ok(ShardedReport {
        converged: first.satisfied(),
        iterations: first.iteration(),
        residual_trace: trace,
        solution,
        restart_iterations: first.history().restarts().to_vec(),
        shards: results.iter().map(|(_, s, _)| s.clone()).collect(),
        committed_epochs,
        wall_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcr_sparse::poisson::poisson3d;

    /// The paper's Poisson operator is negative definite; CG needs SPD.
    fn spd_poisson(edge: usize) -> (CsrMatrix, Vector) {
        let mut a = poisson3d(edge);
        for v in a.values_mut() {
            *v = -*v;
        }
        let b = Vector::filled(a.nrows(), 1.0);
        (a, b)
    }

    #[test]
    fn epochs_commit_and_record_measured_bytes() {
        let (a, b) = spd_poisson(8);
        let dir = std::env::temp_dir().join(format!("lcr-shard-epochs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ShardedRunConfig::new(2, ShardedMethod::Cg);
        cfg.rtol = 1e-8;
        cfg.reduce_block = 64;
        cfg.checkpoint_interval = 5;
        cfg.ckpt_dir = Some(dir.clone());
        let rep = try_run_sharded(&a, &b, &cfg).unwrap();
        assert!(rep.converged);
        assert!(!rep.committed_epochs.is_empty());
        for e in &rep.committed_epochs {
            assert_eq!(e.shard_bytes.len(), 2);
            assert!(e.total_bytes() > 0);
        }
        // Each shard store holds real files.
        for s in 0..2 {
            let shard_dir = dir.join(format!("shard-{s}"));
            assert!(shard_dir.is_dir());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jacobi_and_bicgstab_run_sharded() {
        let a = poisson3d(6);
        let b = Vector::filled(a.nrows(), 1.0);
        for method in [ShardedMethod::Jacobi, ShardedMethod::BiCgStab] {
            let mut cfg = ShardedRunConfig::new(3, method);
            cfg.rtol = 1e-6;
            cfg.reduce_block = 32;
            cfg.max_iterations = 5000;
            let rep = try_run_sharded(&a, &b, &cfg).unwrap();
            assert!(rep.converged, "{} must converge", method.name());
        }
    }
}
