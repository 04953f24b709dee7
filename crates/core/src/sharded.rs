//! The sharded front of the fault-tolerant executor: steps the solvers of
//! `lcr-solvers` on real concurrent shard threads, one [`ShardSpace`]
//! each, with per-shard lossy checkpointing and per-shard crash recovery.
//!
//! This is the promotion of the paper's *simulated* cluster into a real
//! one: [`try_run_sharded`] carves the global system into
//! [`ShardedCsr`](lcr_sparse::ShardedCsr) views via
//! [`partition_csr`](lcr_sparse::shard::partition_csr), spawns one scoped
//! thread per shard on one shared board
//! ([`build_comms`](lcr_sparse::shard::build_comms)) and joins them;
//! nothing runs between shards.  Each shard owns its solver state, its
//! board endpoint and — when checkpointing is enabled — its *own* durable
//! store under `ckpt_dir/shard-{k}/`, and runs the very loop of
//! [`FaultTolerantRunner::run`](crate::FaultTolerantRunner::run)
//! (the private `executor` module): one solver step, a checkpoint of its slice when
//! one is due, then the recovery round when a kill fired.  The checkpoint
//! is the lossy strategy's (SZ under `error_bound`, tag `lossy`), so a
//! segment reads back through the public [`CheckpointStrategy`] like any
//! single-process checkpoint.
//!
//! # Coordinated epoch commit
//!
//! A checkpoint *epoch* is the simultaneous checkpoint every shard takes at
//! the same iteration (the shards run in lockstep).  After writing its
//! segment, each shard votes in an all-ok barrier
//! ([`ShardComm::try_barrier_all_ok`](lcr_sparse::ShardComm::try_barrier_all_ok));
//! the epoch is **committed** — recoverable — only if every shard's
//! segment landed.  A shard whose segment landed discards it again when a
//! peer's did not, so an aborted epoch is never restored and never costs
//! a retention slot.
//!
//! # Per-shard crash recovery
//!
//! Failure injection is a deterministic [`KillSpec`] every shard knows: at
//! the configured iteration the designated shard fail-stops (its local
//! solution is lost), reloads its slice from the newest committed epoch
//! in its own store that still validates and decodes (walking to older
//! ones otherwise, then to the zero guess); surviving shards keep their
//! in-memory state untouched and merely replay halo values.  All shards
//! then restart their solver, rebuilding the Krylov recurrence from the
//! partially restored global solution — Algorithm 2 of the paper executed
//! shard-locally, with rollback confined to the failed shard.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcr_ckpt::{CheckpointLevel, ClusterConfig, FtiContext, PfsModel, RetryPolicy, StorageBackend};
use lcr_compress::ErrorBound;
use lcr_solvers::{
    ConjugateGradient, Gmres, Jacobi, Progress, ShardSpace, SolverKind, StateView,
    StoppingCriteria, TryIterativeMethod,
};
use lcr_sparse::shard::{build_comms, gather_solution, partition_csr, CommError, CommInterposer};
use lcr_sparse::{CsrMatrix, ShardComm, ShardLayout, ShardedCsr, Vector, REDUCE_BLOCK};

use crate::executor::{execute, Checkpointer, Committed, Quorum, Recovered, Regime};
use crate::strategy::{CheckpointStrategy, ErrorBoundPolicy, LossyCodecKind};
use crate::workload::GMRES_RESTART;

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

impl From<CommError> for ShardedError {
    fn from(e: CommError) -> Self {
        ShardedError::Comm(e)
    }
}

/// Configuration of one sharded run.
#[derive(Clone)]
pub struct ShardedRunConfig {
    /// Number of shards (concurrent worker threads).
    pub shards: usize,
    /// Which method to run.
    pub method: SolverKind,
    /// Relative convergence tolerance (`‖r‖ ≤ rtol · ‖b‖`).
    pub rtol: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Reduction-block size in rows; defaults to [`REDUCE_BLOCK`].  Traces
    /// are bit-identical across shard counts only for a fixed block size.
    pub reduce_block: usize,
    /// Checkpoint every this many iterations; `0` disables checkpointing.
    /// The iterate the solve ends on is not checkpointed.
    pub checkpoint_interval: usize,
    /// SZ error bound for the per-shard solution segments.
    pub error_bound: ErrorBound,
    /// Root directory for per-shard stores (`<dir>/shard-{k}/`).  Required
    /// when `checkpoint_interval > 0`.
    pub ckpt_dir: Option<PathBuf>,
    /// Checkpoints retained per shard store; at least 2 when checkpointing.
    /// A segment is written before its epoch's vote, so with `retain = 1`
    /// the write of an epoch that then aborts would already have evicted
    /// the last committed one.
    pub retain: usize,
    /// Deterministic fail-stop injections.  Two entries with the same
    /// `at_iteration` and different shards model a *double fault*: both
    /// shards roll back in the same recovery round.
    pub kills: Vec<KillSpec>,
    /// Supervision heartbeat: the longest a shard waits at a crossing of
    /// the shard board.  A shard that waits longer flags the shards that
    /// have not arrived as stalled ([`CommError::Stalled`]) and the run
    /// ends with typed errors everywhere.  `None` waits until every shard
    /// arrives or one leaves (a departed shard aborts the wait either way).
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
    pub fn new(shards: usize, method: SolverKind) -> Self {
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
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Checkpoint segments this shard durably wrote in committed epochs.
    pub checkpoints_written: usize,
    /// Epochs this shard saw fail their commit barrier (its own segment of
    /// such an epoch, if it landed, is discarded again).
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
    /// Stored segment bytes per shard (a shard that owns no rows stores an
    /// empty stream of a few dozen bytes).  These are the *measured*
    /// per-shard checkpoint sizes Table 3's estimate column is compared
    /// against.
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

/// The live regime: time is the host's own — not billed, and no stamp for
/// a checkpoint header, since it does not replay; the faults are the kill
/// list every shard holds, each striking at the end of its iteration and
/// costing only the named shard its state.
struct Live<'a> {
    shard: usize,
    kills: &'a [KillSpec],
}

impl Regime for Live<'_> {
    /// All kills sharing an iteration fire together (a double fault rolls
    /// back every named shard in one round).  The iteration counter of a
    /// sharded solve never rolls back, so each fires once.
    fn completed(&mut self, iteration: usize) -> Option<bool> {
        let mut round = self
            .kills
            .iter()
            .filter(|k| k.at_iteration == iteration)
            .peekable();
        round.peek()?;
        Some(round.any(|k| k.shard == self.shard))
    }
}

/// One shard of the group: a checkpoint epoch counts when every shard's
/// segment landed, and a recovery round rolls back only the shards that
/// lost their slice.
struct Shard<'a> {
    solver: Box<dyn TryIterativeMethod<Error = CommError> + 'a>,
    comm: &'a RefCell<ShardComm>,
    /// Counts its rollbacks, halo replays and last restore.
    stats: ShardStats,
}

impl Quorum for Shard<'_> {
    type Error = CommError;

    fn step(&mut self) -> Result<(), CommError> {
        self.solver.try_step()
    }

    fn iteration(&self) -> usize {
        self.solver.progress().iteration()
    }

    /// Derives from reduced scalars, so every shard exits on the same
    /// iteration.
    fn converged(&self) -> bool {
        self.solver.progress().converged()
    }

    fn capture(&self) -> (StateView<'_>, f64, f64) {
        let progress = self.solver.progress();
        (
            self.solver.state_view(),
            progress.residual_norm(),
            progress.reference_norm(),
        )
    }

    fn epoch_scalars(&self, epoch: u64, iteration: usize) -> Vec<(String, f64)> {
        vec![
            ("epoch".to_string(), epoch as f64),
            ("iteration".to_string(), iteration as f64),
        ]
    }

    fn vote(&mut self, landed: bool) -> Result<bool, CommError> {
        self.comm.borrow_mut().try_barrier_all_ok(landed)
    }

    /// The lost slice comes back from the checkpoint (or as the zero
    /// guess, as Algorithm 2 does with no checkpoint) while the peers keep
    /// theirs and the iteration count stands, so every shard restarts its
    /// solver from the mixed solution whatever the strategy's own recovery
    /// mode.
    fn roll_back(&mut self, lost: bool, recovered: Option<Recovered>) -> Result<(), CommError> {
        let iteration = self.iteration();
        if lost {
            self.stats.rollbacks += 1;
            let x = self.solver.progress_mut().solution_mut();
            let slice = recovered.and_then(|(state, _)| {
                let (_, slice) = state.vectors.into_iter().find(|(name, _)| name == "x")?;
                (slice.len() == x.len()).then_some((state.iteration, slice))
            });
            match slice {
                Some((from, slice)) => {
                    *x = slice;
                    self.stats.resumed_from_iteration = Some(from);
                }
                None => x.as_mut_slice().fill(0.0),
            }
        } else {
            self.stats.halo_replays += 1;
        }
        self.solver.try_restart(iteration)
    }
}

/// One shard's run: its checkpointer, its solver at the zero guess, and
/// the shared loop over the two seams above.
fn run_shard(
    cfg: &ShardedRunConfig,
    part: &ShardedCsr,
    b_local: &[f64],
    comm: &RefCell<ShardComm>,
) -> Result<(Progress, ShardStats, Vec<Committed>), ShardedError> {
    let shard = part.shard;
    // The lossy strategy into the shard's own store.  A killed shard loses
    // its memory, so there is no in-memory tier and nothing to degrade to;
    // the cost models bill a clock nobody reads.
    let strategy = CheckpointStrategy::Lossy {
        codec: LossyCodecKind::Sz,
        policy: ErrorBoundPolicy::Fixed(cfg.error_bound),
    };
    let cluster = ClusterConfig::bebop_like(cfg.shards, 0.0);
    let fti = FtiContext::new(cluster, PfsModel::bebop_like(), CheckpointLevel::Pfs)
        .without_memory_tier();
    let mut ckpt = Checkpointer::new(strategy, cfg.checkpoint_interval, fti, usize::MAX);
    if cfg.checkpoint_interval > 0 {
        let root = cfg
            .ckpt_dir
            .as_ref()
            .expect("checkpoint_interval > 0 requires ckpt_dir");
        let backend = cfg.backend_factory.as_ref().map(|factory| factory(shard));
        let dir = root.join(format!("shard-{shard}"));
        ckpt.attach_durable(&dir, cfg.retain, backend, cfg.retry, false)
            .map_err(|e| ShardedError::Storage {
                shard,
                message: format!("opening per-shard checkpoint store: {e}"),
            })?;
    }
    let space = ShardSpace::new(part, b_local, comm);
    let criteria = StoppingCriteria::new(cfg.rtol, cfg.max_iterations);
    let solver: Box<dyn TryIterativeMethod<Error = CommError> + '_> = match cfg.method {
        SolverKind::Cg => Box::new(ConjugateGradient::on(space, None, criteria)?),
        SolverKind::Jacobi => Box::new(Jacobi::on(space, None, criteria)?),
        SolverKind::Gmres => Box::new(Gmres::on(space, None, GMRES_RESTART, criteria)?),
    };
    let mut rank = Shard {
        solver,
        comm,
        stats: ShardStats::default(),
    };
    let mut regime = Live {
        shard,
        kills: &cfg.kills,
    };
    execute(&mut regime, &mut rank, &mut ckpt, usize::MAX)?;
    let (io_retries, retried_checkpoints, io_backoff_seconds) = ckpt.io_counters();
    let endpoint = comm.borrow();
    let stats = ShardStats {
        shard,
        rows: b_local.len(),
        checkpoints_written: ckpt.tally.committed.len(),
        aborted_epochs: ckpt.tally.aborted + ckpt.tally.failed,
        halo_doubles_sent: endpoint.halo_doubles_sent(),
        reduce_rounds: endpoint.reduce_rounds(),
        io_retries,
        retried_checkpoints,
        io_backoff_seconds,
        ..rank.stats
    };
    Ok((rank.solver.progress().clone(), stats, ckpt.tally.committed))
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
/// a typed [`ShardedError`]: a storage failure first, then the first comm
/// error other than [`CommError::Aborted`] in shard order, then an abort.
/// All shard threads are always joined before returning — a shard that
/// leaves early, by error or panic, aborts its peers' next crossing, so an
/// error return never leaks a thread.
///
/// The caller must hand over an operator matching the method's
/// requirements (CG needs a definite operator of either sign: the paper's
/// negative-definite Poisson system runs as is, as in [`crate::workload`]).
///
/// # Panics
/// Panics on dimension mismatch, a configuration requiring a missing
/// `ckpt_dir`, checkpointing with `retain < 2`, a kill naming a nonexistent
/// shard, a shard thread panic, or a determinism-contract violation between
/// shards.
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
    assert!(
        cfg.checkpoint_interval == 0 || cfg.retain >= 2,
        "checkpoint_interval > 0 requires retain >= 2"
    );
    for kill in &cfg.kills {
        assert!(kill.shard < cfg.shards, "kill names a nonexistent shard");
    }
    let layout = ShardLayout::with_block(a.nrows(), cfg.shards, cfg.reduce_block);
    let parts = partition_csr(a, &layout);
    let comms = build_comms(cfg.shards, cfg.heartbeat_timeout);
    let b_all = b.as_slice();

    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .zip(comms)
            .map(|(part, mut comm)| {
                let layout = &layout;
                scope.spawn(move || {
                    if let Some(factory) = &cfg.interposer_factory {
                        comm.set_interposer(factory(part.shard));
                    }
                    let (r0, r1) = layout.range(part.shard);
                    run_shard(cfg, part, &b_all[r0..r1], &RefCell::new(comm))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    // A storage failure is the root cause and an abort only the fallout of
    // another shard's failure; `min_by_key` keeps the first in shard order.
    let precedence = |e: &&ShardedError| match e {
        ShardedError::Storage { .. } => 0,
        ShardedError::Comm(CommError::Aborted { .. }) => 2,
        ShardedError::Comm(_) => 1,
    };
    if let Some(e) = results
        .iter()
        .filter_map(|r| r.as_ref().err())
        .min_by_key(precedence)
    {
        return Err(e.clone());
    }
    let results: Vec<_> = results
        .into_iter()
        .map(|r| r.expect("checked above"))
        .collect();

    // Determinism contract: every shard observed the same global run —
    // iteration count, verdict, residual trace to the bit — and committed
    // the same epoch sequence.
    let observed = |(outcome, _, epochs): &(Progress, ShardStats, Vec<Committed>)| {
        let trace: Vec<u64> = residual_trace(outcome)
            .iter()
            .map(|r| r.to_bits())
            .collect();
        let epochs: Vec<_> = epochs
            .iter()
            .map(|e| (e.epoch, e.metadata.iteration))
            .collect();
        (outcome.iteration(), outcome.satisfied(), trace, epochs)
    };
    let reference = observed(&results[0]);
    for result in &results[1..] {
        let shard = result.1.shard;
        assert_eq!(
            observed(result),
            reference,
            "shard {shard} diverged from shard 0"
        );
    }
    let (first, _, first_epochs) = &results[0];
    // The measured per-shard segment sizes of each committed epoch.
    let committed_epochs: Vec<EpochRecord> = first_epochs
        .iter()
        .enumerate()
        .map(|(k, e)| EpochRecord {
            epoch: e.epoch,
            iteration: e.metadata.iteration,
            shard_bytes: results
                .iter()
                .map(|(_, _, epochs)| epochs[k].metadata.total_bytes)
                .collect(),
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
        residual_trace: residual_trace(first),
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
        let a = poisson3d(edge).negated();
        let b = Vector::filled(a.nrows(), 1.0);
        (a, b)
    }

    #[test]
    fn epochs_commit_and_record_measured_bytes() {
        let (a, b) = spd_poisson(8);
        let dir = std::env::temp_dir().join(format!("lcr-shard-epochs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ShardedRunConfig::new(2, SolverKind::Cg);
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
    fn both_fronts_stop_at_the_same_absolute_residual() {
        // ‖b‖ = 8e-60 is below the absolute tolerance of 1e-50, while the
        // relative one is unmet at x₀ = 0: converged before any iteration.
        let (a, mut b) = spd_poisson(4);
        b.scale(1e-60);
        let cfg = ShardedRunConfig::new(2, SolverKind::Cg);
        let criteria = StoppingCriteria::new(cfg.rtol, cfg.max_iterations);
        let local = ConjugateGradient::unpreconditioned(
            lcr_solvers::LinearSystem::new(a.clone(), b.clone()),
            Vector::zeros(b.len()),
            criteria,
        );
        assert!(local.progress().converged());
        assert_eq!(local.progress().iteration(), 0);
        let rep = try_run_sharded(&a, &b, &cfg).unwrap();
        assert!(rep.converged);
        assert_eq!(rep.iterations, 0, "the sharded front stops where the local one does");
    }

    #[test]
    fn jacobi_runs_sharded() {
        let a = poisson3d(6);
        let b = Vector::filled(a.nrows(), 1.0);
        let mut cfg = ShardedRunConfig::new(3, SolverKind::Jacobi);
        cfg.rtol = 1e-6;
        cfg.reduce_block = 32;
        cfg.max_iterations = 5000;
        let rep = try_run_sharded(&a, &b, &cfg).unwrap();
        assert!(rep.converged, "jacobi must converge");
    }
}
