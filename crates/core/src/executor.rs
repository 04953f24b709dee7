//! The one fault-tolerant executor behind both public fronts.
//!
//! Algorithms 1 and 2 of the paper are one loop — step the solver, and
//! every few iterations save its dynamic variables; after a failure bring
//! it back from the newest checkpoint — in which two lines differ: which
//! variables are saved, and whether recovery restores them exactly or
//! restarts from a distorted `x`.  Those two lines are the
//! [`CheckpointStrategy`]; everything else is here, once:
//!
//! * [`Checkpointer`] — a rank's checkpoint → commit → recover path: it
//!   opens the durable tier, encodes the solver's [`StateView`] (its
//!   vectors where it holds them) through the strategy into a reused
//!   arena, writes, commits or aborts it, restores
//!   the newest checkpoint that was committed *and still decodes*, and
//!   counts what it did where the fronts read it.
//! * [`execute`] (after [`resume`], for a front that adopts a dead
//!   process's checkpoints) — `step → fault? → checkpoint due? → encode →
//!   write window → vote → commit | abort`, over two seams:
//!   the [`Regime`] says what time costs and when faults strike
//!   (simulated clock, exponential injector and PFS billing for
//!   [`FaultTolerantRunner::run`](crate::FaultTolerantRunner::run); the
//!   host's own time and a kill list for
//!   [`try_run_sharded`](crate::sharded::try_run_sharded)), and the
//!   [`Quorum`] is the rank's solver among its peers — who must agree
//!   before a checkpoint counts, and who rolls back (nobody and everyone,
//!   or an all-ok barrier and only the killed shard).

use std::path::Path;
use std::sync::Arc;

use lcr_ckpt::{
    CheckpointBuffer, CheckpointMetadata, CkptError, DiskStore, FtiContext, OsBackend,
    RecoveredData, RetryPolicy, SimClock, StorageBackend,
};
use lcr_solvers::{DynamicState, StateView};

use crate::strategy::{CheckpointStrategy, RecoveryMode};

/// A decoded checkpoint and how a solver is brought back from it.
pub(crate) type Recovered = (DynamicState, RecoveryMode);

/// What time costs and when faults strike.  A fault is reported as
/// `Some(lost)`: whether *this* rank lost its state to it (a survivor of a
/// peer's failure still takes part in the recovery round).  The defaults
/// are a regime in which nothing is billed and nothing strikes.
pub(crate) trait Regime {
    /// The regime's clock, for the checkpoint and recovery time tallies.
    fn now(&self) -> f64 {
        0.0
    }

    /// One solver step ran: bills it, and reports a fault that struck
    /// while it did.
    fn stepped(&mut self) -> Option<bool> {
        None
    }

    /// The write window of a checkpoint elapses — encoding
    /// `paper_original_bytes` (its uncompressed size at the paper's
    /// scale), then `write_seconds` of modelled I/O: bills it, and reports
    /// a fault that struck inside it.
    fn wrote(&mut self, _paper_original_bytes: usize, _write_seconds: f64) -> Option<bool> {
        None
    }

    /// `iteration` and its checkpoint are done: reports a fault scheduled
    /// for the end of it.
    fn completed(&mut self, _iteration: usize) -> Option<bool> {
        None
    }

    /// The completion time recorded in the header of checkpoint `epoch`:
    /// its sequence number, where no clock replays.
    fn stamp(&self, epoch: u64) -> f64 {
        epoch as f64
    }

    /// Reads the newest valid checkpoint back, billing the read.
    fn read(&mut self, fti: &mut FtiContext) -> Result<RecoveredData, CkptError> {
        fti.recover(&mut SimClock::new(), 0)
    }

    /// Bills re-reading the static variables for a restart from scratch.
    fn reread_static(&mut self) {}
}

/// A rank's solver among its peers: the solver as the loop steps it, who
/// must agree before a checkpoint counts, and who rolls back.  The
/// defaults are a group of one.
pub(crate) trait Quorum {
    /// What stepping, voting or restarting can fail with.
    type Error;

    /// One solver step; one that ends in a breakdown restart completes no
    /// iteration.
    fn step(&mut self) -> Result<(), Self::Error>;

    /// Iterations completed.
    fn iteration(&self) -> usize;

    /// Whether the solve has ended.
    fn converged(&self) -> bool;

    /// The dynamic state a checkpoint saves, as the solver holds it, with
    /// the residual and reference norms an adaptive error bound is
    /// resolved from.
    fn capture(&self) -> (StateView<'_>, f64, f64);

    /// Scalars the group records in the header of checkpoint `epoch`.
    fn epoch_scalars(&self, _epoch: u64, _iteration: usize) -> Vec<(String, f64)> {
        Vec::new()
    }

    /// Whether the checkpoint counts: every rank's `landed`, and-ed.
    fn vote(&mut self, landed: bool) -> Result<bool, Self::Error> {
        Ok(landed)
    }

    /// A recovery round.  A rank that `lost` its state takes `recovered`,
    /// or the zero initial guess when nothing was recoverable; the others
    /// keep theirs.  Every solver is left consistent with the result.
    fn roll_back(&mut self, lost: bool, recovered: Option<Recovered>) -> Result<(), Self::Error>;
}

/// One committed checkpoint.
pub(crate) struct Committed {
    /// Sequence number among this rank's checkpoint attempts.
    pub epoch: u64,
    /// As stored, sizes at the FTI context's byte scale.
    pub metadata: CheckpointMetadata,
}

/// What a [`Checkpointer`] did, counted where the fronts report it.
#[derive(Default)]
pub(crate) struct Tally {
    /// Committed checkpoints, in commit order.
    pub committed: Vec<Committed>,
    /// Checkpoints that did not count: a fault struck inside the write
    /// window, or a peer lost the vote.
    pub aborted: usize,
    /// Checkpoints this rank could not encode or store.
    pub failed: usize,
    /// Recoveries from a checkpoint, after a failure.
    pub recoveries: usize,
    /// CRC-valid, tag-compatible checkpoints that did not decode.
    pub failed_recoveries: usize,
    /// Whether the durable tier could not be opened or was dropped.
    pub degraded: bool,
    /// Iteration resumed from at start-up, from a dead process's tier.
    pub resumed_from: Option<usize>,
    /// Seconds of the regime's clock spent in write windows.
    pub checkpoint_seconds: f64,
    /// Seconds of the regime's clock spent recovering.
    pub recovery_seconds: f64,
}

/// Variable `index`'s share of a `total` split over `n_variables`: integer
/// division with the remainder distributed over the first variables, so
/// the per-variable shares sum *exactly* to the total (Table-3-style
/// per-variable originals must add up to the checkpoint's original size).
fn original_share(total: usize, n_variables: usize, index: usize) -> usize {
    debug_assert!(index < n_variables);
    total / n_variables + usize::from(index < total % n_variables)
}

/// A rank's checkpoint → commit → recover path.
pub(crate) struct Checkpointer {
    strategy: CheckpointStrategy,
    /// Checkpoint every this many iterations; 0 = never.
    interval: usize,
    fti: FtiContext,
    /// Reusable encoding arena: after the first checkpoint the encode side
    /// writes into already-sized memory, and each payload is copied once.
    buffer: CheckpointBuffer,
    /// Consecutive hard durable-write failures …
    hard_failures: usize,
    /// … after this many, drop the durable tier and keep going in memory.
    degrade_after: usize,
    /// The durable tier a degradation detached, kept for its counters.
    retired: Option<DiskStore>,
    /// Checkpoints attempted.
    epochs: u64,
    pub tally: Tally,
}

impl Checkpointer {
    /// A checkpointer writing through `fti` (not yet durable) every
    /// `interval` iterations.
    pub(crate) fn new(
        strategy: CheckpointStrategy,
        interval: usize,
        fti: FtiContext,
        degrade_after: usize,
    ) -> Self {
        Checkpointer {
            strategy,
            interval,
            fti,
            buffer: CheckpointBuffer::new(),
            hard_failures: 0,
            degrade_after,
            retired: None,
            epochs: 0,
            tally: Tally::default(),
        }
    }

    /// Opens the durable tier in `dir`, keeping `retain` checkpoints, over
    /// `backend` (`None`: plain OS file I/O) with transient errors retried
    /// per `retry` (`None`: the store default), and mirrors every later
    /// commit into it.
    ///
    /// # Errors
    /// The store's error when the directory cannot be opened; the
    /// checkpointer then runs without a durable tier, flagged `degraded`.
    pub(crate) fn attach_durable(
        &mut self,
        dir: &Path,
        retain: usize,
        backend: Option<Arc<dyn StorageBackend>>,
        retry: Option<RetryPolicy>,
        write_behind: bool,
    ) -> Result<(), CkptError> {
        let backend = backend.unwrap_or_else(|| Arc::new(OsBackend));
        let mut disk = DiskStore::open_with_backend(dir, retain, backend)
            .inspect_err(|_| self.tally.degraded = true)?;
        if let Some(retry) = retry {
            disk.set_retry_policy(retry);
        }
        disk.set_write_behind(write_behind)
            .expect("a store just opened has no deferred write to surface");
        self.fti.attach_disk_store(disk);
        Ok(())
    }

    /// Decodes the newest committed checkpoint that still validates *and*
    /// decodes: the tiers skip files that fail a CRC, and a checkpoint that
    /// validates but does not decode is invalidated in the tier that served
    /// it and the next-older one tried — a fault met during recovery
    /// degrades to an earlier checkpoint, then to `None`, never to a wrong
    /// answer.
    fn restore(&mut self, regime: &mut impl Regime) -> Option<Recovered> {
        loop {
            let read = regime.read(&mut self.fti).ok()?;
            // A checkpoint tagged by another strategy family is not
            // decodable by this one.
            if !self.strategy.can_recover_from(&read.tag) {
                return None;
            }
            match self
                .strategy
                .decode(read.payloads(), read.iteration, &read.scalars)
            {
                Ok(recovered) => return Some(recovered),
                Err(_) => {
                    self.tally.failed_recoveries += 1;
                    self.fti.invalidate(&read);
                }
            }
        }
    }

    /// Transient-I/O retries, checkpoints that landed only after a retry,
    /// and the backoff schedule, of the durable tier (live or retired).
    pub(crate) fn io_counters(&self) -> (u64, u64, Vec<f64>) {
        let disk = self.fti.disk_store().or(self.retired.as_ref());
        disk.map_or((0, 0, Vec::new()), |d| {
            (d.io_retries(), d.retried_pushes(), d.backoff_log().to_vec())
        })
    }
}

/// Crash-consistent restart: a durable tier left behind by a dead process
/// holds its newest complete checkpoint; `rank` resumes from there instead
/// of from scratch.
pub(crate) fn resume<R: Regime, Q: Quorum>(
    regime: &mut R,
    rank: &mut Q,
    ckpt: &mut Checkpointer,
) -> Result<(), Q::Error> {
    if ckpt.fti.disk_store().is_some_and(|disk| !disk.is_empty()) {
        let started = regime.now();
        if let Some(recovered) = ckpt.restore(regime) {
            ckpt.tally.resumed_from = Some(recovered.0.iteration);
            rank.roll_back(true, Some(recovered))?;
        }
        ckpt.tally.recovery_seconds += regime.now() - started;
    }
    Ok(())
}

/// Steps `rank` to the end of its solve (or `max_steps`), checkpointing
/// through `ckpt` and recovering from the faults of `regime`; returns the
/// steps executed, re-executed ones included.
pub(crate) fn execute<R: Regime, Q: Quorum>(
    regime: &mut R,
    rank: &mut Q,
    ckpt: &mut Checkpointer,
    max_steps: usize,
) -> Result<usize, Q::Error> {
    let mut steps = 0;
    while !rank.converged() && steps < max_steps {
        let before = rank.iteration();
        rank.step()?;
        steps += 1;
        // A breakdown restart completes no iteration: nothing new to
        // checkpoint, and end-of-iteration faults are keyed on completed
        // iterations.
        let iteration = rank.iteration();
        let completed = iteration != before;
        let due = completed
            && ckpt.interval > 0
            && iteration.is_multiple_of(ckpt.interval)
            && !matches!(ckpt.strategy, CheckpointStrategy::None)
            && !rank.converged();
        let mut fault = regime.stepped();
        if fault.is_none() && due {
            fault = checkpoint(regime, rank, ckpt)?;
        }
        // Checkpoint first: one taken at the iteration a fault ends
        // commits before the crash.
        if fault.is_none() && completed {
            fault = regime.completed(iteration);
        }
        if let Some(lost) = fault {
            recover(regime, rank, ckpt, lost)?;
        }
    }
    Ok(steps)
}

/// One checkpoint: encode, let the write window elapse, store, vote,
/// commit or abort.  Returns a fault that struck inside the window.
fn checkpoint<R: Regime, Q: Quorum>(
    regime: &mut R,
    rank: &mut Q,
    ckpt: &mut Checkpointer,
) -> Result<Option<bool>, Q::Error> {
    let epoch = ckpt.epochs;
    ckpt.epochs += 1;
    let started = regime.now();
    let (state, residual_norm, reference_norm) = rank.capture();
    let bound = ckpt.strategy.bound_at(residual_norm, reference_norm);
    let encoded = ckpt.strategy.encode_state_into(&state, bound, &mut ckpt.buffer);
    let mut landed = None;
    if let Ok(meta) = encoded {
        // Register each saved variable with its paper-scale original size
        // so the metadata reports Table-3-style per-variable numbers.
        let paper_original_bytes = (meta.original_bytes as f64 * ckpt.fti.byte_scale()) as usize;
        let n_variables = ckpt.buffer.n_variables();
        for (i, (name, _)) in ckpt.buffer.segments().enumerate() {
            ckpt.fti
                .protect(name, original_share(paper_original_bytes, n_variables, i));
        }
        // Atomicity: the whole write window elapses *first*, and the
        // checkpoint reaches storage only if no fault struck inside it —
        // an interrupted checkpoint never becomes visible, so recovery
        // falls back to the previous complete one.
        let write_seconds = ckpt.fti.planned_write_seconds(ckpt.buffer.total_bytes());
        let fault = regime.wrote(paper_original_bytes, write_seconds);
        ckpt.tally.checkpoint_seconds += regime.now() - started;
        if fault.is_some() {
            ckpt.tally.aborted += 1;
            return Ok(fault);
        }
        let mut scalars = meta.scalars;
        scalars.extend(rank.epoch_scalars(epoch, meta.iteration));
        let stored = ckpt.fti.commit_snapshot_from_buffer(
            regime.stamp(epoch),
            meta.iteration,
            ckpt.strategy.name(),
            &scalars,
            None,
            &mut ckpt.buffer,
            write_seconds,
        );
        // Under write-behind a deferred I/O error surfaces on the *next*
        // write (the failed file is already invalidated on disk), so the
        // attribution may lag one checkpoint while the totals stay exact.
        ckpt.hard_failures = match &stored {
            Ok(_) => 0,
            Err(e) => ckpt.hard_failures + usize::from(matches!(e, CkptError::Io(_))),
        };
        // Hard failures that outlast the retry layer this many commits in
        // a row mean the disk is gone, not glitching.
        if ckpt.hard_failures >= ckpt.degrade_after {
            ckpt.retired = ckpt.fti.detach_disk_store().or(ckpt.retired.take());
            ckpt.tally.degraded = true;
        }
        landed = stored.ok().map(|metadata| Committed { epoch, metadata });
    }
    match (rank.vote(landed.is_some())?, landed) {
        (true, Some(committed)) => ckpt.tally.committed.push(committed),
        // A peer lost the vote: what this rank stored of the epoch is
        // discarded, so it neither costs a retention slot nor is ever
        // restored.  (Only a rank without an in-memory tier can have
        // stored a checkpoint that then loses a vote.)
        (_, Some(_)) => {
            if let Some(disk) = ckpt.fti.disk_store_mut() {
                disk.discard_newest();
            }
            ckpt.tally.aborted += 1;
        }
        // This rank could not encode or store it: counted, never silent.
        (_, None) => ckpt.tally.failed += 1,
    }
    Ok(None)
}

/// One recovery round: a rank that lost its state rolls back to the
/// newest recoverable checkpoint, or to scratch (the static variables
/// still have to be re-read); re-execution is the loop's own stepping.
fn recover<R: Regime, Q: Quorum>(
    regime: &mut R,
    rank: &mut Q,
    ckpt: &mut Checkpointer,
    lost: bool,
) -> Result<(), Q::Error> {
    let started = regime.now();
    let recovered = if lost { ckpt.restore(regime) } else { None };
    match &recovered {
        Some(_) => ckpt.tally.recoveries += 1,
        None if lost => regime.reread_static(),
        None => {}
    }
    ckpt.tally.recovery_seconds += regime.now() - started;
    rank.roll_back(lost, recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcr_ckpt::{CheckpointLevel, ClusterConfig, PfsModel};
    use lcr_sparse::Vector;

    /// A regime in which nothing is billed and nothing strikes.
    struct Idle;
    impl Regime for Idle {}

    #[test]
    fn an_undecodable_memory_tier_checkpoint_falls_back_to_the_older_one() {
        // No durable tier: both commits live in the in-memory tier only.
        let fti = FtiContext::new(
            ClusterConfig::bebop_like(4, 1.0),
            PfsModel::bebop_like(),
            CheckpointLevel::Pfs,
        );
        let strategy = CheckpointStrategy::Traditional;
        let mut ckpt = Checkpointer::new(strategy.clone(), 1, fti, 3);
        let state = DynamicState {
            iteration: 4,
            scalars: vec![("rho".to_string(), 0.5)],
            vectors: vec![("x".to_string(), Vector::filled(6, 1.25))],
        };
        let bound = strategy.bound_at(1.0, 1.0);
        let view = StateView::from(state.clone());
        let meta = strategy.encode_state_into(&view, bound, &mut ckpt.buffer).unwrap();
        let tag = strategy.name();
        ckpt.fti
            .commit_snapshot_from_buffer(0.0, 4, tag, &meta.scalars, None, &mut ckpt.buffer, 0.0)
            .unwrap();
        // The newer one validates (its CRCs are its own) but cannot decode:
        // a raw vector payload whose length is not a multiple of 8.
        ckpt.buffer.clear();
        ckpt.buffer.push_with("x", |out| out.extend_from_slice(&[7u8; 13]));
        ckpt.fti
            .commit_snapshot_from_buffer(1.0, 8, tag, &meta.scalars, None, &mut ckpt.buffer, 0.0)
            .unwrap();

        let (recovered, mode) = ckpt
            .restore(&mut Idle)
            .expect("the older checkpoint is still held and decodes");
        assert_eq!(mode, RecoveryMode::Exact);
        assert_eq!(recovered, state);
        assert_eq!(ckpt.tally.failed_recoveries, 1);
    }

    #[test]
    fn original_share_distributes_the_remainder_exactly() {
        // Regression for the integer-division remainder loss: the
        // per-variable shares must sum *exactly* to the total for any
        // (total, n_variables) — `total / n` alone loses up to n-1 bytes.
        for total in [0usize, 1, 2, 16, 17, 1001, 78_800_000_001] {
            for n in 1usize..=7 {
                let shares: Vec<usize> = (0..n).map(|i| original_share(total, n, i)).collect();
                assert_eq!(
                    shares.iter().sum::<usize>(),
                    total,
                    "total {total} over {n} variables: {shares:?}"
                );
                // Shares differ by at most one byte and are ordered
                // largest-first (the remainder goes to the first ones).
                assert!(shares.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
            }
        }
    }
}
