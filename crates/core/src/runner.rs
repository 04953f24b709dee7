//! The simulated-cluster front of the fault-tolerant executor.
//!
//! [`FaultTolerantRunner`] runs an iterative solver through
//! the private `executor` module — the step → checkpoint → commit → recover loop it
//! shares with [`crate::sharded::try_run_sharded`] — as a group of one on
//! the simulated clock:
//!
//! * every solver iteration advances the clock by the cluster's
//!   per-iteration cost and is *really* executed (so convergence effects of
//!   lossy recoveries are genuine, not modelled);
//! * every `checkpoint_interval_iterations` iterations the strategy encodes
//!   the dynamic state; the clock is charged with the compression time
//!   (from the cluster's throughput model) and the PFS write time for the
//!   *paper-scale* equivalent of the encoded bytes;
//! * failures strike according to the exponential injector at any point —
//!   during computation, checkpointing or recovery, as in §5.4; when one
//!   strikes, the run rolls back to the last checkpoint: the strategy
//!   decodes it (restore or restart), the clock is charged with the
//!   recovery read + decompression time, and the iterations since that
//!   checkpoint are re-executed by the solver loop itself (the rollback
//!   cost of the model);
//! * if a failure strikes before any checkpoint exists, the run restarts
//!   from the initial guess.
//!
//! The outcome is a [`RunReport`] with the timing breakdown the paper's
//! Figures 8–10 are built from.

use crate::executor::{execute, resume, Checkpointer, Quorum, Recovered, Regime};
use crate::strategy::{apply_recovered, CheckpointStrategy};
use crate::workload::ScaledProblem;
use lcr_ckpt::{
    CheckpointLevel, CkptError, ClusterConfig, FailureInjector, FtiContext, PfsModel,
    RecoveredData, RetryPolicy, SimClock, StorageBackend,
};
use lcr_solvers::{IterativeMethod, StateView};
use lcr_sparse::Vector;
use std::convert::Infallible;
use std::path::PathBuf;
use std::sync::Arc;

/// Where checkpoints live for recovery purposes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Persistence {
    /// Checkpoints live only in process memory (the simulated-substrate
    /// default): recovery within a run works, but nothing survives the
    /// process.
    #[default]
    InMemory,
    /// Mirror every committed checkpoint into a durable on-disk tier
    /// (`lcr_ckpt::DiskStore`): crash-consistent files (CRC-validated,
    /// temp-file + rename atomicity) that a *fresh* runner can reopen and
    /// resume from.  Recovery reads — and CRC-validates — the newest
    /// complete checkpoint from this directory.
    Disk {
        /// Directory holding the checkpoint files (created if missing).
        dir: PathBuf,
        /// Hand finished checkpoints to a background I/O thread so file
        /// I/O overlaps the next solver iterations (double-buffered; the
        /// thread is joined before any recovery).
        write_behind: bool,
    },
}

impl Persistence {
    /// Durable persistence in `dir` with synchronous writes.
    pub fn disk(dir: impl Into<PathBuf>) -> Self {
        Persistence::Disk {
            dir: dir.into(),
            write_behind: false,
        }
    }

    /// Durable persistence in `dir` with write-behind I/O.
    pub fn disk_write_behind(dir: impl Into<PathBuf>) -> Self {
        Persistence::Disk {
            dir: dir.into(),
            write_behind: true,
        }
    }
}

/// Which execution substrate the runner drives: only the *simulated*
/// cluster — one global solver advancing a [`SimClock`], with
/// checkpoint/recovery **time** modelled by the [`PfsModel`].  Real
/// domain-decomposed runs go through [`crate::sharded::try_run_sharded`].
/// Nothing reads it: it exists only because `lcr_benchmark`'s exhaustive
/// [`RunConfig`] literal names it.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ExecutionBackend {
    /// The simulated cluster (SimClock + PfsModel).
    #[default]
    Simulated,
}

/// Configuration of one fault-tolerant run.  Build one with
/// [`RunConfig::baseline`] and assign the fields that differ.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The checkpoint strategy to use.
    pub strategy: CheckpointStrategy,
    /// Checkpoint every this many solver iterations (0 disables periodic
    /// checkpointing, e.g. for the failure-free baseline).
    pub checkpoint_interval_iterations: usize,
    /// Read by nothing: every checkpoint decodes on its own.
    /// `lcr_benchmark`'s exhaustive literal is the only reason it exists.
    pub anchor_interval_snapshots: usize,
    /// Simulated cluster.
    pub cluster: ClusterConfig,
    /// Parallel-file-system model.
    pub pfs: PfsModel,
    /// Storage level checkpoints are written to; always FTI's L4 and read
    /// by nothing.  `lcr_benchmark`'s exhaustive literal is the only reason
    /// it exists.
    pub level: CheckpointLevel,
    /// Mean time to interruption in seconds (`f64::INFINITY` or a huge
    /// value with `failure_seed = None` for failure-free runs).
    pub mtti_seconds: f64,
    /// Seed for the failure injector; `None` disables failure injection.
    pub failure_seed: Option<u64>,
    /// Safety cap on the number of failures processed (guards against
    /// pathological configurations that can never finish).
    pub max_failures: usize,
    /// Safety cap on executed iterations (including re-executed ones).
    pub max_executed_iterations: usize,
    /// Worker threads for the shared-memory kernels (BLAS-1, SpMV, the
    /// compressors) during this run; `0` inherits the process-wide setting
    /// (`LCR_NUM_THREADS`, defaulting to the available parallelism).
    /// Results are bit-identical at any value — the kernels use
    /// deterministic fixed-chunk scheduling — so this only trades time for
    /// cores.
    pub num_threads: usize,
    /// Checkpoint persistence tier.  With [`Persistence::Disk`], a fresh
    /// runner pointed at the same directory resumes from the newest
    /// complete checkpoint instead of starting from scratch.
    pub persistence: Persistence,
    /// Execution substrate; a single value, read by nothing.
    /// `lcr_benchmark`'s exhaustive literal is the only reason it exists.
    pub backend: ExecutionBackend,
}

impl RunConfig {
    /// A failure-free baseline configuration (no checkpoints, no failures).
    pub fn baseline(cluster: ClusterConfig, pfs: PfsModel) -> Self {
        RunConfig {
            strategy: CheckpointStrategy::None,
            checkpoint_interval_iterations: 0,
            anchor_interval_snapshots: 0,
            cluster,
            pfs,
            level: CheckpointLevel::Pfs,
            mtti_seconds: f64::MAX,
            failure_seed: None,
            max_failures: 0,
            max_executed_iterations: 10_000_000,
            num_threads: 0,
            persistence: Persistence::InMemory,
            backend: ExecutionBackend::Simulated,
        }
    }
}

/// Outcome of one fault-tolerant run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Strategy name ("none", "traditional", "lossless", "lossy").
    pub strategy: String,
    /// Iterations the solver needed to converge (its final iteration
    /// counter — the paper's "number of convergence iterations").
    pub convergence_iterations: usize,
    /// Total iterations actually executed, including rollback re-execution.
    pub executed_iterations: usize,
    /// Number of checkpoints written *and committed*.
    pub checkpoints_taken: usize,
    /// Checkpoints discarded because a failure struck during the write
    /// window: FTI atomicity — an interrupted checkpoint never becomes
    /// visible, and recovery falls back to the previous one.
    pub aborted_checkpoints: usize,
    /// Checkpoint attempts dropped because encoding failed or the durable
    /// tier could not persist them (previously swallowed silently).
    pub failed_checkpoints: usize,
    /// Checkpoints that committed only after at least one transient-I/O
    /// retry (the supervised retry layer; never silent).
    pub retried_checkpoints: usize,
    /// Individual transient storage-I/O retries across the run.
    pub io_retries: usize,
    /// Backoff delays (seconds) slept before each retry, in order — the
    /// logged retry schedule.
    pub io_backoff_seconds: Vec<f64>,
    /// Whether the durable disk tier was dropped mid-run after persistent
    /// hard failures (graceful degradation to the in-memory tier: the run
    /// keeps converging, but nothing durable survives the process).
    pub degraded_tier: bool,
    /// Committed checkpoints, all of which decode on their own: always
    /// `checkpoints_taken`.  `lcr_benchmark` is the only reason it exists.
    pub anchor_checkpoints: usize,
    /// Always 0: no checkpoint leans on another.  `lcr_benchmark` is the
    /// only reason it exists.
    pub delta_checkpoints: usize,
    /// Iteration this run resumed from via the durable on-disk tier
    /// (`None` when the run started from scratch).
    pub resumed_from_iteration: Option<usize>,
    /// Number of failures injected.
    pub failures: usize,
    /// Number of recoveries performed (≤ failures; a failure before the
    /// first checkpoint restarts from scratch instead).
    pub recoveries: usize,
    /// Recoveries (at restart or after a failure) where a CRC-valid,
    /// tag-compatible checkpoint was read but did not decode into the
    /// solver, so the run fell back to iteration 0.
    pub failed_recoveries: usize,
    /// Total simulated wall-clock seconds.
    pub total_seconds: f64,
    /// Simulated seconds of productive computation: the iterations this
    /// run advanced the solve by (`convergence_iterations`, less
    /// `resumed_from_iteration`) × iteration time.
    pub productive_seconds: f64,
    /// Simulated seconds spent writing checkpoints (including compression).
    pub checkpoint_seconds: f64,
    /// Simulated seconds spent in recovery I/O (including decompression).
    pub recovery_seconds: f64,
    /// Simulated seconds of re-executed (rolled-back) computation: the
    /// executed iterations beyond the productive ones.
    pub rollback_seconds: f64,
    /// Fault-tolerance overhead: `total - productive` (the paper's metric).
    pub overhead_seconds: f64,
    /// Residual-norm history of the run (for Figure 9 traces).
    pub residual_history: Vec<f64>,
    /// Iterations at which recoveries/restarts occurred.
    pub restart_iterations: Vec<usize>,
    /// Whether the solver hit its iteration limit instead of converging.
    pub hit_iteration_limit: bool,
    /// Encoded bytes of every committed checkpoint in commit order (same
    /// scale as [`RunReport::mean_checkpoint_bytes`]).
    pub checkpoint_bytes_trace: Vec<usize>,
    /// Mean encoded checkpoint bytes (paper-scale) per checkpoint.
    pub mean_checkpoint_bytes: f64,
    /// Mean compression ratio across checkpoints (1.0 for traditional).
    pub mean_compression_ratio: f64,
}

impl RunReport {
    /// Fault-tolerance overhead as a fraction of productive time.
    pub fn overhead_ratio(&self) -> f64 {
        if self.productive_seconds <= 0.0 {
            return 0.0;
        }
        self.overhead_seconds / self.productive_seconds
    }
}

/// Restores the calling thread's active-thread cap when a run ends.
struct ThreadLimitGuard(usize);

impl Drop for ThreadLimitGuard {
    fn drop(&mut self) {
        rayon::set_max_active_threads(self.0);
    }
}

/// The simulated regime: a [`SimClock`] billed with the cluster's
/// per-iteration cost, its codec throughput and the PFS model, and
/// exponentially distributed failures that cost every rank its state.
struct Simulated<'a> {
    cfg: &'a RunConfig,
    clock: SimClock,
    injector: FailureInjector,
    failures: usize,
    /// One paper-scale vector: what a recovery decompresses, and the
    /// static data it re-reads — the matrix and preconditioner are
    /// regenerated from the problem definition (as in the paper's PETSc
    /// set-up), the right-hand side is read back.
    vector_bytes: usize,
    /// Whether the strategy runs a codec whose time is billed.
    compresses: bool,
}

impl Simulated<'_> {
    /// Whether a failure struck since `since` (counted up to the cap).
    fn struck(&mut self, since: f64) -> Option<bool> {
        let fails = self.injector.fails_during(since, self.clock.now());
        (fails && self.failures < self.cfg.max_failures).then(|| {
            self.failures += 1;
            true
        })
    }
}

impl Regime for Simulated<'_> {
    fn now(&self) -> f64 {
        self.clock.now()
    }

    fn stepped(&mut self) -> Option<bool> {
        let start = self.clock.now();
        self.clock.advance(self.cfg.cluster.iteration_seconds);
        self.struck(start)
    }

    fn wrote(&mut self, paper_original_bytes: usize, write_seconds: f64) -> Option<bool> {
        let start = self.clock.now();
        if self.compresses {
            let seconds = self.cfg.cluster.compression_seconds(paper_original_bytes);
            self.clock.advance(seconds);
        }
        self.clock.advance(write_seconds);
        self.struck(start)
    }

    fn stamp(&self, _epoch: u64) -> f64 {
        self.clock.now()
    }

    fn read(&mut self, fti: &mut FtiContext) -> Result<RecoveredData, CkptError> {
        let recovered = fti.recover(&mut self.clock, self.vector_bytes)?;
        if self.compresses {
            let seconds = self.cfg.cluster.decompression_seconds(self.vector_bytes);
            self.clock.advance(seconds);
        }
        Ok(recovered)
    }

    fn reread_static(&mut self) {
        let cfg = self.cfg;
        let seconds = cfg.pfs.read_seconds(self.vector_bytes, cfg.cluster.ranks);
        self.clock.advance(seconds);
    }
}

/// A group of one: its checkpoints count as soon as they land, and every
/// failure rolls the one solver back.
struct Solo<'a>(&'a mut dyn IterativeMethod);

impl Quorum for Solo<'_> {
    type Error = Infallible;

    fn step(&mut self) -> Result<(), Infallible> {
        self.0.step();
        Ok(())
    }

    fn iteration(&self) -> usize {
        self.0.iteration()
    }

    fn converged(&self) -> bool {
        self.0.converged()
    }

    fn capture(&self) -> (StateView<'_>, f64, f64) {
        (
            self.0.state_view(),
            self.0.residual_norm(),
            self.0.reference_norm(),
        )
    }

    fn roll_back(&mut self, _lost: bool, recovered: Option<Recovered>) -> Result<(), Infallible> {
        match recovered {
            Some((state, mode)) => apply_recovered(self.0, state, mode),
            // No recoverable checkpoint: restart from the initial guess.
            None => {
                let n = self.0.solution().len();
                self.0.restart_from_solution(Vector::zeros(n), 0);
            }
        }
        Ok(())
    }
}

/// The fault-tolerant execution driver.
pub struct FaultTolerantRunner {
    config: RunConfig,
    /// Storage backend the durable tier writes through (chaos-injection
    /// seam); `None` = plain OS file I/O.
    storage_backend: Option<Arc<dyn StorageBackend>>,
    /// Retry policy for transient durable-tier I/O errors; `None` keeps
    /// the store default.
    retry: Option<RetryPolicy>,
}

/// Consecutive hard durable-commit failures after which a run drops the
/// disk tier and keeps going in memory (flagged in
/// [`RunReport::degraded_tier`]).
const DEGRADE_AFTER: usize = 3;

impl FaultTolerantRunner {
    /// Creates a runner for the given configuration.
    pub fn new(config: RunConfig) -> Self {
        FaultTolerantRunner {
            config,
            storage_backend: None,
            retry: None,
        }
    }

    /// Routes all durable-tier file I/O through `backend` — the seam a
    /// chaos campaign uses to inject storage faults.  Only affects
    /// [`Persistence::Disk`] runs on the simulated backend.
    pub fn with_storage_backend(mut self, backend: Arc<dyn StorageBackend>) -> Self {
        self.storage_backend = Some(backend);
        self
    }

    /// Overrides the durable tier's transient-I/O retry policy (bounded
    /// exponential backoff; retries are counted in the [`RunReport`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Executes `solver` to convergence under failures and checkpointing,
    /// using `problem` for paper-scale byte accounting.
    ///
    /// # Panics
    /// Panics if the configuration enables failures without a checkpoint
    /// strategy able to make progress (guarded by `max_failures` /
    /// `max_executed_iterations` instead of hanging).
    pub fn run(&self, solver: &mut dyn IterativeMethod, problem: &ScaledProblem) -> RunReport {
        let cfg = &self.config;
        // Pin the kernel thread count for the duration of the run if the
        // config asks for one; restored on every exit path by the guard.
        let _threads = (cfg.num_threads > 0).then(|| {
            let guard = ThreadLimitGuard(rayon::max_active_threads());
            rayon::set_max_active_threads(cfg.num_threads);
            guard
        });
        // The SpMV plan is built once at problem finalize; force it here as
        // well so a run on a hand-assembled system never pays for plan
        // construction — and the recovery path's fused residual rebuilds
        // (`restart_from_solution` → `kernels::residual_norm2`) always find
        // it ready.
        problem.system.a.plan();
        let mut regime = Simulated {
            cfg,
            clock: SimClock::new(),
            injector: match cfg.failure_seed {
                Some(seed) if cfg.mtti_seconds.is_finite() => {
                    FailureInjector::new(cfg.mtti_seconds, seed)
                }
                _ => FailureInjector::never(),
            },
            failures: 0,
            vector_bytes: problem.paper_vector_bytes(),
            compresses: !matches!(
                cfg.strategy,
                CheckpointStrategy::Traditional | CheckpointStrategy::None
            ),
        };
        // Store real payloads, bill I/O time at the paper's scale.
        let mut fti = FtiContext::new(cfg.cluster, cfg.pfs, CheckpointLevel::Pfs);
        fti.set_byte_scale(problem.byte_scale_factor());
        let mut ckpt = Checkpointer::new(
            cfg.strategy.clone(),
            cfg.checkpoint_interval_iterations,
            fti,
            DEGRADE_AFTER,
        );
        if let Persistence::Disk { dir, write_behind } = &cfg.persistence {
            let backend = self.storage_backend.clone();
            let opened = ckpt.attach_durable(dir, 2, backend, self.retry, *write_behind);
            // With an injected (chaos) backend an unopenable store is a
            // survivable fault: the run goes on in the in-memory tier,
            // flagged degraded.  Without one it is a real
            // misconfiguration — fail loudly.
            if let (Err(e), None) = (opened, &self.storage_backend) {
                panic!("cannot open checkpoint directory {}: {e}", dir.display());
            }
        }

        let mut rank = Solo(solver);
        let Ok(()) = resume(&mut regime, &mut rank, &mut ckpt);
        let Ok(executed_iterations) = execute(
            &mut regime,
            &mut rank,
            &mut ckpt,
            cfg.max_executed_iterations,
        );

        let convergence_iterations = solver.iteration();
        let t_it = cfg.cluster.iteration_seconds;
        let (io_retries, retried_checkpoints, io_backoff_seconds) = ckpt.io_counters();
        let tally = ckpt.tally;
        // A resumed run computed only the iterations after its checkpoint.
        let productive_iterations =
            convergence_iterations.saturating_sub(tally.resumed_from.unwrap_or(0));
        let productive_seconds = productive_iterations as f64 * t_it;
        let total_seconds = regime.clock.now();
        let stored = tally.committed.iter().map(|c| &c.metadata);
        let checkpoints_taken = stored.len();
        let mean_over_checkpoints = |sum: f64| sum / checkpoints_taken.max(1) as f64;
        RunReport {
            strategy: cfg.strategy.name().to_string(),
            convergence_iterations,
            executed_iterations,
            checkpoints_taken,
            aborted_checkpoints: tally.aborted,
            failed_checkpoints: tally.failed,
            retried_checkpoints: retried_checkpoints as usize,
            io_retries: io_retries as usize,
            io_backoff_seconds,
            degraded_tier: tally.degraded,
            anchor_checkpoints: checkpoints_taken,
            delta_checkpoints: 0,
            checkpoint_bytes_trace: stored.clone().map(|m| m.total_bytes).collect(),
            resumed_from_iteration: tally.resumed_from,
            failures: regime.failures,
            recoveries: tally.recoveries,
            failed_recoveries: tally.failed_recoveries,
            total_seconds,
            productive_seconds,
            checkpoint_seconds: tally.checkpoint_seconds,
            recovery_seconds: tally.recovery_seconds,
            rollback_seconds: executed_iterations.saturating_sub(productive_iterations) as f64
                * t_it,
            overhead_seconds: (total_seconds - productive_seconds).max(0.0),
            residual_history: solver.history().residuals().to_vec(),
            restart_iterations: solver.history().restarts().to_vec(),
            hit_iteration_limit: solver.history().limit_reached,
            mean_checkpoint_bytes: mean_over_checkpoints(
                stored.clone().map(|m| m.total_bytes as f64).sum(),
            ),
            mean_compression_ratio: if checkpoints_taken > 0 {
                mean_over_checkpoints(stored.clone().map(|m| m.compression_ratio()).sum())
            } else {
                1.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PaperWorkload;
    use lcr_solvers::SolverKind;

    fn small_poisson() -> (PaperWorkload, ScaledProblem) {
        let w = PaperWorkload::poisson(256, 8);
        let p = w.build();
        (w, p)
    }

    fn cluster() -> ClusterConfig {
        ClusterConfig::bebop_like(256, 0.5)
    }

    fn config(strategy: CheckpointStrategy, interval: usize, mtti: f64, seed: Option<u64>) -> RunConfig {
        let mut cfg = RunConfig::baseline(cluster(), PfsModel::bebop_like());
        cfg.strategy = strategy;
        cfg.checkpoint_interval_iterations = interval;
        cfg.mtti_seconds = mtti;
        cfg.failure_seed = seed;
        cfg.max_failures = 50;
        cfg.max_executed_iterations = 500_000;
        cfg
    }

    #[test]
    fn baseline_run_has_no_overhead() {
        let (w, p) = small_poisson();
        let mut solver = w.build_solver(&p, SolverKind::Jacobi, 100_000);
        let report = FaultTolerantRunner::new(RunConfig::baseline(cluster(), PfsModel::bebop_like()))
            .run(solver.as_mut(), &p);
        assert_eq!(report.failures, 0);
        assert_eq!(report.checkpoints_taken, 0);
        assert_eq!(report.overhead_seconds, 0.0);
        assert_eq!(report.convergence_iterations, report.executed_iterations);
        assert!(report.total_seconds > 0.0);
        assert!((report.overhead_ratio() - 0.0).abs() < 1e-12);
        assert!(!report.hit_iteration_limit);
    }

    #[test]
    fn checkpointing_without_failures_adds_only_checkpoint_time() {
        let (w, p) = small_poisson();
        let mut solver = w.build_solver(&p, SolverKind::Jacobi, 100_000);
        let cfg = config(CheckpointStrategy::Traditional, 10, f64::MAX, None);
        let report = FaultTolerantRunner::new(cfg).run(solver.as_mut(), &p);
        assert!(report.checkpoints_taken > 0);
        assert_eq!(report.failures, 0);
        assert_eq!(report.recoveries, 0);
        assert!(report.checkpoint_seconds > 0.0);
        assert!(
            (report.overhead_seconds - report.checkpoint_seconds).abs() < 1e-6,
            "overhead {} vs checkpoint {}",
            report.overhead_seconds,
            report.checkpoint_seconds
        );
        assert!((report.mean_compression_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn failures_trigger_recoveries_and_rollback() {
        let (w, p) = small_poisson();
        let mut solver = w.build_solver(&p, SolverKind::Jacobi, 200_000);
        // Jacobi on the 6³ grid needs ~100 iterations at 0.5 s each ≈ 50 s;
        // an MTTI of 20 s guarantees several failures.  Seed 11's failures
        // strike inside *completed*-checkpoint epochs, so they recover (a
        // failure during a write window aborts that checkpoint instead —
        // see interrupted_first_checkpoint_is_discarded_and_restarts_from_scratch).
        let cfg = config(CheckpointStrategy::Traditional, 5, 20.0, Some(11));
        let report = FaultTolerantRunner::new(cfg).run(solver.as_mut(), &p);
        assert!(report.failures > 0, "expected failures to be injected");
        assert!(report.recoveries > 0);
        assert!(report.executed_iterations >= report.convergence_iterations);
        assert!(report.recovery_seconds > 0.0);
        assert!(report.overhead_seconds > 0.0);
        assert!(!report.hit_iteration_limit);
    }

    #[test]
    fn lossy_strategy_recovers_and_converges_under_failures() {
        let (w, p) = small_poisson();
        let mut solver = w.build_solver(&p, SolverKind::Cg, 200_000);
        let cfg = config(CheckpointStrategy::lossy_default(), 5, 15.0, Some(11));
        let report = FaultTolerantRunner::new(cfg).run(solver.as_mut(), &p);
        assert!(report.failures > 0);
        assert!(report.recoveries > 0);
        assert!(!report.hit_iteration_limit, "CG must still converge");
        assert!(report.mean_compression_ratio > 1.5);
        assert!(!report.restart_iterations.is_empty());
    }

    #[test]
    fn lossy_checkpoint_time_is_lower_than_traditional() {
        let (w, p) = small_poisson();
        // Same failure-free run, different strategies: the lossy checkpoints
        // must be cheaper in simulated time because they are smaller.
        let mut s1 = w.build_solver(&p, SolverKind::Jacobi, 100_000);
        let trad = FaultTolerantRunner::new(config(CheckpointStrategy::Traditional, 10, f64::MAX, None))
            .run(s1.as_mut(), &p);
        let mut s2 = w.build_solver(&p, SolverKind::Jacobi, 100_000);
        let lossy = FaultTolerantRunner::new(config(CheckpointStrategy::lossy_default(), 10, f64::MAX, None))
            .run(s2.as_mut(), &p);
        assert_eq!(trad.checkpoints_taken, lossy.checkpoints_taken);
        assert!(
            lossy.checkpoint_seconds < trad.checkpoint_seconds,
            "lossy {} vs traditional {}",
            lossy.checkpoint_seconds,
            trad.checkpoint_seconds
        );
        assert!(lossy.mean_compression_ratio > 1.5);
    }

    #[test]
    fn interrupted_first_checkpoint_is_discarded_and_restarts_from_scratch() {
        // Regression for the mid-write atomicity bug: a failure striking
        // *during* the checkpoint write window must discard the checkpoint
        // (FTI semantics: only a completed write is recoverable).  The
        // sharp observable is a failure inside the *first* write window
        // with max_failures = 1: the fixed runner has nothing to recover
        // from (recoveries == 0, restart from iteration 0), while the old
        // runner committed the interrupted checkpoint first and "recovered"
        // from it (recoveries == 1, restart at the checkpoint iteration).
        let (w, p) = small_poisson();
        let mut first_window_abort_seen = false;
        for seed in 0..120 {
            let mut solver = w.build_solver(&p, SolverKind::Jacobi, 200_000);
            let mut cfg = config(CheckpointStrategy::lossy_default(), 5, 12.0, Some(seed));
            cfg.max_failures = 1;
            let report = FaultTolerantRunner::new(cfg).run(solver.as_mut(), &p);
            assert!(!report.hit_iteration_limit, "seed {seed} must converge");
            if report.failures == 1 && report.aborted_checkpoints == 1 && report.recoveries == 0
            {
                // The one failure interrupted the first-ever checkpoint:
                // the only possible rollback target is the initial guess.
                assert_eq!(
                    report.restart_iterations,
                    vec![0],
                    "seed {seed}: an interrupted checkpoint must never be a recovery target"
                );
                assert!(report.checkpoints_taken > 0, "later checkpoints commit");
                first_window_abort_seen = true;
            }
            // Whatever the failure pattern, an aborted checkpoint is never
            // double-counted as taken.
            assert!(report.aborted_checkpoints <= report.failures);
        }
        assert!(
            first_window_abort_seen,
            "no seed produced a failure inside the first checkpoint write window"
        );
    }

    #[test]
    fn failure_before_first_checkpoint_restarts_from_scratch() {
        let (w, p) = small_poisson();
        let mut solver = w.build_solver(&p, SolverKind::Jacobi, 200_000);
        // Checkpoint interval so large it never triggers; failures force a
        // restart from the initial guess.
        let mut cfg = config(CheckpointStrategy::Traditional, 1_000_000, 30.0, Some(3));
        cfg.max_failures = 2;
        let report = FaultTolerantRunner::new(cfg).run(solver.as_mut(), &p);
        assert!(report.failures >= 1);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.checkpoints_taken, 0);
        assert!(report.executed_iterations > report.convergence_iterations);
        assert!(!report.hit_iteration_limit);
    }

    #[test]
    fn per_variable_originals_sum_exactly_to_the_paper_scale_total() {
        // End-to-end companion of original_share_distributes_the_remainder:
        // the durable tier persists the summed per-variable originals, so
        // the metadata of a CG checkpoint (two protected variables: x, p)
        // must carry exactly the paper-scale original the runner computed.
        let (w, p) = small_poisson();
        let dir = std::env::temp_dir().join(format!("lcr-remainder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut solver = w.build_solver(&p, SolverKind::Cg, 200_000);
        let mut cfg = config(CheckpointStrategy::Traditional, 10, f64::MAX, None);
        cfg.persistence = Persistence::disk(&dir);
        cfg.max_executed_iterations = 15;
        FaultTolerantRunner::new(cfg).run(solver.as_mut(), &p);

        // Expected paper-scale original, recomputed the way the runner
        // does it: every dynamic vector at 8 bytes/element, scaled.
        let n = p.system.dim();
        let expected = (2.0 * n as f64 * 8.0 * p.byte_scale_factor()) as usize;

        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|f| f.extension().is_some_and(|e| e == "lcr"))
            .collect();
        files.sort();
        let ckpt = lcr_ckpt::disk::read_checkpoint_file(files.last().unwrap()).unwrap();
        assert_eq!(ckpt.payloads.len(), 2, "CG checkpoints x and p");
        assert_eq!(
            ckpt.metadata.original_bytes, expected,
            "per-variable originals must sum to the paper-scale total"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reports_are_deterministic_for_fixed_seed() {
        let (w, p) = small_poisson();
        let run = |seed| {
            let mut solver = w.build_solver(&p, SolverKind::Jacobi, 200_000);
            FaultTolerantRunner::new(config(
                CheckpointStrategy::lossy_default(),
                5,
                25.0,
                Some(seed),
            ))
            .run(solver.as_mut(), &p)
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.executed_iterations, b.executed_iterations);
        assert!((a.total_seconds - b.total_seconds).abs() < 1e-9);
        let c = run(6);
        // Different seed almost surely gives a different failure pattern.
        assert!(
            a.failures != c.failures
                || a.executed_iterations != c.executed_iterations
                || (a.total_seconds - c.total_seconds).abs() > 1e-9
        );
    }

    #[test]
    fn a_resumed_run_counts_only_the_iterations_it_computed_as_productive() {
        // Phase 1 stops after 18 iterations with iteration 15 on disk;
        // phase 2 resumes there and converges.
        let (w, p) = small_poisson();
        let dir = std::env::temp_dir().join(format!("lcr-resume-overhead-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = config(CheckpointStrategy::Traditional, 5, f64::MAX, None);
        cfg.persistence = Persistence::disk(&dir);
        cfg.max_executed_iterations = 18;
        let mut s1 = w.build_solver(&p, SolverKind::Cg, 200_000);
        FaultTolerantRunner::new(cfg.clone()).run(s1.as_mut(), &p);

        cfg.max_executed_iterations = 500_000;
        let mut s2 = w.build_solver(&p, SolverKind::Cg, 200_000);
        let r = FaultTolerantRunner::new(cfg).run(s2.as_mut(), &p);
        let counts = (r.resumed_from_iteration, r.executed_iterations, r.convergence_iterations);
        assert_eq!(counts, (Some(15), 7, 22));
        assert_eq!(r.productive_seconds, 7.0 * 0.5);
        assert_eq!(r.rollback_seconds, 0.0);
        let parts = r.checkpoint_seconds + r.recovery_seconds + r.rollback_seconds;
        assert!(
            (r.overhead_seconds - parts).abs() <= 1e-9 * r.total_seconds,
            "overhead {} vs checkpoint + recovery + rollback {parts}",
            r.overhead_seconds
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
