//! # lcr-core
//!
//! The primary contribution of *"Improving Performance of Iterative Methods
//! by Lossy Checkpointing"* (Tao et al., HPDC 2018), assembled from the
//! substrate crates of this workspace:
//!
//! * [`strategy`] — the three checkpointing schemes the paper compares:
//!   **traditional** (raw dynamic variables), **lossless** (Gzip-like
//!   compression) and **lossy** (SZ-style error-bounded compression), plus a
//!   no-checkpointing baseline.  The lossy strategy implements the paper's
//!   per-method error-bound policy: a fixed point-wise relative bound for
//!   Jacobi/CG and the adaptive `‖r‖/‖b‖` bound of Theorem 3 for GMRES.
//! * `executor` (private) — the one fault-tolerant executor: a per-rank
//!   checkpointer (the only code here that opens a `DiskStore`; encode
//!   through the strategy, write, commit or abort, restore the newest
//!   checkpoint that was committed and still decodes) and one `step →
//!   fault? → checkpoint due? → encode → write window → vote → commit |
//!   abort` loop over two seams — the *regime* (what time costs and when
//!   faults strike) and the *quorum* (who must agree before a checkpoint
//!   counts, and who rolls back).  It has two public fronts:
//! * [`runner`] — [`FaultTolerantRunner::run`]: any solver, any strategy,
//!   as a group of one on the simulated clock (per-iteration cost, codec
//!   throughput, PFS model, exponential fail-stop failures), accounting
//!   every second of compute, compression, I/O and rollback.
//! * [`sharded`] — [`sharded::try_run_sharded`]: the *real* execution
//!   backend — the global system domain-decomposed into shard threads with
//!   channel-based halo exchange, lossy checkpoint segments under a
//!   coordinated epoch commit, deterministic kills, and per-shard crash
//!   recovery (only the failed shard rolls back).
//! * [`impact`] — the §4.4.3 experiment behind Figure 2: the average number
//!   of extra CG iterations caused by one lossy recovery as a function of
//!   the relative error bound.
//! * [`workload`] — builders for the paper's workloads (3-D Poisson
//!   weak-scaling grid, synthetic KKT system) with the paper's tolerances
//!   and preconditioners, and the mapping from simulated process counts to
//!   host-sized problems.
//! * [`experiment`] — the experiment harness that regenerates every table
//!   and figure of the evaluation section (Table 3, Figures 1–10), emitting
//!   machine-readable rows the `lcr-bench` binaries print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
pub mod experiment;
pub mod impact;
pub mod runner;
pub mod sharded;
pub mod strategy;
pub mod workload;

pub use experiment::{
    CheckpointTimeRow, ExpectedOverheadRow, FaultToleranceOverheadRow, Table3Row,
};
pub use runner::{ExecutionBackend, FaultTolerantRunner, RunConfig, RunReport};
pub use sharded::{EpochRecord, KillSpec, ShardStats, ShardedReport, ShardedRunConfig};
pub use strategy::{CheckpointStrategy, ErrorBoundPolicy, RecoveryMode, TemporalEncodingSelector};
pub use workload::{PaperWorkload, ScaledProblem, WorkloadKind};
