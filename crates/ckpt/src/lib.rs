//! # lcr-ckpt
//!
//! Checkpoint/restart substrate for the lossy-checkpointing reproduction of
//! *"Improving Performance of Iterative Methods by Lossy Checkpointing"*
//! (Tao et al., HPDC 2018).
//!
//! The paper's experiments use the FTI checkpoint library with MPI-IO on a
//! 2,048-core cluster with a shared parallel file system, and inject
//! fail-stop failures with exponentially distributed inter-arrival times.
//! This crate re-creates that environment as a *simulated* substrate so the
//! whole study runs on a single node:
//!
//! * [`SimClock`] — a simulated wall clock.  Solver computation advances it
//!   by a per-iteration cost; checkpoint/recovery I/O advances it by the
//!   time the [`PfsModel`] predicts; failure events are drawn against it.
//! * [`PfsModel`] — a parallel-file-system model with a constant aggregate
//!   bandwidth and a per-rank bandwidth ceiling, calibrated so that one
//!   uncompressed 78.8 GB checkpoint at 2,048 ranks takes ≈120 s, matching
//!   the paper's measurement on Bebop (§3).
//! * [`ClusterConfig`] — the simulated machine (rank count, per-rank
//!   compression throughput, compute-speed factor).
//! * [`FailureInjector`] — exponential fail-stop failure process with a
//!   deterministic seed (§5.4).
//! * [`FtiContext`] — an FTI-like `Protect()` / `Snapshot()` / `recover()`
//!   API over named binary buffers with checkpoint metadata and two
//!   storage tiers, each a [`DiskStore`].
//! * [`DiskStore`] — the one checkpoint store, over a [`StorageBackend`]:
//!   crash-consistent checkpoint files (magic + CRC-validated segment
//!   table, temp-file + rename atomicity, retention of the newest files, optional
//!   write-behind I/O thread).  Over [`OsBackend`] it is the durable tier
//!   a *fresh* process can reopen and resume from; over [`MemBackend`] it
//!   is the in-memory tier (see [`disk`]).
//!
//! Numerical state never flows through this crate — the solvers operate on
//! real vectors in `lcr-solvers`; this crate only accounts for *time* and
//! *bytes*, which is what the paper's performance results are made of.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod clock;
pub mod cluster;
pub mod disk;
mod failure;
pub mod fti;
pub mod pfs;
pub mod store;

pub use backend::{MemBackend, OsBackend, RetryPolicy, StorageBackend};
pub use clock::SimClock;
pub use cluster::ClusterConfig;
pub use disk::{DiskCheckpoint, DiskStore};
pub use failure::FailureInjector;
pub use fti::{FtiContext, RecoveredData};
pub use pfs::{CheckpointLevel, PfsModel};
pub use store::{CheckpointBuffer, CheckpointMetadata};

/// Errors produced by the checkpoint/restart substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum CkptError {
    /// No checkpoint is available to recover from.
    NoCheckpoint,
    /// A stored checkpoint is malformed (e.g. failed CRC validation, or a
    /// truncated file).
    Corrupt(String),
    /// A tier hit a real I/O error (message carries the cause).
    Io(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::NoCheckpoint => write!(f, "no checkpoint available"),
            CkptError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CkptError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Result alias for checkpoint operations.
pub type Result<T> = std::result::Result<T, CkptError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(CkptError::NoCheckpoint.to_string().contains("no checkpoint"));
        assert!(CkptError::Corrupt("bad".into()).to_string().contains("bad"));
        assert!(CkptError::Io("disk full".into()).to_string().contains("disk full"));
    }
}
