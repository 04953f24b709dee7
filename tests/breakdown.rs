//! Breakdown must end a solve, not spin it.
//!
//! On `A = diag(1, −1)`, `b = (1, 1)` the first CG direction has
//! `pᵀAp = 0`.  The breakdown restart rebuilds exactly the state that
//! broke down, so a second restart can change nothing: the solve must stop
//! there, unconverged and flagged, on the local space and on a sharded run
//! alike.
//! Each solve runs on its own thread under a deadline so that a livelock
//! fails the test instead of hanging it.  So do two sharded runs whose
//! shard dies mid-run, which must end without a heartbeat.

use lossy_ckpt::ckpt::{MemBackend, StorageBackend};
use lossy_ckpt::core::sharded::{try_run_sharded, ShardedError, ShardedRunConfig};
use lossy_ckpt::solvers::{
    ConjugateGradient, IterativeMethod, LinearSystem, SolverKind, StoppingCriteria,
};
use lossy_ckpt::sparse::poisson::poisson3d;
use lossy_ckpt::sparse::{CommAction, CommError, CommInterposer, CsrMatrix, Vector};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn indefinite() -> (CsrMatrix, Vector) {
    let a = CsrMatrix::from_raw_unchecked(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, -1.0]);
    (a, Vector::from_vec(vec![1.0, 1.0]))
}

/// Runs `solve` on its own thread and returns its result, or panics if it
/// is still running after five seconds.
fn within_deadline<T: Send + 'static>(solve: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(solve()));
    rx.recv_timeout(Duration::from_secs(5))
        .expect("the solve must end in bounded time")
}

fn assert_stopped_unconverged(solver: &dyn IterativeMethod) {
    assert!(solver.history().limit_reached, "flagged as given up");
    assert!(solver.residual_norm() > 1e-8 * solver.reference_norm());
    assert_eq!(solver.iteration(), 0, "no iteration was ever accepted");
    assert_eq!(solver.history().restarts(), &[0], "one restart, then stop");
}

#[test]
fn local_cg_breakdown_ends_the_solve() {
    within_deadline(|| {
        let (a, b) = indefinite();
        let mut solver = ConjugateGradient::unpreconditioned(
            LinearSystem::new(a, b),
            Vector::zeros(2),
            StoppingCriteria::new(1e-8, 10_000),
        );
        solver.run_to_convergence();
        assert_stopped_unconverged(&solver);
    });
}

#[test]
fn sharded_cg_breakdown_ends_the_run() {
    let report = within_deadline(|| {
        let (a, b) = indefinite();
        let mut cfg = ShardedRunConfig::new(2, SolverKind::Cg);
        cfg.reduce_block = 1; // one row per shard
        cfg.max_iterations = 100;
        cfg.heartbeat_timeout = Some(Duration::from_millis(200));
        try_run_sharded(&a, &b, &cfg)
    })
    .expect("a breakdown is an outcome, not a comm failure");
    assert!(!report.converged);
    assert_eq!(report.iterations, 0);
    assert_eq!(report.restart_iterations, vec![0]);
    assert_eq!(report.residual_trace.len(), 1, "only the initial residual");
}

/// CG on the negated `poisson3d(8)` over 2 shards with no heartbeat (the
/// default), under the deadline.  A panic is caught and returned as its
/// message, so it is not read as a timeout.
fn sharded_cg_within_deadline(
    tweak: impl FnOnce(&mut ShardedRunConfig) + Send + 'static,
) -> Result<Result<(), ShardedError>, String> {
    within_deadline(move || {
        let a = poisson3d(8).negated();
        let b = Vector::filled(a.nrows(), 1.0);
        let mut cfg = ShardedRunConfig::new(2, SolverKind::Cg);
        cfg.reduce_block = 64;
        tweak(&mut cfg);
        catch_unwind(AssertUnwindSafe(|| try_run_sharded(&a, &b, &cfg).map(drop))).map_err(
            |payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            },
        )
    })
}

/// A disk whose writes panic: its shard dies in the middle of a commit.
#[derive(Debug)]
struct PanicOnWrite(MemBackend);

impl StorageBackend for PanicOnWrite {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.0.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.0.list_dir(dir)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.0.file_len(path)
    }
    fn read_prefix(&self, path: &Path, len: usize) -> io::Result<Vec<u8>> {
        self.0.read_prefix(path, len)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.0.read(path)
    }
    fn write_file(&self, _: &Path, _: &[&[u8]]) -> io::Result<()> {
        panic!("the disk died mid-commit")
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.0.fsync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.rename(from, to)
    }
    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.0.fsync_dir(dir)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.0.remove_file(path)
    }
}

/// Shard 1 panics writing its first segment while shard 0 waits for the
/// epoch vote: the panic reaches the caller instead of a hang.
#[test]
fn a_shard_panicking_mid_commit_ends_the_run() {
    let outcome = sharded_cg_within_deadline(|cfg| {
        cfg.checkpoint_interval = 5;
        cfg.ckpt_dir = Some(PathBuf::from("board-panic"));
        cfg.backend_factory = Some(Arc::new(|shard| -> Arc<dyn StorageBackend> {
            match shard {
                1 => Arc::new(PanicOnWrite(MemBackend::default())),
                _ => Arc::new(MemBackend::default()),
            }
        }));
    });
    let message = outcome.expect_err("the shard's panic is re-raised");
    assert!(message.starts_with("shard thread panicked"), "{message}");
}

/// Withholds shard 1's fourth halo message.
struct WithholdOnce;

impl CommInterposer for WithholdOnce {
    fn on_halo_send(&mut self, from: usize, _to: usize, seq: u64) -> CommAction {
        if from == 1 && seq == 3 {
            CommAction::Drop
        } else {
            CommAction::Deliver
        }
    }
}

/// A withheld message is a typed error for its reader, and the sender
/// waiting at the next crossing is released, with no heartbeat.
#[test]
fn a_withheld_message_ends_the_run_without_a_heartbeat() {
    let outcome = sharded_cg_within_deadline(|cfg| {
        cfg.interposer_factory = Some(Arc::new(|_| {
            Box::new(WithholdOnce) as Box<dyn CommInterposer>
        }));
    });
    assert_eq!(
        outcome,
        Ok(Err(ShardedError::Comm(CommError::Withheld {
            shard: 0,
            peer: 1
        })))
    );
}
