//! Breakdown must end a solve, not spin it.
//!
//! On `A = diag(1, −1)`, `b = (1, 1)` the first CG direction has
//! `pᵀAp = 0` and the first BiCGStab direction has `r̂ᵀv = 0`.  The
//! breakdown restart rebuilds exactly the state that broke down, so a
//! second restart can change nothing: the solve must stop there,
//! unconverged and flagged, on the local space and on a sharded run alike.
//! Each solve runs on its own thread under a deadline so that a livelock
//! fails the test instead of hanging it.

use lossy_ckpt::core::sharded::{try_run_sharded, ShardedRunConfig};
use lossy_ckpt::solvers::{
    BiCgStab, ConjugateGradient, IterativeMethod, LinearSystem, ShardedMethod, StoppingCriteria,
};
use lossy_ckpt::sparse::{CsrMatrix, Vector};
use std::sync::mpsc;
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
fn local_bicgstab_breakdown_ends_the_solve() {
    within_deadline(|| {
        let (a, b) = indefinite();
        let mut solver = BiCgStab::unpreconditioned(
            LinearSystem::new(a, b),
            Vector::zeros(2),
            StoppingCriteria::new(1e-8, 10_000),
        );
        solver.run_to_convergence();
        assert_stopped_unconverged(&solver);
    });
}

fn sharded_breakdown_ends_the_run(method: ShardedMethod) {
    let report = within_deadline(move || {
        let (a, b) = indefinite();
        let mut cfg = ShardedRunConfig::new(2, method);
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

#[test]
fn sharded_cg_breakdown_ends_the_run() {
    sharded_breakdown_ends_the_run(ShardedMethod::Cg);
}

#[test]
fn sharded_bicgstab_breakdown_ends_the_run() {
    sharded_breakdown_ends_the_run(ShardedMethod::BiCgStab);
}
