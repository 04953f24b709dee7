//! End-to-end crash-recovery: a run writing durable checkpoints is killed
//! mid-stream, then a *fresh* `FaultTolerantRunner` (a stand-in for a new
//! process) reopens the directory, validates CRCs, resumes from the newest
//! *complete* checkpoint and drives the solver to convergence.  An
//! interrupted (partially written) or CRC-corrupt checkpoint must never be
//! selected.
//!
//! CI runs this file at `LCR_NUM_THREADS=1` and `=4`; the deterministic
//! kernels make every assertion thread-count independent.

use lossy_ckpt::ckpt::{CheckpointBuffer, ClusterConfig, DiskStore, PfsModel};
use lossy_ckpt::core::runner::{FaultTolerantRunner, Persistence, RunConfig, RunReport};
use lossy_ckpt::core::strategy::CheckpointStrategy;
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::solvers::SolverKind;
use std::fs;
use std::path::{Path, PathBuf};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcr-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(
    strategy: CheckpointStrategy,
    dir: &Path,
    write_behind: bool,
    max_executed_iterations: usize,
) -> RunConfig {
    let mut cfg = RunConfig::baseline(ClusterConfig::bebop_like(256, 0.5), PfsModel::bebop_like());
    cfg.strategy = strategy;
    cfg.checkpoint_interval_iterations = 10;
    cfg.max_executed_iterations = max_executed_iterations;
    cfg.persistence = if write_behind {
        Persistence::disk_write_behind(dir)
    } else {
        Persistence::disk(dir)
    };
    cfg
}

/// Phase 1 of every scenario: run with durable checkpoints but stop the
/// process (`max_executed_iterations` cap) mid-run, like a crash between
/// two checkpoints.  Returns the interrupted run's report.
fn crashed_run(
    workload: &PaperWorkload,
    strategy: CheckpointStrategy,
    dir: &Path,
    write_behind: bool,
    cap: usize,
) -> RunReport {
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, SolverKind::Jacobi, 200_000);
    let report = FaultTolerantRunner::new(config(strategy, dir, write_behind, cap))
        .run(solver.as_mut(), &problem);
    assert!(
        report.resumed_from_iteration.is_none(),
        "phase 1 starts from scratch"
    );
    assert!(report.checkpoints_taken >= 2, "need checkpoints on disk");
    report
}

fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("checkpoint directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "lcr"))
        .collect();
    files.sort();
    files
}

#[test]
fn fresh_runner_resumes_from_newest_complete_checkpoint() {
    let workload = PaperWorkload::poisson(256, 8);
    let problem = workload.build();
    let dir = tempdir("resume");

    // Reference: the same workload run to convergence without any crash.
    let mut reference = workload.build_solver(&problem, SolverKind::Jacobi, 200_000);
    reference.run_to_convergence();
    let reference_iters = reference.iteration();

    // Phase 1: killed after 35 iterations — checkpoints at 10, 20, 30
    // written, retention keeps the newest two (20, 30).
    crashed_run(&workload, CheckpointStrategy::Traditional, &dir, false, 35);
    assert_eq!(checkpoint_files(&dir).len(), 2, "retention prunes to 2");

    // Simulate a crash *mid-write* of the next checkpoint: a partial file
    // (truncated copy of the newest) under a newer id.  FTI atomicity says
    // it must never be picked.
    let newest = checkpoint_files(&dir).pop().unwrap();
    let bytes = fs::read(&newest).unwrap();
    fs::write(dir.join("ckpt-4000000000.lcr"), &bytes[..bytes.len() / 2]).unwrap();

    // Phase 2: a fresh runner + fresh solver over the same directory.
    let mut solver = workload.build_solver(&problem, SolverKind::Jacobi, 200_000);
    let report = FaultTolerantRunner::new(config(
        CheckpointStrategy::Traditional,
        &dir,
        false,
        500_000,
    ))
    .run(solver.as_mut(), &problem);

    assert_eq!(
        report.resumed_from_iteration,
        Some(30),
        "must resume from the newest complete checkpoint, not the partial one"
    );
    assert!(!report.hit_iteration_limit);
    assert!(solver.converged());
    // Traditional checkpoints restore the full dynamic state exactly, so
    // the resumed run finishes at the uninterrupted iteration count and
    // only re-executes the post-checkpoint tail.
    assert_eq!(report.convergence_iterations, reference_iters);
    assert_eq!(report.executed_iterations, reference_iters - 30);
    // The resume read is charged to the simulated clock.
    assert!(report.recovery_seconds > 0.0);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crc_corrupt_newest_checkpoint_falls_back_to_older_one() {
    let workload = PaperWorkload::poisson(256, 8);
    let problem = workload.build();
    let dir = tempdir("crcfallback");
    crashed_run(&workload, CheckpointStrategy::Traditional, &dir, false, 35);

    // Bit-flip one payload byte of the newest (iteration-30) checkpoint.
    let newest = checkpoint_files(&dir).pop().unwrap();
    let mut bytes = fs::read(&newest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10;
    fs::write(&newest, &bytes).unwrap();

    let mut solver = workload.build_solver(&problem, SolverKind::Jacobi, 200_000);
    let report = FaultTolerantRunner::new(config(
        CheckpointStrategy::Traditional,
        &dir,
        false,
        500_000,
    ))
    .run(solver.as_mut(), &problem);
    assert_eq!(
        report.resumed_from_iteration,
        Some(20),
        "CRC validation must skip the bit-flipped newest checkpoint"
    );
    assert!(!report.hit_iteration_limit);
    assert!(solver.converged());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn write_behind_lossy_run_resumes_and_converges() {
    let workload = PaperWorkload::poisson(256, 8);
    let problem = workload.build();
    let dir = tempdir("writebehind");

    // Phase 1 with the background I/O thread: dropping the runner joins
    // the in-flight write, so the newest checkpoint is complete on disk.
    crashed_run(&workload, CheckpointStrategy::lossy_default(), &dir, true, 35);
    assert!(!checkpoint_files(&dir).is_empty());

    let mut solver = workload.build_solver(&problem, SolverKind::Jacobi, 200_000);
    let report = FaultTolerantRunner::new(config(
        CheckpointStrategy::lossy_default(),
        &dir,
        true,
        500_000,
    ))
    .run(solver.as_mut(), &problem);
    assert_eq!(report.resumed_from_iteration, Some(30));
    assert!(!report.hit_iteration_limit);
    assert!(solver.converged());
    // Lossy resume restarts from the (error-bounded) solution vector; the
    // restart is recorded in the solver history.
    assert_eq!(solver.history().restarts(), &[30]);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_strategy_tag_starts_fresh_but_still_converges() {
    let workload = PaperWorkload::poisson(256, 8);
    let problem = workload.build();
    let dir = tempdir("tagmismatch");
    crashed_run(&workload, CheckpointStrategy::Traditional, &dir, false, 35);

    // A lossy-strategy runner cannot decode traditional payload layouts;
    // the tag check refuses the resume and the run starts from scratch.
    let mut solver = workload.build_solver(&problem, SolverKind::Jacobi, 200_000);
    let report = FaultTolerantRunner::new(config(
        CheckpointStrategy::lossy_default(),
        &dir,
        false,
        500_000,
    ))
    .run(solver.as_mut(), &problem);
    assert_eq!(report.resumed_from_iteration, None);
    assert!(!report.hit_iteration_limit);
    assert!(solver.converged());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn all_checkpoints_corrupt_means_scratch_start() {
    let workload = PaperWorkload::poisson(256, 8);
    let problem = workload.build();
    let dir = tempdir("allcorrupt");
    crashed_run(&workload, CheckpointStrategy::Traditional, &dir, false, 35);

    for path in checkpoint_files(&dir) {
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
    }

    let mut solver = workload.build_solver(&problem, SolverKind::Jacobi, 200_000);
    let report = FaultTolerantRunner::new(config(
        CheckpointStrategy::Traditional,
        &dir,
        false,
        500_000,
    ))
    .run(solver.as_mut(), &problem);
    assert_eq!(report.resumed_from_iteration, None);
    assert!(!report.hit_iteration_limit);
    assert!(solver.converged());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn undecodable_checkpoint_is_counted_as_a_failed_recovery() {
    let workload = PaperWorkload::poisson(256, 8);
    let problem = workload.build();
    let dir = tempdir("undecodable");
    let strategy = CheckpointStrategy::lossy_default();

    // Plant a checkpoint the store accepts (valid header, valid CRCs, the
    // strategy's own tag) whose `x` payload is not an SZ stream.
    {
        let mut buffer = CheckpointBuffer::new();
        buffer.push_with("x", |out| {
            out.extend_from_slice(&(problem.system.dim() as u64).to_le_bytes());
            out.extend_from_slice(&[0xAB; 64]);
        });
        let mut store = DiskStore::open(&dir, 2).unwrap();
        store
            .push_from_buffer(
                30,
                0.0,
                problem.system.dim() * 8,
                strategy.name(),
                &[],
                &mut buffer,
            )
            .unwrap();
    }

    let mut solver = workload.build_solver(&problem, SolverKind::Jacobi, 200_000);
    let report = FaultTolerantRunner::new(config(strategy, &dir, false, 500_000))
        .run(solver.as_mut(), &problem);
    assert_eq!(report.failed_recoveries, 1, "the decode failure is reported");
    assert_eq!(report.resumed_from_iteration, None);
    assert!(!report.hit_iteration_limit);
    assert!(solver.converged());

    let _ = fs::remove_dir_all(&dir);
}

/// The dynamic state of 64³ Poisson CG + block-Jacobi after 60 iterations
/// holds a repeat at distance exactly 65536 — one past the largest offset
/// the LZSS stage can write — so it pins the match-window bound end to end.
#[test]
fn lossless_checkpoint_of_64cubed_cg_at_iteration_60_roundtrips() {
    let workload = PaperWorkload::poisson(1, 64);
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, SolverKind::Cg, 200_000);
    for _ in 0..60 {
        solver.step();
    }
    let strategy = CheckpointStrategy::lossless_default();
    let encoded = strategy.encode(solver.as_ref()).unwrap();

    let mut restored = workload.build_solver(&problem, SolverKind::Cg, 200_000);
    strategy
        .recover(restored.as_mut(), &encoded.payloads, encoded.iteration, &encoded.scalars)
        .expect("a lossless checkpoint must decode");
    assert_eq!(restored.iteration(), 60);
    let (a, b) = (solver.solution(), restored.solution());
    assert!(a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits()));
}
