//! Crash-recovery walkthrough: durable on-disk checkpoints surviving a
//! process death.
//!
//! Phase 1 runs a Jacobi solve with the durable tier enabled and "crashes"
//! mid-run (iteration cap).  Phase 2 tampers with the newest checkpoint
//! the way a real crash mid-write would (truncated file under a newer id)
//! and then starts a completely fresh runner over the same directory: it
//! validates CRCs, skips the partial file, resumes from the newest
//! *complete* checkpoint and converges.
//!
//! ```bash
//! cargo run --release --example crash_recovery
//! ```

use lossy_ckpt::ckpt::{ClusterConfig, PfsModel};
use lossy_ckpt::core::runner::{FaultTolerantRunner, Persistence, RunConfig};
use lossy_ckpt::core::strategy::CheckpointStrategy;
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::solvers::SolverKind;
use std::path::{Path, PathBuf};

fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    files.retain(|p| p.extension().is_some_and(|e| e == "lcr"));
    files.sort();
    files
}

fn main() {
    let dir = std::env::temp_dir().join(format!("lcr-example-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = |max_executed_iterations| {
        let mut config =
            RunConfig::baseline(ClusterConfig::bebop_like(256, 0.5), PfsModel::bebop_like());
        config.strategy = CheckpointStrategy::Traditional;
        config.checkpoint_interval_iterations = 10;
        config.max_executed_iterations = max_executed_iterations;
        // Write-behind: checkpoint files are written by a background I/O
        // thread while the solver keeps iterating.
        config.persistence = Persistence::disk_write_behind(&dir);
        config
    };

    let workload = PaperWorkload::poisson(256, 8);
    let problem = workload.build();

    // --- phase 1: run with durable checkpoints, die mid-run ---------------
    let mut solver = workload.build_solver(&problem, SolverKind::Jacobi, 200_000);
    let report = FaultTolerantRunner::new(config(35)).run(solver.as_mut(), &problem);
    println!(
        "phase 1: executed {} iterations, wrote {} durable checkpoint(s), then \"crashed\"",
        report.executed_iterations, report.checkpoints_taken
    );
    for file in checkpoint_files(&dir) {
        println!("  on disk: {}", file.display());
    }

    // --- simulate a crash mid-write of the *next* checkpoint --------------
    if let Some(newest) = checkpoint_files(&dir).pop() {
        let bytes = std::fs::read(&newest).expect("read newest checkpoint");
        let partial = dir.join("ckpt-4000000000.lcr");
        std::fs::write(&partial, &bytes[..bytes.len() / 2]).expect("write partial file");
        println!(
            "planted a half-written checkpoint ({} of {} bytes): {}",
            bytes.len() / 2,
            bytes.len(),
            partial.display()
        );
    }

    // --- phase 2: a fresh runner + fresh solver over the same directory ---
    let mut fresh = workload.build_solver(&problem, SolverKind::Jacobi, 200_000);
    let report = FaultTolerantRunner::new(config(500_000)).run(fresh.as_mut(), &problem);
    match report.resumed_from_iteration {
        Some(it) => println!(
            "phase 2: resumed from the newest COMPLETE checkpoint (iteration {it}), \
             skipped the partial file"
        ),
        None => println!("phase 2: no valid checkpoint found, started from scratch"),
    }
    println!(
        "phase 2: converged after {} total iterations ({} executed in this process), \
         recovery read cost {:.1} simulated s",
        report.convergence_iterations, report.executed_iterations, report.recovery_seconds
    );

    let _ = std::fs::remove_dir_all(&dir);
}
