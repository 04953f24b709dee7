//! Delta-encoded checkpoint streams end to end: anchored delta chains
//! through the SZ temporal codec, the checkpoint store and the durable
//! disk tier.
//!
//! Three demonstrations on the paper's Poisson/CG workload:
//!
//! 1. **Anchor-interval sweep** — the same lossy-checkpointed solve at
//!    several `anchor_interval_snapshots` settings, showing how longer
//!    chains trade payload bytes against chain length.
//! 2. **Payload-size trace** — the per-checkpoint byte sizes of one run
//!    (`RunReport::checkpoint_bytes_trace`), where deltas undercut the
//!    anchors they hang off.
//! 3. **Mid-chain crash recovery** — a run with durable checkpoints stops
//!    mid-solve with an anchor + deltas on disk; a completely fresh
//!    runner replays the chain from its anchor and converges.
//!
//! ```bash
//! cargo run --release --example delta_checkpoint
//! ```

use lossy_ckpt::ckpt::{ClusterConfig, PfsModel};
use lossy_ckpt::core::runner::{FaultTolerantRunner, Persistence, RunConfig};
use lossy_ckpt::core::strategy::CheckpointStrategy;
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::solvers::SolverKind;

fn main() {
    let config = |anchor_interval_snapshots| {
        let mut config =
            RunConfig::baseline(ClusterConfig::bebop_like(256, 0.5), PfsModel::bebop_like());
        config.strategy = CheckpointStrategy::lossy_default();
        config.checkpoint_interval_iterations = 2;
        config.anchor_interval_snapshots = anchor_interval_snapshots;
        config.max_executed_iterations = 500_000;
        config
    };
    let workload = PaperWorkload::poisson(256, 8);
    let problem = workload.build();

    // --- 1: anchor-interval sweep -----------------------------------------
    println!("anchor-interval sweep (CG, lossy checkpoints every 2 iterations):");
    println!("  interval  ckpts  anchors  deltas  mean MB  mean ratio");
    for interval in [0usize, 2, 4, 8] {
        let mut solver = workload.build_solver(&problem, SolverKind::Cg, 200_000);
        let report =
            FaultTolerantRunner::new(config(interval)).run(solver.as_mut(), &problem);
        println!(
            "  {:>8}  {:>5}  {:>7}  {:>6}  {:>7.1}  {:>9.1}x",
            if interval == 0 {
                "anchors".to_string()
            } else {
                interval.to_string()
            },
            report.checkpoints_taken,
            report.anchor_checkpoints,
            report.delta_checkpoints,
            report.mean_checkpoint_bytes / 1e6,
            report.mean_compression_ratio,
        );
    }

    // --- 2: payload-size trace --------------------------------------------
    let mut solver = workload.build_solver(&problem, SolverKind::Cg, 200_000);
    let report = FaultTolerantRunner::new(config(4)).run(solver.as_mut(), &problem);
    println!(
        "\npayload-size trace at anchor interval 4 ({} anchors, {} deltas; the \
         encoder keeps a delta only when it beats direct coding):",
        report.anchor_checkpoints, report.delta_checkpoints
    );
    let anchor0 = report.checkpoint_bytes_trace.first().copied().unwrap_or(0);
    for (i, bytes) in report.checkpoint_bytes_trace.iter().enumerate() {
        println!(
            "  checkpoint {:>2}: {:>7.1} MB{}",
            i,
            *bytes as f64 / 1e6,
            if *bytes < anchor0 { "  (undercuts the first anchor)" } else { "" }
        );
    }

    // --- 3: mid-chain crash recovery from the durable tier ----------------
    let dir = std::env::temp_dir().join(format!("lcr-example-delta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut cfg = config(4);
    cfg.persistence = Persistence::disk(&dir);
    // Die late enough that the chain has settled into delta coding: at
    // this scale the early snapshots still anchor (the encoder only keeps
    // a delta when it wins), so crash after checkpoint 6 of the trace.
    cfg.max_executed_iterations = 15;
    let mut s1 = workload.build_solver(&problem, SolverKind::Cg, 200_000);
    let phase1 = FaultTolerantRunner::new(cfg.clone()).run(s1.as_mut(), &problem);
    println!(
        "\ncrash phase: executed {} iterations, left {} checkpoint(s) on disk \
         ({} anchor(s) + {} delta(s)), then \"crashed\" mid-chain",
        phase1.executed_iterations,
        phase1.checkpoints_taken,
        phase1.anchor_checkpoints,
        phase1.delta_checkpoints
    );
    assert!(
        phase1.delta_checkpoints > 0,
        "the crash phase must leave a delta chain behind"
    );

    cfg.max_executed_iterations = 500_000;
    let mut s2 = workload.build_solver(&problem, SolverKind::Cg, 200_000);
    let phase2 = FaultTolerantRunner::new(cfg).run(s2.as_mut(), &problem);
    let resumed = phase2
        .resumed_from_iteration
        .expect("the fresh runner must resume from the disk chain");
    println!(
        "recovery phase: fresh runner replayed the newest chain (anchor + deltas) \
         back to iteration {resumed}, then converged after {} total iterations \
         ({} executed in this process)",
        phase2.convergence_iterations, phase2.executed_iterations
    );

    let _ = std::fs::remove_dir_all(&dir);
}
