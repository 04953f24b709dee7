//! Sharded execution walkthrough: real domain-decomposed CG with halo
//! exchange, per-shard lossy checkpoints under a coordinated epoch commit,
//! and per-shard crash recovery.
//!
//! The global Poisson system is carved into `LCR_SHARDS` shards (default
//! 4) running concurrently in-process.  Every 5 iterations each shard
//! SZ-compresses its local solution slice into its own on-disk store; the
//! epoch commits only when *all* shard segments land.  Mid-run one shard
//! is fail-stopped: it reloads its slice from the newest committed epoch
//! while the survivors keep their in-memory state, and the run converges.
//!
//! ```bash
//! cargo run --release --example sharded_poisson
//! LCR_SHARDS=2 cargo run --release --example sharded_poisson
//! ```

use lossy_ckpt::core::sharded::{try_run_sharded, KillSpec, ShardedError, ShardedRunConfig};
use lossy_ckpt::solvers::SolverKind;
use lossy_ckpt::sparse::poisson::poisson3d;
use lossy_ckpt::sparse::Vector;

fn main() -> Result<(), ShardedError> {
    let shards: usize = std::env::var("LCR_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(4);
    let dir = std::env::temp_dir().join(format!("lcr-example-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 24³ Poisson; the paper's operator is negative definite, CG needs SPD.
    let a = poisson3d(24).negated();
    let b = Vector::filled(a.nrows(), 1.0);
    println!(
        "solving {} unknowns over {} shard(s), killing shard {} at iteration 12",
        a.nrows(),
        shards,
        1.min(shards - 1)
    );

    let mut cfg = ShardedRunConfig::new(shards, SolverKind::Cg);
    cfg.rtol = 1e-7;
    cfg.checkpoint_interval = 5;
    cfg.reduce_block = 512; // 27 reduction blocks: every shard owns some
    cfg.ckpt_dir = Some(dir.clone());
    cfg.kills = vec![KillSpec {
        shard: 1.min(shards - 1),
        at_iteration: 12,
    }];
    let report = try_run_sharded(&a, &b, &cfg)?;

    println!(
        "converged: {} after {} iterations ({} committed epoch(s), wall {:.1} ms)",
        report.converged,
        report.iterations,
        report.committed_epochs.len(),
        report.wall_seconds * 1e3
    );
    if let Some(epoch) = report.committed_epochs.last() {
        let mb: Vec<String> = epoch
            .shard_bytes
            .iter()
            .map(|&bytes| format!("{:.1}", bytes as f64 / 1e3))
            .collect();
        println!(
            "last epoch (iteration {}): per-shard segments [{}] kB",
            epoch.iteration,
            mb.join(", ")
        );
    }
    for stats in &report.shards {
        println!(
            "shard {}: {} rows, rollbacks {}, halo replays {}, resumed from {:?}, \
             {} halo doubles sent, {} checkpoints",
            stats.shard,
            stats.rows,
            stats.rollbacks,
            stats.halo_replays,
            stats.resumed_from_iteration,
            stats.halo_doubles_sent,
            stats.checkpoints_written
        );
    }

    // The recovery-isolation contract, asserted so CI can smoke-run this
    // example: only the failed shard rolled back.
    let victim = 1.min(shards - 1);
    for stats in &report.shards {
        if stats.shard == victim {
            assert_eq!(stats.rollbacks, 1, "failed shard rolls back once");
        } else {
            assert_eq!(stats.rollbacks, 0, "survivors must not roll back");
        }
    }
    assert!(report.converged, "run must converge after recovery");
    println!("OK: only shard {victim} rolled back; survivors kept their state");

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
