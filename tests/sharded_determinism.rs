//! Shard-count invariance of the sharded execution backend.
//!
//! The determinism contract of `lcr_sparse::shard` promises residual
//! traces and converged solutions **bit-identical across shard counts**
//! (for a fixed reduction-block size) and trivially independent of
//! `LCR_NUM_THREADS` (the shard loops never consult the pool — the shards
//! are the parallelism).  CI runs this file across a shard × thread
//! matrix; in-process we additionally sweep 1/2/4 shards and both thread
//! caps directly.

use lossy_ckpt::core::sharded::{try_run_sharded, KillSpec, ShardedReport, ShardedRunConfig};
use lossy_ckpt::solvers::SolverKind;
use lossy_ckpt::sparse::poisson::{manufactured_rhs, poisson2d, poisson3d};
use lossy_ckpt::sparse::{CommAction, CommInterposer, CsrMatrix, Vector};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// The paper's Poisson operator is negative definite; CG needs SPD.
fn spd_poisson(edge: usize) -> (CsrMatrix, Vector) {
    let a = poisson3d(edge).negated();
    let b = Vector::filled(a.nrows(), 1.0);
    (a, b)
}

/// A run with no injected fault has no typed error to hand back.
fn solve(a: &CsrMatrix, b: &Vector, cfg: &ShardedRunConfig) -> ShardedReport {
    try_run_sharded(a, b, cfg).expect("fault-free run")
}

fn assert_bit_identical(base: &ShardedReport, other: &ShardedReport, label: &str) {
    assert_eq!(other.iterations, base.iterations, "{label}: iterations");
    assert_eq!(other.converged, base.converged, "{label}: convergence");
    assert_eq!(
        other.residual_trace.len(),
        base.residual_trace.len(),
        "{label}: trace length"
    );
    for (k, (x, y)) in other
        .residual_trace
        .iter()
        .zip(&base.residual_trace)
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: trace entry {k}");
    }
    for (i, (x, y)) in other
        .solution
        .as_slice()
        .iter()
        .zip(base.solution.as_slice())
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: solution entry {i}");
    }
}

/// Order-sensitive bit fingerprint of a trace or a solution.
fn fingerprint(values: &[f64]) -> u64 {
    values
        .iter()
        .fold(0u64, |h, v| h.rotate_left(13) ^ v.to_bits())
}

/// The 24² / 12³ manufactured-solution systems: negated for CG (those of
/// `tests/fused_kernels.rs`), paper sign for GMRES(30).
fn golden_system(three_d: bool, negate: bool) -> (CsrMatrix, Vector) {
    let mut a = if three_d { poisson3d(12) } else { poisson2d(24) };
    if negate {
        a = a.negated();
    }
    let (_, b) = manufactured_rhs(&a);
    (a, b)
}

/// Absolute goldens of the sharded loops: iteration count and bit-exact
/// residual trace per method and system, identical at 1, 2 and 4 shards.
/// The shard-count comparisons below only pin the counts against each
/// other; these pin all of them against the recorded run.
#[test]
fn sharded_krylov_iterations_and_traces_are_pinned() {
    for (method, three_d, golden_iters, golden_fp) in [
        (SolverKind::Cg, false, 86usize, 0xbbcdd1b2cadc8ffcu64),
        (SolverKind::Cg, true, 55, 0x92700cb59ed23efa),
        (SolverKind::Gmres, false, 124, 0x55dba5a4eaed06a5),
        (SolverKind::Gmres, true, 67, 0xcaca7484acc6c837),
    ] {
        let (a, b) = golden_system(three_d, method == SolverKind::Cg);
        for shards in [1, 2, 4] {
            let mut cfg = ShardedRunConfig::new(shards, method);
            cfg.rtol = 1e-10;
            cfg.reduce_block = 64;
            let report = solve(&a, &b, &cfg);
            let label = format!("{} 3d={three_d} at {shards} shards", method.name());
            assert!(report.converged, "{label}");
            assert_eq!(report.iterations, golden_iters, "{label}: iterations");
            assert_eq!(
                fingerprint(&report.residual_trace),
                golden_fp,
                "{label}: residual trace"
            );
        }
    }
}

/// Absolute golden of one kill-and-recover run: the Krylov rebuild
/// iterations, the iteration count and the bits of the gathered solution
/// after shard 1 of 2 restores its slice from the lossy epoch at 10.
#[test]
fn sharded_kill_and_recover_run_is_pinned() {
    let (a, b) = golden_system(true, true);
    let dir = std::env::temp_dir().join(format!("lcr-shard-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ShardedRunConfig::new(2, SolverKind::Cg);
    cfg.rtol = 1e-10;
    cfg.reduce_block = 64;
    cfg.checkpoint_interval = 5;
    cfg.ckpt_dir = Some(dir.clone());
    cfg.kills = vec![KillSpec {
        shard: 1,
        at_iteration: 12,
    }];
    let report = try_run_sharded(&a, &b, &cfg).expect("kill-and-recover run");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.converged);
    assert_eq!(report.restart_iterations, vec![12]);
    assert_eq!(report.shards[1].resumed_from_iteration, Some(10));
    assert_eq!(report.iterations, 60);
    assert_eq!(fingerprint(&report.residual_trace), 0xddf19ae897cbfced);
    assert_eq!(fingerprint(report.solution.as_slice()), 0x300e48be1a24b020);
}

/// Delivers every halo message and logs `(from, to, seq)` as FNV-1a over
/// the three values' little-endian bytes.
struct Recorder(Arc<Mutex<u64>>);

impl CommInterposer for Recorder {
    fn on_halo_send(&mut self, from: usize, to: usize, seq: u64) -> CommAction {
        let mut h = self.0.lock().unwrap();
        for v in [from as u64, to as u64, seq] {
            for byte in v.to_le_bytes() {
                *h = (*h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        CommAction::Deliver
    }
}

/// The message schedule of three kill-and-recover runs, per shard:
/// `(halo_doubles_sent, reduce_rounds, rollbacks, halo_replays, FNV of
/// the interposer's (from, to, seq) log)`.  Chaos seeds and the
/// benchmark's per-iteration message and round counts name messages by
/// this schedule, so it must not move when the transport does.
#[test]
fn sharded_comm_schedule_is_pinned() {
    let cg = golden_system(true, true);
    let paper_sign = golden_system(true, false);
    for (label, method, (a, b), shards, killed, golden) in [
        (
            "cg/2",
            SolverKind::Cg,
            &cg,
            2,
            1,
            vec![
                (0x2250, 0x7b, 0, 1, 0x8c48493ff9ca68b8),
                (0x2250, 0x7b, 1, 0, 0xdbf43f7d7064ead8),
            ],
        ),
        (
            "cg/4",
            SolverKind::Cg,
            &cg,
            4,
            1,
            vec![
                (0x2250, 0x7b, 0, 1, 0x8c48493ff9ca68b8),
                (0x44a0, 0x7b, 1, 0, 0x4b2b6bf0ab66f766),
                (0x44a0, 0x7b, 0, 1, 0x0d43f915621ea1e6),
                (0x2250, 0x7b, 0, 1, 0x90d787fab9dbce98),
            ],
        ),
        (
            "gmres/3",
            SolverKind::Gmres,
            &paper_sign,
            3,
            2,
            vec![
                (0x2b50, 0x43f, 0, 1, 0x654facbffe332288),
                (0x56a0, 0x43f, 0, 1, 0xc377dfd79c009ce6),
                (0x2b50, 0x43f, 1, 0, 0x54e8ca07dfdc474a),
            ],
        ),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "lcr-shard-schedule-{}-{}",
            label.replace('/', "-"),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let logs: Vec<Arc<Mutex<u64>>> = (0..shards)
            .map(|_| Arc::new(Mutex::new(0xcbf2_9ce4_8422_2325)))
            .collect();
        let mut cfg = ShardedRunConfig::new(shards, method);
        cfg.rtol = 1e-10;
        cfg.reduce_block = 64;
        cfg.checkpoint_interval = 5;
        cfg.ckpt_dir = Some(dir.clone());
        cfg.kills = vec![KillSpec {
            shard: killed,
            at_iteration: 12,
        }];
        let factory_logs = logs.clone();
        cfg.interposer_factory = Some(Arc::new(move |shard| {
            Box::new(Recorder(Arc::clone(&factory_logs[shard]))) as Box<dyn CommInterposer>
        }));
        let report = try_run_sharded(a, b, &cfg).expect("kill-and-recover run");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(report.converged, "{label}");
        let schedule: Vec<(u64, u64, usize, usize, u64)> = report
            .shards
            .iter()
            .zip(&logs)
            .map(|(s, log)| {
                (
                    s.halo_doubles_sent,
                    s.reduce_rounds,
                    s.rollbacks,
                    s.halo_replays,
                    *log.lock().unwrap(),
                )
            })
            .collect();
        assert_eq!(schedule, golden, "{label}");
    }
}

/// The acceptance benchmark: sharded CG on the 64³ Poisson system produces
/// a bit-identical residual trace at 1, 2 and 4 shards (default
/// reduction-block size), at any thread-pool cap.
#[test]
fn cg_64cube_trace_bit_identical_at_1_2_4_shards() {
    let (a, b) = spd_poisson(64);
    let run = |shards: usize| {
        let mut cfg = ShardedRunConfig::new(shards, SolverKind::Cg);
        // Capped: the contract is about the trace, not convergence.
        cfg.max_iterations = 30;
        cfg.rtol = 1e-30;
        solve(&a, &b, &cfg)
    };
    let base = run(1);
    assert_eq!(base.iterations, 30);
    for shards in [2, 4] {
        let report = run(shards);
        assert_bit_identical(&base, &report, &format!("{shards} shards"));
        // Multi-shard runs really exchanged halos.
        let doubles: u64 = report.shards.iter().map(|s| s.halo_doubles_sent).sum();
        assert!(doubles > 0, "{shards} shards exchanged no halo data");
    }
}

/// Thread-count invariance, in-process: the same sharded run under a
/// 1-thread and a 4-thread kernel pool cap yields the same bits.
#[test]
fn sharded_traces_ignore_thread_pool_cap() {
    let (a, b) = spd_poisson(16);
    let mut cfg = ShardedRunConfig::new(3, SolverKind::Cg);
    cfg.max_iterations = 25;
    cfg.rtol = 1e-30;
    cfg.reduce_block = 256;
    let run_with_cap = |cap: usize| {
        let prev = rayon::max_active_threads();
        rayon::set_max_active_threads(cap);
        let report = solve(&a, &b, &cfg);
        rayon::set_max_active_threads(prev);
        report
    };
    let one = run_with_cap(1);
    let four = run_with_cap(4);
    assert_bit_identical(&one, &four, "thread cap 4");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// CG and GMRES(30) shard-count invariance on small random-shaped
    /// grids: any shard count (including shards > blocks, leaving some
    /// shards empty) reproduces the single-shard bits for a fixed
    /// reduction-block size.  GMRES runs past its first restart.
    #[test]
    fn krylov_traces_are_shard_count_invariant(
        edge in 4usize..8,
        shards in 2usize..6,
        block_pow in 3u32..6,
        which in 0usize..2,
    ) {
        let block = 1usize << block_pow;
        let method = [SolverKind::Cg, SolverKind::Gmres][which];
        let (a, b) = if method == SolverKind::Cg {
            spd_poisson(edge)
        } else {
            let a = poisson3d(edge);
            let b = Vector::filled(a.nrows(), 1.0);
            (a, b)
        };
        let run = |s: usize| {
            let mut cfg = ShardedRunConfig::new(s, method);
            cfg.max_iterations = if method == SolverKind::Gmres { 40 } else { 20 };
            cfg.rtol = 1e-30;
            cfg.reduce_block = block;
            solve(&a, &b, &cfg)
        };
        let base = run(1);
        let other = run(shards);
        prop_assert_eq!(other.iterations, base.iterations);
        for (x, y) in other.residual_trace.iter().zip(&base.residual_trace) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in other.solution.as_slice().iter().zip(base.solution.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Jacobi too: the stationary loop shares the same halo/reduction
    /// plumbing and must obey the same contract.
    #[test]
    fn jacobi_traces_are_shard_count_invariant(
        edge in 4usize..7,
        shards in 2usize..5,
    ) {
        let a = poisson3d(edge);
        let b = Vector::filled(a.nrows(), 1.0);
        let run = |s: usize| {
            let mut cfg = ShardedRunConfig::new(s, SolverKind::Jacobi);
            cfg.max_iterations = 15;
            cfg.rtol = 1e-30;
            cfg.reduce_block = 16;
            solve(&a, &b, &cfg)
        };
        let base = run(1);
        let other = run(shards);
        for (x, y) in other.residual_trace.iter().zip(&base.residual_trace) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
