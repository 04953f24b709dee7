//! Absolute goldens of what every checkpoint codec emits and returns: raw
//! IEEE-754, FPC+LZSS, SZ (fixed and adaptive bound) and ZFP, driven
//! through the public `CheckpointStrategy::encode` on every third iterate
//! of the block-Jacobi-preconditioned solves the benchmark runs, at 40³
//! (one SZ block) and 48³ (two).  Per checkpoint the payload bytes of every
//! segment, `original_bytes` and the solution a second solver of the same
//! system holds after `recover` are folded into the pinned values, so a
//! change that moves one payload byte or one recovered bit of any codec
//! fails here.
//!
//! CI runs this file at `LCR_NUM_THREADS=1` and `=4`.

use lossy_ckpt::compress::ErrorBound;
use lossy_ckpt::core::strategy::{CheckpointStrategy, ErrorBoundPolicy, LossyCodecKind};
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::solvers::SolverKind;

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// What one strategy did over one solve: the checkpoints taken,
/// `original_bytes` of each, and the FNV folds — in checkpoint order — of
/// every segment's `(name, payload bytes)` and of the recovered solution's
/// bits.
type Series = (usize, usize, u64, u64);

/// Steps the `kind` solver of the `edge`³ Poisson workload to convergence
/// and checkpoints every third iterate under each of `strategies`.
fn series(edge: usize, kind: SolverKind, strategies: &[CheckpointStrategy]) -> Vec<Series> {
    let workload = PaperWorkload::poisson(256, edge);
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, kind, 10_000);
    let mut runs: Vec<_> = strategies
        .iter()
        .map(|strategy| {
            let target = workload.build_solver(&problem, kind, 10_000);
            (strategy, target, (0, 0, FNV_SEED, FNV_SEED))
        })
        .collect();
    while !solver.converged() {
        solver.step();
        if !solver.iteration().is_multiple_of(3) {
            continue;
        }
        for (strategy, target, series) in &mut runs {
            let at = format!("{} at {edge}^3, iteration {}", strategy.name(), solver.iteration());
            let encoded = strategy.encode(solver.as_ref()).expect(&at);
            for (name, payload) in &encoded.payloads {
                series.2 = fnv(fnv(series.2, name.as_bytes()), payload);
            }
            strategy
                .recover(target.as_mut(), &encoded.payloads, encoded.iteration, &encoded.scalars)
                .expect(&at);
            for v in target.solution().as_slice() {
                series.3 = fnv(series.3, &v.to_bits().to_le_bytes());
            }
            series.0 += 1;
            assert!(series.0 == 1 || series.1 == encoded.original_bytes, "{at}");
            series.1 = encoded.original_bytes;
        }
    }
    runs.into_iter().map(|run| run.2).collect()
}

/// Compares every series of one solve at once, so a failure prints the
/// whole observed table.
fn assert_pinned(what: &str, got: &[Series], golden: &[Series]) {
    assert_eq!(got, golden, "{what}: {got:#x?}");
}

/// Traditional, lossless, SZ and ZFP over one CG solve, then SZ under
/// Theorem 3's adaptive bound over one GMRES(30) solve.
fn all_series(edge: usize) -> Vec<Series> {
    let mut all = series(
        edge,
        SolverKind::Cg,
        &[
            CheckpointStrategy::Traditional,
            CheckpointStrategy::Lossless,
            CheckpointStrategy::lossy_default(),
            CheckpointStrategy::Lossy {
                codec: LossyCodecKind::Zfp,
                policy: ErrorBoundPolicy::Fixed(ErrorBound::Abs(1e-6)),
            },
        ],
    );
    all.extend(series(edge, SolverKind::Gmres, &[CheckpointStrategy::lossy_gmres()]));
    all
}

const WHAT: &str = "trad, lossless, sz, zfp on CG; sz adaptive on GMRES(30)";

#[test]
fn every_codec_is_pinned_on_one_sz_block() {
    assert_pinned(&format!("40^3: {WHAT}"), &all_series(40), &EDGE_40);
}

#[test]
fn every_codec_is_pinned_on_two_sz_blocks() {
    assert_pinned(&format!("48^3: {WHAT}"), &all_series(48), &EDGE_48);
}

const EDGE_40: [Series; 5] = [
    (20, 1024000, 0x8fb35eb9e2927ae2, 0xeba9ae1d7ccc2450),
    (20, 1024000, 0x93e4c1962c20459a, 0xeba9ae1d7ccc2450),
    (20, 512000, 0x8c2985d24259a27f, 0x3308606428d2fe2e),
    (20, 512000, 0x91623e72ac7c99cb, 0xf0e45d443a147c06),
    (13, 512000, 0x3752a7fbb55e88d2, 0x577d5815e25fdc59),
];
const EDGE_48: [Series; 5] = [
    (22, 1769472, 0xe8cee10ad1bdadf7, 0xb44fe6f80b528831),
    (22, 1769472, 0xa22fe4124a545dc8, 0xb44fe6f80b528831),
    (22, 884736, 0x8966ac4f7634cf74, 0x5e28659c20c602b9),
    (22, 884736, 0xa46ab80d52cd2fb3, 0xf1c2c7a4360843a8),
    (14, 884736, 0x39e49ea7448309f0, 0x354722a780d82820),
];
