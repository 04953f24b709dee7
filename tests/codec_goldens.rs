//! Absolute goldens of what every checkpoint codec emits and returns: raw
//! IEEE-754, FPC+LZSS, SZ (anchor-only, delta-chained, adaptive bound) and
//! ZFP, driven through the public `CheckpointStrategy::encode_temporal_into`
//! into one reused `CheckpointBuffer` on every third iterate of the
//! block-Jacobi-preconditioned solves the benchmark runs, at 40³ (one SZ
//! block) and 48³ (two).  Per checkpoint the payload bytes of every
//! segment, the delta order returned, `original_bytes` and the solution a
//! second solver of the same system holds after `recover_chain` are folded
//! into the pinned values, so a change that moves one payload byte or one
//! recovered bit of any codec fails here.
//!
//! CI runs this file at `LCR_NUM_THREADS=1` and `=4`.

use lossy_ckpt::ckpt::CheckpointBuffer;
use lossy_ckpt::compress::{DeltaMode, ErrorBound};
use lossy_ckpt::core::strategy::{CheckpointStrategy, ErrorBoundPolicy, LossyCodecKind};
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::core::TemporalEncodingSelector;
use lossy_ckpt::solvers::SolverKind;

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// What one strategy did over one solve: the checkpoints taken, the delta
/// order of each (`A` for a self-contained anchor), `original_bytes` of
/// each, and the FNV folds — in checkpoint order — of every segment's
/// `(name, payload bytes)` and of the recovered solution's bits.
type Series = (usize, String, usize, u64, u64);

/// Steps the `kind` solver of the `edge`³ Poisson workload to convergence
/// and checkpoints every third iterate under each of `strategies`.
fn series(
    edge: usize,
    kind: SolverKind,
    strategies: &[(CheckpointStrategy, TemporalEncodingSelector)],
) -> Vec<Series> {
    let workload = PaperWorkload::poisson(256, edge);
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, kind, 10_000);
    let mut buffer = CheckpointBuffer::new();
    let mut runs: Vec<_> = strategies
        .iter()
        .map(|(strategy, selector)| {
            let target = workload.build_solver(&problem, kind, 10_000);
            let chain: Vec<Vec<(String, Vec<u8>)>> = Vec::new();
            let series: Series = (0, String::new(), 0, FNV_SEED, FNV_SEED);
            (strategy, selector.clone(), target, chain, series)
        })
        .collect();
    while !solver.converged() {
        solver.step();
        if !solver.iteration().is_multiple_of(3) {
            continue;
        }
        for (strategy, selector, target, chain, series) in &mut runs {
            let at = format!("{} at {edge}^3, iteration {}", strategy.name(), solver.iteration());
            let (meta, delta) = strategy
                .encode_temporal_into(solver.as_ref(), &mut buffer, selector)
                .expect(&at);
            for (name, payload) in buffer.segments() {
                series.3 = fnv(fnv(series.3, name.as_bytes()), payload);
            }
            if delta.is_none() {
                chain.clear();
            }
            chain.push(buffer.to_payloads());
            strategy
                .recover_chain(target.as_mut(), chain, meta.iteration, &meta.scalars)
                .expect(&at);
            for v in target.solution().as_slice() {
                series.4 = fnv(series.4, &v.to_bits().to_le_bytes());
            }
            series.0 += 1;
            series.1.push(delta.map_or('A', |order| char::from(b'0' + order)));
            assert!(series.0 == 1 || series.2 == meta.original_bytes, "{at}");
            series.2 = meta.original_bytes;
        }
    }
    runs.into_iter().map(|run| run.4).collect()
}

fn anchors_only(strategy: CheckpointStrategy) -> (CheckpointStrategy, TemporalEncodingSelector) {
    (strategy, TemporalEncodingSelector::default())
}

/// Compares every series of one solve at once, so a failure prints the
/// whole observed table.
fn assert_pinned(what: &str, got: &[Series], golden: &[(usize, &str, usize, u64, u64)]) {
    let got: Vec<_> = got
        .iter()
        .map(|(n, modes, original, payloads, solutions)| {
            (*n, modes.as_str(), *original, *payloads, *solutions)
        })
        .collect();
    assert_eq!(got, golden, "{what}: {got:#x?}");
}

/// Traditional, lossless, SZ anchor-only, SZ delta-chained (an anchor
/// forced every fourth checkpoint, order 2 allowed) and ZFP over one CG
/// solve.
fn cg_series(edge: usize) -> Vec<Series> {
    series(
        edge,
        SolverKind::Cg,
        &[
            anchors_only(CheckpointStrategy::Traditional),
            anchors_only(CheckpointStrategy::Lossless),
            anchors_only(CheckpointStrategy::lossy_default()),
            (
                CheckpointStrategy::lossy_default(),
                TemporalEncodingSelector::new(4, DeltaMode::Order2),
            ),
            anchors_only(CheckpointStrategy::Lossy {
                codec: LossyCodecKind::Zfp,
                policy: ErrorBoundPolicy::Fixed(ErrorBound::Abs(1e-6)),
            }),
        ],
    )
}

/// SZ under Theorem 3's adaptive bound over one GMRES(30) solve.
fn gmres_series(edge: usize) -> Vec<Series> {
    series(
        edge,
        SolverKind::Gmres,
        &[anchors_only(CheckpointStrategy::lossy_gmres())],
    )
}

/// The six series of one grid size, in the order the goldens list them.
fn all_series(edge: usize) -> Vec<Series> {
    let mut all = cg_series(edge);
    all.extend(gmres_series(edge));
    all
}

const WHAT: &str = "trad, lossless, sz, sz delta, zfp on CG; sz adaptive on GMRES(30)";

#[test]
fn every_codec_is_pinned_on_one_sz_block() {
    assert_pinned(&format!("40^3: {WHAT}"), &all_series(40), &EDGE_40);
}

#[test]
fn every_codec_is_pinned_on_two_sz_blocks() {
    assert_pinned(&format!("48^3: {WHAT}"), &all_series(48), &EDGE_48);
}

const EDGE_40: [(usize, &str, usize, u64, u64); 6] = [
    (20, "AAAAAAAAAAAAAAAAAAAA", 1024000, 0x8fb35eb9e2927ae2, 0xeba9ae1d7ccc2450),
    (20, "AAAAAAAAAAAAAAAAAAAA", 1024000, 0x93e4c1962c20459a, 0xeba9ae1d7ccc2450),
    (20, "AAAAAAAAAAAAAAAAAAAA", 512000, 0x2db576036295e8e9, 0x3308606428d2fe2e),
    (20, "AAAAAAA1A111A111A111", 512000, 0xa7360dbef0fc1bf4, 0x3308606428d2fe2e),
    (20, "AAAAAAAAAAAAAAAAAAAA", 512000, 0x91623e72ac7c99cb, 0xf0e45d443a147c06),
    (13, "AAAAAAAAAAAAA", 512000, 0x955b911f5964df34, 0x577d5815e25fdc59),
];
const EDGE_48: [(usize, &str, usize, u64, u64); 6] = [
    (22, "AAAAAAAAAAAAAAAAAAAAAA", 1769472, 0xe8cee10ad1bdadf7, 0xb44fe6f80b528831),
    (22, "AAAAAAAAAAAAAAAAAAAAAA", 1769472, 0xa22fe4124a545dc8, 0xb44fe6f80b528831),
    (22, "AAAAAAAAAAAAAAAAAAAAAA", 884736, 0x1fb5762f3d8bbe56, 0x5e28659c20c602b9),
    (22, "A11AAAAAA111A111A111A1", 884736, 0x645e3ac3dd6b33fe, 0x5e28659c20c602b9),
    (22, "AAAAAAAAAAAAAAAAAAAAAA", 884736, 0xa46ab80d52cd2fb3, 0xf1c2c7a4360843a8),
    (14, "AAAAAAAAAAAAAA", 884736, 0x11ae22d18ca32397, 0x354722a780d82820),
];
