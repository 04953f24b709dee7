//! Absolute goldens of what the SZ decoder returns, over the scripted
//! snapshot sequences of `scripts/mod.rs`: every snapshot of every script
//! is encoded into a stream of its own and decoded back, and the bits of
//! every decoded value are pinned.  Any change to the codec that moves one
//! bit of one restart fails here, at whatever pool size `LCR_NUM_THREADS`
//! sets (the CI matrix runs 1, 2, 3 and 4).

mod scripts;

use lcr_compress::{Codec, ErrorBound, SzCompressor};
use scripts::{cg_script, ensure_pool, linear_drift, synthetic_script, BOUNDS};

/// FNV-1a over the bits of `values`, a 64-bit word at a time, continuing
/// from `h`.
fn fnv(h: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .fold(h, |h, v| (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3))
}

/// Encodes every snapshot of `snapshots` on its own and returns one
/// fingerprint of everything the decoder returned, in snapshot order.
fn decode_fingerprint(snapshots: &[Vec<f64>], bound: ErrorBound) -> u64 {
    ensure_pool();
    let sz = SzCompressor::new();
    let mut fingerprint = 0xcbf2_9ce4_8422_2325;
    for (k, data) in snapshots.iter().enumerate() {
        let at = format!("{bound:?}, snapshot {k}");
        let decoded = sz
            .decompress(&sz.compress(data, bound).expect(&at))
            .expect(&at);
        assert_eq!(decoded.len(), data.len(), "{at}");
        fingerprint = fnv(fingerprint, &decoded);
    }
    fingerprint
}

/// Compares every case of one test at once, so a failure prints the whole
/// observed table.
fn assert_pinned(what: &str, got: &[u64], golden: &[u64]) {
    assert_eq!(got, golden, "{what}: {got:#018x?}");
}

#[test]
fn short_stream_decodes_are_pinned() {
    let mut got = Vec::new();
    for n in [0, 1, 7, 300, 5_000] {
        for bound in BOUNDS {
            got.push(decode_fingerprint(&synthetic_script(n), bound));
        }
    }
    assert_pinned("synthetic n=0/1/7/300/5000 × bound", &got, &SHORT);
}

#[test]
fn block_boundary_and_multi_block_decodes_are_pinned() {
    let mut got = Vec::new();
    for n in [65_536, 65_537, 200_000] {
        for bound in BOUNDS {
            got.push(decode_fingerprint(&synthetic_script(n), bound));
        }
    }
    assert_pinned("synthetic n=65536/65537/200000 × bound", &got, &MULTI_BLOCK);
}

#[test]
fn linear_drift_decodes_are_pinned() {
    let mut got = Vec::new();
    for n in [4_000, 70_000] {
        for (bound, quantum, log_space) in [
            (ErrorBound::PointwiseRel(1e-4), 2.0 * 1e-4f64.ln_1p(), true),
            (ErrorBound::Abs(1e-6), 2e-6, false),
        ] {
            let script: Vec<Vec<f64>> =
                (0..6).map(|k| linear_drift(n, k, quantum, log_space)).collect();
            got.push(decode_fingerprint(&script, bound));
        }
    }
    assert_pinned("linear drift n=4000/70000 × log/abs", &got, &SECOND_ORDER);
}

#[test]
fn cg_iterate_decodes_are_pinned() {
    // 40³: one block, the benchmark's shape; 52³: three, the last partial.
    let one_block = cg_script(40, 18);
    let mut got: Vec<u64> = BOUNDS
        .iter()
        .map(|&bound| decode_fingerprint(&one_block, bound))
        .collect();
    got.push(decode_fingerprint(&cg_script(52, 10), ErrorBound::PointwiseRel(1e-4)));
    assert_pinned("CG 40^3 × bound, CG 52^3", &got, &CG);
}

const SHORT: [u64; 15] = [
    0x3fe6dfb0eb9b8321,
    0x23202b5de1b62d6f,
    0xd0dec6f84749dc56,
    0xa442f025adcc7384,
    0x21151241da207f72,
    0x622872409c2be5e4,
    0x7a796405e36eceb4,
    0x01998934bfceab1c,
    0x41779f32bde7f624,
    0xe5d4ac8c617a4448,
    0x3cc2188a3816f161,
    0x8eea7c06570f7b28,
    0x3f82e1f2bdd8399b,
    0xfc81031cd2ab59d6,
    0x934aaad9180df0bf,
];
const MULTI_BLOCK: [u64; 9] = [
    0x761ee10145d60097,
    0xff54acc20b709f46,
    0xfd09f6aa2de0a078,
    0x5305ad23b2fdbcae,
    0xa120e40a2a7b02bc,
    0x4a495bcb5e817fb5,
    0x173025188f93b6a5,
    0xb7edb832ed48ea0f,
    0x2d85887918fbf43f,
];
const SECOND_ORDER: [u64; 4] = [
    0x211b01bd2cad15b2,
    0x369b530699ede7c3,
    0x73dd17e0e46a4efb,
    0xb7cf52aef41823bc,
];
const CG: [u64; 4] = [
    0xb8c680297c5ee481,
    0x9b0d8bcb2cccd268,
    0xe22d4d8f1deead0e,
    0x87d0024603d1a4ec,
];
