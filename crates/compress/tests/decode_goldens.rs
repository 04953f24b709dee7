//! Absolute goldens of what the SZ decoder returns, over the scripted
//! encoder sessions of `temporal_identity.rs`: every snapshot of every
//! script is decoded three ways — the shortest chain that holds its
//! priors, the whole session up to it (anchors, shape changes and resets
//! mid-chain),
//! and the stateless `decompress(compress(x))` — which must agree bit for
//! bit, and the bits are pinned.  Any change to the decode half of the
//! codec that moves one bit of one restart fails here, at whatever pool
//! size `LCR_NUM_THREADS` sets (the CI matrix runs 1, 2, 3 and 4).

mod scripts;

use lcr_compress::{
    Chain, Codec, Compressed, DeltaMode, ErrorBound, SzCompressor, SzTemporalState,
};
use scripts::{cg_script, ensure_pool, linear_drift, synthetic_script, Step, BOUNDS};

/// FNV-1a over the bits of `values`, a 64-bit word at a time, continuing
/// from `h`.
fn fnv(h: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .fold(h, |h, v| (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3))
}

/// Bitwise equality (`NaN == NaN`, `0.0 != -0.0`).
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Plays `steps` through the temporal encoder and returns one fingerprint
/// of everything the decoder returned along the way, plus how many links
/// decoded as part of a chain longer than one (a script that never leaves
/// its anchors pins nothing about the replay).
fn decode_fingerprint(steps: &[Step], bound: ErrorBound, max_order: DeltaMode) -> (u64, usize) {
    ensure_pool();
    let sz = SzCompressor::new();
    let mut state = SzTemporalState::new();
    let mut session: Vec<Compressed> = Vec::new();
    let mut modes: Vec<DeltaMode> = Vec::new();
    let mut fingerprint = 0xcbf2_9ce4_8422_2325;
    let mut replayed = 0;
    for (k, step) in steps.iter().enumerate() {
        let Step::Encode { data, force_anchor } = step else {
            state.reset();
            continue;
        };
        let mut bytes = Vec::new();
        let chain = Chain {
            max_order,
            force_anchor: *force_anchor,
            state: &mut state,
        };
        let mode = sz
            .encode_into(data, bound, Some(chain), &mut bytes)
            .unwrap();
        session.push(Compressed {
            bytes,
            n_elements: data.len(),
        });
        modes.push(mode);
        // The shortest chain that decodes this snapshot starts at the
        // nearest anchor, which is where a store's chain for it starts.
        let anchor = modes
            .iter()
            .rposition(|&mode| mode == DeltaMode::None)
            .expect("a session starts at an anchor");
        replayed += usize::from(session.len() - anchor > 1);

        let at = format!("{bound:?}, max {max_order:?}, step {k}");
        let links: Vec<&[u8]> = session.iter().map(|l| l.bytes.as_slice()).collect();
        let from_anchor = sz.decode_chain(&links[anchor..], data.len()).expect(&at);
        assert_eq!(from_anchor.len(), data.len(), "{at}");
        if anchor > 0 {
            let whole_session = sz.decode_chain(&links, data.len()).expect(&at);
            assert!(
                same_bits(&whole_session, &from_anchor),
                "whole session: {at}"
            );
        }
        let stateless = sz
            .decompress(&sz.compress(data, bound).unwrap())
            .expect(&at);
        assert!(same_bits(&stateless, &from_anchor), "stateless: {at}");
        fingerprint = fnv(fingerprint, &from_anchor);
    }
    (fingerprint, replayed)
}

/// Compares every case of one test at once, so a failure prints the whole
/// observed table.
fn assert_pinned(what: &str, got: &[u64], golden: &[u64]) {
    assert_eq!(got, golden, "{what}: {got:#018x?}");
}

/// The decoded bits depend on the data and the bound only — the delta
/// order is lossless on the codes — so the orders share one golden.
fn same_under_every_order(steps: &[Step], bound: ErrorBound, orders: &[DeltaMode]) -> u64 {
    let prints: Vec<u64> = orders
        .iter()
        .map(|&max_order| decode_fingerprint(steps, bound, max_order).0)
        .collect();
    assert!(
        prints.iter().all(|&p| p == prints[0]),
        "{bound:?}: {prints:#x?}"
    );
    prints[0]
}

const ORDERS: [DeltaMode; 3] = [DeltaMode::None, DeltaMode::Order1, DeltaMode::Order2];

#[test]
fn short_stream_decodes_are_pinned() {
    let mut got = Vec::new();
    for n in [0, 1, 7, 300, 5_000] {
        for bound in BOUNDS {
            got.push(same_under_every_order(&synthetic_script(n), bound, &ORDERS));
        }
    }
    assert_pinned("synthetic n=0/1/7/300/5000 × bound", &got, &SHORT);
}

#[test]
fn block_boundary_and_multi_block_decodes_are_pinned() {
    let mut got = Vec::new();
    for n in [65_536, 65_537, 200_000] {
        for bound in BOUNDS {
            let (print, replayed) =
                decode_fingerprint(&synthetic_script(n), bound, DeltaMode::Order2);
            assert!(replayed >= 1, "{bound:?} n={n}: no chain was replayed");
            got.push(print);
        }
    }
    assert_pinned("synthetic n=65536/65537/200000 × bound", &got, &MULTI_BLOCK);
}

#[test]
fn second_order_decodes_are_pinned() {
    let mut got = Vec::new();
    for n in [4_000, 70_000] {
        for (bound, quantum, log_space) in [
            (ErrorBound::PointwiseRel(1e-4), 2.0 * 1e-4f64.ln_1p(), true),
            (ErrorBound::Abs(1e-6), 2e-6, false),
        ] {
            let script: Vec<Step> = (0..6)
                .map(|k| Step::Encode {
                    data: linear_drift(n, k, quantum, log_space),
                    force_anchor: false,
                })
                .collect();
            let (print, replayed) = decode_fingerprint(&script, bound, DeltaMode::Order2);
            assert!(
                replayed >= 4,
                "{bound:?} n={n}: {replayed} replayed links of 5"
            );
            got.push(print);
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
        .map(|&bound| decode_fingerprint(&one_block, bound, DeltaMode::Order2).0)
        .collect();
    got.push(same_under_every_order(
        &cg_script(52, 10),
        ErrorBound::PointwiseRel(1e-4),
        &ORDERS[1..],
    ));
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
