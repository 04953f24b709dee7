//! Every committed checkpoint should be restorable: a snapshot must never
//! be coded against a link the store's chain for it does not hold.  Today
//! one is: the snapshot right after an anchor of the same shape is offered
//! order 2 against the link *before* the anchor, and it and every delta
//! behind it are rejected on recovery — pinned below.
//!
//! `linear_drift` (every value moves by its own constant number of
//! quantization steps per snapshot) is the script on which the order-2
//! candidate wins, so it is the one that shows what follows an anchor: the
//! store's chain for a checkpoint starts at the nearest anchor, and a
//! delta that reaches behind that anchor cannot be replayed from it.
//!
//! CI runs this file at `LCR_NUM_THREADS=1` and `=4`.

#[allow(dead_code)]
#[path = "../crates/compress/tests/scripts/mod.rs"]
mod scripts;

use lossy_ckpt::ckpt::{CheckpointBuffer, CheckpointLevel, DiskStore, MemBackend};
use lossy_ckpt::compress::{Codec, DeltaMode, ErrorBound, SzCompressor, SzTemporalState};
use scripts::linear_drift;
use std::sync::Arc;

/// Encodes eight `linear_drift` snapshots as one variable's checkpoint
/// chain (an anchor forced every fourth, as the executor's selector
/// would), commits each to a `DiskStore` that retains two checkpoint
/// chains, and recovers it back at once.  Returns the modes written and
/// the snapshots whose recovered chain the decoder rejected; a chain that
/// decodes must decode to the stateless decode's bits.
fn commit_and_recover(n: usize, bound: ErrorBound, quantum: f64) -> (String, Vec<usize>) {
    let log_space = matches!(bound, ErrorBound::PointwiseRel(_));
    let sz = SzCompressor::new();
    let mut store = DiskStore::open_with_backend("ckpt", 2, Arc::new(MemBackend::default()))
        .expect("open store");
    let mut state = SzTemporalState::new();
    let mut buffer = CheckpointBuffer::new();
    let (mut modes, mut rejected) = (String::new(), Vec::new());
    for k in 0..8 {
        let data = linear_drift(n, k, quantum, log_space);
        buffer.clear();
        let mode = buffer
            .push_with("x", |out| {
                sz.compress_temporal_into(&data, bound, DeltaMode::Order2, k % 4 == 0, &mut state, out)
            })
            .expect("encode");
        modes.push(char::from(b'0' + mode as u8));
        let order = (mode != DeltaMode::None).then_some(mode as u8);
        store
            .push_from_buffer(k, 0.0, CheckpointLevel::Pfs, 8 * n, order, "lossy", &[], &buffer)
            .expect("commit");

        let chain = store.latest_valid_chain().expect("a committed chain");
        assert_eq!(chain.last().expect("never empty").metadata.iteration, k);
        let links: Vec<&[u8]> = chain.iter().map(|link| link.payloads[0].1.as_slice()).collect();
        match sz.decode_chain(&links, n) {
            Ok(values) => {
                let stateless = sz.decompress(&sz.compress(&data, bound).unwrap()).unwrap();
                let same = values.iter().zip(&stateless).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same && values.len() == n, "{bound:?} n={n} snapshot {k}");
            }
            Err(_) => rejected.push(k),
        }
    }
    (modes, rejected)
}

#[test]
fn which_committed_linear_drift_checkpoints_are_restorable() {
    let mut got = Vec::new();
    for n in [4_000, 70_000] {
        for (bound, quantum) in [
            (ErrorBound::PointwiseRel(1e-4), 2.0 * 1e-4f64.ln_1p()),
            (ErrorBound::Abs(1e-6), 2e-6),
        ] {
            got.push(commit_and_recover(n, bound, quantum));
        }
    }
    let got: Vec<(&str, &[usize])> = got.iter().map(|(m, r)| (m.as_str(), r.as_slice())).collect();
    assert_eq!(got, GOLDEN, "{got:?}");
}

/// Modes written (`0` anchor, `1`/`2` delta order) and snapshots rejected,
/// for n = 4,000 and 70,000 × point-wise relative and absolute bounds.
const GOLDEN: [(&str, &[usize]); 4] = [
    ("01220222", &[5, 6, 7]),
    ("00220222", &[2, 3, 5, 6, 7]),
    ("01220222", &[5, 6, 7]),
    ("01220222", &[5, 6, 7]),
];
