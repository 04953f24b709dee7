//! Every committed checkpoint is restorable: a snapshot is never coded
//! against a link the store's chain for it does not hold.
//!
//! `linear_drift` (every value moves by its own constant number of
//! quantization steps per snapshot) is the script on which the order-2
//! candidate wins, so it is the one that shows what follows an anchor: the
//! store's chain for a checkpoint starts at the nearest anchor, and a
//! delta that reached behind that anchor could not be replayed from it —
//! so the snapshot after an anchor, forced or chosen, is offered order 1
//! at most.
//!
//! CI runs this file at `LCR_NUM_THREADS=1` and `=4`.

#[allow(dead_code)]
#[path = "../crates/compress/tests/scripts/mod.rs"]
mod scripts;

use lossy_ckpt::ckpt::{CheckpointBuffer, CheckpointLevel, DiskStore, MemBackend};
use lossy_ckpt::compress::{Chain, Codec, DeltaMode, ErrorBound, SzCompressor, SzTemporalState};
use scripts::linear_drift;
use std::sync::Arc;

/// Encodes eight `linear_drift` snapshots as one variable's checkpoint
/// chain (an anchor forced every fourth, as the executor's selector
/// would), commits each to a `DiskStore` at `retain = 2`, and recovers it
/// back at once: the chain must decode to the stateless decode's bits.
/// Returns the modes written.
fn commit_and_recover(n: usize, bound: ErrorBound, quantum: f64) -> String {
    let log_space = matches!(bound, ErrorBound::PointwiseRel(_));
    let sz = SzCompressor::new();
    let mut store = DiskStore::open_with_backend("ckpt", 2, Arc::new(MemBackend::default()))
        .expect("open store");
    let mut state = SzTemporalState::new();
    let mut buffer = CheckpointBuffer::new();
    let mut modes = String::new();
    for k in 0..8 {
        let data = linear_drift(n, k, quantum, log_space);
        buffer.clear();
        let mode = buffer
            .push_with("x", |out| {
                let chain =
                    Chain { max_order: DeltaMode::Order2, force_anchor: k % 4 == 0, state: &mut state };
                sz.encode_into(&data, bound, Some(chain), out)
            })
            .expect("encode");
        modes.push(char::from(b'0' + mode as u8));
        let order = (mode != DeltaMode::None).then_some(mode as u8);
        store
            .push_from_buffer(k, 0.0, CheckpointLevel::Pfs, 8 * n, order, "lossy", &[], &mut buffer)
            .expect("commit");

        let chain = store.latest_valid_chain().expect("a committed chain");
        assert_eq!(chain.last().expect("never empty").metadata.iteration, k);
        let links: Vec<&[u8]> = chain.iter().map(|link| link.payloads[0].1.as_slice()).collect();
        let at = format!("{bound:?} n={n} snapshot {k} of {modes}");
        let values = sz.decode_chain(&links, n).expect(&at);
        let stateless = sz.decompress(&sz.compress(&data, bound).unwrap()).unwrap();
        let same = values.iter().zip(&stateless).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same && values.len() == n, "{at}");
    }
    modes
}

#[test]
fn every_committed_linear_drift_checkpoint_is_restorable() {
    let mut got = Vec::new();
    for n in [4_000, 70_000] {
        for (bound, quantum) in [
            (ErrorBound::PointwiseRel(1e-4), 2.0 * 1e-4f64.ln_1p()),
            (ErrorBound::Abs(1e-6), 2e-6),
        ] {
            got.push(commit_and_recover(n, bound, quantum));
        }
    }
    // `0` anchor, `1`/`2` delta order: order 2 is still what wins, from the
    // second link after each anchor on.
    assert_eq!(got, ["01220122", "00120122", "01220122", "01220122"]);
}
