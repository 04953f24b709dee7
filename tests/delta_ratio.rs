//! Bench-style evidence for the temporal-delta win the delta-encoded
//! checkpoint stream is built on: on the paper's 64³-per-process Poisson
//! problem solved with CG at the default point-wise relative bound
//! (1e-4), the delta-coded checkpoint payloads must be at least 1.3×
//! smaller than direct (anchor) coding of the same snapshots — and the
//! chain must replay to the bit-identical state a direct stream decodes
//! to.
//!
//! CI runs this file at `LCR_NUM_THREADS=1` and `=4`; the deterministic
//! kernels make both the payload bytes and the replayed state
//! thread-count independent.

use lossy_ckpt::compress::{
    Chain, Codec, Compressed, DeltaMode, ErrorBound, SzCompressor, SzTemporalState,
};
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::solvers::SolverKind;

/// Default error bound of the lossy strategy (CG row of Table 2).
const BOUND: ErrorBound = ErrorBound::PointwiseRel(1e-4);

#[test]
fn delta_payloads_beat_direct_coding_by_1_3x_on_64cubed_poisson_cg() {
    // One simulated process of the paper's weak-scaling grid: 64³ local
    // unknowns.
    let workload = PaperWorkload::poisson(256, 64);
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, SolverKind::Cg, 200_000);

    let sz = SzCompressor::new();
    let mut chain_state = SzTemporalState::new();
    let mut chain: Vec<Compressed> = Vec::new();
    let mut delta_bytes = 0usize;
    let mut direct_bytes = 0usize;
    let mut delta_snapshots = 0usize;

    // Snapshot every 5 CG iterations until convergence, as a checkpointed
    // run would.  The first snapshot is the anchor; each later one may
    // delta-code against its predecessor.
    let mut snapshots = 0usize;
    while !solver.converged() && snapshots < 64 {
        for _ in 0..5 {
            solver.step();
            if solver.converged() {
                break;
            }
        }
        let x = solver.solution().clone();

        // Direct (anchor) coding of this snapshot, for the comparison.
        let mut direct_state = SzTemporalState::new();
        let mut direct = Vec::new();
        let anchor = Chain {
            max_order: DeltaMode::Order2,
            force_anchor: true,
            state: &mut direct_state,
        };
        sz.encode_into(x.as_slice(), BOUND, Some(anchor), &mut direct)
            .expect("direct compression failed");

        // Chain coding: the encoder picks delta only when it wins.
        let mut encoded = Vec::new();
        let link = Chain {
            max_order: DeltaMode::Order2,
            force_anchor: snapshots == 0,
            state: &mut chain_state,
        };
        let mode = sz
            .encode_into(x.as_slice(), BOUND, Some(link), &mut encoded)
            .expect("chain compression failed");
        if mode != DeltaMode::None {
            delta_snapshots += 1;
            delta_bytes += encoded.len();
            direct_bytes += direct.len();
        }
        chain.push(Compressed {
            bytes: encoded,
            n_elements: x.len(),
        });
        snapshots += 1;

        // Bit-identity at every chain length: replaying the chain equals
        // decoding the equivalent direct stream.
        let links: Vec<&[u8]> = chain.iter().map(|l| l.bytes.as_slice()).collect();
        let replayed = sz
            .decode_chain(&links, x.len())
            .expect("chain replay failed");
        let direct_decoded = sz
            .decompress(&Compressed {
                bytes: direct,
                n_elements: x.len(),
            })
            .expect("direct decode failed");
        assert_eq!(
            replayed, direct_decoded,
            "chain replay must be bit-identical to the direct decode at snapshot {snapshots}"
        );
    }

    assert!(
        delta_snapshots >= 6,
        "expected most snapshots to delta-code, got {delta_snapshots} of {snapshots}"
    );
    let ratio = direct_bytes as f64 / delta_bytes as f64;
    assert!(
        ratio >= 1.3,
        "delta payloads must be ≥1.3× smaller than direct: {direct_bytes} direct vs \
         {delta_bytes} delta bytes = {ratio:.2}×"
    );
}
