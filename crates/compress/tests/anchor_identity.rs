//! A chainless SZ stream is a forced anchor: for every snapshot of every
//! scripted session and every bound, the version-4 stream `compress`
//! returns is, byte for byte, the version-5 stream a forced anchor of the
//! temporal encoder writes — into a fresh state or into the state the
//! session has reached — with the version byte set to 4 and the
//! `DeltaMode::None` byte after the 19-byte prologue removed.

mod scripts;

// By glob: `compress` comes from the crate's codec trait, whatever its name.
use lcr_compress::*;
use scripts::{cg_script, ensure_pool, linear_drift, synthetic_script, Step, BOUNDS};

/// Offset of the [`DeltaMode`] byte: codec id, version, `u64` element
/// count, transform tag, `f64` bound.
const MODE_BYTE: usize = 19;

fn forced_anchor(data: &[f64], bound: ErrorBound, mut state: SzTemporalState) -> Vec<u8> {
    let mut out = Vec::new();
    let chain = Chain { max_order: DeltaMode::Order2, force_anchor: true, state: &mut state };
    let mode = SzCompressor::new().encode_into(data, bound, Some(chain), &mut out).unwrap();
    assert_eq!(mode, DeltaMode::None);
    out
}

fn assert_chainless_is_forced_anchor(what: &str, steps: &[Step]) {
    ensure_pool();
    for bound in BOUNDS {
        let mut session = SzTemporalState::new();
        for (k, step) in steps.iter().enumerate() {
            let Step::Encode { data, force_anchor } = step else {
                session.reset();
                continue;
            };
            let chainless = SzCompressor::new().compress(data, bound).unwrap();
            assert_eq!(chainless.n_elements, data.len());
            for (state, anchor) in [
                ("fresh", forced_anchor(data, bound, SzTemporalState::new())),
                ("session", forced_anchor(data, bound, session.clone())),
            ] {
                let at = format!("{what}, {bound:?}, step {k}, {state} state");
                assert_eq!((anchor[1], anchor[MODE_BYTE]), (5, DeltaMode::None as u8), "{at}");
                let mut patched = anchor;
                patched[1] = 4;
                patched.remove(MODE_BYTE);
                assert!(patched == chainless.bytes, "{at}");
            }
            let chain = Chain {
                max_order: DeltaMode::Order2,
                force_anchor: *force_anchor,
                state: &mut session,
            };
            SzCompressor::new().encode_into(data, bound, Some(chain), &mut Vec::new()).unwrap();
        }
    }
}

#[test]
fn synthetic_sessions() {
    for n in [0, 1, 7, 300, 5_000, 65_536, 65_537, 200_000] {
        assert_chainless_is_forced_anchor(&format!("synthetic n={n}"), &synthetic_script(n));
    }
}

#[test]
fn linear_drift_sessions() {
    for n in [4_000, 70_000] {
        for (quantum, log_space) in [(2.0 * 1e-4f64.ln_1p(), true), (2e-6, false)] {
            let script: Vec<Step> = (0..6)
                .map(|k| Step::Encode {
                    data: linear_drift(n, k, quantum, log_space),
                    force_anchor: false,
                })
                .collect();
            assert_chainless_is_forced_anchor(&format!("drift n={n} log={log_space}"), &script);
        }
    }
}

#[test]
fn cg_sessions() {
    assert_chainless_is_forced_anchor("CG 40^3", &cg_script(40, 18));
    assert_chainless_is_forced_anchor("CG 52^3", &cg_script(52, 10));
}
