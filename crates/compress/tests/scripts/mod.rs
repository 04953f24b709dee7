//! The scripted encoder sessions shared by the oracle identity test
//! (`temporal_identity.rs`) and the decode goldens (`decode_goldens.rs`):
//! every input case lives here once, and the pool both run them on.

use lcr_compress::ErrorBound;

/// Gives this test binary a multi-thread pool even on single-core hosts,
/// unless the CI matrix pinned the size via `LCR_NUM_THREADS`.
pub fn ensure_pool() {
    if std::env::var("LCR_NUM_THREADS").is_err() {
        rayon::initialize_pool(4);
    }
}

/// One step of a scripted encoder session.
pub enum Step {
    Encode { data: Vec<f64>, force_anchor: bool },
    Reset,
}

pub const BOUNDS: [ErrorBound; 3] = [
    ErrorBound::Abs(1e-6),
    ErrorBound::ValueRangeRel(1e-5),
    ErrorBound::PointwiseRel(1e-4),
];

/// xorshift64*.
fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Snapshot `k` of a correlated sequence of `n` values: a rough
/// persistent field (so direct codes carry real entropy) under a slowly
/// drifting smooth one (so temporal deltas pay), with
///
/// * exact `0.0` and `-0.0` at fixed positions and every third value
///   negative — stable bitmaps a delta stream inherits — except that
///   snapshot 2 flips more signs and snapshots from 4 on gain a zero (the
///   point-wise-relative code count changes: a forced anchor by key);
/// * values no bound can quantize — NaN, and 1e12-sized outliers that
///   also poison their two successors' predictors — at positions that
///   partly stay (XOR tails against a prior value) and partly move
///   (against a predictable prior);
/// * snapshot 5 unrelated to its predecessors, so direct coding wins.
fn synthetic(n: usize, k: usize) -> Vec<f64> {
    let mut rough = rng(42);
    let mut fresh = rng(1000 + k as u64);
    (0..n)
        .map(|i| {
            let t = i as f64 / n.max(1) as f64;
            let (r, f) = (rough(), fresh());
            let smooth = 2.0 + (6.3 * t).sin() + 0.3 * (70.0 * t).cos();
            let mut v = if k == 5 {
                1.0 + f
            } else {
                smooth + 1e-2 * r + 1e-4 * (k as f64 + 1.0) * (15.7 * t).cos()
            };
            if i % 3 == 0 || (k == 2 && i % 5 == 0) {
                v = -v;
            }
            if i % 1009 == 5 {
                v = if i % 2 == 0 {
                    f64::NAN
                } else {
                    1e12 + k as f64
                };
            }
            if i % 2003 == 7 + k % 3 {
                v = -3e12 * (1.0 + f);
            }
            if i % 97 == 11 || (k >= 4 && i == 1) {
                v = 0.0;
            }
            if i % 193 == 17 {
                v = -0.0;
            }
            v
        })
        .collect()
}

/// The scripted session every synthetic length runs: free choice, a
/// forced anchor mid-chain, a shape change and back, a reset.
pub fn synthetic_script(n: usize) -> Vec<Step> {
    let encode = |len: usize, k: usize, force_anchor: bool| Step::Encode {
        data: synthetic(len, k),
        force_anchor,
    };
    vec![
        encode(n, 0, false),
        encode(n, 1, false),
        encode(n, 2, false),
        encode(n, 3, true),
        encode(n, 3, false), // identical snapshot: all-zero delta symbols
        encode(n, 4, false),
        encode(n / 2 + 3, 4, false), // shape change
        encode(n, 5, false),
        encode(n, 6, false),
        Step::Reset,
        encode(n, 7, false),
        encode(n, 8, false),
    ]
}

/// Snapshot `k` of a sequence whose every value moves by its own constant
/// number of quantization steps per snapshot (of its logarithm, for a
/// point-wise relative bound): order-1
/// deltas carry the rough step field, order-2 deltas vanish, so the
/// second-order candidate wins and gets emitted.  A few NaNs give its
/// blocks an XOR tail.
pub fn linear_drift(n: usize, k: usize, quantum: f64, log_space: bool) -> Vec<f64> {
    let mut field = rng(7);
    (0..n)
        .map(|i| {
            let steps = (field() * 41.0).floor() - 20.0;
            let level = 1.0 + (i as f64 * 1e-3).sin() + k as f64 * steps * quantum;
            let magnitude = if log_space { level.exp() } else { level };
            match i % 4001 {
                13 => f64::NAN,
                // Alternating signs live in a bitmap under the log transform;
                // as values they would defeat the spatial predictor.
                _ if log_space && i % 2 == 1 => -magnitude,
                _ => magnitude,
            }
        })
        .collect()
}

/// Iterates of unpreconditioned CG on the 7-point Poisson problem of a
/// `g³` grid (matrix-free), right-hand side manufactured from three
/// sinusoids: what the checkpointing runner actually hands the encoder.
fn cg_snapshots(g: usize, count: usize) -> Vec<Vec<f64>> {
    let n = g * g * g;
    let apply = |x: &[f64], y: &mut [f64]| {
        for k in 0..g {
            for j in 0..g {
                for i in 0..g {
                    let c = (k * g + j) * g + i;
                    let mut v = 6.0 * x[c];
                    if i > 0 {
                        v -= x[c - 1];
                    }
                    if i + 1 < g {
                        v -= x[c + 1];
                    }
                    if j > 0 {
                        v -= x[c - g];
                    }
                    if j + 1 < g {
                        v -= x[c + g];
                    }
                    if k > 0 {
                        v -= x[c - g * g];
                    }
                    if k + 1 < g {
                        v -= x[c + g * g];
                    }
                    y[c] = v;
                }
            }
        }
    };
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
    let tau = std::f64::consts::TAU;
    let xstar: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            (tau * t).sin() + 0.5 * (2.0 * tau * t + 1.0).sin() + 0.25 * (3.0 * tau * t + 2.0).sin()
        })
        .collect();
    let mut b = vec![0.0; n];
    apply(&xstar, &mut b);
    let mut x = vec![0.0; n];
    let mut r = b;
    let mut p = r.clone();
    let mut q = vec![0.0; n];
    let mut rr = dot(&r, &r);
    let mut snaps = Vec::with_capacity(count);
    for _ in 0..count {
        apply(&p, &mut q);
        let alpha = rr / dot(&p, &q);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rr_next = dot(&r, &r);
        let beta = rr_next / rr;
        rr = rr_next;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        snaps.push(x.clone());
    }
    snaps
}

/// A checkpoint-after-every-iteration session with an anchor forced every
/// eighth snapshot — the `ckpt_heavy` configuration.
pub fn cg_script(g: usize, count: usize) -> Vec<Step> {
    cg_snapshots(g, count)
        .into_iter()
        .enumerate()
        .map(|(k, data)| Step::Encode {
            data,
            force_anchor: k % 8 == 0,
        })
        .collect()
}
