//! Portable SIMD lane layer for the hot vector kernels.
//!
//! Every reduction in this crate used to fold its chunk through one scalar
//! accumulator — a loop-carried dependency that caps throughput at one
//! `add` latency per element no matter how wide the machine's vector units
//! are.  This module restructures those loops around **eight independent
//! lane accumulators**: element `i` of a chunk always feeds lane
//! `i % LANES`, groups of eight elements are processed as `[f64; 8]`
//! blocks (which the compiler auto-vectorizes on any SSE2/AVX target — no
//! `core::arch` intrinsics, no `unsafe`), and the lanes are combined by a
//! **fixed pairwise tree** ([`hsum`]) at the end of the chunk.
//!
//! ## Determinism contract
//!
//! The lane decomposition is part of the numeric contract, not an
//! implementation detail:
//!
//! * lane assignment (`i % LANES`), per-lane accumulation order (ascending
//!   `i` within a lane) and the [`hsum`] combination tree depend only on
//!   the chunk length — never on the thread count or the machine's actual
//!   vector width;
//! * Rust never contracts `a * b + c` into an FMA on its own, so the lane
//!   arithmetic is the same IEEE-754 operation sequence whether the
//!   compiler lowers it to SSE2, AVX2 or scalar code;
//! * the [`scalar`] submodule re-computes every kernel with plain
//!   index-arithmetic loops (no `[f64; 8]` blocks for the compiler to
//!   vectorize); the `simd_equivalence` proptests pin the vectorized and
//!   scalar paths bit-for-bit against each other at 1 and N threads.
//!
//! Because `vector::dot` and the fused `*_norm2` / `axpy_dot` kernels all use
//! these same lane kernels over the same chunk partition, identities like
//! "the ‖r‖² returned by `axpy2_norm2` equals a separate `dot(r, r)`
//! sweep" continue to hold bit-for-bit.

/// Number of lane accumulators (and the block width of the vectorized
/// loops): eight `f64`, one AVX-512 register or two AVX2 registers wide.
pub const LANES: usize = 8;

/// Combines the eight lane accumulators with a fixed pairwise tree:
/// `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`.
///
/// The tree shape is part of the determinism contract — every reduction in
/// the crate ends its chunks with exactly this combination.
#[inline]
pub fn hsum(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Lane-structured dot product of one chunk: `Σ a[i]·b[i]`.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "simd::dot: length mismatch");
    let mut acc = [0.0f64; LANES];
    let mut blocks = a.chunks_exact(LANES).zip(b.chunks_exact(LANES));
    for (va, vb) in &mut blocks {
        for j in 0..LANES {
            acc[j] += va[j] * vb[j];
        }
    }
    let (ta, tb) = (
        a.chunks_exact(LANES).remainder(),
        b.chunks_exact(LANES).remainder(),
    );
    for j in 0..ta.len() {
        acc[j] += ta[j] * tb[j];
    }
    hsum(acc)
}

/// Fused CG update over one chunk: `x += α·p`, `r −= α·q`, returning the
/// lane-structured `Σ r_new²` (bit-identical to [`dot`] of the updated `r`
/// with itself over the same chunk).
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn axpy2_norm2(alpha: f64, p: &[f64], q: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
    let n = x.len();
    assert_eq!(p.len(), n, "simd::axpy2_norm2: length mismatch");
    assert_eq!(q.len(), n, "simd::axpy2_norm2: length mismatch");
    assert_eq!(r.len(), n, "simd::axpy2_norm2: length mismatch");
    let mut acc = [0.0f64; LANES];
    let head = n - n % LANES;
    let (xh, xt) = x.split_at_mut(head);
    let (rh, rt) = r.split_at_mut(head);
    let mut blocks = xh
        .chunks_exact_mut(LANES)
        .zip(rh.chunks_exact_mut(LANES))
        .zip(p.chunks_exact(LANES).zip(q.chunks_exact(LANES)));
    for ((vx, vr), (vp, vq)) in &mut blocks {
        for j in 0..LANES {
            vx[j] += alpha * vp[j];
            let rv = vr[j] - alpha * vq[j];
            vr[j] = rv;
            acc[j] += rv * rv;
        }
    }
    for j in 0..xt.len() {
        xt[j] += alpha * p[head + j];
        let rv = rt[j] - alpha * q[head + j];
        rt[j] = rv;
        acc[j] += rv * rv;
    }
    hsum(acc)
}

/// Fused axpy + norm over one chunk: `y += α·x`, returning the
/// lane-structured `Σ y_new²`.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn axpy_norm2(alpha: f64, x: &[f64], y: &mut [f64]) -> f64 {
    let n = y.len();
    assert_eq!(x.len(), n, "simd::axpy_norm2: length mismatch");
    let mut acc = [0.0f64; LANES];
    let head = n - n % LANES;
    let (yh, yt) = y.split_at_mut(head);
    let mut blocks = yh.chunks_exact_mut(LANES).zip(x.chunks_exact(LANES));
    for (vy, vx) in &mut blocks {
        for j in 0..LANES {
            let v = vy[j] + alpha * vx[j];
            vy[j] = v;
            acc[j] += v * v;
        }
    }
    for j in 0..yt.len() {
        let v = yt[j] + alpha * x[head + j];
        yt[j] = v;
        acc[j] += v * v;
    }
    hsum(acc)
}

/// Fused axpy + dot over one chunk: `y += α·x`, returning the
/// lane-structured `Σ y_new·u` (bit-identical to [`dot`] of the updated `y`
/// with `u` over the same chunk).
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn axpy_dot(alpha: f64, x: &[f64], y: &mut [f64], u: &[f64]) -> f64 {
    let n = y.len();
    assert_eq!(x.len(), n, "simd::axpy_dot: length mismatch");
    assert_eq!(u.len(), n, "simd::axpy_dot: length mismatch");
    let mut acc = [0.0f64; LANES];
    let head = n - n % LANES;
    let (yh, yt) = y.split_at_mut(head);
    let mut blocks = yh
        .chunks_exact_mut(LANES)
        .zip(x.chunks_exact(LANES).zip(u.chunks_exact(LANES)));
    for (vy, (vx, vu)) in &mut blocks {
        for j in 0..LANES {
            let v = vy[j] + alpha * vx[j];
            vy[j] = v;
            acc[j] += v * vu[j];
        }
    }
    for j in 0..yt.len() {
        let v = yt[j] + alpha * x[head + j];
        yt[j] = v;
        acc[j] += v * u[head + j];
    }
    hsum(acc)
}

/// Scalar reference implementations of every lane kernel above.
///
/// These compute the **same lane recurrence** (element `i` feeds
/// accumulator `i % LANES`, lanes combined by the [`hsum`] tree) with
/// plain one-element-at-a-time loops — no `[f64; 8]` blocks for the
/// compiler to vectorize.  The `simd_equivalence` proptests assert the
/// vectorized kernels match these bit-for-bit, which pins down that the
/// lane layer changes *how fast* the kernels run, never *what* they
/// compute.
pub mod scalar {
    use super::{hsum, LANES};

    /// Scalar mirror of [`super::dot`].
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "scalar::dot: length mismatch");
        let mut acc = [0.0f64; LANES];
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            acc[i % LANES] += x * y;
        }
        hsum(acc)
    }

    /// Scalar mirror of [`super::axpy2_norm2`].
    pub fn axpy2_norm2(alpha: f64, p: &[f64], q: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
        let n = x.len();
        assert_eq!(p.len(), n, "scalar::axpy2_norm2: length mismatch");
        assert_eq!(q.len(), n, "scalar::axpy2_norm2: length mismatch");
        assert_eq!(r.len(), n, "scalar::axpy2_norm2: length mismatch");
        let mut acc = [0.0f64; LANES];
        for i in 0..n {
            x[i] += alpha * p[i];
            let rv = r[i] - alpha * q[i];
            r[i] = rv;
            acc[i % LANES] += rv * rv;
        }
        hsum(acc)
    }

    /// Scalar mirror of [`super::axpy_dot`].
    pub fn axpy_dot(alpha: f64, x: &[f64], y: &mut [f64], u: &[f64]) -> f64 {
        let n = y.len();
        assert_eq!(x.len(), n, "scalar::axpy_dot: length mismatch");
        assert_eq!(u.len(), n, "scalar::axpy_dot: length mismatch");
        let mut acc = [0.0f64; LANES];
        for i in 0..n {
            let v = y[i] + alpha * x[i];
            y[i] = v;
            acc[i % LANES] += v * u[i];
        }
        hsum(acc)
    }

    /// Scalar mirror of [`super::axpy_norm2`].
    pub fn axpy_norm2(alpha: f64, x: &[f64], y: &mut [f64]) -> f64 {
        let n = y.len();
        assert_eq!(x.len(), n, "scalar::axpy_norm2: length mismatch");
        let mut acc = [0.0f64; LANES];
        for i in 0..n {
            let v = y[i] + alpha * x[i];
            y[i] = v;
            acc[i % LANES] += v * v;
        }
        hsum(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn lane_kernels_match_scalar_mirrors_at_awkward_lengths() {
        // Lengths straddling every tail case: 0..=2·LANES plus larger odd
        // sizes, so the block/remainder split is fully exercised.
        let sizes: Vec<usize> = (0..=2 * LANES).chain([129, 1000, 4097]).collect();
        for n in sizes {
            let a = rand(n, 1);
            let b = rand(n, 2);
            let c = rand(n, 3);
            assert_eq!(dot(&a, &b).to_bits(), scalar::dot(&a, &b).to_bits());

            let (mut x1, mut r1) = (a.clone(), b.clone());
            let (mut x2, mut r2) = (a.clone(), b.clone());
            let n1 = axpy2_norm2(0.37, &c, &a, &mut x1, &mut r1);
            let n2 = scalar::axpy2_norm2(0.37, &c, &a, &mut x2, &mut r2);
            assert_eq!(n1.to_bits(), n2.to_bits());
            assert_eq!(x1, x2);
            assert_eq!(r1, r2);
        }
    }

    #[test]
    fn norm_kernels_agree_with_dot() {
        // The contract the fused kernels rely on: a fused ‖·‖² equals a
        // separate lane dot of the result with itself.
        let n = 1003;
        let x = rand(n, 4);
        let mut y = rand(n, 5);
        let nn = axpy_norm2(0.5, &x, &mut y);
        assert_eq!(nn.to_bits(), dot(&y, &y).to_bits());
        let u = rand(n, 6);
        let yu = axpy_dot(-0.25, &x, &mut y, &u);
        assert_eq!(yu.to_bits(), dot(&y, &u).to_bits());
    }

    #[test]
    fn empty_chunks_reduce_to_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }
}
