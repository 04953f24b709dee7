//! Fused, deterministic solver kernels.
//!
//! The Krylov inner loops are bandwidth-bound chains of BLAS-1 sweeps and
//! SpMV traversals.  Executed as separate kernels they re-read the same
//! vectors from memory several times per iteration; this module fuses the
//! chains so each iteration makes roughly half the memory passes (the
//! README's "Solver kernel fusion" section tabulates the before/after
//! counts per solver).
//!
//! ## Determinism contract
//!
//! Every kernel here hands the pool *owned* pieces of its output buffers
//! ([`run_len`], `run_plan`: each task gets its rows of every output,
//! peeled off with `split_off_mut`, so no two tasks can reach the same
//! element and a partition that does not tile the buffer is refused before
//! anything runs), computes every reduction over **fixed chunks**, and
//! combines the per-chunk partials **in chunk order** on the calling
//! thread:
//!
//! * vector kernels split `0..len` with [`rayon::chunk_ranges`]
//!   (`len / DEFAULT_MIN_CHUNK` chunks, clamped to `MAX_CHUNKS`), and every
//!   chunk body is one of the [`simd`](crate::simd) lane kernels (eight
//!   lane accumulators combined by a fixed pairwise tree), so e.g. the
//!   ‖r‖² returned by [`axpy2_norm2`] is bit-identical to a separate
//!   `dot(r, r)` sweep;
//! * SpMV-shaped kernels follow the matrix's precomputed
//!   [`SpmvPlan`](crate::csr::SpmvPlan) row partition and its SELL-style
//!   row blocks, which depend only on the matrix structure.
//!
//! Neither partition depends on the thread count, so every kernel is
//! **bit-identical at any `LCR_NUM_THREADS`** — the reproducibility
//! property the repository's thread-determinism tests pin.
//!
//! Elementwise kernels ([`axpby`], [`scale_into`], [`multi_axpy`],
//! [`jacobi_sweep`]) are deterministic by construction: each output element
//! is a fixed expression of its inputs.

use crate::csr::{CsrMatrix, RowSink, SpmvPlan};
use crate::simd;
use crate::vector::{Vector, PAR_THRESHOLD};
use std::ops::Range;

/// Pairs each of `ranges` with its piece of every buffer in `outs`, peeled
/// off the front with `split_off_mut` — so the ranges have to tile the
/// buffers in order, and ones that do not are refused here, in every
/// build, before a task could write through them.
///
/// # Panics
/// Names both ranges when one overlaps or leaves a gap after the one
/// before it, the range and the buffer length when one runs out of bounds
/// or the last one stops short.
fn pieces<const N: usize>(
    mut outs: [&mut [f64]; N],
    ranges: impl ExactSizeIterator<Item = Range<usize>>,
) -> impl ExactSizeIterator<Item = (Range<usize>, [&mut [f64]; N])> {
    let mut prev = 0..0;
    let mut left = ranges.len();
    ranges.map(move |range| {
        let Range { start, end } = range;
        assert!(start <= end, "malformed range {start}..{end} (start > end)");
        assert!(
            start >= prev.end,
            "mutable range {start}..{end} overlaps previously claimed {prev:?}"
        );
        assert!(
            start == prev.end,
            "mutable range {start}..{end} leaves a gap after {prev:?}"
        );
        left -= 1;
        let piece = outs.each_mut().map(|out| {
            let len = start + out.len();
            assert!(
                end <= len,
                "range {start}..{end} out of bounds for buffer of len {len}"
            );
            assert!(
                left > 0 || end == len,
                "last range {start}..{end} stops short of buffer of len {len}"
            );
            out.split_off_mut(..end - start).expect("length checked")
        });
        prev = start..end;
        (start..end, piece)
    })
}

/// Runs `work(range, pieces)` over the deterministic length-based chunking
/// of `0..len` — [`rayon::chunk_ranges`], one chunk below
/// [`PAR_THRESHOLD`] — handing each call its chunk of every buffer in
/// `outs` (each `len` long), and returns the partials in chunk order.
/// Every length-chunked kernel and reduction of the workspace runs through
/// here, which is what makes a fused norm bit-identical to a separate
/// `dot` sweep.
pub fn run_len<const N: usize, R: Send>(
    len: usize,
    outs: [&mut [f64]; N],
    work: impl Fn(Range<usize>, [&mut [f64]; N]) -> R + Sync,
) -> Vec<R> {
    if len < PAR_THRESHOLD {
        return vec![work(0..len, outs)];
    }
    let chunks = rayon::chunk_ranges(len, rayon::DEFAULT_MIN_CHUNK);
    rayon::run_items(pieces(outs, chunks), |_, (range, outs)| work(range, outs))
}

/// Runs `work(ci, rows, pieces)` over the plan's nnz-balanced row chunks
/// (chunk index first, so SpMV-shaped kernels can reach the chunk's
/// precomputed row blocks), handing each call its rows of every buffer in
/// `outs` (each `nrows` long), and returns the partials in chunk order.  A
/// plan below the parallel gate has one chunk, which runs in line.
pub(crate) fn run_plan<const N: usize, R: Send>(
    plan: &SpmvPlan,
    outs: [&mut [f64]; N],
    work: impl Fn(usize, Range<usize>, [&mut [f64]; N]) -> R + Sync,
) -> Vec<R> {
    let rows = plan.chunks().iter().map(|&(r0, r1)| r0..r1);
    rayon::run_items(pieces(outs, rows), |ci, (rows, outs)| work(ci, rows, outs))
}

/// `y = A·x` over the plan's row chunks (used by [`CsrMatrix::spmv`]).
/// Dimensions are checked by the caller.
pub(crate) fn spmv_into(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    let plan = a.plan();
    run_plan(plan, [y], |ci, rows, [ys]| {
        a.apply_chunk(plan, ci, x, |i, sum| ys[i - rows.start] = sum);
    });
}

/// `r = b − A·x` with the subtraction fused into the matrix traversal
/// (used by [`CsrMatrix::residual_into`]).  Dimensions are checked by the
/// caller.
pub(crate) fn residual_into(a: &CsrMatrix, x: &[f64], b: &[f64], r: &mut [f64]) {
    let plan = a.plan();
    run_plan(plan, [r], |ci, rows, [rs]| {
        let (r0, bs) = (rows.start, &b[rows]);
        a.apply_chunk(plan, ci, x, |i, sum| rs[i - r0] = bs[i - r0] - sum);
    });
}

/// [`RowSink`] for [`spmv_dot`]: stores each row sum and accumulates the
/// dot product into eight lane accumulators.  Slab groups update all lanes
/// with one vectorizable sweep (`acc[l] += w[l]·sum[l]`); irregular rows
/// rotate through lanes by `row mod 8`, so no single FP-add dependency
/// chain ever serialises the reduction.  Both lane assignments are pure
/// functions of the matrix's plan — never of the thread count — keeping
/// the reduction bit-identical at any `LCR_NUM_THREADS`.
struct SpmvDotSink<'a> {
    ys: &'a mut [f64],
    ws: &'a [f64],
    r0: usize,
    acc: [f64; simd::LANES],
}

impl RowSink for SpmvDotSink<'_> {
    #[inline]
    fn row(&mut self, i: usize, sum: f64) {
        let j = i - self.r0;
        self.ys[j] = sum;
        self.acc[j % simd::LANES] += self.ws[j] * sum;
    }

    #[inline]
    fn slab(&mut self, r: usize, sums: &[f64; simd::LANES]) {
        let j0 = r - self.r0;
        self.ys[j0..j0 + simd::LANES].copy_from_slice(sums);
        let ws = &self.ws[j0..j0 + simd::LANES];
        for l in 0..simd::LANES {
            self.acc[l] += ws[l] * sums[l];
        }
    }
}

/// [`RowSink`] for [`residual_norm2`] — same lane scheme as
/// [`SpmvDotSink`], accumulating `(b − A·x)²`.
struct ResidualNorm2Sink<'a> {
    rs: &'a mut [f64],
    bs: &'a [f64],
    r0: usize,
    acc: [f64; simd::LANES],
}

impl RowSink for ResidualNorm2Sink<'_> {
    #[inline]
    fn row(&mut self, i: usize, sum: f64) {
        let j = i - self.r0;
        let rv = self.bs[j] - sum;
        self.rs[j] = rv;
        self.acc[j % simd::LANES] += rv * rv;
    }

    #[inline]
    fn slab(&mut self, r: usize, sums: &[f64; simd::LANES]) {
        let j0 = r - self.r0;
        let rs = &mut self.rs[j0..j0 + simd::LANES];
        let bs = &self.bs[j0..j0 + simd::LANES];
        for l in 0..simd::LANES {
            let rv = bs[l] - sums[l];
            rs[l] = rv;
            self.acc[l] += rv * rv;
        }
    }
}

/// Fused SpMV + dot: `y = A·x` and `wᵀy`, in one traversal of the matrix.
///
/// CG calls this with `w = x = p` (for `pᵀA p`).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn spmv_dot(a: &CsrMatrix, x: &[f64], y: &mut [f64], w: &[f64]) -> f64 {
    assert_eq!(x.len(), a.ncols(), "spmv_dot: x length mismatch");
    assert_eq!(y.len(), a.nrows(), "spmv_dot: y length mismatch");
    assert_eq!(w.len(), a.nrows(), "spmv_dot: w length mismatch");
    let plan = a.plan();
    let partials = run_plan(plan, [y], |ci, rows, [ys]| {
        let mut sink = SpmvDotSink {
            ys,
            r0: rows.start,
            ws: &w[rows],
            acc: [0.0; simd::LANES],
        };
        a.apply_chunk_sink(plan, ci, x, &mut sink);
        simd::hsum(sink.acc)
    });
    partials.into_iter().sum()
}

/// Fused residual + norm: `r = b − A·x`, returning ‖r‖², in one traversal
/// (the Krylov rebuild / recovery path, previously `residual_into`
/// followed by a separate `norm2` sweep).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn residual_norm2(a: &CsrMatrix, x: &[f64], b: &[f64], r: &mut [f64]) -> f64 {
    assert_eq!(x.len(), a.ncols(), "residual_norm2: x length mismatch");
    assert_eq!(b.len(), a.nrows(), "residual_norm2: b length mismatch");
    assert_eq!(r.len(), a.nrows(), "residual_norm2: r length mismatch");
    let plan = a.plan();
    let partials = run_plan(plan, [r], |ci, rows, [rs]| {
        let mut sink = ResidualNorm2Sink {
            rs,
            r0: rows.start,
            bs: &b[rows],
            acc: [0.0; simd::LANES],
        };
        a.apply_chunk_sink(plan, ci, x, &mut sink);
        simd::hsum(sink.acc)
    });
    partials.into_iter().sum()
}

/// Fused CG solution/residual update: `x += α·p`, `r −= α·q`, returning
/// ‖r‖², in one pass over the four vectors — replacing two separate axpys
/// plus a norm sweep.
///
/// # Panics
/// Panics on length mismatch.
pub fn axpy2_norm2(alpha: f64, p: &[f64], q: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
    let n = x.len();
    assert_eq!(p.len(), n, "axpy2_norm2: p length mismatch");
    assert_eq!(q.len(), n, "axpy2_norm2: q length mismatch");
    assert_eq!(r.len(), n, "axpy2_norm2: r length mismatch");
    let partials = run_len(n, [x, r], |c, [xs, rs]| {
        simd::axpy2_norm2(alpha, &p[c.clone()], &q[c], xs, rs)
    });
    partials.into_iter().sum()
}

/// Fused axpy + norm: `y += α·x`, returning ‖y‖² — GMRES folds the last
/// Gram–Schmidt subtraction and the next basis vector's norm into one
/// pass.
///
/// # Panics
/// Panics on length mismatch.
pub fn axpy_norm2(alpha: f64, x: &[f64], y: &mut [f64]) -> f64 {
    let n = y.len();
    assert_eq!(x.len(), n, "axpy_norm2: x length mismatch");
    let partials = run_len(n, [y], |c, [ys]| simd::axpy_norm2(alpha, &x[c], ys));
    partials.into_iter().sum()
}

/// Fused axpy + dot: `y += α·x`, returning `yᵀu` of the updated `y` —
/// GMRES's modified Gram–Schmidt subtracts one basis vector and takes the
/// next one's coefficient in one pass.  Bit-identical to [`vector::axpy`]
/// followed by [`vector::dot`]`(y, u)`.
///
/// [`vector::axpy`]: crate::vector::axpy
/// [`vector::dot`]: crate::vector::dot
///
/// # Panics
/// Panics on length mismatch.
pub fn axpy_dot(alpha: f64, x: &[f64], y: &mut [f64], u: &[f64]) -> f64 {
    let n = y.len();
    assert_eq!(x.len(), n, "axpy_dot: x length mismatch");
    assert_eq!(u.len(), n, "axpy_dot: u length mismatch");
    let partials = run_len(n, [y], |c, [ys]| simd::axpy_dot(alpha, &x[c.clone()], ys, &u[c]));
    partials.into_iter().sum()
}

/// Elements of `y` one [`multi_axpy`] block carries through every term:
/// 2 KiB, so the block stays in L1 while the `x`s stream past it.
const MULTI_AXPY_BLOCK: usize = 256;

/// `y += Σ_j α_j·x_j` in one pass over `y` and each `x_j` — GMRES's
/// correction `x + Σ y_j v_j`.  Each element adds its terms in `j` order,
/// so the result is bit-identical to one [`vector::axpy`] per term.
///
/// [`vector::axpy`]: crate::vector::axpy
///
/// # Panics
/// Panics if `alphas` and `xs` differ in length or an `x_j` in length from
/// `y`.
pub fn multi_axpy(y: &mut [f64], alphas: &[f64], xs: &[Vector]) {
    let n = y.len();
    assert_eq!(alphas.len(), xs.len(), "multi_axpy: one coefficient per vector");
    assert!(xs.iter().all(|x| x.len() == n), "multi_axpy: x length mismatch");
    if xs.is_empty() {
        return;
    }
    run_len(n, [y], |c, [ys]| {
        for (b, yb) in ys.chunks_mut(MULTI_AXPY_BLOCK).enumerate() {
            let start = c.start + b * MULTI_AXPY_BLOCK;
            let block = start..start + yb.len();
            for (&alpha, x) in alphas.iter().zip(xs) {
                for (yi, xi) in yb.iter_mut().zip(&x.as_slice()[block.clone()]) {
                    *yi += alpha * xi;
                }
            }
        }
    });
}

/// `y = α·x + β·y` in one pass.
///
/// # Panics
/// Panics on length mismatch.
pub fn axpby(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
    let n = y.len();
    assert_eq!(x.len(), n, "axpby: x length mismatch");
    run_len(n, [y], |c, [ys]| {
        for (yi, xi) in ys.iter_mut().zip(&x[c]) {
            *yi = alpha * xi + beta * *yi;
        }
    });
}

/// `out = α·x` in one pass — GMRES basis normalisation, previously a clone
/// plus an in-place scale (a redundant copy and a second pass).
///
/// # Panics
/// Panics on length mismatch.
pub fn scale_into(out: &mut [f64], alpha: f64, x: &[f64]) {
    let n = out.len();
    assert_eq!(x.len(), n, "scale_into: x length mismatch");
    run_len(n, [out], |c, [os]| {
        for (oi, xi) in os.iter_mut().zip(&x[c]) {
            *oi = alpha * xi;
        }
    });
}

/// One Jacobi sweep `out_i = (b_i − Σ_{j≠i} a_ij x_j) / a_ii`,
/// parallelised over the plan's row chunks.  The sweep reads only the
/// previous iterate, so rows are independent; the per-row arithmetic order
/// matches the sequential sweep, so the result is bit-identical to it.
///
/// `out` must not alias `x` (guaranteed by the `&mut`/`&` signature).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn jacobi_sweep(a: &CsrMatrix, x: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), a.ncols(), "jacobi_sweep: x length mismatch");
    assert_eq!(b.len(), a.nrows(), "jacobi_sweep: b length mismatch");
    assert_eq!(out.len(), a.nrows(), "jacobi_sweep: out length mismatch");
    let plan = a.plan();
    let (indptr, indices, values) = (a.indptr(), a.indices(), a.values());
    run_plan(plan, [out], |_ci, rows, [os]| {
        let r0 = rows.start;
        let mut k = indptr[r0];
        for i in rows {
            let end = indptr[i + 1];
            let mut sigma = 0.0;
            let mut diag = 0.0;
            for (v, &c) in values[k..end].iter().zip(&indices[k..end]) {
                let c = c as usize;
                if c == i {
                    diag = *v;
                } else {
                    debug_assert!(c < x.len(), "CSR column {c} out of bounds");
                    // SAFETY: `c < ncols` (CSR invariant) and
                    // `x.len() == ncols` (asserted above).
                    sigma += v * unsafe { x.get_unchecked(c) };
                }
            }
            os[i - r0] = (b[i] - sigma) / diag;
            k = end;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson::poisson2d;

    fn rand_vec(n: usize, seed: u64) -> Vector {
        let mut v = Vector::zeros(n);
        v.fill_random(seed, -1.0, 1.0);
        v
    }

    #[test]
    fn ranges_that_do_not_tile_the_buffer_are_refused_in_every_build() {
        // What a broken `SpmvPlan` would hand `run_plan`: no feature flag
        // stands between it and this report.
        let refusal = |ranges: &[Range<usize>]| -> String {
            let mut buf = [0.0; 64];
            let split = || pieces([&mut buf[..]], ranges.iter().cloned()).count();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(split)).unwrap_err();
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let overlap = refusal(&[0..33, 32..64]);
        assert!(overlap.contains("32..64 overlaps") && overlap.contains("0..33"), "{overlap}");
        let overrun = refusal(&[0..32, 32..65]);
        assert!(overrun.contains("32..65 out of bounds"), "{overrun}");
        let gap = refusal(&[0..30, 32..64]);
        assert!(gap.contains("32..64 leaves a gap") && gap.contains("0..30"), "{gap}");
        let short = refusal(&[0..32, 32..60]);
        assert!(short.contains("32..60 stops short"), "{short}");

        let mut buf = [0.0; 64];
        let lens = pieces([&mut buf[..]], [0..17, 17..17, 17..64].into_iter())
            .map(|(range, [piece])| (range.len(), piece.len()));
        assert!(lens.eq([(17, 17), (0, 0), (47, 47)]));
    }

    #[test]
    fn spmv_dot_matches_composition() {
        for n in [7usize, 40] {
            let a = poisson2d(n);
            let dim = a.nrows();
            let x = rand_vec(dim, 1);
            let w = rand_vec(dim, 2);
            let mut y_fused = Vector::zeros(dim);
            let wy = spmv_dot(&a, &x, y_fused.as_mut_slice(), &w);
            let y_ref = a.mul_vec(&x);
            assert_eq!(y_fused, y_ref);
            let wy_ref = w.dot(&y_ref);
            assert!((wy - wy_ref).abs() <= 1e-12 * wy_ref.abs().max(1.0));
        }
    }

    #[test]
    fn residual_norm2_matches_composition() {
        let a = poisson2d(20);
        let dim = a.nrows();
        let x = rand_vec(dim, 3);
        let b = rand_vec(dim, 4);
        let mut r = Vector::zeros(dim);
        let rr = residual_norm2(&a, &x, &b, r.as_mut_slice());
        let r_ref = a.residual(&x, &b);
        assert_eq!(r, r_ref);
        let rr_ref = r_ref.dot(&r_ref);
        assert!((rr - rr_ref).abs() <= 1e-12 * rr_ref.max(1.0));
    }

    #[test]
    fn axpy2_norm2_matches_composition() {
        let n = PAR_THRESHOLD + 33;
        let p = rand_vec(n, 5);
        let q = rand_vec(n, 6);
        let mut x = rand_vec(n, 7);
        let mut r = rand_vec(n, 8);
        let (x0, r0) = (x.clone(), r.clone());
        let alpha = 0.37;
        let rr = axpy2_norm2(alpha, &p, &q, x.as_mut_slice(), r.as_mut_slice());
        let mut x_ref = x0;
        let mut r_ref = r0;
        x_ref.axpy(alpha, &p);
        r_ref.axpy(-alpha, &q);
        assert_eq!(x, x_ref);
        assert_eq!(r, r_ref);
        // Same chunking as `dot`, so the fused norm is bit-identical.
        assert_eq!(rr.to_bits(), r_ref.dot(&r_ref).to_bits());
    }

    #[test]
    fn axpy_norm2_matches_composition() {
        let n = 1234;
        let x = rand_vec(n, 9);
        let y = rand_vec(n, 10);
        let mut y2 = y.clone();
        let nn = axpy_norm2(0.5, &x, y2.as_mut_slice());
        let mut y_ref = y.clone();
        y_ref.axpy(0.5, &x);
        assert_eq!(y2, y_ref);
        assert_eq!(nn.to_bits(), y_ref.dot(&y_ref).to_bits());
    }

    #[test]
    fn elementwise_kernels_match_chains() {
        let n = 777;
        let r = rand_vec(n, 14);
        let p0 = rand_vec(n, 16);

        let mut z = p0.clone();
        axpby(2.0, &r, -0.5, z.as_mut_slice());
        for i in 0..n {
            assert_eq!(z[i], 2.0 * r[i] + -0.5 * p0[i]);
        }

        let mut sc = Vector::zeros(n);
        scale_into(sc.as_mut_slice(), 3.0, &r);
        for i in 0..n {
            assert_eq!(sc[i], 3.0 * r[i]);
        }
    }

    #[test]
    fn jacobi_sweep_matches_sequential_reference() {
        let a = poisson2d(12);
        let dim = a.nrows();
        let x = rand_vec(dim, 17);
        let b = rand_vec(dim, 18);
        let mut out = Vector::zeros(dim);
        jacobi_sweep(&a, &x, &b, out.as_mut_slice());
        for i in 0..dim {
            let mut sigma = 0.0;
            let mut diag = 0.0;
            for (pos, &j) in a.row_indices(i).iter().enumerate() {
                if j as usize == i {
                    diag = a.row_values(i)[pos];
                } else {
                    sigma += a.row_values(i)[pos] * x[j as usize];
                }
            }
            let expect = (b[i] - sigma) / diag;
            assert_eq!(out[i], expect);
        }
    }
}
