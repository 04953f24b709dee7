//! Dense-vector kernels used by the iterative solvers.
//!
//! The paper's dynamic variables are dense `f64` vectors (the approximate
//! solution `x`, the search direction `p`, the residual `r`, …).  This module
//! provides the handful of BLAS-1 kernels the solvers need, each one body
//! over slices run through [`run_len`]: a single chunk below
//! [`PAR_THRESHOLD`] elements, so that tiny test problems do not pay
//! thread-pool overhead, and the pool's fixed length-based chunks above
//! it.  Chunk boundaries depend only on the data length and partial
//! reductions are combined in chunk order, so every result is
//! bit-identical at any `LCR_NUM_THREADS` setting.

use crate::kernels::run_len;
use std::ops::{Deref, DerefMut, Index, IndexMut};

/// Number of elements (for SpMV: non-zeros) above which the kernels use the
/// thread pool: dispatching a parallel call costs a few microseconds of
/// pool hand-off, while these memory-bound
/// kernels move ~1–2 elements/ns per core, so the break-even sits in the
/// tens of thousands of elements.
pub const PAR_THRESHOLD: usize = 32_768;

/// A dense, heap-allocated `f64` vector with the BLAS-1 operations needed by
/// iterative methods.
///
/// `Vector` dereferences to `[f64]`, so slice methods are available
/// directly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero-filled vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Vector {
            data: vec![value; n],
        }
    }

    /// Wraps an existing `Vec<f64>`.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Vector { data }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copies the contents of `other` into `self`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &Vector) {
        assert_eq!(self.len(), other.len(), "copy_from: length mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Euclidean (2-) norm.
    pub fn norm2(&self) -> f64 {
        dot(&self.data, &self.data).sqrt()
    }

    /// Infinity norm (maximum absolute value); 0 for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        let data = &self.data;
        run_len(data.len(), [], |c, []| data[c].iter().fold(0.0_f64, |acc, v| acc.max(v.abs())))
            .into_iter()
            .fold(0.0, f64::max)
    }

    /// Dot product with another vector.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        dot(&self.data, &other.data)
    }

    /// `self = self * alpha`.
    pub fn scale(&mut self, alpha: f64) {
        run_len(self.data.len(), [&mut self.data], |_, [ys]| {
            ys.iter_mut().for_each(|v| *v *= alpha);
        });
    }

    /// `self = self + alpha * x` (the classic axpy update).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f64, x: &Vector) {
        axpy(alpha, &x.data, &mut self.data);
    }

    /// `self = x + beta * self` (the "xpby" update used by CG's direction
    /// refresh `p = z + beta p`).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn xpby(&mut self, x: &Vector, beta: f64) {
        assert_eq!(self.len(), x.len(), "xpby: length mismatch");
        run_len(self.data.len(), [&mut self.data], |c, [ps]| {
            for (p, xi) in ps.iter_mut().zip(&x.data[c]) {
                *p = xi + beta * *p;
            }
        });
    }

    /// Element-wise maximum absolute difference to another vector.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn max_abs_diff(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "max_abs_diff: length mismatch");
        let (a, b) = (&self.data, &other.data);
        run_len(a.len(), [], |c, []| {
            let diffs = a[c.clone()].iter().zip(&b[c]).map(|(a, b)| (a - b).abs());
            diffs.fold(0.0_f64, f64::max)
        })
        .into_iter()
        .fold(0.0, f64::max)
    }

    /// Value range (max − min); 0 for the empty vector.  Used by the
    /// value-range-relative error bound of the compressors.
    pub fn value_range(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let data = &self.data;
        let none = (f64::INFINITY, f64::NEG_INFINITY);
        let extremes = run_len(data.len(), [], |c, []| {
            data[c].iter().fold(none, |(mn, mx), &v| (mn.min(v), mx.max(v)))
        });
        let (min, max) = extremes
            .into_iter()
            .fold(none, |(amn, amx), (bmn, bmx)| (amn.min(bmn), amx.max(bmx)));
        max - min
    }

    /// Fills the vector with uniformly distributed pseudo-random values in
    /// `[lo, hi)` from a simple deterministic linear congruential generator.
    ///
    /// The generator is deliberately self-contained (no `rand` dependency in
    /// the hot path) so initial guesses are reproducible across platforms.
    pub fn fill_random(&mut self, seed: u64, lo: f64, hi: f64) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for v in self.data.iter_mut() {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64
                / (1u64 << 53) as f64;
            *v = lo + r * (hi - lo);
        }
    }
}

impl Deref for Vector {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.data
    }
}

impl DerefMut for Vector {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector::from_vec(v)
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector::from_vec(iter.into_iter().collect())
    }
}

/// Dot product of two slices, parallel above [`PAR_THRESHOLD`].
///
/// Each chunk runs the eight-lane [`simd`](crate::simd) dot kernel and the
/// per-chunk partials are summed in chunk order, so the result is
/// bit-identical at any thread count *and* bit-identical to the norms the
/// fused kernels in [`kernels`](crate::kernels) return, which use the same
/// chunking and the same lane kernel.
///
/// # Panics
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    run_len(a.len(), [], |c, []| crate::simd::dot(&a[c.clone()], &b[c]))
        .into_iter()
        .sum()
}

/// `y = a*x + y` on raw slices.
///
/// # Panics
/// Panics if the lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    run_len(y.len(), [y], |c, [ys]| {
        for (yi, xi) in ys.iter_mut().zip(&x[c]) {
            *yi += alpha * xi;
        }
    });
}

/// Euclidean norm of a slice.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        let z = Vector::zeros(5);
        assert_eq!(z.len(), 5);
        assert!(z.iter().all(|&v| v == 0.0));
        let f = Vector::filled(3, 2.5);
        assert_eq!(f.as_slice(), &[2.5, 2.5, 2.5]);
        assert!(!f.is_empty());
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn norms() {
        let v = Vector::from_vec(vec![3.0, -4.0]);
        assert!((v.norm2() - 5.0).abs() < 1e-14);
        assert!((v.norm_inf() - 4.0).abs() < 1e-14);
    }

    #[test]
    fn dot_and_axpy() {
        let a = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = Vector::from_vec(vec![4.0, 5.0, 6.0]);
        assert!((a.dot(&b) - 32.0).abs() < 1e-14);

        let mut y = b.clone();
        y.axpy(2.0, &a);
        assert_eq!(y.as_slice(), &[6.0, 9.0, 12.0]);
    }

    #[test]
    fn xpby_matches_manual() {
        // p = z + beta p
        let z = Vector::from_vec(vec![1.0, 1.0]);
        let mut p = Vector::from_vec(vec![2.0, 4.0]);
        p.xpby(&z, 0.5);
        assert_eq!(p.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn scale_matches_manual() {
        let mut v = Vector::from_vec(vec![1.0, -2.0]);
        v.scale(-3.0);
        assert_eq!(v.as_slice(), &[-3.0, 6.0]);
    }

    #[test]
    fn value_range_and_diff() {
        let v = Vector::from_vec(vec![-1.0, 0.0, 3.0]);
        assert!((v.value_range() - 4.0).abs() < 1e-14);
        let w = Vector::from_vec(vec![-1.5, 0.0, 3.25]);
        assert!((v.max_abs_diff(&w) - 0.5).abs() < 1e-14);
        assert_eq!(Vector::zeros(0).value_range(), 0.0);
    }

    #[test]
    fn parallel_paths_match_sequential() {
        let n = PAR_THRESHOLD + 17;
        let mut a = Vector::zeros(n);
        let mut b = Vector::zeros(n);
        a.fill_random(1, -1.0, 1.0);
        b.fill_random(2, -1.0, 1.0);

        let seq_dot: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        assert!((a.dot(&b) - seq_dot).abs() < 1e-9 * seq_dot.abs().max(1.0));

        let seq_inf = a.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        assert_eq!(a.norm_inf(), seq_inf);

        let mut y1 = b.clone();
        y1.axpy(0.7, &a);
        let mut y2 = b.clone();
        for i in 0..n {
            y2[i] += 0.7 * a[i];
        }
        assert!(y1.max_abs_diff(&y2) < 1e-12);
    }

    #[test]
    fn fill_random_is_deterministic_and_bounded() {
        let mut a = Vector::zeros(1000);
        let mut b = Vector::zeros(1000);
        a.fill_random(42, -2.0, 3.0);
        b.fill_random(42, -2.0, 3.0);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| (-2.0..3.0).contains(&v)));
        let mut c = Vector::zeros(1000);
        c.fill_random(43, -2.0, 3.0);
        assert_ne!(a, c);
    }

    #[test]
    fn copy_from_and_conversions() {
        let a = Vector::from(vec![1.0, 2.0]);
        let mut b = Vector::zeros(2);
        b.copy_from(&a);
        assert_eq!(a, b);
        let v: Vector = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        let _ = a.dot(&b);
    }

    #[test]
    fn slice_helpers() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        assert!((dot(&a, &b) - 11.0).abs() < 1e-14);
        assert!((norm2(&a) - (5.0_f64).sqrt()).abs() < 1e-14);
        let mut y = b.clone();
        axpy(2.0, &a, &mut y);
        assert_eq!(y, vec![5.0, 8.0]);
    }
}
