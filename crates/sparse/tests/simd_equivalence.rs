//! Property tests of the SIMD determinism contract: every lane-vectorized
//! kernel in `lcr_sparse::simd` is **bit-for-bit** identical to its
//! same-recurrence scalar mirror, on arbitrary lengths (block remainders
//! included) and arbitrary finite values.  The CI thread matrix runs this
//! suite at `LCR_NUM_THREADS=1` and `4`; the threaded wrappers
//! (`vector::dot`, the fused `kernels::*`) are additionally pinned against
//! single-slice lane results through the deterministic chunk reduction, and
//! GMRES's one-pass kernels against the sweeps they replace.

use lcr_sparse::simd::{self, scalar};
use lcr_sparse::{kernels, vector, Vector};
use proptest::prelude::*;

/// Random finite doubles with a spread of magnitudes: lane reassociation
/// bugs show up exactly when the addends differ in scale.
fn values(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            4 => -1.0e3f64..1.0e3,
            2 => -1.0e-6f64..1.0e-6,
            1 => Just(0.0f64),
        ],
        len,
    )
}

/// Lengths crossing every code-path boundary: empty, sub-block, exact
/// 8-lane blocks, block + remainder, and "large" (multiple pool chunks
/// when the threaded wrappers run at `LCR_NUM_THREADS=4`).
fn lengths() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..9,
        Just(16usize),
        17usize..40,
        Just(4096usize),
        4097usize..4200,
    ]
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dot_lane_equals_scalar((a, b) in lengths().prop_flat_map(|n| (values(n), values(n)))) {
        prop_assert_eq!(bits(simd::dot(&a, &b)), bits(scalar::dot(&a, &b)));
    }

    #[test]
    fn axpy2_norm2_lane_equals_scalar(
        (p, q, x, r) in lengths().prop_flat_map(|n| (values(n), values(n), values(n), values(n))),
        alpha in -2.0f64..2.0,
    ) {
        let (mut x1, mut r1) = (x.clone(), r.clone());
        let (mut x2, mut r2) = (x, r);
        let n1 = simd::axpy2_norm2(alpha, &p, &q, &mut x1, &mut r1);
        let n2 = scalar::axpy2_norm2(alpha, &p, &q, &mut x2, &mut r2);
        prop_assert_eq!(bits(n1), bits(n2));
        prop_assert_eq!(x1, x2);
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn axpy_norm2_lane_equals_scalar(
        (x, y) in lengths().prop_flat_map(|n| (values(n), values(n))),
        alpha in -2.0f64..2.0,
    ) {
        let mut y1 = y.clone();
        let mut y2 = y;
        let n1 = simd::axpy_norm2(alpha, &x, &mut y1);
        let n2 = scalar::axpy_norm2(alpha, &x, &mut y2);
        prop_assert_eq!(bits(n1), bits(n2));
        prop_assert_eq!(y1, y2);
    }

    #[test]
    fn axpy_dot_lane_equals_scalar(
        (x, y, u) in lengths().prop_flat_map(|n| (values(n), values(n), values(n))),
        alpha in -2.0f64..2.0,
    ) {
        let mut y1 = y.clone();
        let mut y2 = y;
        let n1 = simd::axpy_dot(alpha, &x, &mut y1, &u);
        let n2 = scalar::axpy_dot(alpha, &x, &mut y2, &u);
        prop_assert_eq!(bits(n1), bits(n2));
        prop_assert_eq!(y1, y2);
    }

    /// The fused Gram–Schmidt step is the two sweeps it replaces:
    /// `vector::axpy`, then `vector::dot` of the updated `y` with `u`.
    #[test]
    fn axpy_dot_equals_axpy_then_dot(
        (x, y, u) in prop_oneof![3 => lengths(), 1 => Just(vector::PAR_THRESHOLD + 137)]
            .prop_flat_map(|n| (values(n), values(n), values(n))),
        alpha in -2.0f64..2.0,
    ) {
        let mut fused = y.clone();
        let yu = kernels::axpy_dot(alpha, &x, &mut fused, &u);
        let mut swept = y;
        vector::axpy(alpha, &x, &mut swept);
        prop_assert_eq!(bits(yu), bits(vector::dot(&swept, &u)));
        prop_assert_eq!(fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            swept.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }

    /// The one-pass correction `y += Σ α_j x_j` is one `vector::axpy` per
    /// term, in term order, element for element.
    #[test]
    fn multi_axpy_equals_sequential_axpys(
        (y, xs, alphas) in prop_oneof![3 => lengths(), 1 => Just(vector::PAR_THRESHOLD + 137)]
            .prop_flat_map(|n| {
                let terms = 0usize..6;
                (values(n), terms.prop_flat_map(move |k| {
                    (prop::collection::vec(values(n), k), prop::collection::vec(-2.0f64..2.0, k))
                }))
            })
            .prop_map(|(y, (xs, alphas))| (y, xs, alphas)),
    ) {
        let xs: Vec<Vector> = xs.into_iter().map(Vector::from_vec).collect();
        let mut fused = y.clone();
        kernels::multi_axpy(&mut fused, &alphas, &xs);
        let mut swept = y;
        for (&alpha, x) in alphas.iter().zip(&xs) {
            vector::axpy(alpha, x, &mut swept);
        }
        prop_assert_eq!(fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            swept.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }

    /// The threaded `vector::dot` is the chunk-ordered sum of per-chunk
    /// lane dots — single-slice below `PAR_THRESHOLD`, the shim's
    /// deterministic chunking above it.  This pins the whole stack (pool
    /// scheduling included, at whatever `LCR_NUM_THREADS` the harness set)
    /// to the lane kernel's bits.
    #[test]
    fn threaded_dot_is_chunk_ordered_lane_dot(
        (a, b) in prop_oneof![3 => lengths(), 1 => Just(vector::PAR_THRESHOLD + 137)]
            .prop_flat_map(|n| (values(n), values(n))),
    ) {
        let threaded = vector::dot(&a, &b);
        let chunked: f64 = if a.len() < vector::PAR_THRESHOLD {
            simd::dot(&a, &b)
        } else {
            let chunks = rayon::chunk_ranges(a.len(), rayon::DEFAULT_MIN_CHUNK);
            rayon::run_items(chunks, |_, c| simd::dot(&a[c.clone()], &b[c]))
                .into_iter()
                .sum()
        };
        prop_assert_eq!(bits(threaded), bits(chunked));
    }
}
