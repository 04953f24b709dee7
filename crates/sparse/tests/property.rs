//! Property-based tests of the sparse-matrix substrate's invariants.

use lcr_sparse::{CooMatrix, CsrMatrix, HaloPlan, ShardLayout, Vector};
use proptest::prelude::*;

/// Strategy producing a random small dense matrix as (nrows, ncols, data).
fn dense_matrix() -> impl Strategy<Value = (usize, usize, Vec<f64>)> {
    (1usize..12, 1usize..12).prop_flat_map(|(r, c)| {
        prop::collection::vec(
            prop_oneof![3 => Just(0.0f64), 2 => -10.0f64..10.0],
            r * c,
        )
        .prop_map(move |data| (r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn coo_to_csr_matches_dense((r, c, data) in dense_matrix()) {
        let mut coo = CooMatrix::new(r, c);
        for i in 0..r {
            for j in 0..c {
                let v = data[i * c + j];
                if v != 0.0 {
                    coo.push(i, j, v).unwrap();
                }
            }
        }
        let csr = coo.to_csr();
        prop_assert_eq!(csr.nrows(), r);
        prop_assert_eq!(csr.ncols(), c);
        for i in 0..r {
            for j in 0..c {
                prop_assert_eq!(csr.get(i, j), data[i * c + j]);
            }
        }
    }

    #[test]
    fn spmv_matches_dense_product((r, c, data) in dense_matrix(), seed in 0u64..1000) {
        let a = CsrMatrix::from_dense(r, c, &data);
        let mut x = Vector::zeros(c);
        x.fill_random(seed, -2.0, 2.0);
        let y = a.mul_vec(&x);
        for i in 0..r {
            let expected: f64 = (0..c).map(|j| data[i * c + j] * x[j]).sum();
            prop_assert!((y[i] - expected).abs() <= 1e-9 * expected.abs().max(1.0));
        }
    }

    #[test]
    fn transpose_is_involutive_and_preserves_entries((r, c, data) in dense_matrix()) {
        let a = CsrMatrix::from_dense(r, c, &data);
        let t = a.transpose();
        prop_assert_eq!(t.nrows(), c);
        prop_assert_eq!(t.ncols(), r);
        for i in 0..r {
            for j in 0..c {
                prop_assert_eq!(a.get(i, j), t.get(j, i));
            }
        }
        prop_assert_eq!(t.transpose(), a);
    }

    #[test]
    fn partition_covers_every_row_exactly_once(n in 1usize..5000, ranks in 1usize..256) {
        // One-row blocks: the layout is the plain balanced row partition.
        let p = ShardLayout::with_block(n, ranks, 1);
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        let (mut min, mut max) = (usize::MAX, 0);
        for rank in 0..ranks {
            let (start, end) = p.range(rank);
            prop_assert_eq!(start, prev_end);
            prev_end = end;
            covered += end - start;
            (min, max) = (min.min(end - start), max.max(end - start));
        }
        prop_assert_eq!(prev_end, n);
        prop_assert_eq!(covered, n);
        // Balanced: range lengths differ by at most one row.
        prop_assert!(max - min <= 1, "lengths {}..={}", min, max);
        // Owner lookup is consistent with the ranges.
        for row in (0..n).step_by((n / 17).max(1)) {
            let (start, end) = p.range(p.owner(row));
            prop_assert!(start <= row && row < end);
        }
    }

    #[test]
    fn vector_axpy_dot_identities(seed in 0u64..1000, n in 1usize..300, alpha in -3.0f64..3.0) {
        let mut x = Vector::zeros(n);
        let mut y = Vector::zeros(n);
        x.fill_random(seed, -1.0, 1.0);
        y.fill_random(seed ^ 0xABCD, -1.0, 1.0);
        // dot symmetry
        prop_assert!((x.dot(&y) - y.dot(&x)).abs() < 1e-12);
        // ||x||² == x·x
        prop_assert!((x.norm2().powi(2) - x.dot(&x)).abs() < 1e-9);
        // axpy linearity: (y + αx)·z == y·z + α x·z
        let mut z = Vector::zeros(n);
        z.fill_random(seed ^ 0x1234, -1.0, 1.0);
        let lhs = {
            let mut t = y.clone();
            t.axpy(alpha, &x);
            t.dot(&z)
        };
        let rhs = y.dot(&z) + alpha * x.dot(&z);
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }
}

/// Adversarial `(n, ranks)` pairs for the partition: tiny and huge row
/// counts, rank counts both far below and above `n`, and near-boundary
/// skews (`ranks − 1`, `ranks`, `ranks + 1` extra rows).
fn partition_shapes() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        // General case.
        (1usize..5000, 1usize..64),
        // More ranks than rows (empty ranks; owner's base.max(1) guard).
        (1usize..40, 1usize..200),
        // Exact-division and off-by-one skew around a rank multiple.
        (1usize..64).prop_flat_map(|ranks| {
            (0usize..3, 1usize..80).prop_map(move |(off, mult)| {
                ((ranks * mult + off).max(1), ranks)
            })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pins the closed-form O(1) `owner` against the iterator-based
    /// answer: the unique rank whose range contains the row.
    #[test]
    fn owner_matches_iterator_reference((n, ranks) in partition_shapes()) {
        let p = ShardLayout::with_block(n, ranks, 1);
        // Probe every row for small n, a boundary-heavy sample otherwise.
        let rows: Vec<usize> = if n <= 512 {
            (0..n).collect()
        } else {
            let mut rows: Vec<usize> = (0..ranks.min(n))
                .flat_map(|r| {
                    let (start, end) = p.range(r);
                    [start, end.saturating_sub(1)]
                })
                .chain([0, n / 2, n - 1])
                .filter(|&row| row < n)
                .collect();
            rows.sort_unstable();
            rows.dedup();
            rows
        };
        for row in rows {
            let reference = (0..ranks)
                .find(|&r| {
                    let (start, end) = p.range(r);
                    start <= row && row < end
                })
                .expect("every row is owned by exactly one rank");
            prop_assert_eq!(p.owner(row), reference, "row {}", row);
        }
        // Ranges partition [0, n) exactly.
        let covered: usize = (0..ranks).map(|r| p.rows(r)).sum();
        prop_assert_eq!(covered, n);
    }
}

/// The stencil partition's halo plans validate, and sliding any one
/// receive range by one slot — same length, so the lengths still add up to
/// the buffer — makes a plan `validate` refuses: two peers write one slot
/// and another slot is never written, or the range runs off the buffer.
#[test]
fn halo_plans_validate_and_refuse_every_slid_range() {
    let a = lcr_sparse::poisson::poisson3d(6);
    for shards in [2usize, 3, 4] {
        let layout = ShardLayout::with_block(a.nrows(), shards, 27);
        for view in lcr_sparse::shard::partition_csr(&a, &layout) {
            view.halo.validate();
            for (peer, &(s, e)) in view.halo.recv_ranges.iter().enumerate() {
                if s == e {
                    continue;
                }
                for slid in [(s + 1, e + 1), (s.wrapping_sub(1), e - 1)] {
                    let mut recv_ranges = view.halo.recv_ranges.clone();
                    recv_ranges[peer] = slid;
                    let plan = HaloPlan { recv_ranges, ..view.halo.clone() };
                    let refused = std::panic::catch_unwind(|| plan.validate()).is_err();
                    assert!(refused, "{shards} shards, shard {}: {slid:?} for {s}..{e}", view.shard);
                }
            }
        }
    }
}
