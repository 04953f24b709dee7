//! Property-based tests of the sparse-matrix substrate's invariants.

use lcr_sparse::{BlockRowPartition, CooMatrix, CsrMatrix, Vector};
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
        let p = BlockRowPartition::new(n, ranks);
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for range in p.iter() {
            prop_assert_eq!(range.start, prev_end);
            prev_end = range.end;
            covered += range.len();
            prop_assert!(range.len() <= p.max_local_rows());
        }
        prop_assert_eq!(prev_end, n);
        prop_assert_eq!(covered, n);
        // Owner lookup is consistent with the ranges.
        for row in (0..n).step_by((n / 17).max(1)) {
            let owner = p.owner(row);
            prop_assert!(p.range(owner).contains(row));
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
        let p = BlockRowPartition::new(n, ranks);
        // Probe every row for small n, a boundary-heavy sample otherwise.
        let rows: Vec<usize> = if n <= 512 {
            (0..n).collect()
        } else {
            let mut rows: Vec<usize> = (0..ranks.min(n))
                .flat_map(|r| {
                    let range = p.range(r);
                    [range.start, range.end.saturating_sub(1)]
                })
                .chain([0, n / 2, n - 1])
                .filter(|&row| row < n)
                .collect();
            rows.sort_unstable();
            rows.dedup();
            rows
        };
        for row in rows {
            let reference = p
                .iter()
                .find(|range| range.contains(row))
                .expect("every row is owned by exactly one rank")
                .rank;
            prop_assert_eq!(p.owner(row), reference, "row {}", row);
        }
        // Ranges partition [0, n) exactly.
        let covered: usize = p.iter().map(|r| r.len()).sum();
        prop_assert_eq!(covered, n);
    }
}
