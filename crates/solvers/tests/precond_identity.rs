//! Bit-identity of the split-factor block-Jacobi preconditioner against
//! the implementation it replaced.
//!
//! The oracle below is that implementation, kept verbatim: ILU(0) on a
//! materialised diagonal block with the combined LU in one CSR matrix,
//! binary-search `get(k, j)` lookups and sweeps that branch on
//! `j < i / j == i / j > i`.  The production code must reproduce its
//! factors and its `apply_into` output to the last bit, at any thread
//! count.

use lcr_solvers::{BlockJacobiPreconditioner, Preconditioner};
use lcr_sparse::kkt::{kkt_system, KktConfig};
use lcr_sparse::poisson::poisson3d;
use lcr_sparse::{CsrMatrix, Vector, PAR_THRESHOLD};

/// Gives this test binary a multi-thread pool even on single-core hosts,
/// unless the CI matrix pinned the size via `LCR_NUM_THREADS`.
fn ensure_pool() {
    if std::env::var("LCR_NUM_THREADS").is_err() {
        rayon::initialize_pool(4);
    }
}

/// Runs `f` with the calling thread's parallelism capped to `threads`
/// (0 = the whole pool).
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    rayon::set_max_active_threads(threads);
    let out = f();
    rayon::set_max_active_threads(0);
    out
}

/// The square sub-block of `a` with rows and columns in
/// `[start, start + len)`; entries outside it are dropped.
fn oracle_diagonal_block(a: &CsrMatrix, start: usize, len: usize) -> CsrMatrix {
    let end = start + len;
    let mut indptr = vec![0];
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    for i in start..end {
        for (&j, &v) in a.row_indices(i).iter().zip(a.row_values(i)) {
            if (start..end).contains(&(j as usize)) {
                indices.push(j - start as u32);
                values.push(v);
            }
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_unchecked(len, len, indptr, indices, values)
}

/// Combined ILU(0) factors in the pattern of `a`, computed entry-wise.
fn oracle_ilu0(a: &CsrMatrix) -> CsrMatrix {
    let n = a.nrows();
    let mut factors = a.clone();
    for i in 1..n {
        let row_start = factors.indptr()[i];
        let row_end = factors.indptr()[i + 1];
        for kk in row_start..row_end {
            let k = factors.indices()[kk] as usize;
            if k >= i {
                break;
            }
            let pivot = factors.get(k, k);
            assert!(pivot != 0.0, "oracle: zero pivot at {k}");
            let lik = factors.values()[kk] / pivot;
            factors.values_mut()[kk] = lik;
            for jj in (kk + 1)..row_end {
                let j = factors.indices()[jj] as usize;
                let ukj = factors.get(k, j);
                if ukj != 0.0 {
                    factors.values_mut()[jj] -= lik * ukj;
                }
            }
        }
    }
    factors
}

/// Forward/backward substitution over the combined factors.
fn oracle_ilu0_solve(factors: &CsrMatrix, r: &[f64], z: &mut [f64]) {
    let n = factors.nrows();
    for i in 0..n {
        let mut sum = r[i];
        for (pos, &j) in factors.row_indices(i).iter().enumerate() {
            let j = j as usize;
            if j >= i {
                break;
            }
            sum -= factors.row_values(i)[pos] * z[j];
        }
        z[i] = sum;
    }
    for i in (0..n).rev() {
        let mut sum = z[i];
        let mut diag = 1.0;
        for (pos, &j) in factors.row_indices(i).iter().enumerate() {
            let j = j as usize;
            let v = factors.row_values(i)[pos];
            if j > i {
                sum -= v * z[j];
            } else if j == i {
                diag = v;
            }
        }
        z[i] = sum / diag;
    }
}

/// `(start, combined factors)` of every block, split like
/// `BlockJacobiPreconditioner::new` splits.
fn oracle_block_jacobi(a: &CsrMatrix, n_blocks: usize) -> Vec<(usize, CsrMatrix)> {
    let n = a.nrows();
    let (base, extra) = (n / n_blocks, n % n_blocks);
    let mut start = 0;
    (0..n_blocks)
        .map(|b| {
            let len = base + usize::from(b < extra);
            start += len;
            (
                start - len,
                oracle_ilu0(&oracle_diagonal_block(a, start - len, len)),
            )
        })
        .collect()
}

/// Asserts factors and applications of `BlockJacobiPreconditioner` equal
/// the oracle's bit for bit at 1, 2 and pool-max threads.
fn assert_block_jacobi_identical(a: &CsrMatrix, n_blocks: usize, label: &str) {
    ensure_pool();
    let oracle = oracle_block_jacobi(a, n_blocks);
    let oracle_entries: Vec<(usize, usize, u64)> = oracle
        .iter()
        .flat_map(|(start, f)| {
            (0..f.nrows()).flat_map(move |i| {
                f.row_indices(i)
                    .iter()
                    .zip(f.row_values(i))
                    .map(move |(&j, v)| (start + i, start + j as usize, v.to_bits()))
            })
        })
        .collect();
    let mut r = Vector::zeros(a.nrows());
    r.fill_random(20180611, -3.0, 3.0);
    let mut expect = vec![0.0; a.nrows()];
    for (start, f) in &oracle {
        let rows = *start..*start + f.nrows();
        oracle_ilu0_solve(f, &r.as_slice()[rows.clone()], &mut expect[rows]);
    }

    for threads in [1, 2, 0] {
        let pre = with_threads(threads, || BlockJacobiPreconditioner::new(a, n_blocks))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let entries: Vec<_> = pre
            .factor_entries()
            .map(|(i, j, v)| (i, j, v.to_bits()))
            .collect();
        assert!(
            entries == oracle_entries,
            "{label}: factors differ from the oracle at {threads} threads"
        );
        // NaN-filled output: every element must be overwritten.
        let mut z = Vector::filled(a.nrows(), f64::NAN);
        with_threads(threads, || pre.apply_into(&r, &mut z));
        for (i, (got, want)) in z.iter().zip(&expect).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{label}: z[{i}] at {threads} threads"
            );
        }
    }
}

/// Unsymmetric band (offsets −3, −1, 0, +1, +2) with explicit stored zeros
/// on two of the off-diagonals, diagonally dominant.
fn banded_with_stored_zeros(n: usize) -> CsrMatrix {
    let mut indptr = vec![0usize];
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    for i in 0..n {
        let noise = ((i * 7919) % 101) as f64 / 101.0;
        for (offset, value) in [
            (-3isize, if i % 4 == 0 { 0.0 } else { -0.7 - noise }),
            (-1, -1.3 + 0.5 * noise),
            (0, 6.0 + noise),
            (1, if i % 3 == 0 { 0.0 } else { -1.1 * noise - 0.2 }),
            (2, 0.9 - noise),
        ] {
            let j = i as isize + offset;
            if (0..n as isize).contains(&j) {
                indices.push(j as u32);
                values.push(value);
            }
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw(n, n, indptr, indices, values).unwrap()
}

/// A tridiagonal matrix whose row 5 also couples to columns 0..=10, so
/// the first block's rows are wider than any stencil's (block widths
/// K = 5, 1, 1 at three blocks).
fn wide_row_matrix(n: usize) -> CsrMatrix {
    let mut dense = vec![0.0; n * n];
    for i in 0..n {
        dense[i * n + i] = 4.0 + (i % 3) as f64;
        if i > 0 {
            dense[i * n + i - 1] = -1.0;
        }
        if i + 1 < n {
            dense[i * n + i + 1] = -1.5;
        }
    }
    for j in (0..=10).filter(|&j| j != 5) {
        dense[5 * n + j] = -0.25 - 0.01 * j as f64;
    }
    dense[5 * n + 5] = 9.0;
    CsrMatrix::from_dense(n, n, &dense)
}

#[test]
fn poisson3d_uneven_blocks_match_the_oracle() {
    // 33³ = 35 937 rows: above the pool threshold, and 35 937 % 16 = 1.
    let a = poisson3d(33);
    assert!(a.nrows() >= PAR_THRESHOLD && !a.nrows().is_multiple_of(16));
    assert_block_jacobi_identical(&a, 16, "poisson3d(33)/16");
    // Below the threshold (sequential path), uneven again: 1 331 % 7 = 1.
    assert_block_jacobi_identical(&poisson3d(11), 7, "poisson3d(11)/7");
}

#[test]
fn ragged_lockstep_groups_match_the_oracle() {
    // Blocks that are swept a few at a time leave a short final group and,
    // where the rows do not divide evenly, blocks of two lengths inside one
    // group: 35 937 = 6 · 5 989 + 3 = 7 · 5 133 + 6.
    let a = poisson3d(33);
    assert!(a.nrows() >= PAR_THRESHOLD);
    for n_blocks in [6, 7] {
        assert!(!a.nrows().is_multiple_of(n_blocks));
        assert_block_jacobi_identical(&a, n_blocks, &format!("poisson3d(33)/{n_blocks}"));
    }
    // Down to one- and two-row blocks, and fewer blocks than any group
    // width: unsymmetric, with stored zeros.
    let n = 11;
    let small = banded_with_stored_zeros(n);
    for n_blocks in [1, 2, 3, 5, n - 1, n] {
        assert_block_jacobi_identical(&small, n_blocks, &format!("banded(11)/{n_blocks}"));
    }
}

#[test]
fn kkt_blocks_match_the_oracle() {
    let (k, _, _) = kkt_system(&KktConfig {
        grid_n: 30,
        ..KktConfig::default()
    });
    assert!(k.nrows() >= PAR_THRESHOLD);
    assert_block_jacobi_identical(&k, 16, "kkt(30)/16");
}

#[test]
fn banded_matrix_with_stored_zeros_matches_the_oracle() {
    let a = banded_with_stored_zeros(PAR_THRESHOLD + 1_001);
    assert!(a.values().iter().filter(|&&v| v == 0.0).count() > a.nrows() / 2);
    assert_block_jacobi_identical(&a, 16, "banded/16");
    assert_block_jacobi_identical(&a, 1, "banded/1");
}

#[test]
fn a_block_with_one_wide_row_matches_the_oracle() {
    // Every row of the first block is padded to the wide row's width.
    let a = wide_row_matrix(40);
    for n_blocks in [1, 3, 16] {
        assert_block_jacobi_identical(&a, n_blocks, &format!("wide row/{n_blocks}"));
    }
}
