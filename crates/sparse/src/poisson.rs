//! Poisson stencil matrix generators.
//!
//! The paper's weak-scaling evaluation solves the sparse linear system
//! arising from discretising a 3-D Poisson equation (Equation 15): a
//! block-tridiagonal matrix whose diagonal blocks are themselves
//! block-tridiagonal, bottoming out in tridiagonal blocks with `-6` on the
//! diagonal and `1` on the off-diagonals, plus identity coupling blocks.
//! That is exactly the standard 7-point stencil of the 3-D Laplacian with
//! the sign convention the paper uses.
//!
//! The paper runs `n³` from `1088³` (256 ranks) to `2160³` (2,048 ranks);
//! those sizes do not fit in one node's memory, so the experiment harness
//! scales `n` down by a documented factor and reproduces the *per-rank
//! checkpoint sizes* of Table 3 through the rank/PFS model instead (see
//! `lcr-ckpt`).  This module generates the same matrix family at any `n`.

use crate::csr::col32;
use crate::{CsrMatrix, Vector};

/// The `(2·dims + 1)`-point Laplacian stencil (`-2·dims` diagonal, `+1`
/// couplings) on an `n^dims` grid, row-major with `i` fastest.  Each row's
/// entries go straight into the CSR arrays in ascending column order —
/// `k−1, j−1, i−1`, diagonal, `i+1, j+1, k+1` — so no triplet list is made
/// and nothing is sorted.  Like the COO conversion, the SpMV plan is built
/// here, the finalize point.
fn stencil(n: usize, dims: u32) -> CsrMatrix {
    let rows = n.pow(dims);
    let extent = |axis: u32| if axis < dims { n } else { 1 };
    let (n2, diag) = (n * n, -2.0 * f64::from(dims));
    // Every axis drops its two boundary couplings on each of its n^(dims−1) lines.
    let nnz = (2 * dims as usize + 1) * rows - 2 * dims as usize * (rows / n.max(1));
    let mut indptr = Vec::with_capacity(rows + 1);
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    indptr.push(0);
    for k in 0..extent(2) {
        for j in 0..extent(1) {
            for i in 0..n {
                let row = k * n2 + j * n + i;
                for (present, col, v) in [
                    (k > 0, row.wrapping_sub(n2), 1.0),
                    (j > 0, row.wrapping_sub(n), 1.0),
                    (i > 0, row.wrapping_sub(1), 1.0),
                    (true, row, diag),
                    (i + 1 < n, row + 1, 1.0),
                    (j + 1 < extent(1), row + n, 1.0),
                    (k + 1 < extent(2), row + n2, 1.0),
                ] {
                    if present {
                        indices.push(col32(col));
                        values.push(v);
                    }
                }
                indptr.push(indices.len());
            }
        }
    }
    let a = CsrMatrix::from_raw_unchecked(rows, rows, indptr, indices, values);
    a.plan();
    a
}

/// Generates the paper's 3-D Poisson matrix of dimension `n³ × n³`
/// (Equation 15): 7-point stencil, `-6` diagonal, `+1` off-diagonals.
///
/// The matrix is symmetric negative definite; iterative solvers in this
/// repository solve `A x = b` with this sign, exactly as the paper states
/// it (CG included: its iterates are those of the negated system).
pub fn poisson3d(n: usize) -> CsrMatrix {
    stencil(n, 3)
}

/// Generates the 2-D 5-point Poisson matrix (`-4` diagonal) of dimension
/// `n² × n²`.  Useful for faster tests and the CFD example.
pub fn poisson2d(n: usize) -> CsrMatrix {
    stencil(n, 2)
}

/// Generates the 1-D second-difference matrix (`-2` diagonal) of dimension
/// `n × n`.
pub fn poisson1d(n: usize) -> CsrMatrix {
    stencil(n, 1)
}

/// Builds a right-hand side `b = A x*` for a smooth manufactured solution
/// `x*_i = sin(2π i / n) + 0.5 cos(4π i / n)` so that iterative methods have a
/// known exact solution and the solution vector has the smoothness real PDE
/// fields have (which is what makes lossy compression effective — §5.1 of
/// the paper).
pub fn manufactured_rhs(a: &CsrMatrix) -> (Vector, Vector) {
    let n = a.ncols();
    let mut xstar = Vector::zeros(n);
    for i in 0..n {
        let t = i as f64 / n as f64;
        xstar[i] = (2.0 * std::f64::consts::PI * t).sin()
            + 0.5 * (4.0 * std::f64::consts::PI * t).cos();
    }
    let b = a.mul_vec(&xstar);
    (xstar, b)
}

/// The per-process problem sizes `n` used in Table 3 of the paper, keyed by
/// the number of processes: the paper's weak-scaling grid goes from `1088³`
/// at 256 processes to `2160³` at 2,048 processes.
const TABLE3_GRID: &[(usize, usize)] = &[
    (256, 1088),
    (512, 1368),
    (768, 1568),
    (1024, 1728),
    (1280, 1856),
    (1536, 1968),
    (1792, 2064),
    (2048, 2160),
];

/// Looks up the paper's global grid edge length `n` for a process count, if
/// it is one of the Table 3 configurations.
pub fn table3_grid_edge(processes: usize) -> Option<usize> {
    TABLE3_GRID
        .iter()
        .find(|(p, _)| *p == processes)
        .map(|(_, n)| *n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson1d_structure() {
        let a = poisson1d(5);
        assert_eq!(a.nrows(), 5);
        assert_eq!(a.nnz(), 5 * 3 - 2);
        assert_eq!(a.get(0, 0), -2.0);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(4, 3), 1.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn poisson2d_structure() {
        let a = poisson2d(4);
        assert_eq!(a.nrows(), 16);
        assert_eq!(a.get(0, 0), -4.0);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(0, 4), 1.0);
        assert_eq!(a.get(0, 5), 0.0);
        assert!(a.is_symmetric(0.0));
        // Interior row has 5 entries, corner has 3.
        assert_eq!(a.row_indices(5).len(), 5);
        assert_eq!(a.row_indices(0).len(), 3);
    }

    #[test]
    fn poisson3d_matches_paper_stencil() {
        let n = 4;
        let a = poisson3d(n);
        assert_eq!(a.nrows(), n * n * n);
        assert!(a.is_symmetric(0.0));
        // Paper's Equation 15: diagonal is -6, neighbours are +1.
        let interior = 1 + n + n * n + 1; // (1,1,1)-ish interior point
        assert_eq!(a.get(interior, interior), -6.0);
        assert_eq!(a.row_indices(interior).len(), 7);
        // Corner point has 3 neighbours + diagonal.
        assert_eq!(a.row_indices(0).len(), 4);
        assert_eq!(a.get(0, 0), -6.0);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(0, n), 1.0);
        assert_eq!(a.get(0, n * n), 1.0);
    }

    #[test]
    fn poisson3d_is_negative_definite_direction() {
        // x^T A x < 0 for a random nonzero x (A = -Laplacian-like).
        let a = poisson3d(3);
        let mut x = Vector::zeros(a.nrows());
        x.fill_random(3, -1.0, 1.0);
        let quad = x.dot(&a.mul_vec(&x));
        assert!(quad < 0.0, "expected negative definite quadratic form");
    }

    #[test]
    fn manufactured_solution_consistent() {
        let a = poisson3d(4);
        let (xstar, b) = manufactured_rhs(&a);
        let r = a.residual(&xstar, &b);
        assert!(r.norm2() < 1e-12);
        assert!(b.norm2() > 0.0);
    }

    #[test]
    fn poisson_matrices_ship_with_a_finalized_plan() {
        // Assembly is a finalize point: it builds the SpMV plan eagerly, so
        // the stencil matrices the experiments solve never pay for plan
        // construction inside a timed solver loop.
        let a = poisson3d(8);
        let plan = a.plan();
        assert_eq!(plan.chunks().last().unwrap().1, a.nrows());
        assert_eq!(plan.is_parallel(), a.nnz() >= crate::PAR_THRESHOLD);
    }

    /// The triplet route the generators took before they wrote CSR
    /// directly: diagonal first, then `±1` along `i`, `j` and `k`, pushed
    /// through `CooMatrix` and sorted by `to_csr`.
    fn stencil_via_triplets(n: usize, dims: u32) -> CsrMatrix {
        let rows = n.pow(dims);
        let mut coo = crate::CooMatrix::with_capacity(rows, rows, (2 * dims as usize + 1) * rows);
        for row in 0..rows {
            coo.push(row, row, -2.0 * f64::from(dims)).unwrap();
            for axis in 0..dims {
                let (stride, coord) = (n.pow(axis), row / n.pow(axis) % n);
                if coord > 0 {
                    coo.push(row, row - stride, 1.0).unwrap();
                }
                if coord + 1 < n {
                    coo.push(row, row + stride, 1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn direct_assembly_matches_the_triplet_route_bit_for_bit() {
        let bits = |a: &CsrMatrix| a.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let generators = [(1, poisson1d as fn(usize) -> CsrMatrix), (2, poisson2d), (3, poisson3d)];
        for (dims, generate) in generators {
            for n in [0, 1, 2, 3, 5, 12] {
                let (direct, reference) = (generate(n), stencil_via_triplets(n, dims));
                let what = format!("{dims}-D, n = {n}");
                assert_eq!(direct.ncols(), reference.ncols(), "{what}");
                assert_eq!(direct.indptr(), reference.indptr(), "{what}");
                assert_eq!(direct.indices(), reference.indices(), "{what}");
                assert_eq!(bits(&direct), bits(&reference), "{what}");
                assert_eq!(direct.plan().chunks(), reference.plan().chunks(), "{what}");
            }
        }
    }

    #[test]
    fn table3_lookup() {
        assert_eq!(table3_grid_edge(256), Some(1088));
        assert_eq!(table3_grid_edge(2048), Some(2160));
        assert_eq!(table3_grid_edge(100), None);
        assert_eq!(TABLE3_GRID.len(), 8);
    }
}
