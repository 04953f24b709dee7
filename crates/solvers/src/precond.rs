//! Preconditioners.
//!
//! The paper uses PETSc's default preconditioning set-up — block Jacobi with
//! ILU(0)/IC(0) inside the blocks — for the Poisson experiments, and a plain
//! Jacobi (diagonal) preconditioner for the KKT240/GMRES experiment of
//! Figure 3.  This module implements those behind the [`Preconditioner`]
//! trait (apply `z = M⁻¹ r`).

use lcr_sparse::{CsrMatrix, SparseError, Vector};
use rayon::prelude::*;

/// Applies the inverse of a preconditioning operator `M`.
pub trait Preconditioner: Send + Sync {
    /// Computes `z = M⁻¹ r`.
    ///
    /// # Panics
    /// Implementations panic on dimension mismatch (programming error).
    fn apply(&self, r: &Vector) -> Vector;

    /// Computes `z = M⁻¹ r` into a preallocated vector — the variant the
    /// solver inner loops call so that per-iteration allocations vanish.
    /// The default delegates to [`Preconditioner::apply`]; implementations
    /// with cheap kernels override it to skip the allocation entirely.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    fn apply_into(&self, r: &Vector, out: &mut Vector) {
        *out = self.apply(r);
    }

    /// Short name ("none", "jacobi", "bjacobi+ilu0", ...).
    fn name(&self) -> &'static str;

    /// Whether this preconditioner is exactly the identity (`M = I`).
    ///
    /// Solvers use this to skip the `z = M⁻¹ r` application and reuse
    /// ‖r‖² as `rᵀz` — numerically identical, two fewer sweeps per
    /// iteration.  Only [`IdentityPreconditioner`] returns `true`.
    fn is_identity(&self) -> bool {
        false
    }

    /// Approximate number of bytes needed to store the preconditioner's
    /// data; contributes to the static-variable recovery accounting.
    fn storage_bytes(&self) -> usize;
}

/// The identity preconditioner (`M = I`).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl IdentityPreconditioner {
    /// Creates the identity preconditioner.
    pub fn new() -> Self {
        IdentityPreconditioner
    }
}

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &Vector) -> Vector {
        r.clone()
    }

    fn apply_into(&self, r: &Vector, out: &mut Vector) {
        out.copy_from(r);
    }

    fn name(&self) -> &'static str {
        "none"
    }

    fn is_identity(&self) -> bool {
        true
    }

    fn storage_bytes(&self) -> usize {
        0
    }
}

/// Jacobi (diagonal) preconditioner: `M = diag(A)`.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: Vector,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from the matrix diagonal.
    ///
    /// # Errors
    /// Returns [`SparseError::ZeroDiagonal`] if any diagonal entry is zero.
    pub fn new(a: &CsrMatrix) -> Result<Self, SparseError> {
        a.require_nonzero_diagonal()?;
        let mut inv_diag = a.diagonal();
        for v in inv_diag.iter_mut() {
            *v = 1.0 / *v;
        }
        Ok(JacobiPreconditioner { inv_diag })
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &Vector) -> Vector {
        let mut z = Vector::zeros(r.len());
        self.apply_into(r, &mut z);
        z
    }

    fn apply_into(&self, r: &Vector, out: &mut Vector) {
        assert_eq!(r.len(), self.inv_diag.len(), "dimension mismatch");
        assert_eq!(out.len(), r.len(), "dimension mismatch");
        if r.len() >= lcr_sparse::PAR_THRESHOLD {
            out.as_mut_slice()
                .par_iter_mut()
                .zip(r.as_slice().par_iter())
                .zip(self.inv_diag.as_slice().par_iter())
                .for_each(|((z, ri), di)| *z = ri * di);
        } else {
            for i in 0..r.len() {
                out[i] = r[i] * self.inv_diag[i];
            }
        }
    }

    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn storage_bytes(&self) -> usize {
        self.inv_diag.len() * std::mem::size_of::<f64>()
    }
}

/// Incomplete LU factorisation with zero fill-in, ILU(0): `M = L·U` where
/// `L`/`U` keep exactly the sparsity pattern of `A`.
#[derive(Debug, Clone)]
pub(crate) struct Ilu0Preconditioner {
    /// Combined LU factors stored in the sparsity pattern of `A`
    /// (strict lower part = L without its unit diagonal, upper part = U).
    factors: CsrMatrix,
}

impl Ilu0Preconditioner {
    /// Computes the ILU(0) factorisation of `a`.
    ///
    /// # Errors
    /// Returns [`SparseError::ZeroDiagonal`] if a pivot becomes zero.
    pub fn new(a: &CsrMatrix) -> Result<Self, SparseError> {
        a.require_nonzero_diagonal()?;
        let n = a.nrows();
        let mut factors = a.clone();
        // IKJ-variant ILU(0) restricted to the original pattern.
        for i in 1..n {
            // For each k < i present in row i:
            let row_start = factors.indptr()[i];
            let row_end = factors.indptr()[i + 1];
            for kk in row_start..row_end {
                let k = factors.indices()[kk];
                if k >= i {
                    break;
                }
                let pivot = factors.get(k, k);
                if pivot == 0.0 {
                    return Err(SparseError::ZeroDiagonal(k));
                }
                let lik = factors.values()[kk] / pivot;
                factors.values_mut()[kk] = lik;
                // Update remaining entries of row i with row k of U, only
                // where row i already has entries (zero fill-in).
                for jj in (kk + 1)..row_end {
                    let j = factors.indices()[jj];
                    let ukj = factors.get(k, j);
                    if ukj != 0.0 {
                        factors.values_mut()[jj] -= lik * ukj;
                    }
                }
            }
        }
        // Final pivots must be non-zero for the triangular solves.
        for i in 0..n {
            if factors.get(i, i) == 0.0 {
                return Err(SparseError::ZeroDiagonal(i));
            }
        }
        Ok(Ilu0Preconditioner { factors })
    }

    /// Solves `L U z = r` with forward/backward substitution, writing into
    /// a caller-provided buffer (every element is overwritten).  The
    /// forward result `y` lives in `z` and the backward solve runs in
    /// place, so no temporaries are allocated.
    fn solve_into(&self, r: &[f64], z: &mut [f64]) {
        let n = self.factors.nrows();
        // Forward solve L y = r (unit diagonal), y stored in z.
        for i in 0..n {
            let mut sum = r[i];
            for (pos, &j) in self.factors.row_indices(i).iter().enumerate() {
                if j >= i {
                    break;
                }
                sum -= self.factors.row_values(i)[pos] * z[j];
            }
            z[i] = sum;
        }
        // Backward solve U z = y, in place (z[j] for j > i is final).
        for i in (0..n).rev() {
            let mut sum = z[i];
            let mut diag = 1.0;
            for (pos, &j) in self.factors.row_indices(i).iter().enumerate() {
                let v = self.factors.row_values(i)[pos];
                if j > i {
                    sum -= v * z[j];
                } else if j == i {
                    diag = v;
                }
            }
            z[i] = sum / diag;
        }
    }
}

impl Preconditioner for Ilu0Preconditioner {
    fn apply(&self, r: &Vector) -> Vector {
        let mut z = Vector::zeros(r.len());
        self.apply_into(r, &mut z);
        z
    }

    fn apply_into(&self, r: &Vector, out: &mut Vector) {
        assert_eq!(r.len(), self.factors.nrows(), "dimension mismatch");
        assert_eq!(out.len(), r.len(), "dimension mismatch");
        self.solve_into(r.as_slice(), out.as_mut_slice());
    }

    fn name(&self) -> &'static str {
        "ilu0"
    }

    fn storage_bytes(&self) -> usize {
        self.factors.storage_bytes()
    }
}

/// Incomplete Cholesky factorisation with zero fill-in, IC(0), for SPD
/// matrices: `M = L·Lᵀ` on the lower-triangular pattern of `A`.
#[derive(Debug, Clone)]
pub struct Ic0Preconditioner {
    /// Lower-triangular factor stored densely by rows of the original
    /// pattern (row-major list of `(col, value)` per row, diagonal last).
    rows: Vec<Vec<(usize, f64)>>,
}

impl Ic0Preconditioner {
    /// Computes the IC(0) factorisation of the (assumed SPD) matrix `a`.
    ///
    /// # Errors
    /// Returns [`SparseError::ZeroDiagonal`] if a pivot becomes non-positive
    /// (matrix not SPD enough for IC(0)).
    pub fn new(a: &CsrMatrix) -> Result<Self, SparseError> {
        let n = a.nrows();
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for i in 0..n {
            // Entries of the lower triangle of row i, in column order.
            for (pos, &j) in a.row_indices(i).iter().enumerate() {
                if j > i {
                    break;
                }
                let mut sum = a.row_values(i)[pos];
                // sum -= Σ_k<j L[i][k] * L[j][k]
                for &(ki, vi) in &rows[i] {
                    if ki >= j {
                        break;
                    }
                    if let Some(&(_, vj)) = rows[j].iter().find(|&&(kj, _)| kj == ki) {
                        sum -= vi * vj;
                    }
                }
                if j == i {
                    if sum <= 0.0 {
                        return Err(SparseError::ZeroDiagonal(i));
                    }
                    rows[i].push((j, sum.sqrt()));
                } else {
                    let ljj = rows[j]
                        .last()
                        .map(|&(_, v)| v)
                        .ok_or(SparseError::ZeroDiagonal(j))?;
                    rows[i].push((j, sum / ljj));
                }
            }
            if rows[i].last().map(|&(c, _)| c) != Some(i) {
                return Err(SparseError::ZeroDiagonal(i));
            }
        }
        Ok(Ic0Preconditioner { rows })
    }

    /// Solves `L Lᵀ z = r`, writing into a caller-provided buffer (every
    /// element is overwritten; the backward sweep runs in place on the
    /// forward result, so no temporaries are allocated).
    fn solve_into(&self, r: &[f64], z: &mut [f64]) {
        let n = self.rows.len();
        // Forward solve L y = r, y stored in z.
        for i in 0..n {
            let mut sum = r[i];
            let mut diag = 1.0;
            for &(j, v) in &self.rows[i] {
                if j < i {
                    sum -= v * z[j];
                } else {
                    diag = v;
                }
            }
            z[i] = sum / diag;
        }
        // Backward solve Lᵀ z = y, in place.
        for i in (0..n).rev() {
            let diag = self.rows[i].last().expect("diagonal present").1;
            z[i] /= diag;
            let zi = z[i];
            for &(j, v) in &self.rows[i] {
                if j < i {
                    z[j] -= v * zi;
                }
            }
        }
    }
}

impl Preconditioner for Ic0Preconditioner {
    fn apply(&self, r: &Vector) -> Vector {
        let mut z = Vector::zeros(r.len());
        self.apply_into(r, &mut z);
        z
    }

    fn apply_into(&self, r: &Vector, out: &mut Vector) {
        assert_eq!(r.len(), self.rows.len(), "dimension mismatch");
        assert_eq!(out.len(), r.len(), "dimension mismatch");
        self.solve_into(r.as_slice(), out.as_mut_slice());
    }

    fn name(&self) -> &'static str {
        "ic0"
    }

    fn storage_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.len() * (std::mem::size_of::<usize>() + std::mem::size_of::<f64>()))
            .sum()
    }
}

/// Block Jacobi preconditioner with ILU(0) inside each diagonal block —
/// PETSc's default parallel preconditioner, where each MPI rank factorises
/// its local diagonal block (the paper's §5.1 set-up).
#[derive(Debug, Clone)]
pub struct BlockJacobiPreconditioner {
    blocks: Vec<(usize, Ilu0Preconditioner)>,
    dim: usize,
}

impl BlockJacobiPreconditioner {
    /// Builds a block-Jacobi preconditioner with `n_blocks` contiguous
    /// diagonal blocks, each factorised with ILU(0).  `n_blocks` mirrors the
    /// number of ranks in the simulated run.
    ///
    /// # Errors
    /// Propagates zero-pivot errors from the per-block ILU(0).
    ///
    /// # Panics
    /// Panics if `n_blocks` is zero.
    pub fn new(a: &CsrMatrix, n_blocks: usize) -> Result<Self, SparseError> {
        assert!(n_blocks > 0, "need at least one block");
        let n = a.nrows();
        let n_blocks = n_blocks.min(n.max(1));
        let base = n / n_blocks;
        let extra = n % n_blocks;
        let mut blocks = Vec::with_capacity(n_blocks);
        let mut start = 0usize;
        for b in 0..n_blocks {
            let len = base + usize::from(b < extra);
            if len == 0 {
                continue;
            }
            let block = a.diagonal_block(start, len);
            blocks.push((start, Ilu0Preconditioner::new(&block)?));
            start += len;
        }
        Ok(BlockJacobiPreconditioner { blocks, dim: n })
    }
}

impl Preconditioner for BlockJacobiPreconditioner {
    fn apply(&self, r: &Vector) -> Vector {
        let mut z = Vector::zeros(r.len());
        self.apply_into(r, &mut z);
        z
    }

    fn apply_into(&self, r: &Vector, out: &mut Vector) {
        assert_eq!(r.len(), self.dim, "dimension mismatch");
        assert_eq!(out.len(), self.dim, "dimension mismatch");
        for (start, ilu) in &self.blocks {
            let len = ilu.factors.nrows();
            // Each block solves straight between the corresponding slices —
            // no per-block copies or allocations.
            ilu.solve_into(
                &r.as_slice()[*start..*start + len],
                &mut out.as_mut_slice()[*start..*start + len],
            );
        }
    }

    fn name(&self) -> &'static str {
        "bjacobi+ilu0"
    }

    fn storage_bytes(&self) -> usize {
        self.blocks.iter().map(|(_, b)| b.storage_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcr_sparse::poisson::{poisson1d, poisson2d};

    /// SPD version of the 2-D Poisson matrix (the generators use the paper's
    /// negative-definite sign convention).
    fn spd_poisson2d(n: usize) -> CsrMatrix {
        let mut a = poisson2d(n);
        for v in a.values_mut() {
            *v = -*v;
        }
        a
    }

    fn dense_solve(a: &CsrMatrix, b: &Vector) -> Vector {
        // Small dense Gaussian elimination for reference solutions.
        let n = a.nrows();
        let mut m = vec![0.0f64; n * (n + 1)];
        for i in 0..n {
            for j in 0..n {
                m[i * (n + 1) + j] = a.get(i, j);
            }
            m[i * (n + 1) + n] = b[i];
        }
        for col in 0..n {
            // Partial pivot.
            let mut piv = col;
            for r in col + 1..n {
                if m[r * (n + 1) + col].abs() > m[piv * (n + 1) + col].abs() {
                    piv = r;
                }
            }
            for k in 0..=n {
                m.swap(col * (n + 1) + k, piv * (n + 1) + k);
            }
            let d = m[col * (n + 1) + col];
            for r in 0..n {
                if r != col && m[r * (n + 1) + col] != 0.0 {
                    let f = m[r * (n + 1) + col] / d;
                    for k in col..=n {
                        m[r * (n + 1) + k] -= f * m[col * (n + 1) + k];
                    }
                }
            }
        }
        Vector::from_vec(
            (0..n)
                .map(|i| m[i * (n + 1) + n] / m[i * (n + 1) + i])
                .collect(),
        )
    }

    #[test]
    fn identity_preconditioner() {
        let p = IdentityPreconditioner::new();
        let r = Vector::from_vec(vec![1.0, -2.0, 3.0]);
        assert_eq!(p.apply(&r), r);
        assert_eq!(p.name(), "none");
        assert_eq!(p.storage_bytes(), 0);
    }

    #[test]
    fn jacobi_preconditioner_divides_by_diagonal() {
        let a = poisson1d(4); // diagonal -2
        let p = JacobiPreconditioner::new(&a).unwrap();
        let r = Vector::from_vec(vec![2.0, -4.0, 6.0, 8.0]);
        let z = p.apply(&r);
        assert_eq!(z.as_slice(), &[-1.0, 2.0, -3.0, -4.0]);
        assert_eq!(p.name(), "jacobi");
        assert!(p.storage_bytes() > 0);

        let singular = CsrMatrix::from_dense(2, 2, &[0.0, 1.0, 1.0, 1.0]);
        assert!(JacobiPreconditioner::new(&singular).is_err());
    }

    #[test]
    fn ilu0_is_exact_for_tridiagonal() {
        // For a tridiagonal matrix ILU(0) equals the full LU, so applying it
        // solves the system exactly.
        let a = poisson1d(10);
        let ilu = Ilu0Preconditioner::new(&a).unwrap();
        let b = Vector::filled(10, 1.0);
        let z = ilu.apply(&b);
        let exact = dense_solve(&a, &b);
        assert!(z.max_abs_diff(&exact) < 1e-10);
        assert_eq!(ilu.name(), "ilu0");
    }

    #[test]
    fn ilu0_reduces_condition_for_poisson2d() {
        let a = spd_poisson2d(6);
        let ilu = Ilu0Preconditioner::new(&a).unwrap();
        let r = Vector::filled(36, 1.0);
        let z = ilu.apply(&r);
        // M⁻¹ r should be much closer to A⁻¹ r than r itself.
        let exact = dense_solve(&a, &r);
        let err_prec = z.max_abs_diff(&exact);
        let err_raw = r.max_abs_diff(&exact);
        assert!(err_prec < err_raw);
    }

    #[test]
    fn ic0_matches_ilu0_direction_for_spd() {
        let a = spd_poisson2d(5);
        let ic = Ic0Preconditioner::new(&a).unwrap();
        let r = Vector::filled(25, 1.0);
        let z = ic.apply(&r);
        let exact = dense_solve(&a, &r);
        // IC(0) of a 2-D Poisson matrix is a good approximation of A⁻¹: the
        // preconditioned residual should be far closer to the exact solve
        // than the unpreconditioned right-hand side is.
        let err_prec = z.max_abs_diff(&exact);
        let err_raw = r.max_abs_diff(&exact);
        assert!(err_prec < err_raw);
        assert_eq!(ic.name(), "ic0");
        assert!(ic.storage_bytes() > 0);
    }

    #[test]
    fn ic0_rejects_indefinite_matrix() {
        let indef = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 2.0, 1.0]);
        assert!(Ic0Preconditioner::new(&indef).is_err());
    }

    #[test]
    fn block_jacobi_with_single_block_equals_ilu0() {
        let a = spd_poisson2d(4);
        let bj = BlockJacobiPreconditioner::new(&a, 1).unwrap();
        let ilu = Ilu0Preconditioner::new(&a).unwrap();
        let r = Vector::filled(16, 1.0);
        assert!(bj.apply(&r).max_abs_diff(&ilu.apply(&r)) < 1e-14);
    }

    #[test]
    fn block_jacobi_multiple_blocks() {
        let a = spd_poisson2d(4);
        let bj = BlockJacobiPreconditioner::new(&a, 4).unwrap();
        let r = Vector::filled(16, 1.0);
        let z = bj.apply(&r);
        assert_eq!(z.len(), 16);
        assert!(z.iter().all(|v| v.is_finite()));
        assert_eq!(bj.name(), "bjacobi+ilu0");
        assert!(bj.storage_bytes() > 0);
        // More blocks than rows is clamped, not a panic.
        let bj_many = BlockJacobiPreconditioner::new(&a, 100).unwrap();
        assert_eq!(bj_many.apply(&r).len(), 16);
    }
}
