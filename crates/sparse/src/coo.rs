//! Coordinate (triplet) sparse matrix builder.
//!
//! The COO format is the convenient *construction* format: the KKT
//! generator ([`crate::kkt`]) pushes `(row, col, value)` triplets and then
//! converts once to [`crate::CsrMatrix`] for computation.  (The Poisson
//! stencils know each row's sorted entries up front and write CSR
//! directly.)

use crate::csr::col32;
use crate::{CsrMatrix, Result, SparseError};

/// A sparse matrix in coordinate (triplet) format.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `nrows x ncols` COO matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty matrix with capacity reserved for `nnz` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Appends an entry. Entries with the same `(row, col)` are summed when
    /// converting to CSR, mirroring Matrix Market semantics.
    ///
    /// # Errors
    /// Returns [`SparseError::IndexOutOfBounds`] if the position lies outside
    /// the matrix.
    pub fn push(&mut self, row: usize, col: usize, val: f64) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        Ok(())
    }

    /// Converts to CSR, summing duplicate entries and dropping explicit
    /// zeros that result from cancellation.
    ///
    /// # Panics
    /// Panics if a stored column exceeds `u32::MAX`, the widest column
    /// index [`CsrMatrix`] stores.
    pub fn to_csr(&self) -> CsrMatrix {
        // Count entries per row.
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        // Scatter into row-grouped buffers.
        let mut col_buf = vec![0usize; self.nnz()];
        let mut val_buf = vec![0.0f64; self.nnz()];
        let mut next = counts.clone();
        for i in 0..self.nnz() {
            let r = self.rows[i];
            let dst = next[r];
            col_buf[dst] = self.cols[i];
            val_buf[dst] = self.vals[i];
            next[r] += 1;
        }
        // Sort each row by column and merge duplicates.
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        indptr.push(0usize);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            scratch.clear();
            let (start, end) = (counts[r], counts[r + 1]);
            scratch.extend(
                col_buf[start..end]
                    .iter()
                    .copied()
                    .zip(val_buf[start..end].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let col = scratch[i].0;
                let mut sum = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == col {
                    sum += scratch[j].1;
                    j += 1;
                }
                indices.push(col32(col));
                values.push(sum);
                i = j;
            }
            indptr.push(indices.len());
        }
        let csr = CsrMatrix::from_raw_unchecked(self.nrows, self.ncols, indptr, indices, values);
        // COO → CSR is a finalize point: build the SpMV plan eagerly so the
        // generators hand out matrices that never pay for it mid-solve.
        csr.plan();
        csr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_convert() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        coo.push(2, 2, 4.0).unwrap();
        coo.push(0, 2, 1.0).unwrap();
        assert_eq!(coo.nnz(), 4);
        let csr = coo.to_csr();
        assert_eq!(csr.nrows(), 3);
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.get(0, 0), 2.0);
        assert_eq!(csr.get(0, 2), 1.0);
        assert_eq!(csr.get(2, 2), 4.0);
        assert_eq!(csr.get(2, 0), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.5).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), 3.5);
        assert_eq!(csr.get(1, 0), -1.0);
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 5, 1.0).is_err());
        assert_eq!(coo.nnz(), 0);
    }

    #[test]
    fn rows_sorted_in_csr() {
        let mut coo = CooMatrix::with_capacity(1, 4, 3);
        coo.push(0, 3, 3.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.row_indices(0), &[1, 2, 3]);
        assert_eq!(csr.row_values(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dimensions_are_reported() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 1, 5.0).unwrap();
        assert_eq!(coo.nrows(), 2);
        assert_eq!(coo.ncols(), 2);
    }
}
