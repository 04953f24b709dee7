//! Error type shared by the sparse substrate.

use std::fmt;

/// Errors produced while building, converting, or using sparse matrices.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// A matrix/vector dimension did not match what an operation required.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: String,
        /// Dimension that was expected.
        expected: usize,
        /// Dimension that was found.
        found: usize,
    },
    /// An entry referenced a row or column outside the matrix.
    IndexOutOfBounds {
        /// Offending row index.
        row: usize,
        /// Offending column index.
        col: usize,
        /// Number of rows in the matrix.
        nrows: usize,
        /// Number of columns in the matrix.
        ncols: usize,
    },
    /// The CSR structure is internally inconsistent (e.g. row pointers not
    /// monotonically non-decreasing).
    InvalidStructure(String),
    /// A matrix that must have a non-zero diagonal (Jacobi, ILU) is
    /// missing or has a zero diagonal entry.
    ZeroDiagonal(usize),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::DimensionMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, found {found}"
            ),
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "index ({row}, {col}) out of bounds for {nrows}x{ncols} matrix"
            ),
            SparseError::InvalidStructure(msg) => write!(f, "invalid sparse structure: {msg}"),
            SparseError::ZeroDiagonal(i) => {
                write!(f, "zero or missing diagonal entry at row {i}")
            }
        }
    }
}

impl std::error::Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SparseError::DimensionMismatch {
            context: "spmv".into(),
            expected: 10,
            found: 5,
        };
        assert!(e.to_string().contains("spmv"));
        assert!(e.to_string().contains("10"));

        let e = SparseError::IndexOutOfBounds {
            row: 3,
            col: 7,
            nrows: 2,
            ncols: 2,
        };
        assert!(e.to_string().contains("(3, 7)"));

        let e = SparseError::ZeroDiagonal(4);
        assert!(e.to_string().contains('4'));
    }
}
