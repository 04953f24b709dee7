//! Synthetic symmetric-indefinite KKT (saddle-point) system generator.
//!
//! Figure 3 of the paper measures GMRES with a Jacobi preconditioner on the
//! SuiteSparse matrix `KKT240` (≈28 million equations), a symmetric
//! indefinite KKT matrix from 3-D PDE-constrained optimisation.  That matrix
//! is a multi-gigabyte download and is not available offline, so this module
//! generates a synthetic saddle-point system with the same structure:
//!
//! ```text
//!   K = [ H   Aᵀ ]
//!       [ A  −δI ]
//! ```
//!
//! where `H` is a sparse SPD stiffness-like block (a shifted 3-D Laplacian)
//! and `A` is a sparse constraint Jacobian.  `K` is symmetric and
//! indefinite — it has both positive and negative eigenvalues — which is the
//! property that rules CG out and makes GMRES the appropriate solver, as in
//! the paper.

use crate::{CooMatrix, CsrMatrix, Vector};

/// Parameters controlling the synthetic KKT system.
#[derive(Debug, Clone, Copy)]
pub struct KktConfig {
    /// Edge length of the underlying 3-D grid; the primal block has `n³`
    /// unknowns.
    pub grid_n: usize,
    /// Number of constraints as a fraction of the number of primal unknowns
    /// (KKT240 has roughly a 1:3 constraint-to-variable ratio).
    pub constraint_fraction: f64,
    /// Diagonal shift added to the primal block to keep it well conditioned.
    pub primal_shift: f64,
    /// Regularisation `δ` on the dual block (small, keeps the matrix
    /// non-singular while remaining indefinite).
    pub dual_regularization: f64,
    /// Seed for the sparse constraint pattern.
    pub seed: u64,
}

impl Default for KktConfig {
    fn default() -> Self {
        KktConfig {
            grid_n: 8,
            constraint_fraction: 0.33,
            primal_shift: 8.0,
            dual_regularization: 1e-2,
            seed: 20180611,
        }
    }
}

/// Generates the synthetic symmetric-indefinite KKT matrix described in the
/// module documentation, together with a right-hand side from a smooth
/// manufactured solution.
pub fn kkt_system(config: &KktConfig) -> (CsrMatrix, Vector, Vector) {
    let n = config.grid_n;
    let n3 = n * n * n;
    let m = ((n3 as f64) * config.constraint_fraction).round() as usize;
    let dim = n3 + m;

    let mut coo = CooMatrix::with_capacity(dim, dim, 9 * n3 + 6 * m);

    // H block: shifted negative 3-D Laplacian made positive definite:
    // H = primal_shift * I + (7-point stencil with +6 diagonal).
    let n2 = n * n;
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let row = k * n2 + j * n + i;
                coo.push(row, row, 6.0 + config.primal_shift).unwrap();
                let mut push_nb = |col: usize| {
                    coo.push(row, col, -1.0).unwrap();
                };
                if i > 0 {
                    push_nb(row - 1);
                }
                if i + 1 < n {
                    push_nb(row + 1);
                }
                if j > 0 {
                    push_nb(row - n);
                }
                if j + 1 < n {
                    push_nb(row + n);
                }
                if k > 0 {
                    push_nb(row - n2);
                }
                if k + 1 < n {
                    push_nb(row + n2);
                }
            }
        }
    }

    // A block (m x n3): each constraint couples three pseudo-random primal
    // variables with coefficients {1, -2, 1}; A and Aᵀ are inserted
    // symmetrically.
    let mut state = config.seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = |bound: usize| -> usize {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545F4914F6CDD1D) >> 32) as usize % bound
    };
    for c in 0..m {
        let row = n3 + c;
        // Anchor the pattern so every constraint touches a distinct region.
        let anchor = (c * n3 / m.max(1)) % n3;
        let cols = [anchor, next(n3), next(n3)];
        let coeffs = [1.0, -2.0, 1.0];
        for (col, coef) in cols.iter().zip(coeffs.iter()) {
            coo.push(row, *col, *coef).unwrap();
            coo.push(*col, row, *coef).unwrap();
        }
        // Dual regularisation: -δ on the (2,2) block diagonal.
        coo.push(row, row, -config.dual_regularization).unwrap();
    }

    let kkt = coo.to_csr();

    // Manufactured smooth solution and consistent RHS.
    let mut xstar = Vector::zeros(dim);
    for i in 0..dim {
        let t = i as f64 / dim as f64;
        xstar[i] = (3.0 * std::f64::consts::PI * t).sin() * (1.0 - t) + 0.1;
    }
    let b = kkt.mul_vec(&xstar);
    (kkt, xstar, b)
}

/// Estimates whether a symmetric matrix is indefinite by sampling the
/// quadratic form `xᵀAx` with deterministic pseudo-random vectors: if both
/// signs appear the matrix is certainly indefinite.
#[cfg(test)]
fn appears_indefinite(a: &CsrMatrix, samples: usize) -> bool {
    let mut saw_pos = false;
    let mut saw_neg = false;
    for s in 0..samples {
        let mut x = Vector::zeros(a.nrows());
        x.fill_random(1000 + s as u64, -1.0, 1.0);
        let q = x.dot(&a.mul_vec(&x));
        if q > 0.0 {
            saw_pos = true;
        }
        if q < 0.0 {
            saw_neg = true;
        }
        if saw_pos && saw_neg {
            return true;
        }
    }
    // Also try coordinate directions concentrated on the dual block, which
    // is where the negative curvature lives.
    let n = a.nrows();
    for i in [n - 1, n / 2, 0] {
        let mut e = Vector::zeros(n);
        e[i] = 1.0;
        let q = e.dot(&a.mul_vec(&e));
        if q > 0.0 {
            saw_pos = true;
        }
        if q < 0.0 {
            saw_neg = true;
        }
    }
    saw_pos && saw_neg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kkt_is_symmetric_and_indefinite() {
        let cfg = KktConfig {
            grid_n: 5,
            ..KktConfig::default()
        };
        let (k, _xstar, _b) = kkt_system(&cfg);
        let n3 = 125;
        let m = ((n3 as f64) * cfg.constraint_fraction).round() as usize;
        assert_eq!(k.nrows(), n3 + m);
        assert!(k.is_symmetric(1e-12), "KKT matrix must be symmetric");
        assert!(
            appears_indefinite(&k, 16),
            "KKT matrix must be indefinite (positive and negative curvature)"
        );
    }

    #[test]
    fn rhs_is_consistent_with_manufactured_solution() {
        let (k, xstar, b) = kkt_system(&KktConfig::default());
        let r = k.residual(&xstar, &b);
        assert!(r.norm2() <= 1e-10 * b.norm2().max(1.0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = KktConfig::default();
        let (k1, _, b1) = kkt_system(&cfg);
        let (k2, _, b2) = kkt_system(&cfg);
        assert_eq!(k1, k2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn different_seed_changes_constraints() {
        let a = kkt_system(&KktConfig::default()).0;
        let b = kkt_system(&KktConfig {
            seed: 7,
            ..KktConfig::default()
        })
        .0;
        assert_ne!(a, b);
    }

    #[test]
    fn diagonal_nonzero_everywhere() {
        // Needed for the Jacobi preconditioner used in Figure 3.
        let (k, _, _) = kkt_system(&KktConfig::default());
        assert!(k.require_nonzero_diagonal().is_ok());
    }
}
