//! Where the vectors live: the handful of operations a recurrence needs
//! from its vector space, so each method is written once and runs
//! unchanged on a whole system in one address space ([`LocalSpace`]) or on
//! one shard of a domain-decomposed system ([`ShardSpace`]).
//!
//! A [`Space`] owns the operator, the right-hand side and the
//! preconditioner; the solvers own the iterates.  Every operation that
//! needs data from outside the caller's slices — an operator application
//! (halo exchange when sharded) or a reduction (a crossing of the shard
//! board when sharded) — is fallible with the space's own error; the purely
//! position-local updates are not.  The fused operations default to
//! their unfused composition.
//!
//! Each space keeps its own reduction order, so a trace is bit-identical
//! across thread counts on [`LocalSpace`] and across shard counts on
//! [`ShardSpace`]; the two are not bit-identical to each other.

use std::cell::RefCell;
use std::convert::Infallible;
use std::sync::Arc;

use lcr_sparse::shard::{CommError, ShardComm, ShardedCsr};
use lcr_sparse::{kernels, simd, vector, Vector};

use crate::precond::{IdentityPreconditioner, Preconditioner};
use crate::LinearSystem;

/// The operations CG, GMRES and Jacobi need from the space their vectors
/// live in.  All slices are the caller's locally owned part.
pub trait Space {
    /// Failure of an operator application or a reduction.
    type Error;

    /// The locally owned right-hand side `b`; its length is the local
    /// dimension.
    fn rhs(&self) -> &[f64];

    /// `y = A w`.
    fn apply(&mut self, w: &[f64], y: &mut [f64]) -> Result<(), Self::Error>;

    /// `y = A w`, returning `uᵀy`.
    fn apply_dot(&mut self, w: &[f64], y: &mut [f64], u: &[f64]) -> Result<f64, Self::Error> {
        self.apply(w, y)?;
        self.dot(u, y)
    }

    /// `aᵀb`.
    fn dot(&mut self, a: &[f64], b: &[f64]) -> Result<f64, Self::Error>;

    /// `x += α p`, `r −= α q`, returning ‖r‖².
    fn axpy2_norm2(
        &mut self,
        alpha: f64,
        p: &[f64],
        q: &[f64],
        x: &mut [f64],
        r: &mut [f64],
    ) -> Result<f64, Self::Error>;

    /// `r = b − A x`, returning ‖r‖².
    fn residual_norm2(&mut self, x: &[f64], r: &mut [f64]) -> Result<f64, Self::Error> {
        residual(self, x, r)?;
        self.dot(r, r)
    }

    /// One Jacobi sweep `outᵢ = (bᵢ − Σ_{j≠i} aᵢⱼ xⱼ) / aᵢᵢ`.
    fn jacobi_sweep(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), Self::Error>;

    /// The preconditioner `M`; `None` is `M = I`, for which callers skip
    /// the `z = M⁻¹ r` copy and reuse ‖r‖² as `rᵀz`.
    fn precond(&self) -> Option<&dyn Preconditioner>;

    /// `p = x + β p`.
    fn xpby(&self, p: &mut [f64], x: &[f64], beta: f64);

    /// `y += α x`.
    fn axpy(&self, y: &mut [f64], alpha: f64, x: &[f64]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// `y += α x`, returning ‖y‖².
    fn axpy_norm2(&mut self, y: &mut [f64], alpha: f64, x: &[f64]) -> Result<f64, Self::Error> {
        self.axpy(y, alpha, x);
        self.dot(y, y)
    }

    /// `y += α x`, returning `yᵀu` of the updated `y`.
    fn axpy_dot(
        &mut self,
        y: &mut [f64],
        alpha: f64,
        x: &[f64],
        u: &[f64],
    ) -> Result<f64, Self::Error> {
        self.axpy(y, alpha, x);
        self.dot(y, u)
    }

    /// `y += Σ_j α_j x_j`, each element's terms added in `j` order.
    fn multi_axpy(&self, y: &mut [f64], alphas: &[f64], xs: &[Vector]) {
        for (&alpha, x) in alphas.iter().zip(xs) {
            self.axpy(y, alpha, x);
        }
    }

    /// `out = α x`.
    fn scale_into(&self, out: &mut [f64], alpha: f64, x: &[f64]) {
        for (oi, xi) in out.iter_mut().zip(x) {
            *oi = alpha * xi;
        }
    }
}

/// `r = b − A x` on `space`.
pub(crate) fn residual<S: Space + ?Sized>(
    space: &mut S,
    x: &[f64],
    r: &mut [f64],
) -> Result<(), S::Error> {
    space.apply(x, r)?;
    for (ri, bi) in r.iter_mut().zip(space.rhs()) {
        *ri = bi - *ri;
    }
    Ok(())
}

/// The whole system in one address space: the pool-parallel kernels of
/// [`lcr_sparse::kernels`] on a [`LinearSystem`], with any
/// [`Preconditioner`].  Nothing here can fail.
#[derive(Clone)]
pub struct LocalSpace {
    system: LinearSystem,
    precond: Arc<dyn Preconditioner>,
}

impl LocalSpace {
    /// The space of `system` preconditioned by `precond`.
    pub fn new(system: LinearSystem, precond: Arc<dyn Preconditioner>) -> Self {
        LocalSpace { system, precond }
    }

    /// The space of `system` with `M = I`.
    pub fn unpreconditioned(system: LinearSystem) -> Self {
        Self::new(system, Arc::new(IdentityPreconditioner::new()))
    }
}

impl Space for LocalSpace {
    type Error = Infallible;

    fn rhs(&self) -> &[f64] {
        self.system.b.as_slice()
    }

    fn apply(&mut self, w: &[f64], y: &mut [f64]) -> Result<(), Infallible> {
        self.system.a.spmv(w, y);
        Ok(())
    }

    fn apply_dot(&mut self, w: &[f64], y: &mut [f64], u: &[f64]) -> Result<f64, Infallible> {
        Ok(kernels::spmv_dot(&self.system.a, w, y, u))
    }

    fn dot(&mut self, a: &[f64], b: &[f64]) -> Result<f64, Infallible> {
        Ok(vector::dot(a, b))
    }

    fn axpy2_norm2(
        &mut self,
        alpha: f64,
        p: &[f64],
        q: &[f64],
        x: &mut [f64],
        r: &mut [f64],
    ) -> Result<f64, Infallible> {
        Ok(kernels::axpy2_norm2(alpha, p, q, x, r))
    }

    fn residual_norm2(&mut self, x: &[f64], r: &mut [f64]) -> Result<f64, Infallible> {
        Ok(kernels::residual_norm2(
            &self.system.a,
            x,
            self.system.b.as_slice(),
            r,
        ))
    }

    fn jacobi_sweep(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), Infallible> {
        kernels::jacobi_sweep(&self.system.a, x, self.system.b.as_slice(), out);
        Ok(())
    }

    fn precond(&self) -> Option<&dyn Preconditioner> {
        (!self.precond.is_identity()).then_some(&*self.precond)
    }

    fn xpby(&self, p: &mut [f64], x: &[f64], beta: f64) {
        kernels::axpby(1.0, x, beta, p);
    }

    fn axpy(&self, y: &mut [f64], alpha: f64, x: &[f64]) {
        vector::axpy(alpha, x, y);
    }

    fn axpy_norm2(&mut self, y: &mut [f64], alpha: f64, x: &[f64]) -> Result<f64, Infallible> {
        Ok(kernels::axpy_norm2(alpha, x, y))
    }

    fn axpy_dot(
        &mut self,
        y: &mut [f64],
        alpha: f64,
        x: &[f64],
        u: &[f64],
    ) -> Result<f64, Infallible> {
        Ok(kernels::axpy_dot(alpha, x, y, u))
    }

    fn multi_axpy(&self, y: &mut [f64], alphas: &[f64], xs: &[Vector]) {
        kernels::multi_axpy(y, alphas, xs);
    }

    fn scale_into(&self, out: &mut [f64], alpha: f64, x: &[f64]) {
        kernels::scale_into(out, alpha, x);
    }
}

/// One shard of a domain-decomposed system: its [`ShardedCsr`] rows, its
/// slice of `b` and its [`ShardComm`] endpoint, unpreconditioned.
///
/// Every shard runs the same recurrence in lockstep; whatever steers it
/// derives from globally reduced scalars, so the shards never diverge and
/// their comm calls line up.  Under the determinism contract of
/// [`lcr_sparse::shard`] — reductions are per-block partials folded in
/// global block order, the local product is the local matrix's own
/// `SpmvPlan` run on the shard's thread (the one SpMV traversal),
/// elementwise updates run on the [`simd`] lane kernels — traces are
/// bit-identical across shard counts and never touch the thread pool: the
/// shards are the parallelism.
///
/// The endpoint sits in a [`RefCell`] because the executor that steps the
/// solver also votes its commit barriers on it, between steps.
pub struct ShardSpace<'a> {
    mat: &'a ShardedCsr,
    b: &'a [f64],
    comm: &'a RefCell<ShardComm>,
    /// Extended-vector scratch for `[owned | halo]` operands.
    ext: Vec<f64>,
    /// The local diagonal, built by the first Jacobi sweep.
    diag: Vec<f64>,
}

impl<'a> ShardSpace<'a> {
    /// The space of shard `mat.shard` with local right-hand side `b`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn new(mat: &'a ShardedCsr, b: &'a [f64], comm: &'a RefCell<ShardComm>) -> Self {
        assert_eq!(b.len(), mat.rows(), "local rhs length");
        ShardSpace {
            mat,
            b,
            comm,
            ext: vec![0.0; mat.ext_len()],
            diag: Vec::new(),
        }
    }

    /// Loads `w` into the extended vector and fills its halo part.
    fn exchange(&mut self, w: &[f64]) -> Result<(), CommError> {
        let (own, halo) = self.ext.split_at_mut(self.mat.rows());
        own.copy_from_slice(w);
        self.comm
            .borrow_mut()
            .try_halo_exchange(&self.mat.halo, own, halo)
    }
}

impl Space for ShardSpace<'_> {
    type Error = CommError;

    fn rhs(&self) -> &[f64] {
        self.b
    }

    fn apply(&mut self, w: &[f64], y: &mut [f64]) -> Result<(), CommError> {
        self.exchange(w)?;
        self.mat.spmv(&self.ext, y);
        Ok(())
    }

    fn dot(&mut self, a: &[f64], b: &[f64]) -> Result<f64, CommError> {
        let partials = self.mat.layout.block_dot(self.mat.shard, a, b);
        self.comm.borrow_mut().try_reduce(&partials)
    }

    fn axpy2_norm2(
        &mut self,
        alpha: f64,
        p: &[f64],
        q: &[f64],
        x: &mut [f64],
        r: &mut [f64],
    ) -> Result<f64, CommError> {
        let partials: Vec<f64> = self
            .mat
            .layout
            .local_block_ranges(self.mat.shard)
            .map(|(s, e)| simd::axpy2_norm2(alpha, &p[s..e], &q[s..e], &mut x[s..e], &mut r[s..e]))
            .collect();
        self.comm.borrow_mut().try_reduce(&partials)
    }

    fn jacobi_sweep(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), CommError> {
        if self.diag.is_empty() {
            self.diag = self.mat.diagonal_local();
        }
        self.exchange(x)?;
        let (indptr, indices, values) = (
            self.mat.local.indptr(),
            self.mat.local.indices(),
            self.mat.local.values(),
        );
        // Entries are traversed in global storage order.
        for (i, oi) in out.iter_mut().enumerate() {
            let mut acc = self.b[i];
            for k in indptr[i]..indptr[i + 1] {
                let c = indices[k] as usize;
                if c != i {
                    acc -= values[k] * self.ext[c];
                }
            }
            *oi = acc / self.diag[i];
        }
        Ok(())
    }

    fn precond(&self) -> Option<&dyn Preconditioner> {
        None
    }

    fn xpby(&self, p: &mut [f64], x: &[f64], beta: f64) {
        for (pi, xi) in p.iter_mut().zip(x) {
            *pi = xi + beta * *pi;
        }
    }
}
