//! Sharded (domain-decomposed) solver loops: CG, BiCGStab and Jacobi hot
//! loops rewritten against one shard's [`ShardedCsr`] view and a
//! [`ShardComm`] endpoint.
//!
//! Every shard executes the same loop in lockstep.  All decisions that
//! steer control flow — convergence, breakdown restarts, checkpoint
//! epochs, failure injection — derive either from globally reduced scalars
//! (identical on every shard by construction) or from configuration every
//! shard holds a copy of, so the shards never diverge and every
//! [`ShardComm::reduce`]/[`ShardComm::try_barrier_all_ok`] call lines up.
//!
//! The loops follow the determinism contract of [`lcr_sparse::shard`]:
//! dots are per-reduction-block partials folded in global block order, the
//! local product is the carried-start traversal, elementwise updates are
//! position-local.  Residual traces are bit-identical across shard counts
//! and trivially independent of `LCR_NUM_THREADS` (the loops never touch
//! the pool — the shards *are* the parallelism).
//!
//! Fault tolerance is injected through [`ShardHook`]: the executor in
//! `lcr-core` checkpoints the local solution slice, injects fail-stop
//! kills and reloads lossy checkpoints from there; a hook returning
//! [`HookEvent::RestartKrylov`] makes every shard rebuild its Krylov state
//! from the (possibly partially restored) solution — Algorithm 2 of the
//! paper, lines 8–13, executed shard-locally with one halo exchange.

use lcr_sparse::shard::{CommError, ShardComm, ShardedCsr};
use lcr_sparse::simd;

/// Which sharded solver loop to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardedMethod {
    /// Conjugate gradient (requires an SPD operator).
    Cg,
    /// BiCGStab.
    BiCgStab,
    /// Jacobi relaxation.
    Jacobi,
}

impl ShardedMethod {
    /// Solver name, matching [`crate::IterativeMethod::name`] spelling.
    pub fn name(self) -> &'static str {
        match self {
            ShardedMethod::Cg => "cg",
            ShardedMethod::BiCgStab => "bicgstab",
            ShardedMethod::Jacobi => "jacobi",
        }
    }
}

/// What a [`ShardHook`] observed at the end of an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookEvent {
    /// Nothing happened; continue the recurrence.
    None,
    /// The epoch included a recovery: some shard replaced its local `x`
    /// (from a lossy checkpoint) while the others kept theirs.  Every
    /// shard must rebuild its Krylov state from the current solution.
    /// Hooks must return this *on every shard* of the same iteration.
    RestartKrylov,
}

/// Per-iteration callback every shard invokes after updating its local
/// solution slice — the seam the checkpoint/failure executor plugs into.
pub trait ShardHook {
    /// Called after iteration `iteration` (1-based) with the shard's local
    /// solution slice.  May checkpoint `x`, mutate it (failure recovery)
    /// and use `comm` for commit barriers — but must issue the *same
    /// sequence* of comm operations on every shard.  Returns
    /// `Err(CommError)` when a comm operation inside the hook fails (peer
    /// died, coordinator aborted the round); the solver loop propagates
    /// the error instead of continuing on divergent state.
    fn after_iteration(
        &mut self,
        iteration: usize,
        x: &mut [f64],
        comm: &mut ShardComm,
    ) -> Result<HookEvent, CommError>;
}

/// One shard's view of a finished run.
#[derive(Debug, Clone, PartialEq)]
// lcr-analyze: allow(dead-public-item): return type of `try_run_sharded`; callers take it by inference
pub struct ShardOutcome {
    /// Whether the global residual met `rtol · ‖b‖`.
    pub converged: bool,
    /// Global iteration count (identical on every shard).
    pub iterations: usize,
    /// Residual-norm trace: `trace[0]` is the initial residual, one entry
    /// per completed iteration after that.  Bit-identical on every shard
    /// and across shard counts.
    pub trace: Vec<f64>,
    /// The shard's local slice of the solution.
    pub x_local: Vec<f64>,
    /// Iterations at which the Krylov state was rebuilt (breakdowns and
    /// hook-driven recoveries).
    pub restart_iterations: Vec<usize>,
}

/// Shared per-shard loop state: buffers and the reduction plumbing.
struct Ctx<'a> {
    mat: &'a ShardedCsr,
    b: &'a [f64],
    rows: usize,
    /// Extended-vector scratch for `[owned | halo]` operands.
    ext: Vec<f64>,
}

impl<'a> Ctx<'a> {
    fn new(mat: &'a ShardedCsr, b: &'a [f64]) -> Self {
        assert_eq!(b.len(), mat.rows(), "local rhs length");
        Ctx {
            mat,
            b,
            rows: mat.rows(),
            ext: vec![0.0; mat.ext_len()],
        }
    }

    /// `y = A w` for a distributed vector given by local slices: one halo
    /// exchange, then the deterministic local product.
    fn apply_a(&mut self, comm: &mut ShardComm, w: &[f64], y: &mut [f64]) -> Result<(), CommError> {
        self.ext[..self.rows].copy_from_slice(w);
        let (own, halo) = self.ext.split_at_mut(self.rows);
        comm.try_halo_exchange(&self.mat.halo, own, halo)?;
        self.mat.spmv_seq(&self.ext, y);
        Ok(())
    }

    /// Per-block partials of `a · b` (phase one of the reduction).
    fn block_dot(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        self.mat.layout.block_dot(self.mat.shard, a, b)
    }

    /// Reduces one quantity to its global scalar.
    fn reduce1(&self, comm: &mut ShardComm, partials: Vec<f64>) -> Result<f64, CommError> {
        Ok(comm.try_reduce(vec![partials])?[0])
    }

    /// Fused per-block `x += α p`, `r −= α q` returning the global ‖r‖².
    fn axpy2_norm2(
        &self,
        comm: &mut ShardComm,
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
        self.reduce1(comm, partials)
    }

    /// Fused per-block `out = x + α y` returning the global ‖out‖².
    fn waxpy_norm2(
        &self,
        comm: &mut ShardComm,
        out: &mut [f64],
        x: &[f64],
        alpha: f64,
        y: &[f64],
    ) -> Result<f64, CommError> {
        let partials: Vec<f64> = self
            .mat
            .layout
            .local_block_ranges(self.mat.shard)
            .map(|(s, e)| simd::waxpy_norm2(&mut out[s..e], &x[s..e], alpha, &y[s..e]))
            .collect();
        self.reduce1(comm, partials)
    }

    /// Rebuilds `r = b − A x` and returns the global ‖r‖² — the shared
    /// core of every restart path (one halo exchange + one reduction).
    fn residual_norm2(
        &mut self,
        comm: &mut ShardComm,
        x: &[f64],
        q: &mut [f64],
        r: &mut [f64],
    ) -> Result<f64, CommError> {
        self.apply_a(comm, x, q)?;
        for i in 0..self.rows {
            r[i] = self.b[i] - q[i];
        }
        let partials = self.block_dot(r, r);
        self.reduce1(comm, partials)
    }
}

/// Runs the sharded solver loop for one shard to global convergence.
///
/// `b_local` is the shard's slice of the right-hand side.  The global
/// stopping rule is `‖r‖ ≤ rtol · ‖b‖` or `max_iterations`; both derive
/// from reduced scalars, so every shard exits on the same iteration.
///
/// # Errors
/// Comm failures (peer death, stall timeouts, coordinator aborts, injected
/// message drops) surface as a typed [`CommError`], so a supervisor can
/// decide whether to retry, restart from a checkpoint, or fail the run.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn try_run_sharded(
    method: ShardedMethod,
    mat: &ShardedCsr,
    b_local: &[f64],
    rtol: f64,
    max_iterations: usize,
    comm: &mut ShardComm,
    hook: &mut dyn ShardHook,
) -> Result<ShardOutcome, CommError> {
    match method {
        ShardedMethod::Cg => run_cg(mat, b_local, rtol, max_iterations, comm, hook),
        ShardedMethod::BiCgStab => run_bicgstab(mat, b_local, rtol, max_iterations, comm, hook),
        ShardedMethod::Jacobi => run_jacobi(mat, b_local, rtol, max_iterations, comm, hook),
    }
}

fn run_cg(
    mat: &ShardedCsr,
    b: &[f64],
    rtol: f64,
    max_iterations: usize,
    comm: &mut ShardComm,
    hook: &mut dyn ShardHook,
) -> Result<ShardOutcome, CommError> {
    let mut ctx = Ctx::new(mat, b);
    let rows = ctx.rows;
    let bb = ctx.reduce1(comm, ctx.block_dot(b, b))?;
    let threshold = rtol * bb.sqrt();

    // x₀ = 0 ⇒ r = b; unpreconditioned ⇒ p = r, ρ = ‖r‖².
    let mut x = vec![0.0; rows];
    let mut r = b.to_vec();
    let mut rr = ctx.reduce1(comm, ctx.block_dot(&r, &r))?;
    let mut rho = rr;
    let mut p = r.clone();
    let mut q = vec![0.0; rows];
    let mut resid = rr.sqrt();
    let mut trace = vec![resid];
    let mut restarts = Vec::new();
    let mut iteration = 0;

    while iteration < max_iterations && resid > threshold {
        ctx.apply_a(comm, &p, &mut q)?;
        let pq = ctx.reduce1(comm, ctx.block_dot(&p, &q))?;
        if pq == 0.0 || !pq.is_finite() {
            // Breakdown (globally agreed: pq is a reduced scalar):
            // restart from the current solution.
            rr = ctx.residual_norm2(comm, &x, &mut q, &mut r)?;
            resid = rr.sqrt();
            rho = rr;
            p.copy_from_slice(&r);
            restarts.push(iteration);
            continue;
        }
        let alpha = rho / pq;
        rr = ctx.axpy2_norm2(comm, alpha, &p, &q, &mut x, &mut r)?;
        resid = rr.sqrt();
        let beta = rr / rho;
        rho = rr;
        for i in 0..rows {
            p[i] = r[i] + beta * p[i];
        }
        iteration += 1;
        trace.push(resid);
        if hook.after_iteration(iteration, &mut x, comm)? == HookEvent::RestartKrylov {
            // Algorithm 2 lines 10–13, shard-local: rebuild r, p, ρ from
            // the (partially restored) solution.
            rr = ctx.residual_norm2(comm, &x, &mut q, &mut r)?;
            resid = rr.sqrt();
            rho = rr;
            p.copy_from_slice(&r);
            restarts.push(iteration);
        }
    }
    Ok(ShardOutcome {
        converged: resid <= threshold,
        iterations: iteration,
        trace,
        x_local: x,
        restart_iterations: restarts,
    })
}

fn run_bicgstab(
    mat: &ShardedCsr,
    b: &[f64],
    rtol: f64,
    max_iterations: usize,
    comm: &mut ShardComm,
    hook: &mut dyn ShardHook,
) -> Result<ShardOutcome, CommError> {
    let mut ctx = Ctx::new(mat, b);
    let rows = ctx.rows;
    let bb = ctx.reduce1(comm, ctx.block_dot(b, b))?;
    let threshold = rtol * bb.sqrt();

    let mut x = vec![0.0; rows];
    let mut r = b.to_vec();
    let mut rr = ctx.reduce1(comm, ctx.block_dot(&r, &r))?;
    let mut r_hat = r.clone();
    let mut p = vec![0.0; rows];
    let mut v = vec![0.0; rows];
    let mut s = vec![0.0; rows];
    let mut t = vec![0.0; rows];
    let (mut rho, mut alpha, mut omega) = (1.0, 1.0, 1.0);
    let mut resid = rr.sqrt();
    let mut trace = vec![resid];
    let mut restarts = Vec::new();
    let mut iteration = 0;

    macro_rules! rebuild {
        () => {{
            rr = ctx.residual_norm2(comm, &x, &mut t, &mut r)?;
            resid = rr.sqrt();
            r_hat.copy_from_slice(&r);
            p.iter_mut().for_each(|z| *z = 0.0);
            v.iter_mut().for_each(|z| *z = 0.0);
            rho = 1.0;
            alpha = 1.0;
            omega = 1.0;
            restarts.push(iteration);
        }};
    }

    while iteration < max_iterations && resid > threshold {
        let rho_next = ctx.reduce1(comm, ctx.block_dot(&r_hat, &r))?;
        if rho_next == 0.0 || !rho_next.is_finite() {
            rebuild!();
            continue;
        }
        let beta = (rho_next / rho) * (alpha / omega);
        rho = rho_next;
        // p = r + β (p − ω v), elementwise (position-local, shard-safe).
        simd::bicgstab_p_update(&mut p, &r, &v, beta, omega);
        ctx.apply_a(comm, &p, &mut v)?;
        let denom = ctx.reduce1(comm, ctx.block_dot(&r_hat, &v))?;
        if denom == 0.0 || !denom.is_finite() {
            rebuild!();
            continue;
        }
        alpha = rho / denom;
        // s = r − α v with the global ‖s‖² from the producing pass.
        let ss = ctx.waxpy_norm2(comm, &mut s, &r, -alpha, &v)?;
        if ss == 0.0 {
            // Exact first half-step: accept and stop the iteration early.
            for i in 0..rows {
                x[i] += alpha * p[i];
            }
            r.copy_from_slice(&s);
            resid = 0.0;
            iteration += 1;
            trace.push(resid);
            break;
        }
        ctx.apply_a(comm, &s, &mut t)?;
        let tts = comm.try_reduce(vec![ctx.block_dot(&t, &t), ctx.block_dot(&t, &s)])?;
        let (tt, ts) = (tts[0], tts[1]);
        omega = if tt > 0.0 { ts / tt } else { 0.0 };
        for i in 0..rows {
            x[i] += alpha * p[i] + omega * s[i];
        }
        rr = ctx.waxpy_norm2(comm, &mut r, &s, -omega, &t)?;
        resid = rr.sqrt();
        iteration += 1;
        trace.push(resid);
        if omega == 0.0 {
            rebuild!();
        }
        if hook.after_iteration(iteration, &mut x, comm)? == HookEvent::RestartKrylov {
            rebuild!();
        }
    }
    Ok(ShardOutcome {
        converged: resid <= threshold,
        iterations: iteration,
        trace,
        x_local: x,
        restart_iterations: restarts,
    })
}

fn run_jacobi(
    mat: &ShardedCsr,
    b: &[f64],
    rtol: f64,
    max_iterations: usize,
    comm: &mut ShardComm,
    hook: &mut dyn ShardHook,
) -> Result<ShardOutcome, CommError> {
    let mut ctx = Ctx::new(mat, b);
    let rows = ctx.rows;
    let bb = ctx.reduce1(comm, ctx.block_dot(b, b))?;
    let threshold = rtol * bb.sqrt();
    let diag = mat.diagonal_local();

    let mut x = vec![0.0; rows];
    let mut x_new = vec![0.0; rows];
    let mut q = vec![0.0; rows];
    let mut r = vec![0.0; rows];
    let mut rr = ctx.residual_norm2(comm, &x, &mut q, &mut r)?;
    let mut resid = rr.sqrt();
    let mut trace = vec![resid];
    let mut restarts = Vec::new();
    let mut iteration = 0;

    let indptr = mat.local.indptr();
    let indices = mat.local.indices();
    let values = mat.local.values();
    while iteration < max_iterations && resid > threshold {
        // One Jacobi sweep on the extended vector: x_newᵢ = (bᵢ − Σ_{j≠i}
        // aᵢⱼ xⱼ) / aᵢᵢ, traversing entries in global storage order.
        ctx.ext[..rows].copy_from_slice(&x);
        let (own, halo) = ctx.ext.split_at_mut(rows);
        comm.try_halo_exchange(&mat.halo, own, halo)?;
        for i in 0..rows {
            let mut acc = b[i];
            for k in indptr[i]..indptr[i + 1] {
                if indices[k] != i {
                    acc -= values[k] * ctx.ext[indices[k]];
                }
            }
            x_new[i] = acc / diag[i];
        }
        std::mem::swap(&mut x, &mut x_new);
        rr = ctx.residual_norm2(comm, &x, &mut q, &mut r)?;
        resid = rr.sqrt();
        iteration += 1;
        trace.push(resid);
        if hook.after_iteration(iteration, &mut x, comm)? == HookEvent::RestartKrylov {
            // Jacobi carries no recurrence state beyond x: recovery is
            // recomputing the residual from the restored solution.
            rr = ctx.residual_norm2(comm, &x, &mut q, &mut r)?;
            resid = rr.sqrt();
            restarts.push(iteration);
        }
    }
    Ok(ShardOutcome {
        converged: resid <= threshold,
        iterations: iteration,
        trace,
        x_local: x,
        restart_iterations: restarts,
    })
}
