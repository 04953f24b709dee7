//! # lcr-solvers
//!
//! Iterative methods for sparse linear systems, re-implemented from scratch
//! for the lossy-checkpointing reproduction of *"Improving Performance of
//! Iterative Methods by Lossy Checkpointing"* (Tao et al., HPDC 2018).
//!
//! The paper evaluates three families of solvers provided by PETSc:
//! stationary methods (represented by Jacobi), the restarted generalized
//! minimum residual method GMRES(m), and the (restarted) conjugate gradient
//! method CG/PCG.  This crate provides those three, and the preconditioners
//! the paper uses: Jacobi (diagonal) for GMRES on KKT240, and block Jacobi
//! with ILU(0) inside the blocks for CG and GMRES on Poisson.
//!
//! ## Step-wise execution and checkpointable state
//!
//! Fault-tolerant execution needs to interleave solver iterations with
//! checkpoints, failures and recoveries, so every solver implements
//! [`IterativeMethod`]: a step-at-a-time interface exposing
//!
//! * [`IterativeMethod::step`] — run one iteration;
//! * [`IterativeMethod::state_view`] — the *dynamic variables* that a
//!   traditional checkpoint must save (for CG: `i`, `ρ`, `p`, `x`; for
//!   Jacobi and GMRES: `i`, `x` — exactly the classification of §3 of the
//!   paper), as a [`StateView`] that borrows the vectors where the solver
//!   holds them, so a checkpoint encodes them in place;
//!   [`IterativeMethod::capture_state`] is the same state copied into a
//!   [`DynamicState`] of its own;
//! * [`IterativeMethod::restore_state`] — exact recovery (traditional /
//!   lossless checkpointing);
//! * [`IterativeMethod::restart_from_solution`] — lossy recovery: treat a
//!   (decompressed, hence perturbed) solution vector as a new initial guess
//!   and rebuild the remaining state, as Algorithm 2 of the paper does.
//!
//! Static variables (the matrix `A`, the preconditioner `M`, the right-hand
//! side `b`) are shared through [`std::sync::Arc`] and are never mutated by
//! the solvers, mirroring their "checkpoint once" role in the paper.
//!
//! ## One loop, two spaces
//!
//! Every method is one recurrence over a [`Progress`] — the iterate, both
//! norms, the history, the stopping rule and the limit flag — behind
//! [`TryIterativeMethod`]: a step ends in accepting the new residual, and a
//! recovery restarts the recurrence from the solution the progress holds.
//! CG, GMRES and Jacobi are each written once, over the [`Space`] their
//! vectors live in ([`space`]): the whole system or one shard of it.
//! A space that can fail makes `step` fallible; [`IterativeMethod`] is the
//! same interface for a method that cannot (any method on [`LocalSpace`]),
//! and both executors of `lcr-core` drive their solver one step at a time
//! through one of the two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod convergence;
mod gmres;
mod jacobi;
pub mod precond;
mod progress;
pub mod space;

use std::borrow::Cow;
use std::convert::Infallible;
use std::sync::Arc;

use lcr_sparse::{CsrMatrix, Vector};

pub use cg::ConjugateGradient;
pub use convergence::{ConvergenceHistory, StoppingCriteria};
pub use gmres::Gmres;
pub use jacobi::Jacobi;
pub use precond::{
    BlockJacobiPreconditioner, IdentityPreconditioner, JacobiPreconditioner, Preconditioner,
};
pub use progress::Progress;
pub use space::{LocalSpace, ShardSpace, Space};

/// Which iterative method a configuration refers to; used by the experiment
/// harness to build solvers generically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// The Jacobi stationary method (the paper's stationary representative).
    Jacobi,
    /// Conjugate gradient (restarted variant under lossy checkpointing).
    Cg,
    /// Restarted GMRES(m).
    Gmres,
}

impl SolverKind {
    /// Human-readable name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::Jacobi => "jacobi",
            SolverKind::Cg => "cg",
            SolverKind::Gmres => "gmres",
        }
    }

    /// Number of dynamic *vectors* a traditional checkpoint stores for this
    /// method (Table 3: CG checkpoints `x` and `p`, Jacobi and GMRES only
    /// `x`).
    pub fn traditional_checkpoint_vectors(&self) -> usize {
        match self {
            SolverKind::Cg => 2,
            SolverKind::Jacobi | SolverKind::Gmres => 1,
        }
    }
}

/// Which method a sharded run executes: every method is written over
/// [`Space`], so this is [`SolverKind`] under the name the sharded front
/// has always used.
pub type ShardedMethod = SolverKind;

/// The dynamic variables of a solver at a checkpoint: iteration counter,
/// scalar state, and named vectors, exactly the classification of Section 3
/// of the paper (static variables are shared and recomputed variables are
/// rebuilt on recovery).
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicState {
    /// Iteration counter `i`.
    pub iteration: usize,
    /// Named scalar dynamic variables (e.g. CG's `ρ`).
    pub scalars: Vec<(String, f64)>,
    /// Named vector dynamic variables (e.g. `x`, and `p` for CG).
    pub vectors: Vec<(String, Vector)>,
}

impl DynamicState {
    /// Total number of bytes of the vector payload (the quantity the
    /// checkpoint-size accounting of Table 3 uses).
    pub fn vector_bytes(&self) -> usize {
        self.vectors
            .iter()
            .map(|(_, v)| v.len() * std::mem::size_of::<f64>())
            .sum()
    }

    /// Returns the named vector, if present.
    pub fn vector(&self, name: &str) -> Option<&Vector> {
        self.vectors
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Returns the named scalar, if present.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The dynamic variables of a solver as it holds them: what a checkpoint
/// reads, borrowed in place where the solver keeps them (CG's `x` and `p`,
/// Jacobi's `x`) and owned where they have to be computed first (GMRES's
/// `x` with the open cycle's correction folded in), so encoding a
/// checkpoint copies no vector the solver already holds.
#[derive(Debug, Clone, PartialEq)]
pub struct StateView<'a> {
    /// Iteration counter `i`.
    pub iteration: usize,
    /// Named scalar dynamic variables (e.g. CG's `ρ`).
    pub scalars: Vec<(Cow<'static, str>, f64)>,
    /// Named vector dynamic variables (e.g. `x`, and `p` for CG).
    pub vectors: Vec<(Cow<'static, str>, Cow<'a, [f64]>)>,
}

impl StateView<'_> {
    /// The view as a [`DynamicState`] of its own: borrowed vectors are
    /// copied, owned ones move.
    pub fn into_owned(self) -> DynamicState {
        DynamicState {
            iteration: self.iteration,
            scalars: self
                .scalars
                .into_iter()
                .map(|(name, value)| (name.into_owned(), value))
                .collect(),
            vectors: self
                .vectors
                .into_iter()
                .map(|(name, v)| (name.into_owned(), Vector::from_vec(v.into_owned())))
                .collect(),
        }
    }
}

impl From<DynamicState> for StateView<'static> {
    /// A view that owns everything a captured state held.
    fn from(state: DynamicState) -> Self {
        StateView {
            iteration: state.iteration,
            scalars: state
                .scalars
                .into_iter()
                .map(|(name, value)| (Cow::Owned(name), value))
                .collect(),
            vectors: state
                .vectors
                .into_iter()
                .map(|(name, v)| (Cow::Owned(name), Cow::Owned(v.into_vec())))
                .collect(),
        }
    }
}

/// A linear system `A x = b` shared by solvers, checkpointing and the
/// experiment harness.  `A`, `M`-defining data and `b` are the *static
/// variables* of the paper's classification.
#[derive(Debug, Clone)]
pub struct LinearSystem {
    /// System matrix.
    pub a: Arc<CsrMatrix>,
    /// Right-hand side.
    pub b: Arc<Vector>,
}

impl LinearSystem {
    /// Creates a system from a matrix and right-hand side.
    ///
    /// # Panics
    /// Panics if dimensions are inconsistent.
    pub fn new(a: CsrMatrix, b: Vector) -> Self {
        assert_eq!(a.nrows(), b.len(), "matrix/rhs dimension mismatch");
        LinearSystem {
            a: Arc::new(a),
            b: Arc::new(b),
        }
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.a.nrows()
    }

    /// Bytes of static data (matrix structure + values + rhs), used for
    /// recovery-time accounting of static variables.
    pub fn static_bytes(&self) -> usize {
        self.a.storage_bytes() + self.b.len() * std::mem::size_of::<f64>()
    }
}

/// Step-at-a-time interface implemented by every iterative method, designed
/// around the checkpoint/recovery workflow of Section 3 and Algorithm 1/2
/// of the paper.
pub trait IterativeMethod {
    /// Solver family name.
    fn name(&self) -> &'static str;

    /// Iterations completed so far.
    fn iteration(&self) -> usize;

    /// Current (true or estimated) residual 2-norm.
    fn residual_norm(&self) -> f64;

    /// Norm used as the convergence reference (‖b‖ by default).
    fn reference_norm(&self) -> f64;

    /// Current approximate solution.
    fn solution(&self) -> &Vector;

    /// Whether the stopping criteria are met.
    fn converged(&self) -> bool;

    /// Performs one iteration (a no-op once converged).
    fn step(&mut self);

    /// Captures the dynamic variables a traditional checkpoint must save.
    fn capture_state(&self) -> DynamicState;

    /// The dynamic variables as the solver holds them, for a checkpoint to
    /// encode in place.  By default a view that owns
    /// [`IterativeMethod::capture_state`]'s copy; every
    /// [`TryIterativeMethod`] borrows what it can.
    fn state_view(&self) -> StateView<'_> {
        self.capture_state().into()
    }

    /// Restores the solver exactly from a previously captured state
    /// (traditional / lossless recovery).
    fn restore_state(&mut self, state: &DynamicState);

    /// Restarts the solver treating `x` as a new initial guess at iteration
    /// `iteration` (lossy recovery, Algorithm 2 lines 7–14: recomputed
    /// variables such as `r`, `z`, `p`, `ρ` are rebuilt from `x`).
    fn restart_from_solution(&mut self, x: Vector, iteration: usize);

    /// Convergence history (residual norm per iteration).
    fn history(&self) -> &ConvergenceHistory;

    /// Runs until convergence or the iteration limit, returning the number
    /// of iterations executed by this call.
    fn run_to_convergence(&mut self) -> usize {
        let start = self.iteration();
        while !self.converged() {
            self.step();
        }
        self.iteration() - start
    }
}

/// [`IterativeMethod`] for a solver whose [`Space`] can fail: the
/// operations that apply the operator or reduce — stepping, restoring,
/// restarting — return the space's error, and the bookkeeping is read
/// through [`Progress`].  Every implementor that cannot fail is an
/// [`IterativeMethod`].
pub trait TryIterativeMethod {
    /// What an operator application or a reduction can fail with.
    type Error;

    /// Solver family name.
    fn name(&self) -> &'static str;

    /// The iterate, the stopping rule and how far the solve has come.
    fn progress(&self) -> &Progress;

    /// [`TryIterativeMethod::progress`], for a recovery to overwrite the
    /// solution before [`TryIterativeMethod::try_restart`].
    fn progress_mut(&mut self) -> &mut Progress;

    /// Performs one iteration (a no-op once converged).  A step that ends
    /// in a breakdown restart completes no iteration.
    fn try_step(&mut self) -> Result<(), Self::Error>;

    /// The dynamic variables a traditional checkpoint must save, as the
    /// solver holds them.
    fn state_view(&self) -> StateView<'_>;

    /// [`TryIterativeMethod::state_view`], copied into a state of its own.
    fn capture_state(&self) -> DynamicState {
        self.state_view().into_owned()
    }

    /// Restores the solver exactly from a previously captured state.
    fn try_restore_state(&mut self, state: &DynamicState) -> Result<(), Self::Error>;

    /// Restarts from the current solution as a new initial guess at
    /// iteration `iteration`, rebuilding every recomputed variable
    /// (Algorithm 2 lines 10–13).
    fn try_restart(&mut self, iteration: usize) -> Result<(), Self::Error>;
}

impl<M: TryIterativeMethod<Error = Infallible>> IterativeMethod for M {
    fn name(&self) -> &'static str {
        TryIterativeMethod::name(self)
    }

    fn iteration(&self) -> usize {
        self.progress().iteration()
    }

    fn residual_norm(&self) -> f64 {
        self.progress().residual_norm()
    }

    fn reference_norm(&self) -> f64 {
        self.progress().reference_norm()
    }

    fn solution(&self) -> &Vector {
        self.progress().solution()
    }

    fn converged(&self) -> bool {
        self.progress().converged()
    }

    fn step(&mut self) {
        let Ok(()) = self.try_step();
    }

    fn capture_state(&self) -> DynamicState {
        TryIterativeMethod::capture_state(self)
    }

    fn state_view(&self) -> StateView<'_> {
        TryIterativeMethod::state_view(self)
    }

    fn restore_state(&mut self, state: &DynamicState) {
        let Ok(()) = self.try_restore_state(state);
    }

    fn restart_from_solution(&mut self, x: Vector, iteration: usize) {
        let solution = self.progress_mut().solution_mut();
        assert_eq!(x.len(), solution.len(), "restart vector dimension");
        *solution = x;
        let Ok(()) = self.try_restart(iteration);
    }

    fn history(&self) -> &ConvergenceHistory {
        self.progress().history()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcr_sparse::poisson::poisson1d;

    #[test]
    fn solver_kind_names_and_vectors() {
        assert_eq!(SolverKind::Jacobi.name(), "jacobi");
        assert_eq!(SolverKind::Gmres.name(), "gmres");
        assert_eq!(SolverKind::Cg.traditional_checkpoint_vectors(), 2);
        assert_eq!(SolverKind::Gmres.traditional_checkpoint_vectors(), 1);
        assert_eq!(SolverKind::Jacobi.traditional_checkpoint_vectors(), 1);
    }

    #[test]
    fn dynamic_state_accessors() {
        let state = DynamicState {
            iteration: 5,
            scalars: vec![("rho".to_string(), 2.5)],
            vectors: vec![("x".to_string(), Vector::zeros(10))],
        };
        assert_eq!(state.scalar("rho"), Some(2.5));
        assert_eq!(state.scalar("nope"), None);
        assert_eq!(state.vector("x").unwrap().len(), 10);
        assert!(state.vector("p").is_none());
        assert_eq!(state.vector_bytes(), 80);
    }

    #[test]
    fn linear_system_accounting() {
        let a = poisson1d(10);
        let b = Vector::filled(10, 1.0);
        let sys = LinearSystem::new(a.clone(), b);
        assert_eq!(sys.dim(), 10);
        assert_eq!(sys.static_bytes(), a.storage_bytes() + 80);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn linear_system_dimension_checked() {
        let a = poisson1d(10);
        let b = Vector::zeros(5);
        let _ = LinearSystem::new(a, b);
    }
}
