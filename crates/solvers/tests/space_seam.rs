//! The `Space` seam, tested with a fake: a counting wrapper pins the
//! per-iteration operation budget of each method and GMRES's full-vector
//! passes per inner step (the numbers the README's pass table and
//! `sparse.shard.reduce_rounds_per_iter` rely on), and the two real spaces
//! are checked against each other on one system.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lcr_solvers::{
    ConjugateGradient, Gmres, Jacobi, JacobiPreconditioner, LinearSystem, LocalSpace,
    Preconditioner, ShardSpace, Space, StoppingCriteria, TryIterativeMethod,
};
use lcr_sparse::poisson::{manufactured_rhs, poisson3d};
use lcr_sparse::shard::{build_comms, partition_csr};
use lcr_sparse::{ShardLayout, Vector};

/// What a sharded run pays for beyond its own slices.
#[derive(Default)]
struct Counts {
    /// Operations that read off-slice entries (one halo exchange each).
    halo_ops: Cell<usize>,
    /// Global reductions (one board crossing each).
    reductions: Cell<usize>,
    /// Operations that sweep full vectors (one memory pass each).
    passes: Cell<usize>,
}

impl Counts {
    fn snapshot(&self) -> (usize, usize) {
        (self.halo_ops.get(), self.reductions.get())
    }

    fn passes(&self) -> usize {
        self.passes.get()
    }
}

/// Delegates to `inner`, counting the operations that would communicate and
/// the full-vector passes.
struct Counting<S> {
    inner: S,
    counts: Rc<Counts>,
}

impl<S> Counting<S> {
    fn halo_op(&self) {
        self.counts.halo_ops.set(self.counts.halo_ops.get() + 1);
    }

    fn reduction(&self) {
        self.counts.reductions.set(self.counts.reductions.get() + 1);
    }

    fn pass(&self) {
        self.counts.passes.set(self.counts.passes.get() + 1);
    }
}

impl<S: Space> Space for Counting<S> {
    type Error = S::Error;

    fn rhs(&self) -> &[f64] {
        self.inner.rhs()
    }

    fn apply(&mut self, w: &[f64], y: &mut [f64]) -> Result<(), S::Error> {
        self.halo_op();
        self.pass();
        self.inner.apply(w, y)
    }

    fn apply_dot(&mut self, w: &[f64], y: &mut [f64], u: &[f64]) -> Result<f64, S::Error> {
        self.halo_op();
        self.pass();
        self.reduction();
        self.inner.apply_dot(w, y, u)
    }

    fn dot(&mut self, a: &[f64], b: &[f64]) -> Result<f64, S::Error> {
        self.reduction();
        self.pass();
        self.inner.dot(a, b)
    }

    fn axpy2_norm2(
        &mut self,
        alpha: f64,
        p: &[f64],
        q: &[f64],
        x: &mut [f64],
        r: &mut [f64],
    ) -> Result<f64, S::Error> {
        self.reduction();
        self.pass();
        self.inner.axpy2_norm2(alpha, p, q, x, r)
    }

    fn residual_norm2(&mut self, x: &[f64], r: &mut [f64]) -> Result<f64, S::Error> {
        self.halo_op();
        self.pass();
        self.reduction();
        self.inner.residual_norm2(x, r)
    }

    fn jacobi_sweep(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), S::Error> {
        self.halo_op();
        self.pass();
        self.inner.jacobi_sweep(x, out)
    }

    fn precond(&self) -> Option<&dyn Preconditioner> {
        self.inner.precond()
    }

    fn xpby(&self, p: &mut [f64], x: &[f64], beta: f64) {
        self.pass();
        self.inner.xpby(p, x, beta);
    }

    fn axpy(&self, y: &mut [f64], alpha: f64, x: &[f64]) {
        self.pass();
        self.inner.axpy(y, alpha, x);
    }

    fn axpy_norm2(&mut self, y: &mut [f64], alpha: f64, x: &[f64]) -> Result<f64, S::Error> {
        self.reduction();
        self.pass();
        self.inner.axpy_norm2(y, alpha, x)
    }

    fn axpy_dot(
        &mut self,
        y: &mut [f64],
        alpha: f64,
        x: &[f64],
        u: &[f64],
    ) -> Result<f64, S::Error> {
        self.pass();
        self.reduction();
        self.inner.axpy_dot(y, alpha, x, u)
    }

    fn multi_axpy(&self, y: &mut [f64], alphas: &[f64], xs: &[Vector]) {
        self.pass();
        self.inner.multi_axpy(y, alphas, xs);
    }

    fn scale_into(&self, out: &mut [f64], alpha: f64, x: &[f64]) {
        self.pass();
        self.inner.scale_into(out, alpha, x);
    }
}

/// A preconditioner that counts its applications (one pass each).
struct CountingPrecond {
    inner: JacobiPreconditioner,
    applies: AtomicUsize,
}

impl Preconditioner for CountingPrecond {
    fn apply_into(&self, r: &Vector, out: &mut Vector) {
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.inner.apply_into(r, out);
    }

    fn name(&self) -> &'static str {
        "counting"
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }
}

/// 6³ Poisson with a manufactured solution, negated (SPD) for CG.
fn system(spd: bool) -> LinearSystem {
    let mut a = poisson3d(6);
    if spd {
        a = a.negated();
    }
    let (_, b) = manufactured_rhs(&a);
    LinearSystem::new(a, b)
}

fn counted(spd: bool) -> (Counting<LocalSpace>, Rc<Counts>) {
    let counts = Rc::new(Counts::default());
    let space = Counting {
        inner: LocalSpace::unpreconditioned(system(spd)),
        counts: Rc::clone(&counts),
    };
    (space, counts)
}

/// Steps `solver` ten times and returns the `(halo_ops, reductions)` each
/// iteration cost.
fn budget_per_iteration(
    solver: &mut dyn TryIterativeMethod<Error = std::convert::Infallible>,
    counts: &Counts,
) -> (usize, usize) {
    let (h0, r0) = counts.snapshot();
    for _ in 0..10 {
        solver.try_step().unwrap();
    }
    let progress = solver.progress();
    assert_eq!(
        progress.iteration(),
        10,
        "every step was an accepted iteration"
    );
    assert!(progress.history().restarts().is_empty());
    let (h1, r1) = counts.snapshot();
    assert_eq!((h1 - h0) % 10, 0);
    assert_eq!((r1 - r0) % 10, 0);
    ((h1 - h0) / 10, (r1 - r0) / 10)
}

#[test]
fn per_iteration_budgets_are_pinned() {
    let open = StoppingCriteria::new(1e-30, 1_000);

    let (space, counts) = counted(true);
    let mut cg = ConjugateGradient::on(space, None, open).unwrap();
    assert_eq!(
        counts.snapshot(),
        (0, 2),
        "zero-guess start: ‖b‖ and ‖r‖ only"
    );
    assert_eq!(budget_per_iteration(&mut cg, &counts), (1, 2));

    let (space, counts) = counted(false);
    let mut jacobi = Jacobi::on(space, None, open).unwrap();
    assert_eq!(budget_per_iteration(&mut jacobi, &counts), (2, 1));

    // GMRES grows with the basis: inner step j applies A once and reduces
    // j + 2 times, MGS's first coefficient, the j coefficients its
    // projections take in passing and ‖w‖, taken by the last projection.
    let (space, counts) = counted(false);
    let mut gmres = Gmres::on(space, None, 30, open).unwrap();
    assert_eq!(counts.snapshot(), (0, 1), "zero-guess start: ‖b‖ only");
    for j in 0..10 {
        let (h0, r0) = counts.snapshot();
        gmres.try_step().unwrap();
        let (h1, r1) = counts.snapshot();
        assert_eq!((h1 - h0, r1 - r0), (1, j + 2), "inner step {j}");
    }
}

/// Modified Gram–Schmidt costs one pass per basis vector: inner step `j`
/// of a left-preconditioned GMRES on `LocalSpace` sweeps full vectors
/// `j + 5` times — `A v_j`, `M⁻¹`, the first coefficient, `j` fused
/// projections, the last projection with ‖w‖, and the normalisation of
/// `v_{j+1}` — and the correction of a capture is one more pass.
#[test]
fn gmres_inner_step_j_makes_j_plus_five_passes() {
    let sys = system(false);
    let precond = Arc::new(CountingPrecond {
        inner: JacobiPreconditioner::new(&sys.a).unwrap(),
        applies: AtomicUsize::new(0),
    });
    let counts = Rc::new(Counts::default());
    let space = Counting {
        inner: LocalSpace::new(sys, Arc::clone(&precond) as Arc<dyn Preconditioner>),
        counts: Rc::clone(&counts),
    };
    let passes = || counts.passes() + precond.applies.load(Ordering::Relaxed);
    let mut gmres = Gmres::on(space, None, 30, StoppingCriteria::new(1e-30, 1_000)).unwrap();
    for j in 0..12 {
        let before = passes();
        gmres.try_step().unwrap();
        assert_eq!(passes() - before, j + 5, "inner step {j}");
    }
    let before = passes();
    let _ = gmres.capture_state();
    assert_eq!(passes() - before, 1, "x + Σ y_j v_j is one pass");
}

/// One shard holds the whole system, so `ShardSpace` and `LocalSpace` run
/// the same CG on the same data and differ only in reduction order: same
/// iteration count, traces equal to rounding.  The shard's real comm
/// counters match the budget the fake pins.
#[test]
fn one_shard_cg_agrees_with_local_cg() {
    let sys = system(true);
    let criteria = StoppingCriteria::new(1e-10, 1_000);

    let mut local =
        ConjugateGradient::on(LocalSpace::unpreconditioned(sys.clone()), None, criteria).unwrap();
    while !local.progress().converged() {
        local.try_step().unwrap();
    }
    let local = local.progress().history();

    let layout = ShardLayout::with_block(sys.dim(), 1, 32);
    let parts = partition_csr(&sys.a, &layout);
    let comm = RefCell::new(build_comms(1, None).pop().unwrap());
    let space = ShardSpace::new(&parts[0], sys.b.as_slice(), &comm);
    let mut sharded = ConjugateGradient::on(space, None, criteria).unwrap();
    while !sharded.progress().converged() {
        sharded.try_step().unwrap();
    }
    let history = sharded.progress().history().clone();
    let reduce_rounds = comm.borrow().reduce_rounds();

    assert_eq!(history.iterations(), local.iterations());
    assert_eq!(
        reduce_rounds as usize,
        2 + 2 * history.iterations(),
        "two reductions at the start, two per iteration"
    );
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
    assert!(close(history.initial_residual(), local.initial_residual()));
    for (k, (a, b)) in history
        .residuals()
        .iter()
        .zip(local.residuals())
        .enumerate()
    {
        assert!(
            close(*a, *b),
            "trace entry {k}: sharded {a:e} vs local {b:e}"
        );
    }
}
