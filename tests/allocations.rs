//! What the hot paths allocate, counted by this binary's own global
//! allocator: one steady-state CG step, a lossy and a traditional encode
//! into a reused [`CheckpointBuffer`], and one commit to the in-memory tier
//! (a `DiskStore` over `MemBackend`).  Each case is warmed up first, so the
//! pins are what every later call costs, and a change that moves them moves
//! them on purpose.
//!
//! Pool workers allocate on their own threads and the counter is
//! process-wide, so the file holds one test that runs its cases in
//! sequence.  The pool's bookkeeping (task slots, the job, the results) is
//! allocated only when a call has helpers, so every pin has a one-thread
//! and a pooled value.  CI runs this file at `LCR_NUM_THREADS=1` and `=4`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use lossy_ckpt::ckpt::{CheckpointBuffer, CheckpointLevel, ClusterConfig, FtiContext, PfsModel};
use lossy_ckpt::core::strategy::CheckpointStrategy;
use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::solvers::SolverKind;

/// Allocations of at least this many bytes are counted apart: the size of
/// a solver vector or a codec temporary, never of bookkeeping.
const LARGE: usize = 4096;

static COUNT: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGE_COUNT: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting every allocation and reallocation with its size.
struct Counting;

impl Counting {
    fn note(size: usize) {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(size, Relaxed);
        if size >= LARGE {
            LARGE_COUNT.fetch_add(1, Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are atomics that never
// allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `System.alloc`'s contract is the caller's.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: as above: the arguments are the caller's, unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `System.alloc_zeroed`'s contract is the caller's.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: as above: the arguments are the caller's, unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `System.realloc`'s contract is the caller's.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size);
        // SAFETY: as above: the arguments are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: `System.dealloc`'s contract is the caller's.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above: the arguments are the caller's, unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one call allocated: count, bytes, and allocations of [`LARGE`]
/// bytes or more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    count: usize,
    bytes: usize,
    large: usize,
}

/// What `f` allocates.
fn cost_of(f: impl FnOnce()) -> Cost {
    let before = (COUNT.load(Relaxed), BYTES.load(Relaxed), LARGE_COUNT.load(Relaxed));
    f();
    Cost {
        count: COUNT.load(Relaxed) - before.0,
        bytes: BYTES.load(Relaxed) - before.1,
        large: LARGE_COUNT.load(Relaxed) - before.2,
    }
}

/// What `f` allocates once it has run `warm_up` times.
fn steady(warm_up: usize, mut f: impl FnMut()) -> Cost {
    for _ in 0..warm_up {
        f();
    }
    cost_of(f)
}

/// `(count, bytes, large)`.
type Pin = (usize, usize, usize);

/// `(case, one thread, pooled)`.  A pooled step's large allocations are
/// the task slots of its 64-chunk kernel calls.
const PINS: &[(&str, Pin, Pin)] = &[
    ("cg_step", (3, 1504, 0), (10, 31032, 4)),
    ("lossy_encode", (15, 7569, 0), (19, 9377, 0)),
    ("traditional_encode", (6, 165, 0), (6, 165, 0)),
    ("memory_commit", (27, 646, 0), (27, 646, 0)),
];

#[test]
fn steady_state_allocations_are_pinned() {
    // The benchmark's `ckpt_heavy` solver: CG + block-Jacobi(16) at 40³,
    // twenty iterations in, where its checkpoints are taken.
    let workload = PaperWorkload::poisson(1, 40);
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, SolverKind::Cg, 10_000);
    for _ in 0..20 {
        solver.step();
    }
    let mut measured = vec![("cg_step", steady(3, || solver.step()))];

    let mut buffer = CheckpointBuffer::new();
    let lossy = CheckpointStrategy::lossy_default();
    for (case, strategy) in [
        ("lossy_encode", lossy.clone()),
        ("traditional_encode", CheckpointStrategy::Traditional),
    ] {
        let cost = steady(3, || {
            strategy.encode_into(&*solver, &mut buffer).expect("the encode succeeds");
        });
        measured.push((case, cost));
    }

    // Enough commits that the tier evicts and recycles on every one.
    let mut fti = FtiContext::new(
        ClusterConfig::bebop_like(1, 1.0),
        PfsModel::bebop_like(),
        CheckpointLevel::Pfs,
    );
    let mut at = 0.0;
    let mut commit = || {
        // Encoded outside the count, as the runner encodes before it commits.
        let meta = lossy.encode_into(&*solver, &mut buffer).expect("the encode succeeds");
        at += 1.0;
        cost_of(|| {
            let (iteration, scalars) = (meta.iteration, &meta.scalars);
            fti.commit_snapshot_from_buffer(at, iteration, "lossy", scalars, None, &mut buffer, 0.0)
                .expect("the memory tier commits");
        })
    };
    for _ in 0..6 {
        commit();
    }
    measured.push(("memory_commit", commit()));

    // Beyond the pins: an encode reads the solver's vectors in place and
    // keeps its codec scratch across calls, so nothing it allocates is the
    // size of a vector.
    for &(case, cost) in &measured[1..3] {
        assert_eq!(cost.large, 0, "{case} allocated {cost:?}");
    }

    let pooled = rayon::pool_threads() > 1;
    let mut wrong = Vec::new();
    for (&(case, one, pool), &(measured_case, cost)) in PINS.iter().zip(&measured) {
        assert_eq!(case, measured_case);
        let (count, bytes, large) = if pooled { pool } else { one };
        let expected = Cost { count, bytes, large };
        if cost != expected {
            wrong.push(format!("{case}: expected {expected:?}, measured {cost:?}"));
        }
    }
    assert!(wrong.is_empty(), "allocation pins moved:\n{}", wrong.join("\n"));
}
