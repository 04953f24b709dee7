//! In-tree stand-in for `rayon`, backed by a **real thread pool** with
//! **deterministic fixed-chunk scheduling**.
//!
//! The registry is unreachable in the build environment, so this shim keeps
//! the workspace's `par_iter()` call sites compiling with the subset of
//! rayon's `ParallelIterator` API the workspace uses — `map`, `zip`,
//! `enumerate`, `for_each`, `sum`, rayon's two-argument
//! `reduce(identity, op)` and chunk-style `fold(identity, fold_op)`,
//! `collect`, `count` and `all`.  Unlike rayon it does **not** work-steal:
//!
//! * A lazily initialised, persistent worker pool is sized by
//!   `LCR_NUM_THREADS` (default: `std::thread::available_parallelism`), or
//!   explicitly via [`initialize_pool`].
//! * Every parallel call is split into chunks whose boundaries depend only
//!   on the data length (tunable per call via [`Par::with_min_len`], never
//!   on the thread count), and per-chunk partial results are combined **in
//!   chunk order** on the calling thread.
//!
//! The second point is this shim's distinguishing guarantee: floating-point
//! reductions (`dot`, norms, SZ quantisation, …) are **bit-identical at any
//! thread count**, which keeps the repository's reproducibility tests
//! meaningful while the kernels scale.  Swapping in the real rayon remains
//! possible at the workspace manifest level, at the price of that guarantee
//! (rayon's split points depend on runtime load).
//!
//! Internally the design is index-based rather than iterator-based: a
//! [`ParSource`] describes random-access data (`len` + `get(i)`), adapters
//! (`Map`, `Zip`, `Enumerate`) compose over it, and terminal operations
//! drive disjoint index ranges on the pool.

#![deny(unsafe_op_in_unsafe_fn)]

mod pool;
pub mod racecheck;

pub use pool::{initialize_pool, max_active_threads, pool_threads, set_max_active_threads};

/// Default minimum number of items per chunk.  Fine enough that every
/// kernel above the crates' parallel thresholds splits, coarse enough that
/// per-chunk bookkeeping stays invisible next to the work.
pub const DEFAULT_MIN_CHUNK: usize = 1024;

/// Upper bound on chunks per parallel call, capping bookkeeping for huge
/// inputs while leaving ample slack for load balance on any realistic
/// thread count.
pub const MAX_CHUNKS: usize = 64;

/// Number of chunks a `len`-item call splits into — a function of the data
/// shape only, never of the thread count (the determinism invariant).
fn chunk_count(len: usize, min_chunk: usize) -> usize {
    (len / min_chunk.max(1)).clamp(1, MAX_CHUNKS)
}

/// Splits `0..len` into deterministic chunks, evaluates
/// `work(start, end)` for each (in parallel when the pool allows), and
/// returns the partial results **in chunk order**.
///
/// Public because the workspace's fused solver kernels combine their
/// reduction partials over **exactly this split** — sharing the function
/// (rather than reimplementing the `chunk_count` / `i * len / n` formula)
/// is what keeps a fused ‖·‖² bit-identical to the `par_iter().sum()` path
/// at every thread count.
pub fn run_chunks<R, F>(len: usize, min_chunk: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let nchunks = chunk_count(len, min_chunk);
    if nchunks == 1 {
        return vec![work(0, len)];
    }
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        (0..nchunks).map(|_| std::sync::Mutex::new(None)).collect();
    // Under `racecheck`, claim every computed chunk range up front — a
    // regression in the split formula (overlap, out-of-bounds) panics here
    // before any worker touches data.
    let claims = racecheck::ClaimSet::new(len);
    pool::execute(nchunks, &|i| {
        let start = i * len / nchunks;
        let end = (i + 1) * len / nchunks;
        claims.claim(start, end);
        *slots[i].lock().unwrap() = Some(work(start, end));
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("pool executed every chunk exactly once")
        })
        .collect()
}

/// Runs `work(task_index)` for every index in `0..ntasks` on the pool and
/// returns the per-task results **in task order**.
///
/// This is the shim's escape hatch for callers that partition the work
/// themselves — e.g. the sparse crate's fused solver kernels, whose chunk
/// boundaries come from a precomputed nnz-balanced `SpmvPlan` rather than a
/// plain length split.  The determinism contract is the caller's partition
/// plus this function's ordered combination: as long as the partition does
/// not depend on the thread count, results (including floating-point
/// reductions folded from the returned partials in order) are bit-identical
/// at any `LCR_NUM_THREADS`.
///
/// Tasks must touch disjoint data when they mutate through shared pointers;
/// which thread runs which task is racy, the per-task work and the result
/// order are not.
pub fn run_ordered<R, F>(ntasks: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if ntasks == 0 {
        return Vec::new();
    }
    if ntasks == 1 || pool::effective_threads() == 1 {
        // Inline fast path: no slot allocation, no pool hand-off.
        return (0..ntasks).map(work).collect();
    }
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        (0..ntasks).map(|_| std::sync::Mutex::new(None)).collect();
    pool::execute(ntasks, &|i| {
        *slots[i].lock().unwrap() = Some(work(i));
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("pool executed every task exactly once")
        })
        .collect()
}

/// Random-access description of parallelisable data: `len` indices, each
/// producing one item.  Composable (see [`Map`], [`Zip`], [`Enumerate`])
/// and driven in disjoint index ranges by the terminal operations.
// lcr-analyze: allow(dead-public-item): bound of every adaptor and terminal operation; callers never name it
pub trait ParSource: Sync {
    /// Item produced per index.
    type Item;

    /// Number of indices.
    fn len(&self) -> usize;

    /// Whether the source has no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produces the item at `index`.
    ///
    /// # Safety
    /// Sources handing out exclusive access (`par_iter_mut`, by-value
    /// sources) rely on each index being driven **at most once** across all
    /// threads.  The chunk driver guarantees this by partitioning `0..len`
    /// into disjoint ranges; other callers must do the same.
    unsafe fn get(&self, index: usize) -> Self::Item;

    /// Informs the source that indices `>= len` will never be driven
    /// (`zip` truncates to the shorter side).  By-value sources drop the
    /// tail items eagerly so nothing is leaked; borrowing sources need no
    /// action.
    fn truncate(&mut self, _len: usize) {}
}

/// Borrowing source over a slice (`par_iter`).
// lcr-analyze: allow(dead-public-item): source type behind `par_iter`/`into_par_iter`; callers hold it by inference
pub struct SliceSource<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParSource for SliceSource<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    // SAFETY: shared references are free to alias; the only obligation is
    // `index < len`, which the chunk driver's `0..len` partition upholds.
    unsafe fn get(&self, index: usize) -> &'a T {
        // SAFETY: `index < self.slice.len()` per the `get` contract.
        unsafe { self.slice.get_unchecked(index) }
    }
}

/// Mutably borrowing source over a slice (`par_iter_mut`).  Raw-pointer
/// based so disjoint indices can be driven from different threads.  Under
/// the `racecheck` feature each index records its delivery, so an index
/// driven twice — an aliased `&mut` — panics instead of racing.
// lcr-analyze: allow(dead-public-item): source type behind `par_iter`/`into_par_iter`; callers hold it by inference
pub struct SliceMutSource<'a, T> {
    ptr: *mut T,
    len: usize,
    #[cfg(feature = "racecheck")]
    driven: Vec<std::sync::atomic::AtomicBool>,
    _marker: std::marker::PhantomData<&'a mut T>,
}

// SAFETY: items are `&mut T` handed out for disjoint indices only (the
// `get` contract), so sharing the source across threads is sound when the
// items themselves may move between threads.
unsafe impl<T: Send> Sync for SliceMutSource<'_, T> {}

impl<'a, T: Send> ParSource for SliceMutSource<'a, T> {
    type Item = &'a mut T;
    fn len(&self) -> usize {
        self.len
    }
    // SAFETY: the disjointness contract of `get` (each index driven at
    // most once) is exactly what makes handing out `&mut` from `&self`
    // sound here; `racecheck` builds verify it per index at runtime.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, index: usize) -> &'a mut T {
        #[cfg(feature = "racecheck")]
        if self.driven[index].swap(true, std::sync::atomic::Ordering::Relaxed) {
            panic!("racecheck: par_iter_mut index {index} driven twice — aliased `&mut`");
        }
        // SAFETY: `index < self.len` and each index is driven at most once
        // (the `get` contract), so this `&mut` never aliases another.
        unsafe { &mut *self.ptr.add(index) }
    }
}

/// Source over a `usize` range (`(a..b).into_par_iter()`).
// lcr-analyze: allow(dead-public-item): source type behind `par_iter`/`into_par_iter`; callers hold it by inference
pub struct RangeSource {
    start: usize,
    len: usize,
}

impl ParSource for RangeSource {
    type Item = usize;
    fn len(&self) -> usize {
        self.len
    }
    // SAFETY: produces a plain integer — no exclusivity to uphold; the
    // trait's at-most-once contract is vacuously satisfied.
    unsafe fn get(&self, index: usize) -> usize {
        self.start + index
    }
}

/// By-value source over a `Vec` (`vec.into_par_iter()`).  Items are moved
/// out with `ptr::read` (zip-truncated tails are dropped eagerly by
/// [`ParSource::truncate`]); the buffer (not the items) is freed on drop,
/// so items never driven — possible only if a terminal operation panicked
/// — are leaked rather than double-dropped.
// lcr-analyze: allow(dead-public-item): source type behind `par_iter`/`into_par_iter`; callers hold it by inference
pub struct VecSource<T> {
    buf: std::mem::ManuallyDrop<Vec<T>>,
}

// SAFETY: disjoint `get` calls move disjoint items; `T: Send` lets them
// land on other threads.
unsafe impl<T: Send> Sync for VecSource<T> {}

impl<T: Send> ParSource for VecSource<T> {
    type Item = T;
    fn len(&self) -> usize {
        self.buf.len()
    }
    // SAFETY: moves the item out by value; sound because each index is
    // driven at most once (the `get` contract) and the buffer's drop never
    // touches the items again.
    unsafe fn get(&self, index: usize) -> T {
        // SAFETY: `index < len`, and at-most-once delivery means the item
        // is never read (or dropped) twice.
        unsafe { std::ptr::read(self.buf.as_ptr().add(index)) }
    }
    fn truncate(&mut self, len: usize) {
        let cur = self.buf.len();
        if len < cur {
            // SAFETY: indices `len..cur` will never be driven, so dropping
            // them here is their only drop; set_len keeps `get` in bounds.
            unsafe {
                for i in len..cur {
                    std::ptr::drop_in_place(self.buf.as_mut_ptr().add(i));
                }
                self.buf.set_len(len);
            }
        }
    }
}

impl<T> Drop for VecSource<T> {
    fn drop(&mut self) {
        // SAFETY: driven items were moved out; setting len to 0 frees the
        // buffer without touching them again.
        unsafe {
            let mut v = std::mem::ManuallyDrop::take(&mut self.buf);
            v.set_len(0);
        }
    }
}

/// rayon: `ParallelIterator::map` (lazy adapter).
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: ParSource, U, F: Fn(S::Item) -> U + Sync> ParSource for Map<S, F> {
    type Item = U;
    fn len(&self) -> usize {
        self.source.len()
    }
    // SAFETY: forwards the caller's at-most-once-per-index obligation to
    // the inner source unchanged.
    unsafe fn get(&self, index: usize) -> U {
        // SAFETY: same index, same contract as our own caller's.
        (self.f)(unsafe { self.source.get(index) })
    }
    fn truncate(&mut self, len: usize) {
        self.source.truncate(len);
    }
}

/// rayon: `IndexedParallelIterator::zip` (lazy adapter).
// lcr-analyze: allow(dead-public-item): adaptor type of the `par_iter` chains; callers hold it by inference
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParSource, B: ParSource> ParSource for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    // SAFETY: forwards the caller's at-most-once-per-index obligation to
    // both inner sources unchanged.
    unsafe fn get(&self, index: usize) -> (A::Item, B::Item) {
        // SAFETY: same index, same contract as our own caller's.
        unsafe { (self.a.get(index), self.b.get(index)) }
    }
    fn truncate(&mut self, len: usize) {
        self.a.truncate(len);
        self.b.truncate(len);
    }
}

/// rayon: `IndexedParallelIterator::enumerate` (lazy adapter).
// lcr-analyze: allow(dead-public-item): adaptor type of the `par_iter` chains; callers hold it by inference
pub struct Enumerate<S> {
    source: S,
}

impl<S: ParSource> ParSource for Enumerate<S> {
    type Item = (usize, S::Item);
    fn len(&self) -> usize {
        self.source.len()
    }
    // SAFETY: forwards the caller's at-most-once-per-index obligation to
    // the inner source unchanged.
    unsafe fn get(&self, index: usize) -> (usize, S::Item) {
        // SAFETY: same index, same contract as our own caller's.
        (index, unsafe { self.source.get(index) })
    }
    fn truncate(&mut self, len: usize) {
        self.source.truncate(len);
    }
}

/// A parallel iterator: a [`ParSource`] plus the chunking policy.
// lcr-analyze: allow(dead-public-item): the parallel iterator every chain starts from; callers hold it by inference
pub struct Par<S> {
    source: S,
    min_chunk: usize,
}

impl<S: ParSource> Par<S> {
    fn new(source: S) -> Self {
        Par {
            source,
            min_chunk: DEFAULT_MIN_CHUNK,
        }
    }

    /// rayon: `IndexedParallelIterator::with_min_len` — minimum items per
    /// chunk.  Call-site constants keep chunking (and therefore results)
    /// deterministic; use a small value when each item is itself a large
    /// unit of work (e.g. one compression block).
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_chunk = min.max(1);
        self
    }

    /// rayon: `ParallelIterator::map`.
    pub fn map<U, F: Fn(S::Item) -> U + Sync>(self, f: F) -> Par<Map<S, F>> {
        Par {
            source: Map {
                source: self.source,
                f,
            },
            min_chunk: self.min_chunk,
        }
    }

    /// rayon: `IndexedParallelIterator::zip`.  Lengths are truncated to the
    /// shorter side, as in rayon; by-value sources drop the cut-off tail
    /// immediately so nothing leaks.
    pub fn zip<J: IntoParSource>(self, other: J) -> Par<Zip<S, J::Source>> {
        let mut a = self.source;
        let mut b = other.into_par_source();
        let len = a.len().min(b.len());
        a.truncate(len);
        b.truncate(len);
        Par {
            source: Zip { a, b },
            min_chunk: self.min_chunk,
        }
    }

    /// rayon: `IndexedParallelIterator::enumerate`.
    pub fn enumerate(self) -> Par<Enumerate<S>> {
        Par {
            source: Enumerate {
                source: self.source,
            },
            min_chunk: self.min_chunk,
        }
    }

    /// rayon: `ParallelIterator::for_each`.
    pub fn for_each<F: Fn(S::Item) + Sync>(self, f: F) {
        let src = &self.source;
        let f = &f;
        run_chunks(src.len(), self.min_chunk, move |start, end| {
            for i in start..end {
                // SAFETY: chunk ranges are disjoint.
                f(unsafe { src.get(i) });
            }
        });
    }

    /// rayon: `ParallelIterator::sum`.  Per-chunk partial sums are combined
    /// in chunk order, so the result is bit-identical at any thread count.
    pub fn sum<T>(self) -> T
    where
        T: Send + std::iter::Sum<S::Item> + std::iter::Sum<T>,
    {
        let src = &self.source;
        let partials = run_chunks(src.len(), self.min_chunk, |start, end| {
            // SAFETY: chunk ranges are disjoint.
            (start..end).map(|i| unsafe { src.get(i) }).sum::<T>()
        });
        partials.into_iter().sum()
    }

    /// rayon: `ParallelIterator::reduce(identity, op)`.  Each chunk folds
    /// from a fresh identity; chunk partials are combined in chunk order.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> S::Item
    where
        S::Item: Send,
        ID: Fn() -> S::Item + Sync,
        OP: Fn(S::Item, S::Item) -> S::Item + Sync,
    {
        let src = &self.source;
        let identity = &identity;
        let op = &op;
        let partials = run_chunks(src.len(), self.min_chunk, move |start, end| {
            let mut acc = identity();
            for i in start..end {
                // SAFETY: chunk ranges are disjoint.
                acc = op(acc, unsafe { src.get(i) });
            }
            acc
        });
        partials.into_iter().fold(identity(), op)
    }

    /// rayon: `ParallelIterator::fold(identity, fold_op)` — yields one
    /// accumulator per chunk, to be combined by [`Fold::reduce`].
    pub fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> Fold<S, ID, F>
    where
        T: Send,
        ID: Fn() -> T + Sync,
        F: Fn(T, S::Item) -> T + Sync,
    {
        Fold {
            par: self,
            identity,
            fold_op,
        }
    }

    /// rayon: `ParallelIterator::count` (drives every item, counting them).
    pub fn count(self) -> usize {
        let src = &self.source;
        let partials = run_chunks(src.len(), self.min_chunk, |start, end| {
            let mut c = 0usize;
            for i in start..end {
                // SAFETY: chunk ranges are disjoint.
                let _ = unsafe { src.get(i) };
                c += 1;
            }
            c
        });
        partials.into_iter().sum()
    }

    /// rayon: `ParallelIterator::collect` — per-chunk buffers concatenated
    /// in chunk order, preserving index order.
    pub fn collect<C: FromIterator<S::Item>>(self) -> C
    where
        S::Item: Send,
    {
        let src = &self.source;
        let parts: Vec<Vec<S::Item>> = run_chunks(src.len(), self.min_chunk, |start, end| {
            // SAFETY: chunk ranges are disjoint.
            (start..end).map(|i| unsafe { src.get(i) }).collect()
        });
        parts.into_iter().flatten().collect()
    }

    /// rayon: `ParallelIterator::all` (no early exit — every item is
    /// driven, which by-value sources rely on).
    pub fn all<F: Fn(S::Item) -> bool + Sync>(self, f: F) -> bool {
        let src = &self.source;
        let f = &f;
        let parts = run_chunks(src.len(), self.min_chunk, move |start, end| {
            let mut ok = true;
            for i in start..end {
                // SAFETY: chunk ranges are disjoint.
                ok &= f(unsafe { src.get(i) });
            }
            ok
        });
        parts.into_iter().all(|b| b)
    }
}

/// The pending state of `fold(identity, fold_op)`: one accumulator per
/// chunk, awaiting the chunk-order combination that [`Fold::reduce`]
/// performs.
// lcr-analyze: allow(dead-public-item): adaptor type of the `par_iter` chains; callers hold it by inference
pub struct Fold<S, ID, F> {
    par: Par<S>,
    identity: ID,
    fold_op: F,
}

impl<S, T, ID, F> Fold<S, ID, F>
where
    S: ParSource,
    T: Send,
    ID: Fn() -> T + Sync,
    F: Fn(T, S::Item) -> T + Sync,
{
    /// rayon: `ParallelIterator::reduce` applied to the per-chunk
    /// accumulators, in chunk order.
    pub fn reduce<ID2, OP>(self, identity: ID2, op: OP) -> T
    where
        ID2: Fn() -> T,
        OP: Fn(T, T) -> T,
    {
        let src = &self.par.source;
        let id = &self.identity;
        let fold_op = &self.fold_op;
        let partials = run_chunks(src.len(), self.par.min_chunk, move |start, end| {
            let mut acc = id();
            for i in start..end {
                // SAFETY: chunk ranges are disjoint.
                acc = fold_op(acc, unsafe { src.get(i) });
            }
            acc
        });
        partials.into_iter().fold(identity(), op)
    }
}

/// Conversion used by [`Par::zip`] so both `Par<_>` and plain sources can
/// appear on the right-hand side, mirroring rayon's
/// `IntoParallelIterator` bound.
// lcr-analyze: allow(dead-public-item): reached through `rayon::prelude::*`; callers never name it
pub trait IntoParSource {
    /// The underlying source type.
    type Source: ParSource;
    /// Unwrap into a source.
    fn into_par_source(self) -> Self::Source;
}

impl<S: ParSource> IntoParSource for Par<S> {
    type Source = S;
    fn into_par_source(self) -> S {
        self.source
    }
}

pub mod iter {
    //! Mirror of `rayon::iter` — the entry-point traits.

    use super::{Par, ParSource, RangeSource, SliceMutSource, SliceSource, VecSource};

    /// rayon: `IntoParallelIterator` (for `into_par_iter()`).
    // lcr-analyze: allow(dead-public-item): reached through `rayon::prelude::*`; callers never name it
    pub trait IntoParallelIterator {
        /// Item type of the iterator.
        type Item;
        /// Source type produced.
        type Source: ParSource<Item = Self::Item>;
        /// Convert into a parallel iterator.
        fn into_par_iter(self) -> Par<Self::Source>;
    }

    impl IntoParallelIterator for std::ops::Range<usize> {
        type Item = usize;
        type Source = RangeSource;
        fn into_par_iter(self) -> Par<RangeSource> {
            Par::new(RangeSource {
                start: self.start,
                len: self.end.saturating_sub(self.start),
            })
        }
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        type Source = VecSource<T>;
        fn into_par_iter(self) -> Par<VecSource<T>> {
            Par::new(VecSource {
                buf: std::mem::ManuallyDrop::new(self),
            })
        }
    }

    /// rayon: `IntoParallelRefIterator` (for `par_iter()`).
    // lcr-analyze: allow(dead-public-item): reached through `rayon::prelude::*`; callers never name it
    pub trait IntoParallelRefIterator<'data> {
        /// Item type of the iterator.
        type Item: 'data;
        /// Source type produced.
        type Source: ParSource<Item = Self::Item>;
        /// Borrowing parallel iterator.
        fn par_iter(&'data self) -> Par<Self::Source>;
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
        type Item = &'data T;
        type Source = SliceSource<'data, T>;
        fn par_iter(&'data self) -> Par<Self::Source> {
            Par::new(SliceSource { slice: self })
        }
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
        type Item = &'data T;
        type Source = SliceSource<'data, T>;
        fn par_iter(&'data self) -> Par<Self::Source> {
            Par::new(SliceSource { slice: self })
        }
    }

    /// rayon: `IntoParallelRefMutIterator` (for `par_iter_mut()`).
    // lcr-analyze: allow(dead-public-item): reached through `rayon::prelude::*`; callers never name it
    pub trait IntoParallelRefMutIterator<'data> {
        /// Item type of the iterator.
        type Item: 'data;
        /// Source type produced.
        type Source: ParSource<Item = Self::Item>;
        /// Mutably borrowing parallel iterator.
        fn par_iter_mut(&'data mut self) -> Par<Self::Source>;
    }

    impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
        type Item = &'data mut T;
        type Source = SliceMutSource<'data, T>;
        fn par_iter_mut(&'data mut self) -> Par<Self::Source> {
            let len = self.len();
            Par::new(SliceMutSource {
                ptr: self.as_mut_ptr(),
                len,
                #[cfg(feature = "racecheck")]
                driven: (0..len)
                    .map(|_| std::sync::atomic::AtomicBool::new(false))
                    .collect(),
                _marker: std::marker::PhantomData,
            })
        }
    }

    impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
        type Item = &'data mut T;
        type Source = SliceMutSource<'data, T>;
        fn par_iter_mut(&'data mut self) -> Par<Self::Source> {
            self.as_mut_slice().par_iter_mut()
        }
    }
}

pub mod prelude {
    //! Mirror of `rayon::prelude`.
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
    };
    pub use crate::Par;
}

/// rayon: `join` — sequential here (the workspace only uses the iterator
/// API; `join` exists for drop-in compatibility).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    (a(), b())
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    fn big(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn map_sum_matches_sequential_bitwise_at_any_cap() {
        let a = big(100_000, 1);
        let one: f64 = {
            set_max_active_threads(1);
            a.par_iter().map(|v| v * v).sum()
        };
        let many: f64 = {
            set_max_active_threads(0);
            a.par_iter().map(|v| v * v).sum()
        };
        assert_eq!(one.to_bits(), many.to_bits());
    }

    #[test]
    fn zip_for_each_mutates_disjointly() {
        let a = big(50_000, 2);
        let mut y = vec![0.0f64; 50_000];
        y.par_iter_mut()
            .zip(a.par_iter())
            .for_each(|(yi, ai)| *yi = 2.0 * ai);
        for (yi, ai) in y.iter().zip(a.iter()) {
            assert_eq!(*yi, 2.0 * ai);
        }
    }

    #[test]
    fn enumerate_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(v.len(), 10_000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * 3);
        }
        let e: Vec<(usize, usize)> = (5..9_005).into_par_iter().enumerate().collect();
        assert_eq!(e[0], (0, 5));
        assert_eq!(e[9_000 - 1], (8_999, 9_004));
    }

    #[test]
    fn fold_reduce_chunk_accumulators() {
        let a = big(70_000, 3);
        let (mn, mx) = a
            .par_iter()
            .fold(
                || (f64::INFINITY, f64::NEG_INFINITY),
                |(mn, mx), &v| (mn.min(v), mx.max(v)),
            )
            .reduce(
                || (f64::INFINITY, f64::NEG_INFINITY),
                |(amn, amx), (bmn, bmx)| (amn.min(bmn), amx.max(bmx)),
            );
        let smn = a.iter().cloned().fold(f64::INFINITY, f64::min);
        let smx = a.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(mn, smn);
        assert_eq!(mx, smx);
    }

    #[test]
    fn vec_into_par_iter_moves_items() {
        let v: Vec<String> = (0..5_000).map(|i| i.to_string()).collect();
        let lens: Vec<usize> = v.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(lens.len(), 5_000);
        assert_eq!(lens[0], 1);
        assert_eq!(lens[4_999], 4);
    }

    #[test]
    fn zip_truncation_drops_by_value_tail() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted(#[allow(dead_code)] usize);
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let long: Vec<Counted> = (0..3_000).map(Counted).collect();
        let short = vec![1.0f64; 2_000];
        DROPS.store(0, Ordering::SeqCst);
        let n = long
            .into_par_iter()
            .zip(short.par_iter())
            .map(|(c, _)| c)
            .count();
        assert_eq!(n, 2_000);
        // The 1,000 cut-off items dropped at zip time, the 2,000 driven
        // ones when the terminal op consumed them: nothing leaked.
        assert_eq!(DROPS.load(Ordering::SeqCst), 3_000);
    }

    #[test]
    fn count_and_all() {
        let v = big(40_000, 4);
        assert_eq!(v.par_iter().count(), 40_000);
        assert!(v.par_iter().all(|x| x.abs() <= 0.5));
        assert!(!v.par_iter().all(|x| *x > 0.0));
    }

    #[test]
    fn with_min_len_still_deterministic() {
        let v = big(200, 5);
        let fine: f64 = {
            set_max_active_threads(1);
            v.par_iter().with_min_len(1).sum()
        };
        let same: f64 = {
            set_max_active_threads(0);
            v.par_iter().with_min_len(1).sum()
        };
        assert_eq!(fine.to_bits(), same.to_bits());
    }

    #[test]
    fn chunking_is_a_function_of_length_only() {
        let chunks = |len, min_chunk| run_chunks(len, min_chunk, |start, end| (start, end));
        assert_eq!(chunks(10, DEFAULT_MIN_CHUNK), [(0, 10)]);
        assert_eq!(chunks(4 * DEFAULT_MIN_CHUNK, DEFAULT_MIN_CHUNK).len(), 4);
        assert_eq!(chunks(1 << 40, DEFAULT_MIN_CHUNK).len(), MAX_CHUNKS);
        assert_eq!(chunks(100, 1).len(), MAX_CHUNKS.min(100));
        // Chunk `i` of `n` is `i·len/n .. (i+1)·len/n`, whoever runs it.
        let len = 5 * DEFAULT_MIN_CHUNK + 321;
        let expect: Vec<_> = (0..5).map(|i| (i * len / 5, (i + 1) * len / 5)).collect();
        for cap in [1, 2, 0] {
            set_max_active_threads(cap);
            assert_eq!(chunks(len, DEFAULT_MIN_CHUNK), expect, "cap {cap}");
        }
    }

    /// Runs `f` on every index of `0..len`, a pool chunk at a time.
    fn for_each_index(len: usize, f: impl Fn(usize) + Sync) {
        run_chunks(len, DEFAULT_MIN_CHUNK, |start, end| (start..end).for_each(&f));
    }

    #[test]
    #[should_panic(expected = "deliberate kernel panic")]
    fn panic_payload_survives_parallel_execution() {
        // Whether the panicking chunk lands on the caller or a worker
        // (LCR_NUM_THREADS decides), the original message must surface.
        for_each_index(100_000, |i| {
            assert!(i != 77_777, "deliberate kernel panic at {i}");
        });
    }

    #[test]
    fn pool_survives_repeated_worker_panics() {
        // Regression test for the ticket-revocation/panic plumbing: a
        // worker panicking mid-job must still check its ticket in (so
        // `wait_tickets` cannot deadlock), the payload must surface on the
        // caller, and the pool must stay fully usable afterwards.
        initialize_pool(4);
        let len = 200_000usize;
        let expect: usize = len * (len - 1) / 2;
        for round in 0..8usize {
            let bomb = (round * 24_989) % len;
            let err = std::panic::catch_unwind(|| {
                for_each_index(len, |i| {
                    assert!(i != bomb, "deliberate stress panic at {i}");
                });
            })
            .unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                msg.contains("deliberate stress panic"),
                "round {round}: foreign payload: {msg}"
            );
            // The very next parallel call must run to completion with the
            // right answer — no leaked job, no stuck ticket.
            let s: usize = run_chunks(len, DEFAULT_MIN_CHUNK, |start, end| (start..end).sum::<usize>())
                .into_iter()
                .sum();
            assert_eq!(s, expect, "round {round}: pool corrupted after panic");
        }
    }

    #[cfg(feature = "racecheck")]
    #[test]
    fn par_iter_mut_claims_each_index_once() {
        // Normal use drives every index exactly once; the racecheck
        // delivery bitmap must stay silent for it.
        let mut v: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        v.par_iter_mut().for_each(|x| *x += 1.0);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[9_999], 10_000.0);
    }

    #[cfg(feature = "racecheck")]
    #[test]
    fn slice_mut_source_panics_on_double_drive() {
        let mut v = vec![0.0f64; 4];
        let src = SliceMutSource {
            ptr: v.as_mut_ptr(),
            len: v.len(),
            driven: (0..4)
                .map(|_| std::sync::atomic::AtomicBool::new(false))
                .collect(),
            _marker: std::marker::PhantomData,
        };
        // SAFETY: index 1 is in bounds and has not been driven yet.
        let first = unsafe { src.get(1) };
        *first = 7.0;
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: in bounds; the point is that the *contract* is now
            // violated and racecheck must catch it before any aliasing.
            let _ = unsafe { src.get(1) };
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("driven twice"), "unexpected message: {msg}");
    }

    #[test]
    fn run_ordered_returns_results_in_task_order() {
        let v = big(80_000, 6);
        // Caller-defined uneven partition: results must come back in task
        // order regardless of which thread ran which task.
        let bounds = [0usize, 13_000, 13_001, 50_000, 80_000];
        let partial = |lo: usize, hi: usize| v[lo..hi].iter().sum::<f64>();
        let seq: Vec<f64> = bounds.windows(2).map(|w| partial(w[0], w[1])).collect();
        set_max_active_threads(0);
        let par = run_ordered(bounds.len() - 1, |i| partial(bounds[i], bounds[i + 1]));
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(seq.iter()) {
            assert_eq!(p.to_bits(), s.to_bits());
        }
        set_max_active_threads(1);
        let one = run_ordered(bounds.len() - 1, |i| partial(bounds[i], bounds[i + 1]));
        set_max_active_threads(0);
        assert_eq!(one, par);
        assert!(run_ordered(0, |_| 0.0f64).is_empty());
    }

    #[test]
    fn empty_inputs() {
        assert!(run_chunks(0, DEFAULT_MIN_CHUNK, |_, _| 0.0f64).is_empty());
        assert!(run_chunks(0, 1, |_, _| ()).is_empty());
        assert!(run_ordered(0, |_| ()).is_empty());
    }
}
