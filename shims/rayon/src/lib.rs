//! The repository's deterministic thread pool.
//!
//! The crate is named `rayon` only because manifests name its path (see
//! the README's *Dependency shims*); it shares no API with that crate and
//! cannot be replaced by it.  It does **not** work-steal:
//!
//! * A lazily initialised, persistent worker pool is sized by
//!   `LCR_NUM_THREADS` (default: `std::thread::available_parallelism`), or
//!   explicitly via [`initialize_pool`].
//! * There is one way onto it, [`run_items`]: the caller cuts the work into
//!   *owned* items — index ranges, or `&mut` pieces peeled off a buffer
//!   with `split_at_mut` ([`split_mut`]) — each pool task consumes one, and
//!   the results come back **in item order**.  The borrow checker, not a
//!   promise, keeps two tasks off the same element.
//! * How the work is cut never depends on the thread count:
//!   [`chunk_ranges`] is a function of the data length alone, and callers
//!   with their own partition (an nnz-balanced `SpmvPlan`, compression
//!   blocks) derive it from the data.
//!
//! Together these make floating-point reductions (`dot`, norms, SZ
//! quantisation, …) folded from the returned partials **bit-identical at
//! any thread count**, which is what the repository's reproducibility
//! tests pin.  Which thread runs which item is racy; what an item computes
//! and the order results are combined in are not.

#![deny(unsafe_op_in_unsafe_fn)]

mod pool;

pub use pool::{initialize_pool, max_active_threads, pool_threads, set_max_active_threads};

use std::ops::Range;
use std::sync::Mutex;

/// Default minimum number of elements per chunk.  Fine enough that every
/// kernel above the crates' parallel thresholds splits, coarse enough that
/// per-chunk bookkeeping stays invisible next to the work.
pub const DEFAULT_MIN_CHUNK: usize = 1024;

/// Upper bound on chunks per parallel call, capping bookkeeping for huge
/// inputs while leaving ample slack for load balance on any realistic
/// thread count.
pub const MAX_CHUNKS: usize = 64;

/// The deterministic split of `0..len`: `n = (len / min_chunk).clamp(1,
/// MAX_CHUNKS)` ranges (none for an empty input), the `i`-th being
/// `i·len/n .. (i+1)·len/n` — a function of the data shape only, never of
/// the thread count.  Every length-chunked reduction in the workspace
/// folds its partials over exactly these ranges, which is what keeps a
/// fused ‖·‖² bit-identical to a separate `dot` sweep.
pub fn chunk_ranges(
    len: usize,
    min_chunk: usize,
) -> impl ExactSizeIterator<Item = Range<usize>> + Clone {
    let n = match len {
        0 => 0,
        _ => (len / min_chunk.max(1)).clamp(1, MAX_CHUNKS),
    };
    (0..n).map(move |i| i * len / n..(i + 1) * len / n)
}

/// Cuts `buf` into consecutive pieces of the given lengths (which must sum
/// to at most `buf.len()`), so pool tasks can fill them independently.
pub fn split_mut<T>(buf: &mut [T], lens: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    let mut rest = buf;
    lens.map(|len| {
        let (piece, after) = std::mem::take(&mut rest).split_at_mut(len);
        rest = after;
        piece
    })
    .collect()
}

/// Runs `work(index, item)` for every item — on the pool when it has
/// threads to offer, in line otherwise — and returns the results **in item
/// order**.  Each task owns its item, so an item may carry `&mut` pieces of
/// a buffer (see [`split_mut`]).
///
/// The items are drawn on the calling thread before any task starts; a
/// panic, there or in a task, resurfaces on the caller with its payload.
pub fn run_items<P, R>(
    items: impl IntoIterator<Item = P, IntoIter: ExactSizeIterator>,
    work: impl Fn(usize, P) -> R + Sync,
) -> Vec<R>
where
    P: Send,
    R: Send,
{
    let items = items.into_iter();
    let helpers = pool::helpers(items.len());
    if helpers == 0 {
        return items.enumerate().map(|(i, item)| work(i, item)).collect();
    }
    // One slot per task for its item and its result: task `i` is the only
    // one to lock slot `i`, so no lock is ever contended — and a cache
    // line of padding apart, so neighbouring tasks, which run at the same
    // time, do not take turns on one line either.  (Padding, not
    // `align(64)`: over-aligned allocations cost the benchmark 5 % of
    // peak RSS.)
    struct Slot<P, R> {
        cell: Mutex<(Option<P>, Option<R>)>,
        _pad: [u8; 64],
    }
    let slot = |item| Slot {
        cell: Mutex::new((Some(item), None)),
        _pad: [0; 64],
    };
    let slots: Vec<Slot<P, R>> = items.map(slot).collect();
    pool::execute(slots.len(), helpers, &|i| {
        let mut slot = slots[i].cell.lock().expect("no other task locks this slot");
        let item = slot.0.take().expect("the pool runs every task once");
        slot.1 = Some(work(i, item));
    });
    let result = |slot: Slot<P, R>| {
        let filled = slot.cell.into_inner().expect("a task's panic has already resurfaced");
        filled.1.expect("the pool ran every task")
    };
    slots.into_iter().map(result).collect()
}

/// [`run_items`] over the indices `0..ntasks`, for callers whose partition
/// is a table they index themselves (compression blocks, block × candidate
/// pairs): `work(task_index)`, results in task order.
pub fn run_ordered<R: Send>(ntasks: usize, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
    run_items(0..ntasks, |i, _| work(i))
}

#[cfg(test)]
mod tests {
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
    fn each_task_owns_its_item_and_results_keep_item_order() {
        // Uneven `&mut` pieces of one buffer plus an owned `String` each:
        // whoever runs a task, it fills its own piece and its result lands
        // at its item's position.
        let lens = [3usize, 0, 4_000, 1, 17, 2_500];
        for cap in [1, 2, 0] {
            set_max_active_threads(cap);
            let mut buf = vec![0usize; lens.iter().sum()];
            let pieces = split_mut(&mut buf, lens.iter().copied());
            let items = pieces.into_iter().enumerate().map(|(i, p)| (p, i.to_string()));
            let names = run_items(items, |i, (piece, name)| {
                piece.fill(i + 1);
                (name, piece.len())
            });
            let expect: Vec<_> = (0..lens.len()).map(|i| (i.to_string(), lens[i])).collect();
            assert_eq!(names, expect, "cap {cap}");
            let filled = lens.iter().enumerate().flat_map(|(i, &len)| vec![i + 1; len]);
            assert!(buf.iter().copied().eq(filled), "cap {cap}");
        }
    }

    #[test]
    fn a_panic_while_an_item_is_drawn_surfaces_its_own_payload() {
        // The item source itself fails (a splitter rejecting its ranges):
        // the caller must see that message, not a poisoned-lock one, and
        // the pool must still work.
        initialize_pool(4);
        for cap in [1, 0] {
            set_max_active_threads(cap);
            let err = std::panic::catch_unwind(|| {
                let items = (0..40usize).inspect(|&i| {
                    assert!(i != 23, "deliberate hand-off panic at item {i}");
                });
                run_items(items, |_, item| item * 2)
            })
            .unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("deliberate hand-off panic at item 23"),
                "cap {cap}: foreign payload: {msg}"
            );
            let doubled = run_items(0..40usize, |_, item| item * 2);
            assert!(doubled.into_iter().eq((0..40).map(|i| i * 2)), "cap {cap}");
        }
    }

    #[test]
    fn chunking_is_a_function_of_length_only() {
        let chunks = |len, min_chunk| {
            run_items(chunk_ranges(len, min_chunk), |_, chunk| (chunk.start, chunk.end))
        };
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
        // Every split tiles `0..len`: no chunk is empty, each starts where
        // the one before it ended, and the last ends at `len`.
        for len in (0..300).chain([1023, 1024, 1025, 4097, 65_535, 65_536, 1 << 20, 1 << 40]) {
            for min_chunk in [0, 1, 2, 3, 7, 64, 1000, DEFAULT_MIN_CHUNK, usize::MAX] {
                let mut end = 0;
                for chunk in chunk_ranges(len, min_chunk) {
                    assert_eq!(chunk.start, end, "gap or overlap at len {len}, min {min_chunk}");
                    assert!(chunk.end > chunk.start, "empty chunk at len {len}, min {min_chunk}");
                    end = chunk.end;
                }
                assert_eq!(end, len, "split stops short at len {len}, min {min_chunk}");
            }
        }
    }

    /// Runs `f` on every index of `0..len`, a pool chunk at a time.
    fn for_each_index(len: usize, f: impl Fn(usize) + Sync) {
        run_items(chunk_ranges(len, DEFAULT_MIN_CHUNK), |_, chunk| chunk.for_each(&f));
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
            let s: usize = run_items(chunk_ranges(len, DEFAULT_MIN_CHUNK), |_, chunk| {
                chunk.sum::<usize>()
            })
            .into_iter()
            .sum();
            assert_eq!(s, expect, "round {round}: pool corrupted after panic");
        }
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
        assert!(run_items(chunk_ranges(0, DEFAULT_MIN_CHUNK), |_, _| 0.0f64).is_empty());
        assert!(run_items(chunk_ranges(0, 1), |_, _| ()).is_empty());
        assert!(run_ordered(0, |_| ()).is_empty());
    }
}
