//! Persistent worker pool: the threads behind [`run_items`](crate::run_items).
//!
//! The pool is process-global and lazily initialised on the first parallel
//! call: `LCR_NUM_THREADS` (or, unset, `std::thread::available_parallelism`)
//! fixes the total thread count — the calling thread plus `N − 1` detached
//! workers that live for the rest of the process.
//!
//! A parallel call is a fixed number of tasks; the caller and the workers
//! it recruits claim task indices from a shared atomic counter until none
//! are left.  Which thread runs which task is racy; how the work was cut
//! into tasks and the order their results are combined in are the
//! caller's, and never depend on the thread count — which is what makes
//! floating-point reductions bit-identical regardless of it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One queued "ticket": a worker that pops it joins `job`'s task loop.
struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
}

/// The process-global pool: `threads - 1` workers plus the calling thread.
struct Pool {
    shared: Arc<Shared>,
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set for pool workers so nested parallel calls degrade to sequential
    /// execution instead of deadlocking the pool on itself.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Per-thread cap on how many threads a parallel call may use
    /// (0 = no cap).  Results are unaffected either way — this only
    /// throttles how much of the pool a caller recruits.
    static ACTIVE_LIMIT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn configured_threads() -> usize {
    match std::env::var("LCR_NUM_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(default_threads),
        Err(_) => default_threads(),
    }
}

/// Explicitly initialises the global pool with `threads` total threads
/// (clamped to at least 1), overriding `LCR_NUM_THREADS`.  Returns `true`
/// if this call created the pool, `false` if it already existed (in which
/// case the existing size wins — the pool is immutable once built).
pub fn initialize_pool(threads: usize) -> bool {
    let mut created = false;
    POOL.get_or_init(|| {
        created = true;
        Pool::spawn(threads.max(1))
    });
    created
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool::spawn(configured_threads()))
}

/// Total threads in the pool (callers + workers), forcing initialisation.
pub fn pool_threads() -> usize {
    pool().threads
}

/// Caps parallel calls issued *from the current thread* at `limit` threads
/// (0 removes the cap).  Used by the scaling benchmark and the runner
/// config to measure/pin concurrency without rebuilding the pool; results
/// are bit-identical at any setting.
pub fn set_max_active_threads(limit: usize) {
    ACTIVE_LIMIT.with(|c| c.set(limit));
}

/// The current thread's active-thread cap (0 = uncapped).
pub fn max_active_threads() -> usize {
    ACTIVE_LIMIT.with(|c| c.get())
}

/// Pool workers a call of `ntasks` tasks issued from this thread may
/// recruit besides the caller: none for fewer than two tasks, under a cap
/// of one thread, or from inside a worker — nested parallelism runs in
/// line, the pool must never block one of its own threads on pool capacity.
pub(crate) fn helpers(ntasks: usize) -> usize {
    if ntasks < 2 || IN_WORKER.with(|c| c.get()) {
        return 0;
    }
    let threads = match max_active_threads() {
        0 => pool_threads(),
        n => n.min(pool_threads()),
    };
    (threads - 1).min(ntasks - 1)
}

impl Pool {
    fn spawn(threads: usize) -> Pool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        for _ in 1..threads {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lcr-worker".into())
                .spawn(move || worker_loop(sh))
                .expect("failed to spawn pool worker");
        }
        Pool { shared, threads }
    }

    fn push_tickets(&self, job: &Arc<Job>, tickets: usize) {
        let mut q = self.shared.queue.lock().unwrap();
        for _ in 0..tickets {
            q.push_back(Arc::clone(job));
        }
        drop(q);
        self.shared.available.notify_all();
    }

    /// Removes `job`'s still-queued tickets, returning how many were
    /// revoked.  Popping and revoking both happen under the queue lock, so
    /// every ticket is either revoked here (and never runs) or was popped
    /// by a worker that will check in via the job's finished counter.
    fn revoke_tickets(&self, job: &Arc<Job>) -> usize {
        let mut q = self.shared.queue.lock().unwrap();
        let before = q.len();
        q.retain(|queued| !Arc::ptr_eq(queued, job));
        before - q.len()
    }
}

fn worker_loop(shared: Arc<Shared>) {
    IN_WORKER.with(|c| c.set(true));
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = shared.available.wait(q).unwrap();
            }
        };
        job.run_ticket();
    }
}

/// One parallel call in flight.  `body` is a lifetime-erased pointer into
/// the caller's stack; [`execute`] revokes still-queued tickets and keeps
/// the caller blocked until every *popped* ticket has finished, so the
/// pointer never outlives its referent.
struct Job {
    body: *const (dyn Fn(usize) + Sync),
    ntasks: usize,
    next: AtomicUsize,
    tickets: usize,
    finished: Mutex<usize>,
    all_finished: Condvar,
    /// First panic payload raised on a worker, re-thrown on the caller so
    /// the original assertion message survives the thread hop.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

// SAFETY: `body` points at a `Sync` closure that `execute` keeps alive (and
// the counters are all thread-safe primitives), so a `Job` may move to the
// queue's thread.
unsafe impl Send for Job {}

// SAFETY: every field is either immutable after construction or a
// thread-safe primitive, and `body` is `Sync`, so shared access from many
// workers is sound.
unsafe impl Sync for Job {}

impl Job {
    /// Claims task indices until the counter runs past `ntasks`.
    fn claim_loop(&self) {
        // SAFETY: `execute` does not return before every ticket finishes,
        // so the closure behind `body` is still alive.
        let body = unsafe { &*self.body };
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.ntasks {
                break;
            }
            body(i);
        }
    }

    /// A worker's share of the job: claim tasks, then check in — even on
    /// panic, so the caller never deadlocks waiting for this ticket.
    /// Notifies on every check-in because ticket revocation means the
    /// caller may be waiting for fewer than `tickets` check-ins.
    fn run_ticket(&self) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.claim_loop())) {
            let mut slot = self.panic_payload.lock().unwrap();
            slot.get_or_insert(payload);
        }
        let mut done = self.finished.lock().unwrap();
        *done += 1;
        self.all_finished.notify_all();
    }

    /// Blocks until `expected` tickets have checked in (the tickets that
    /// were actually popped; revoked ones never run).
    fn wait_tickets(&self, expected: usize) {
        let mut done = self.finished.lock().unwrap();
        while *done < expected {
            done = self.all_finished.wait(done).unwrap();
        }
    }
}

/// Runs `body(task_index)` for every index in `0..ntasks` on the calling
/// thread and `helpers` pool workers (see [`helpers`]; with none, the
/// caller runs every task).  Blocks until every task has completed.  Task→thread assignment is racy; what a task
/// touches is the caller's to keep apart.
pub(crate) fn execute(ntasks: usize, helpers: usize, body: &(dyn Fn(usize) + Sync)) {
    let body_ptr: *const (dyn Fn(usize) + Sync) = body;
    // SAFETY: erases the closure's lifetime so it can sit in the 'static
    // queue; sound because `execute` does not return until every popped
    // ticket has checked in, so the borrow outlives all uses of `body`.
    let erased = unsafe {
        std::mem::transmute::<
            *const (dyn Fn(usize) + Sync + '_),
            *const (dyn Fn(usize) + Sync + 'static),
        >(body_ptr)
    };
    let job = Arc::new(Job {
        body: erased,
        ntasks,
        next: AtomicUsize::new(0),
        tickets: helpers,
        finished: Mutex::new(0),
        all_finished: Condvar::new(),
        panic_payload: Mutex::new(None),
    });
    let pool = pool();
    pool.push_tickets(&job, helpers);
    // The caller is a full participant.  Once its own claim loop drains,
    // any ticket still sitting in the queue (e.g. behind another caller's
    // long job) is pure overhead — revoke it under the queue lock and wait
    // only for the tickets that workers actually popped, which is exactly
    // the set that may still hold the borrowed closure.
    let caller_result = catch_unwind(AssertUnwindSafe(|| job.claim_loop()));
    let revoked = pool.revoke_tickets(&job);
    job.wait_tickets(job.tickets - revoked);
    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
    let worker_panic = job.panic_payload.lock().unwrap().take();
    if let Some(payload) = worker_panic {
        // Re-throw a worker's panic with its original payload intact.
        resume_unwind(payload);
    }
}
