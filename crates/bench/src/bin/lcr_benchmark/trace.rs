//! In-memory span tracing at the program's layer boundaries.
//!
//! The program itself carries no tracing (a later issue); the benchmark
//! records a span around each public call it makes, and reaches *inside*
//! the checkpoint layer through the two seams the program offers: a
//! [`StorageBackend`] that times every device operation ([`TimingBackend`])
//! and an [`IterativeMethod`] proxy that times the solver calls the
//! recovery path makes ([`TimedSolver`]).  Spans nest by a per-tracer
//! stack, so a device write is a child of the commit that caused it and a
//! layer's self time is its span minus its children.

use lcr_ckpt::{OsBackend, StorageBackend};
use lcr_solvers::{ConvergenceHistory, DynamicState, IterativeMethod};
use lcr_sparse::shard::{CommAction, CommInterposer};
use lcr_sparse::Vector;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call.  `parent` indexes the tracer's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub series: &'static str,
    pub round: u32,
    /// Crash phase of the series the span belongs to (0 = before any crash).
    pub phase: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Payload bytes (device ops, commits) or elements (encode/decode).
    pub amount: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn ms(&self) -> f64 {
        self.ns() as f64 / 1e6
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    series: &'static str,
    round: u32,
    phase: u32,
}

/// Span recorder.  One tracer is only ever entered from one thread at a
/// time (the sharded run gives each shard its own), so the open-span stack
/// is a true call stack; the mutex exists because [`StorageBackend`] must
/// be `Sync`.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            state: Mutex::default(),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a traced call panicked mid-span")
    }

    /// Labels every span recorded from now on.
    pub fn set_context(&self, series: &'static str, round: u32, phase: u32) {
        let mut s = self.state();
        (s.series, s.round, s.phase) = (series, round, phase);
    }

    /// Moves to the next crash phase of the current series.
    pub fn set_phase(&self, phase: u32) {
        self.state().phase = phase;
    }

    pub fn enter(&self, name: &'static str) -> u32 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut s = self.state();
        let id = s.spans.len() as u32;
        let span = Span {
            name,
            series: s.series,
            round: s.round,
            phase: s.phase,
            parent: s.open.last().copied(),
            start_ns: now,
            end_ns: now,
            amount: 0,
        };
        s.spans.push(span);
        s.open.push(id);
        id
    }

    pub fn exit(&self, id: u32, amount: u64) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut s = self.state();
        assert_eq!(s.open.pop(), Some(id), "spans must close innermost first");
        let span = &mut s.spans[id as usize];
        span.end_ns = now;
        span.amount = amount;
    }

    /// Times `f` as a span; `amount` is computed from its result.
    pub fn scope<R>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> R,
        amount: impl FnOnce(&R) -> u64,
    ) -> R {
        let id = self.enter(name);
        let result = f();
        self.exit(id, amount(&result));
        result
    }

    /// Removes and returns everything recorded so far.
    pub fn take(&self) -> Vec<Span> {
        let mut s = self.state();
        assert!(s.open.is_empty(), "take() with a span still open");
        std::mem::take(&mut s.spans)
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover (children are clipped to the parent and overlapping or
/// abutting children are counted once).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p as usize];
            let (s, e) = (
                span.start_ns.max(parent.start_ns),
                span.end_ns.min(parent.end_ns),
            );
            if s < e {
                children[p as usize].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for (s, e) in kids {
                if e > reach {
                    covered += e - s.max(reach);
                    reach = e;
                }
            }
            span.ns() - covered
        })
        .collect()
}

/// One JSON object per line: `{name, workload, series, round, phase, id,
/// parent, start_ns, end_ns, amount}`; `parent` is an `id` of the same
/// workload (or null), times are nanoseconds since the tracer was created.
pub fn write_jsonl(out: &mut impl io::Write, workload: &str, spans: &[Span]) -> io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"workload\":\"{workload}\",\"series\":\"{}\",\"round\":{},\
             \"phase\":{},\"id\":{id},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\
             \"amount\":{}}}",
            s.name, s.series, s.round, s.phase, s.start_ns, s.end_ns, s.amount
        )?;
    }
    Ok(())
}

/// [`OsBackend`] with a span around every operation — the device as the
/// checkpoint layer sees it.
#[derive(Debug)]
pub struct TimingBackend {
    tracer: Arc<Tracer>,
}

impl TimingBackend {
    pub fn new(tracer: Arc<Tracer>) -> Self {
        TimingBackend { tracer }
    }

    fn timed<T>(
        &self,
        name: &'static str,
        op: impl FnOnce() -> io::Result<T>,
        bytes: impl FnOnce(&T) -> u64,
    ) -> io::Result<T> {
        self.tracer.scope(name, op, |r| r.as_ref().map_or(0, bytes))
    }
}

impl StorageBackend for TimingBackend {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.timed("dev.mkdir", || OsBackend.create_dir_all(dir), |_| 0)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.timed("dev.list", || OsBackend.list_dir(dir), |_| 0)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.timed("dev.stat", || OsBackend.file_len(path), |_| 0)
    }

    fn read_prefix(&self, path: &Path, len: usize) -> io::Result<Vec<u8>> {
        self.timed(
            "dev.read_prefix",
            || OsBackend.read_prefix(path, len),
            |b| b.len() as u64,
        )
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed("dev.read", || OsBackend.read(path), |b| b.len() as u64)
    }

    fn write_file(&self, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
        let bytes = parts.iter().map(|p| p.len() as u64).sum();
        self.timed("dev.write", || OsBackend.write_file(path, parts), |_| bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.timed("dev.fsync", || OsBackend.fsync(path), |_| 0)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed("dev.rename", || OsBackend.rename(from, to), |_| 0)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed("dev.fsync_dir", || OsBackend.fsync_dir(dir), |_| 0)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed("dev.remove", || OsBackend.remove_file(path), |_| 0)
    }
}

/// Solver proxy that times `step` and the two calls the recovery path
/// makes into the solver, so `core.recover_chain`'s self time is the
/// decode and its child is the solver restart.
pub struct TimedSolver {
    inner: Box<dyn IterativeMethod>,
    tracer: Arc<Tracer>,
}

impl TimedSolver {
    pub fn new(inner: Box<dyn IterativeMethod>, tracer: Arc<Tracer>) -> Self {
        TimedSolver { inner, tracer }
    }
}

impl IterativeMethod for TimedSolver {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn iteration(&self) -> usize {
        self.inner.iteration()
    }

    fn residual_norm(&self) -> f64 {
        self.inner.residual_norm()
    }

    fn reference_norm(&self) -> f64 {
        self.inner.reference_norm()
    }

    fn solution(&self) -> &Vector {
        self.inner.solution()
    }

    fn converged(&self) -> bool {
        self.inner.converged()
    }

    fn step(&mut self) {
        let inner = &mut self.inner;
        self.tracer.scope("solvers.step", || inner.step(), |()| 0);
    }

    fn capture_state(&self) -> DynamicState {
        self.inner.capture_state()
    }

    fn restore_state(&mut self, state: &DynamicState) {
        let inner = &mut self.inner;
        self.tracer
            .scope("solvers.restart", || inner.restore_state(state), |()| 0);
    }

    fn restart_from_solution(&mut self, x: Vector, iteration: usize) {
        let inner = &mut self.inner;
        self.tracer.scope(
            "solvers.restart",
            || inner.restart_from_solution(x, iteration),
            |()| 0,
        );
    }

    fn history(&self) -> &ConvergenceHistory {
        self.inner.history()
    }
}

/// Recovery target of the round-trip audit: keeps what a strategy's
/// `recover_chain` hands the solver instead of acting on it, so a decode
/// can be compared with the state that was encoded at no solver cost.
pub struct CaptureSolver {
    pub restored: Option<DynamicState>,
    history: ConvergenceHistory,
    empty: Vector,
}

impl CaptureSolver {
    pub fn new() -> Self {
        CaptureSolver {
            restored: None,
            history: ConvergenceHistory::new(0.0),
            empty: Vector::zeros(0),
        }
    }
}

impl IterativeMethod for CaptureSolver {
    fn name(&self) -> &'static str {
        "capture"
    }

    fn iteration(&self) -> usize {
        self.restored.as_ref().map_or(0, |s| s.iteration)
    }

    fn residual_norm(&self) -> f64 {
        0.0
    }

    fn reference_norm(&self) -> f64 {
        1.0
    }

    fn solution(&self) -> &Vector {
        &self.empty
    }

    fn converged(&self) -> bool {
        true
    }

    fn step(&mut self) {}

    fn capture_state(&self) -> DynamicState {
        self.restored.clone().unwrap_or(DynamicState {
            iteration: 0,
            scalars: Vec::new(),
            vectors: Vec::new(),
        })
    }

    fn restore_state(&mut self, state: &DynamicState) {
        self.restored = Some(state.clone());
    }

    fn restart_from_solution(&mut self, x: Vector, iteration: usize) {
        self.restored = Some(DynamicState {
            iteration,
            scalars: Vec::new(),
            vectors: vec![("x".to_string(), x)],
        });
    }

    fn history(&self) -> &ConvergenceHistory {
        &self.history
    }
}

/// Counts outbound halo messages of one shard endpoint.
pub struct CountingInterposer(pub Arc<AtomicU64>);

impl CommInterposer for CountingInterposer {
    fn on_halo_send(&mut self, _from: usize, _to: usize, _seq: u64) -> CommAction {
        // Relaxed: a statistic that publishes no other data.
        self.0.fetch_add(1, Ordering::Relaxed);
        CommAction::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            series: "s",
            round: 0,
            phase: 0,
            parent,
            start_ns,
            end_ns,
            amount: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = vec![
            span(None, 0, 100),     // 0: root
            span(Some(0), 10, 30),  // 1: child
            span(Some(0), 30, 50),  // 2: abuts child 1
            span(Some(2), 35, 45),  // 3: grandchild, must not be subtracted from the root
            span(Some(0), 45, 60),  // 4: overlaps child 2 by 5
            span(Some(0), 90, 120), // 5: clipped to the root's end
        ];
        let own = self_ns(&spans);
        // Root: 100 − [10,60) − [90,100) = 100 − 50 − 10.
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 10);
        assert_eq!(own[3], 10);
        assert_eq!(own[5], 30);
    }

    #[test]
    fn tracer_nests_by_call_stack_and_labels_context() {
        let tracer = Tracer::new();
        tracer.set_context("lossy", 2, 1);
        let outer = tracer.enter("outer");
        let got = tracer.scope("inner", || 7u64, |v| *v);
        tracer.exit(outer, 3);
        assert_eq!(got, 7);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            (spans[1].series, spans[1].round, spans[1].phase),
            ("lossy", 2, 1)
        );
        assert_eq!((spans[0].amount, spans[1].amount), (3, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut out = Vec::new();
        write_jsonl(&mut out, "w", &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = serde_json::from_str(line).unwrap();
            assert_eq!(v.get("workload").and_then(|w| w.as_str()), Some("w"));
        }
    }

    #[test]
    fn capture_solver_records_both_recovery_calls() {
        let mut c = CaptureSolver::new();
        c.restart_from_solution(Vector::from_vec(vec![1.0, 2.0]), 9);
        let s = c.restored.clone().unwrap();
        assert_eq!((s.iteration, s.vectors[0].1.len()), (9, 2));
        let exact = DynamicState {
            iteration: 4,
            scalars: vec![("rho".into(), 0.5)],
            vectors: vec![("p".into(), Vector::zeros(3))],
        };
        c.restore_state(&exact);
        assert_eq!(c.restored, Some(exact));
    }
}
