//! The traced pass: a benchmark-owned replica of `FaultTolerantRunner::run`
//! that makes the same public calls in the same order (runner.rs: step →
//! `encode_temporal_into` → `commit_snapshot_from_buffer`; restart:
//! `DiskStore::open` → `FtiContext::recover` → `recover_chain`) with a span
//! around each, plus the checkpoint round-trip audit and the direct kernel
//! timings.  The sharded executor is traced through its seams only.

use crate::layers::TracedPass;
use crate::series::{
    run_series, run_sharded_series, sim_models, CkptDirs, PhaseExec, PhaseSig, SeriesRun,
    ShardSeams,
};
use crate::stats::median;
use crate::trace::{CaptureSolver, CountingInterposer, Span, TimedSolver, TimingBackend, Tracer};
use crate::workloads::{Instance, Series};
use lcr_ckpt::{
    CheckpointBuffer, CheckpointLevel, DiskStore, FtiContext, SimClock, StorageBackend,
};
use lcr_compress::{DeltaMode, ErrorBound};
use lcr_core::{CheckpointStrategy, TemporalEncodingSelector};
use lcr_solvers::{DynamicState, IterativeMethod};
use lcr_sparse::kernels::axpy2_norm2;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Result of decoding every committed checkpoint again.
#[derive(Debug, Default)]
pub struct Audit {
    pub checked: u64,
    /// Decodes that errored, or restored something other than what was
    /// encoded (exact strategies: any bit; lossy: beyond the bound).
    pub failed: u64,
    /// Largest `|x − x'| / allowed` over all lossy decodes; ≤ 1 holds the
    /// bound `ErrorBoundPolicy::resolve` returned.
    pub err_over_bound_max: f64,
    /// Links replayed per audited checkpoint.
    pub chain_lens: Vec<f64>,
}

/// The traced executor.  Every series run is one root span `series`.
pub struct Replica {
    pub tracer: Arc<Tracer>,
    /// Round label of the spans recorded next.
    pub round: u32,
    /// Whether to decode every committed checkpoint again.  The audit
    /// touches the solver's vectors between a commit and the next step, so
    /// an auditing replica's timings describe the audit, not the runner:
    /// it gets a round of its own and only its `audit.decode` spans count.
    audit: bool,
    /// Audit results by series name.
    pub audits: BTreeMap<&'static str, Audit>,
    series: &'static str,
    root: Option<u32>,
}

impl Replica {
    pub fn new(audit: bool) -> Self {
        Replica {
            tracer: Tracer::new(),
            round: 0,
            audit,
            audits: BTreeMap::new(),
            series: "",
            root: None,
        }
    }

    /// Decodes the chain ending in the checkpoint just committed into a
    /// [`CaptureSolver`] and compares with the state that was encoded.
    fn audit_commit(
        &mut self,
        strategy: &CheckpointStrategy,
        bound: Option<ErrorBound>,
        original: &DynamicState,
        chain: &[Vec<(String, Vec<u8>)>],
    ) {
        let mut target = CaptureSolver::new();
        let elements = original.vectors.iter().map(|(_, v)| v.len() as u64).sum();
        let decoded = self.tracer.scope(
            "audit.decode",
            || strategy.recover_chain(&mut target, chain, original.iteration, &original.scalars),
            |_| elements,
        );
        let audit = self.audits.entry(self.series).or_default();
        audit.checked += 1;
        audit.chain_lens.push(chain.len() as f64);
        let ok =
            match (decoded, target.restored, bound) {
                (Ok(()), Some(restored), None) => {
                    restored.iteration == original.iteration
                        && restored.vectors.len() == original.vectors.len()
                        && restored.vectors.iter().zip(&original.vectors).all(
                            |((an, a), (bn, b))| {
                                an == bn
                                    && a.len() == b.len()
                                    && a.as_slice()
                                        .iter()
                                        .zip(b.as_slice())
                                        .all(|(x, y)| x.to_bits() == y.to_bits())
                            },
                        )
                }
                (Ok(()), Some(restored), Some(bound)) => {
                    match (restored.vector("x"), original.vector("x")) {
                        (Some(got), Some(want)) if got.len() == want.len() => {
                            let range = want.value_range();
                            let worst = got
                                .as_slice()
                                .iter()
                                .zip(want.as_slice())
                                .map(|(g, w)| {
                                    // 0/0 (an exactly restored zero under a
                                    // relative bound) holds the bound.
                                    match (g - w).abs() {
                                        0.0 => 0.0,
                                        err => err / bound.allowed_abs_error(*w, range),
                                    }
                                })
                                .fold(0.0, f64::max);
                            audit.err_over_bound_max = audit.err_over_bound_max.max(worst);
                            worst <= 1.0
                        }
                        _ => false,
                    }
                }
                _ => false,
            };
        audit.failed += u64::from(!ok);
    }
}

impl PhaseExec for Replica {
    fn begin(&mut self, series: Series) {
        self.series = series.name();
        self.tracer.set_context(self.series, self.round, 0);
        self.root = Some(self.tracer.enter("series"));
    }

    fn end(&mut self) {
        let root = self.root.take().expect("end() follows begin()");
        self.tracer.exit(root, 0);
    }

    fn build(&mut self, inst: &Instance, phase: usize) -> Box<dyn IterativeMethod> {
        self.tracer.set_phase(phase as u32);
        let inner = self
            .tracer
            .scope("solvers.build", || inst.build_solver(), |_| 0);
        Box::new(TimedSolver::new(inner, Arc::clone(&self.tracer)))
    }

    fn run(
        &mut self,
        inst: &Instance,
        series: Series,
        solver: &mut dyn IterativeMethod,
        cap: usize,
        dir: Option<&Path>,
    ) -> PhaseSig {
        let tr = Arc::clone(&self.tracer);
        let (strategy, anchor) = inst.strategy(series);
        let interval = dir.map_or(0, |_| inst.spec.interval);
        let (cluster, pfs) = sim_models();
        inst.problem.system.a.plan();
        let mut clock = SimClock::new();
        let mut fti = FtiContext::new(cluster, pfs, CheckpointLevel::Pfs);
        if let Some(dir) = dir {
            let backend: Arc<dyn StorageBackend> = Arc::new(TimingBackend::new(Arc::clone(&tr)));
            let mut disk = tr
                .scope(
                    "ckpt.open",
                    || DiskStore::open_with_backend(dir, 2, backend),
                    |_| 0,
                )
                .expect("the checkpoint directory opens");
            disk.set_write_behind(false)
                .expect("disabling write-behind on a fresh store cannot fail");
            fti.attach_disk_store(disk);
        }
        let byte_scale = inst.problem.byte_scale_factor();
        fti.set_byte_scale(byte_scale);
        let static_bytes = inst.problem.paper_vector_bytes();

        let mut sig = PhaseSig::default();
        if fti.disk_store().is_some_and(|d| !d.is_empty()) {
            let recovered = tr.scope(
                "ckpt.recover",
                || fti.recover(&mut clock, static_bytes),
                |r| {
                    r.as_ref().map_or(0, |r| {
                        r.chain.iter().flatten().map(|(_, b)| b.len() as u64).sum()
                    })
                },
            );
            if let Ok(rec) = recovered {
                let restored = strategy.can_recover_from(&rec.tag)
                    && tr
                        .scope(
                            "core.recover_chain",
                            || {
                                strategy.recover_chain(
                                    solver,
                                    &rec.chain,
                                    rec.iteration,
                                    &rec.scalars,
                                )
                            },
                            |_| inst.unknowns() as u64,
                        )
                        .is_ok();
                if restored {
                    sig.resumed_from = Some(rec.iteration);
                }
            }
        }

        let mut buffer = CheckpointBuffer::new();
        let mut selector = TemporalEncodingSelector::new(anchor, DeltaMode::Order2);
        // The audit's own copy of the chain the store holds.
        let mut chain: Vec<Vec<(String, Vec<u8>)>> = Vec::new();
        while !solver.converged() && sig.executed < cap {
            solver.step();
            sig.executed += 1;
            let it = solver.iteration();
            if interval == 0 || it == 0 || !it.is_multiple_of(interval) || solver.converged() {
                continue;
            }
            let bound = match &strategy {
                CheckpointStrategy::Lossy { policy, .. } => Some(policy.resolve(solver)),
                _ => None,
            };
            let encoded = tr.scope(
                "core.encode",
                || strategy.encode_temporal_into(solver, &mut buffer, &mut selector),
                |r| {
                    r.as_ref()
                        .map_or(0, |(meta, _)| meta.original_bytes as u64 / 8)
                },
            );
            let Ok((encoded, delta_order)) = encoded else {
                sig.failed_ckpts += 1;
                selector.reset();
                chain.clear();
                continue;
            };
            let paper_original = (encoded.original_bytes as f64 * byte_scale) as usize;
            let n_variables = buffer.n_variables();
            for (i, (name, _)) in buffer.segments().enumerate() {
                let share =
                    paper_original / n_variables + usize::from(i < paper_original % n_variables);
                fti.protect(name, share);
            }
            let write_secs = fti.planned_write_seconds(buffer.total_bytes());
            clock.advance(write_secs);
            let committed = tr.scope(
                "ckpt.commit",
                || {
                    fti.commit_snapshot_from_buffer(
                        clock.now(),
                        encoded.iteration,
                        strategy.name(),
                        &encoded.scalars,
                        delta_order,
                        &mut buffer,
                        write_secs,
                    )
                },
                |r| r.as_ref().map_or(0, |meta| meta.total_bytes as u64),
            );
            match committed {
                Ok(meta) => {
                    sig.ckpt_bytes.push(meta.total_bytes);
                    if delta_order.is_some() {
                        sig.deltas += 1;
                    } else {
                        sig.anchors += 1;
                        chain.clear();
                    }
                    if self.audit {
                        chain.push(buffer.to_payloads());
                        let original = solver.capture_state();
                        self.audit_commit(&strategy, bound, &original, &chain);
                    }
                }
                Err(_) => {
                    sig.failed_ckpts += 1;
                    selector.reset();
                    chain.clear();
                }
            }
        }
        sig.finish(solver);
        sig
    }
}

/// The traced pass of one workload while it is being recorded.
pub struct Tracing {
    /// Decodes every checkpoint again; runs once, before the timed rounds.
    auditor: Replica,
    decodes: Vec<Span>,
    replica: Replica,
    kernels: KernelRates,
    sample: BTreeMap<&'static str, SeriesRun>,
    shard_logs: Vec<ShardSeamLog>,
    shard_none_s: Vec<f64>,
    one_shard_none_s: Vec<f64>,
}

impl Tracing {
    /// Times the kernels and makes the audit round: every series of
    /// `order` that the replica runs, once, on an auditing replica whose
    /// timings are dropped except for the decodes themselves.
    pub fn start(inst: &Instance, order: &[Series], dirs: &mut CkptDirs) -> Tracing {
        let kernels = time_kernels(inst);
        let mut auditor = Replica::new(true);
        for &series in order {
            if inst.sharded(series).is_none() {
                run_series(inst, series, &mut auditor, dirs);
            }
        }
        let mut decodes = auditor.tracer.take();
        decodes.retain(|s| s.name == "audit.decode");
        decodes.iter_mut().for_each(|s| s.parent = None);
        Tracing {
            auditor,
            decodes,
            replica: Replica::new(false),
            kernels,
            sample: BTreeMap::new(),
            shard_logs: Vec::new(),
            shard_none_s: Vec::new(),
            one_shard_none_s: Vec::new(),
        }
    }

    /// Runs `series` once, traced.
    pub fn step(
        &mut self,
        inst: &Instance,
        round: u32,
        series: Series,
        dirs: &mut CkptDirs,
    ) -> SeriesRun {
        self.replica.round = round;
        let run = match (inst.sharded(series), series) {
            (Some(shards), Series::None) => {
                let one = run_sharded_series(inst, series, 1, ShardSeams::default(), dirs);
                self.one_shard_none_s.push(one.seconds);
                let run = run_sharded_series(inst, series, shards, ShardSeams::default(), dirs);
                self.shard_none_s.push(run.seconds);
                run
            }
            (Some(shards), _) => {
                let log = traced_sharded(inst, series, shards, round, dirs);
                let run = log.run.clone();
                self.shard_logs.push(log);
                run
            }
            (None, _) => run_series(inst, series, &mut self.replica, dirs),
        };
        self.sample
            .entry(series.name())
            .or_insert_with(|| run.clone());
        run
    }

    pub fn finish(self, rounds: u32) -> TracedPass {
        TracedPass {
            spans: self.replica.tracer.take(),
            rounds,
            decodes: self.decodes,
            sample: self.sample,
            audits: self.auditor.audits,
            kernels: self.kernels,
            shard_logs: self.shard_logs,
            shard_none_s: self.shard_none_s,
            one_shard_none_s: self.one_shard_none_s,
        }
    }
}

/// What the seams of one traced sharded run recorded.
pub struct ShardSeamLog {
    pub run: SeriesRun,
    /// Device spans of each shard's store, one tracer per shard.
    pub dev_spans: Vec<Vec<Span>>,
    pub halo_msgs: u64,
}

/// One sharded run with a timing backend per shard and a counting
/// interposer on every endpoint.
pub fn traced_sharded(
    inst: &Instance,
    series: Series,
    shards: usize,
    round: u32,
    dirs: &mut CkptDirs,
) -> ShardSeamLog {
    let tracers: Vec<Arc<Tracer>> = (0..shards)
        .map(|_| {
            let t = Tracer::new();
            t.set_context(series.name(), round, 0);
            t
        })
        .collect();
    let halo_msgs = Arc::new(AtomicU64::new(0));
    let (for_backend, for_count) = (tracers.clone(), Arc::clone(&halo_msgs));
    let seams = ShardSeams {
        backend: Some(Arc::new(move |shard| {
            Arc::new(TimingBackend::new(Arc::clone(&for_backend[shard]))) as Arc<dyn StorageBackend>
        })),
        interposer: Some(Arc::new(move |_| {
            Box::new(CountingInterposer(Arc::clone(&for_count))) as _
        })),
    };
    let run = run_sharded_series(inst, series, shards, seams, dirs);
    ShardSeamLog {
        run,
        dev_spans: tracers.iter().map(|t| t.take()).collect(),
        halo_msgs: halo_msgs.load(Ordering::Relaxed),
    }
}

/// Direct timed calls into `lcr_sparse` on the workload's own matrix, next
/// to a STREAM triad on arrays of the same length in the same run.
pub struct KernelRates {
    pub spmv_ms_p50: f64,
    /// Bytes are computed from array sizes (matrix storage + x + y); cache
    /// misses and write-allocate traffic are not in them.
    pub spmv_gbs_computed: f64,
    pub axpy2_norm2_gbs_computed: f64,
    pub triad_gbs: f64,
}

pub fn time_kernels(inst: &Instance) -> KernelRates {
    const REPS: usize = 40;
    let a = &inst.problem.system.a;
    let n = a.nrows();
    let timed = |f: &mut dyn FnMut()| -> f64 {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples).expect("REPS > 0")
    };
    let x = inst.problem.exact_solution.as_slice().to_vec();
    let mut y = vec![0.0; n];
    let spmv_s = timed(&mut || a.spmv(black_box(&x), black_box(&mut y)));

    let (p, q) = (x.clone(), y.clone());
    let (mut xs, mut rs) = (vec![0.0; n], y.clone());
    let axpy2_s = timed(&mut || {
        black_box(axpy2_norm2(
            1e-9,
            &p,
            &q,
            black_box(&mut xs),
            black_box(&mut rs),
        ));
    });

    // Threads are spawned once per sample and sweep their chunk INNER
    // times, so thread start-up is not billed to the triad.
    const INNER: usize = 20;
    let mut out = vec![0.0; n];
    let per = n.div_ceil(inst.threads.max(1));
    let triad_s = timed(&mut || {
        std::thread::scope(|scope| {
            for ((o, b), c) in out.chunks_mut(per).zip(p.chunks(per)).zip(q.chunks(per)) {
                scope.spawn(move || {
                    for _ in 0..INNER {
                        for ((o, b), c) in o.iter_mut().zip(b).zip(c) {
                            *o = b + 3.0 * c;
                        }
                        black_box(&mut *o);
                    }
                });
            }
        });
    }) / INNER as f64;
    let gbs = |bytes: usize, s: f64| bytes as f64 / s / 1e9;
    KernelRates {
        spmv_ms_p50: spmv_s * 1e3,
        spmv_gbs_computed: gbs(a.storage_bytes() + 2 * n * 8, spmv_s),
        axpy2_norm2_gbs_computed: gbs(6 * n * 8, axpy2_s),
        triad_gbs: gbs(3 * n * 8, triad_s),
    }
}
