//! Running one series of one workload: a fault-tolerant solve under the
//! workload's crash plan, timed from the first solver build to the
//! converged solution, then verified.
//!
//! A crash is made the way a process death makes one: the phase runs with
//! a cap on executed iterations, then its solver, runner and store are
//! dropped, and the next phase builds everything afresh over the same
//! checkpoint directory.  The phase loop is shared by the untraced
//! executor here (the program's own `FaultTolerantRunner::run`) and the
//! traced replica in `traced.rs`.

use crate::workloads::{Instance, Series};
use lcr_ckpt::{CheckpointLevel, ClusterConfig, PfsModel};
use lcr_core::runner::Persistence;
use lcr_core::sharded::{try_run_sharded, ShardBackendFactory, ShardInterposerFactory};
use lcr_core::{ExecutionBackend, FaultTolerantRunner, RunConfig, ShardedReport, ShardedRunConfig};
use lcr_solvers::{IterativeMethod, ShardedMethod};
use lcr_sparse::Vector;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one phase did — everything the traced replica must reproduce.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseSig {
    pub resumed_from: Option<usize>,
    pub executed: usize,
    /// The solver's iteration counter when the phase ended.
    pub end_iteration: usize,
    pub ckpt_bytes: Vec<usize>,
    pub anchors: usize,
    pub deltas: usize,
    pub failed_ckpts: usize,
    pub last_residual_bits: u64,
    pub hit_limit: bool,
}

impl PhaseSig {
    pub fn finish(&mut self, solver: &dyn IterativeMethod) {
        self.end_iteration = solver.iteration();
        self.last_residual_bits = solver
            .history()
            .residuals()
            .last()
            .map_or(0, |r| r.to_bits());
        self.hit_limit = solver.history().limit_reached;
    }
}

/// Operations attempted and failed, summed into the result line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Outcome of one series run.
#[derive(Debug, Clone)]
pub struct SeriesRun {
    /// Wall seconds, first solver build to converged solution.
    pub seconds: f64,
    pub phases: Vec<PhaseSig>,
    /// `‖b − A·x‖ / ‖b‖`, recomputed here from the returned solution.
    pub residual_rel: f64,
    pub ops: Ops,
    /// Set only by the sharded executor.
    pub sharded: Option<ShardedReport>,
}

impl SeriesRun {
    pub fn executed(&self) -> usize {
        self.phases.iter().map(|p| p.executed).sum()
    }

    pub fn end_iteration(&self) -> usize {
        self.phases.last().map_or(0, |p| p.end_iteration)
    }

    pub fn ckpt_bytes(&self) -> usize {
        self.phases.iter().flat_map(|p| &p.ckpt_bytes).sum()
    }

    pub fn ckpts(&self) -> usize {
        self.phases.iter().map(|p| p.ckpt_bytes.len()).sum()
    }
}

/// How a phase is executed: by the program's runner, or by the traced
/// replica of it.
pub trait PhaseExec {
    /// Called when the timed region of a series run starts and ends.
    fn begin(&mut self, _series: Series) {}
    fn end(&mut self) {}

    fn build(&mut self, inst: &Instance, phase: usize) -> Box<dyn IterativeMethod>;

    fn run(
        &mut self,
        inst: &Instance,
        series: Series,
        solver: &mut dyn IterativeMethod,
        cap: usize,
        dir: Option<&Path>,
    ) -> PhaseSig;
}

/// The untraced executor: `FaultTolerantRunner::run`, nothing else.
pub struct Runner;

impl PhaseExec for Runner {
    fn build(&mut self, inst: &Instance, _phase: usize) -> Box<dyn IterativeMethod> {
        inst.build_solver()
    }

    fn run(
        &mut self,
        inst: &Instance,
        series: Series,
        solver: &mut dyn IterativeMethod,
        cap: usize,
        dir: Option<&Path>,
    ) -> PhaseSig {
        let (strategy, anchor) = inst.strategy(series);
        let (cluster, pfs) = sim_models();
        let report = FaultTolerantRunner::new(RunConfig {
            strategy,
            checkpoint_interval_iterations: dir.map_or(0, |_| inst.spec.interval),
            anchor_interval_snapshots: anchor,
            cluster,
            pfs,
            level: CheckpointLevel::Pfs,
            // Crashes come from the phase caps, never from the simulated
            // clock: its schedule depends on simulated bytes and would
            // move whenever a codec changes.
            mtti_seconds: f64::MAX,
            failure_seed: None,
            max_failures: 0,
            max_executed_iterations: cap,
            num_threads: inst.threads,
            persistence: dir.map_or(Persistence::InMemory, Persistence::disk),
            backend: ExecutionBackend::Simulated,
        })
        .run(solver, &inst.problem);
        PhaseSig {
            resumed_from: report.resumed_from_iteration,
            executed: report.executed_iterations,
            end_iteration: report.convergence_iterations,
            ckpt_bytes: report.checkpoint_bytes_trace,
            anchors: report.anchor_checkpoints,
            deltas: report.delta_checkpoints,
            failed_ckpts: report.failed_checkpoints,
            last_residual_bits: report.residual_history.last().map_or(0, |r| r.to_bits()),
            hit_limit: report.hit_iteration_limit,
        }
    }
}

/// The simulated-cluster inputs `RunConfig` and `FtiContext` require; with
/// `failure_seed: None` they only feed `SimClock` figures nobody reads.
pub fn sim_models() -> (ClusterConfig, PfsModel) {
    (ClusterConfig::bebop_like(1, 1.0), PfsModel::bebop_like())
}

/// Hands out a fresh checkpoint directory per series run and removes it
/// afterwards; everything lives under one root that `main` deletes.
pub struct CkptDirs {
    root: PathBuf,
    next: usize,
}

impl CkptDirs {
    pub fn new(root: PathBuf) -> Self {
        CkptDirs { root, next: 0 }
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("run-{}", self.next))
    }
}

/// Runs `series` once through `exec`.
pub fn run_series(
    inst: &Instance,
    series: Series,
    exec: &mut dyn PhaseExec,
    dirs: &mut CkptDirs,
) -> SeriesRun {
    let dir = (series != Series::None).then(|| dirs.fresh());
    let plan: &[usize] = if dir.is_some() { &inst.plan } else { &[] };
    let mut phases: Vec<PhaseSig> = Vec::new();
    let start = Instant::now();
    exec.begin(series);
    let solver = loop {
        let phase = phases.len();
        let mut solver = exec.build(inst, phase);
        let cap = plan.get(phase).copied().unwrap_or(inst.max_iterations);
        phases.push(exec.run(inst, series, solver.as_mut(), cap, dir.as_deref()));
        if solver.converged() || phase == plan.len() {
            break solver;
        }
    };
    exec.end();
    let seconds = start.elapsed().as_secs_f64();
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let mut ops = Ops::default();
    let residual_rel = true_residual(inst, solver.solution());
    let hit_limit = phases.last().is_some_and(|p| p.hit_limit);
    ops.record(!hit_limit && solver.converged() && residual_rel <= 2.0 * inst.rtol());
    // Every phase after the first must resume from the newest checkpoint
    // its predecessors committed; a fresh start there is a lost checkpoint.
    let mut newest = None;
    for (i, p) in phases.iter().enumerate() {
        if i > 0 && newest.is_some() {
            ops.record(p.resumed_from == newest);
        }
        if !p.ckpt_bytes.is_empty() {
            newest = Some(p.end_iteration / inst.spec.interval * inst.spec.interval);
        }
        ops.attempted += (p.ckpt_bytes.len() + p.failed_ckpts) as u64;
        ops.failed += p.failed_ckpts as u64;
    }
    SeriesRun {
        seconds,
        phases,
        residual_rel,
        ops,
        sharded: None,
    }
}

fn true_residual(inst: &Instance, x: &Vector) -> f64 {
    let sys = &inst.problem.system;
    sys.a.residual(x, &sys.b).norm2() / sys.b.norm2()
}

/// The seams a traced sharded run plugs into.
#[derive(Default)]
pub struct ShardSeams {
    pub backend: Option<ShardBackendFactory>,
    pub interposer: Option<ShardInterposerFactory>,
}

/// Runs the sharded executor once: `none` (no checkpoints, no kills) or
/// `lossy` (epoch checkpoints and the crash plan as `KillSpec`s).
pub fn run_sharded_series(
    inst: &Instance,
    series: Series,
    shards: usize,
    seams: ShardSeams,
    dirs: &mut CkptDirs,
) -> SeriesRun {
    let mut cfg = ShardedRunConfig::new(shards, ShardedMethod::Cg);
    cfg.rtol = inst.rtol();
    cfg.max_iterations = inst.max_iterations;
    cfg.backend_factory = seams.backend;
    cfg.interposer_factory = seams.interposer;
    let dir = (series != Series::None).then(|| dirs.fresh());
    if let Some(dir) = &dir {
        cfg.checkpoint_interval = inst.spec.interval;
        cfg.ckpt_dir = Some(dir.clone());
        cfg.kills = inst.kills(shards);
    }
    let start = Instant::now();
    let result = try_run_sharded(&inst.spd.a, &inst.spd.b, &cfg);
    let seconds = start.elapsed().as_secs_f64();
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let mut ops = Ops::default();
    ops.record(result.is_ok());
    let Ok(report) = result else {
        return SeriesRun {
            seconds,
            phases: Vec::new(),
            residual_rel: f64::INFINITY,
            ops,
            sharded: None,
        };
    };
    let residual_rel = true_residual(inst, &report.solution);
    ops.record(report.converged && residual_rel <= 2.0 * inst.rtol());
    // A killed shard must restore the newest epoch committed before its
    // kill (`ShardStats` keeps the last restore of each shard).
    let interval = inst.spec.interval;
    for stats in &report.shards {
        if let Some(kill) = cfg.kills.iter().rfind(|k| k.shard == stats.shard) {
            let newest = kill.at_iteration / interval * interval;
            ops.record(stats.resumed_from_iteration == (newest > 0).then_some(newest));
        }
        ops.attempted += (stats.checkpoints_written + stats.aborted_epochs) as u64;
        ops.failed += stats.aborted_epochs as u64;
    }
    // One phase stands for the whole run, so the count accessors work.
    let phase = PhaseSig {
        executed: report.iterations,
        end_iteration: report.iterations,
        ckpt_bytes: report
            .committed_epochs
            .iter()
            .map(|e| e.total_bytes())
            .collect(),
        anchors: report.committed_epochs.len(),
        last_residual_bits: report.residual_trace.last().map_or(0, |r| r.to_bits()),
        hit_limit: !report.converged,
        ..PhaseSig::default()
    };
    SeriesRun {
        seconds,
        phases: vec![phase],
        residual_rel,
        ops,
        sharded: Some(report),
    }
}

/// Runs `series` untraced on whichever executor the workload names.
pub fn run_untraced(inst: &Instance, series: Series, dirs: &mut CkptDirs) -> SeriesRun {
    match inst.sharded(series) {
        Some(shards) => run_sharded_series(inst, series, shards, ShardSeams::default(), dirs),
        None => run_series(inst, series, &mut Runner, dirs),
    }
}
