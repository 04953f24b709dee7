//! Per-layer metrics, derived from the traced pass.  Every workload emits
//! every name; a layer a workload never enters reads 0 (no halo messages
//! in a single-process solve, no decode where nothing crashes), and so
//! does a p90 with fewer than 100 samples behind it.

use crate::series::SeriesRun;
use crate::stats::{median, min, tail_percentile};
use crate::trace::{self_ns, Span};
use crate::traced::{Audit, KernelRates, ShardSeamLog};
use crate::workloads::Instance;
use lcr_perfmodel::{lossy_overhead_ratio, traditional_overhead_ratio};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

pub type Metrics = BTreeMap<String, Metric>;

/// What the untraced rounds of one workload measured.
pub struct Untraced {
    /// Wall seconds of every run, by series name.
    pub seconds: BTreeMap<&'static str, Vec<f64>>,
    /// The first run of each series (runs of a series are deterministic).
    pub sample: BTreeMap<&'static str, SeriesRun>,
}

impl Untraced {
    /// The time of `series`: its fastest round (see [`min`] for why).
    pub fn estimate_s(&self, series: &str) -> f64 {
        self.seconds
            .get(series)
            .and_then(|s| min(s))
            .unwrap_or(f64::NAN)
    }

    pub fn none_iters(&self) -> usize {
        self.sample.get("none").map_or(0, |r| r.end_iteration())
    }
}

/// Everything the traced pass of one workload recorded.
pub struct TracedPass {
    /// Spans of the single-process replica, all timing rounds; every series
    /// run is one root span named `series`.
    pub spans: Vec<Span>,
    pub rounds: u32,
    /// The `audit.decode` spans of the audit round.
    pub decodes: Vec<Span>,
    /// First traced run of each series, on whichever executor ran it.
    pub sample: BTreeMap<&'static str, SeriesRun>,
    /// Round-trip audit by series name.
    pub audits: BTreeMap<&'static str, Audit>,
    pub kernels: KernelRates,
    /// Seam logs of the sharded `lossy` runs, one per round.
    pub shard_logs: Vec<ShardSeamLog>,
    /// Wall seconds of sharded `none` at the workload's shard count and at
    /// one shard.
    pub shard_none_s: Vec<f64>,
    pub one_shard_none_s: Vec<f64>,
}

const SUFFIXED: [&str; 2] = ["lossy", "trad"];

struct View<'a> {
    spans: &'a [Span],
    own: Vec<u64>,
    rounds: f64,
}

impl<'a> View<'a> {
    fn new(spans: &'a [Span], rounds: u32) -> Self {
        View {
            own: self_ns(spans),
            spans,
            rounds: f64::from(rounds.max(1)),
        }
    }

    fn sel<'s>(
        &'s self,
        name: &'s str,
        series: Option<&'s str>,
    ) -> impl Iterator<Item = (usize, &'s Span)> + 's {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name && series.is_none_or(|want| s.series == want))
    }

    fn ms(&self, name: &str, series: Option<&str>) -> Vec<f64> {
        self.sel(name, series).map(|(_, s)| s.ms()).collect()
    }

    fn own_ms(&self, name: &str, series: Option<&str>) -> Vec<f64> {
        self.sel(name, series)
            .map(|(i, _)| self.own[i] as f64 / 1e6)
            .collect()
    }

    fn secs(&self, name: &str, series: Option<&str>) -> f64 {
        self.sel(name, series).map(|(_, s)| s.ns()).sum::<u64>() as f64 / 1e9
    }

    fn amount(&self, name: &str, series: Option<&str>) -> f64 {
        self.sel(name, series).map(|(_, s)| s.amount).sum::<u64>() as f64
    }

    /// Per series run: (series, wall seconds, self seconds of the root).
    fn runs(&self) -> Vec<(&'static str, f64, f64)> {
        self.sel("series", None)
            .map(|(id, root)| {
                (
                    root.series,
                    root.ns() as f64 / 1e9,
                    self.own[id] as f64 / 1e9,
                )
            })
            .collect()
    }
}

fn p50(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

fn p90(samples: &[f64]) -> f64 {
    tail_percentile(samples, 90.0).unwrap_or(0.0)
}

/// `num / den`, 0 when the layer did nothing.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn layer_metrics(inst: &Instance, untraced: &Untraced, pass: &TracedPass) -> Metrics {
    // Device spans of the sharded runs join the pool of device samples;
    // their parents index their own tracer, so shift them.
    let mut spans = pass.spans.clone();
    for log in &pass.shard_logs {
        for shard in &log.dev_spans {
            let base = spans.len() as u32;
            spans.extend(shard.iter().cloned().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
    }
    let v = View::new(&spans, pass.rounds);
    let decodes = View::new(&pass.decodes, 1);
    let mut m = Metrics::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        let unit = unit.to_string();
        m.insert(name.to_string(), Metric { value, unit });
    };

    // lcr_solvers
    let steps = v.ms("solvers.step", None);
    put("solvers.step_ms_p50", "ms", p50(&steps));
    put("solvers.step_ms_p90", "ms", p90(&steps));
    for series in ["none", "lossy", "trad"] {
        put(
            &format!("solvers.step_busy_s.{series}"),
            "s",
            v.secs("solvers.step", Some(series)) / v.rounds,
        );
    }
    put(
        "solvers.build_ms_p50",
        "ms",
        p50(&v.ms("solvers.build", None)),
    );

    // lcr_sparse: direct calls, and the sharded seams.
    let k = &pass.kernels;
    put("sparse.spmv_ms_p50", "ms", k.spmv_ms_p50);
    put("sparse.spmv_gbs_computed", "GB/s", k.spmv_gbs_computed);
    put(
        "sparse.axpy2_norm2_gbs_computed",
        "GB/s",
        k.axpy2_norm2_gbs_computed,
    );
    put("host.triad_gbs", "GB/s", k.triad_gbs);
    put(
        "sparse.spmv_frac_triad",
        "ratio",
        per(k.spmv_gbs_computed, k.triad_gbs),
    );

    let reports: Vec<_> = pass
        .shard_logs
        .iter()
        .filter_map(|log| log.run.sharded.as_ref().map(|r| (log, r)))
        .collect();
    let first = reports.first();
    let iters = first.map_or(0.0, |(_, r)| r.iterations as f64);
    let sum_shards = |f: &dyn Fn(&lcr_core::ShardStats) -> f64| {
        first.map_or(0.0, |(_, r)| r.shards.iter().map(f).sum())
    };
    put(
        "sparse.shard.halo_doubles_per_iter",
        "count",
        per(sum_shards(&|s| s.halo_doubles_sent as f64), iters),
    );
    put(
        "sparse.shard.halo_msgs_per_iter",
        "count",
        per(first.map_or(0.0, |(log, _)| log.halo_msgs as f64), iters),
    );
    put(
        "sparse.shard.reduce_rounds_per_iter",
        "count",
        per(
            first.map_or(0.0, |(_, r)| r.shards[0].reduce_rounds as f64),
            iters,
        ),
    );
    put(
        "sparse.shard.speedup_2v1",
        "ratio",
        per(p50(&pass.one_shard_none_s), p50(&pass.shard_none_s)),
    );
    put(
        "sparse.shard.survivor_rollbacks",
        "count",
        // Every kill rolls back exactly the shard it names; anything more
        // is a survivor that lost state.
        first.map_or(0.0, |_| {
            sum_shards(&|s| s.rollbacks as f64) - inst.plan.len() as f64
        }),
    );

    // lcr_core::sharded
    put(
        "core.sharded.epochs_committed",
        "count",
        first.map_or(0.0, |(_, r)| r.committed_epochs.len() as f64),
    );
    put(
        "core.sharded.epochs_aborted",
        "count",
        first.map_or(0.0, |(_, r)| r.shards[0].aborted_epochs as f64),
    );
    put(
        "core.sharded.epoch_bytes_mean",
        "B",
        first.map_or(0.0, |(log, r)| {
            per(log.run.ckpt_bytes() as f64, r.committed_epochs.len() as f64)
        }),
    );
    let busiest: Vec<f64> = pass
        .shard_logs
        .iter()
        .map(|log| {
            log.dev_spans
                .iter()
                .map(|shard| {
                    let top = shard.iter().filter(|s| s.parent.is_none());
                    top.map(Span::ns).sum::<u64>() as f64 / 1e9
                })
                .fold(0.0, f64::max)
        })
        .collect();
    put("core.sharded.dev_busy_s_max_shard", "s", p50(&busiest));
    let wall_ratio: Vec<f64> = reports
        .iter()
        .map(|(log, r)| per(r.wall_seconds, log.run.seconds))
        .collect();
    put("core.sharded.wall_vs_outside", "ratio", p50(&wall_ratio));

    // Per series: solver restarts, codec, checkpoint store, device.
    let runs = v.runs();
    let base = untraced.estimate_s("none");
    let step_s = p50(&steps) / 1e3;
    let crashes = inst.plan.len() as f64;
    let mut overhead_meas = BTreeMap::new();
    for series in SUFFIXED {
        let s = Some(series);
        let name = |stem: &str| format!("{stem}.{series}");
        let sample = pass.sample.get(series);
        put(
            &name("solvers.iters_executed"),
            "count",
            sample.map_or(0.0, |r| r.executed() as f64),
        );
        put(
            &name("solvers.restart_ms_p50"),
            "ms",
            p50(&v.ms("solvers.restart", s)),
        );

        let encode = v.ms("core.encode", s);
        put(&name("core.encode_ms_p50"), "ms", p50(&encode));
        put(&name("core.encode_ms_p90"), "ms", p90(&encode));
        let elements = v.amount("core.encode", s);
        put(
            &name("core.encode_melem_s"),
            "Melem/s",
            per(elements / 1e6, v.secs("core.encode", s)),
        );
        put(
            &name("core.decode_ms_p50"),
            "ms",
            p50(&decodes.ms("audit.decode", s)),
        );
        put(
            &name("core.decode_melem_s"),
            "Melem/s",
            per(
                decodes.amount("audit.decode", s) / 1e6,
                decodes.secs("audit.decode", s),
            ),
        );
        let committed_bytes = v.amount("ckpt.commit", s);
        put(
            &name("core.bytes_per_value"),
            "B/value",
            per(committed_bytes, elements),
        );

        let commit = v.ms("ckpt.commit", s);
        put(&name("ckpt.commit_ms_p50"), "ms", p50(&commit));
        put(&name("ckpt.commit_ms_p90"), "ms", p90(&commit));
        put(
            &name("ckpt.commit_self_ms_p50"),
            "ms",
            p50(&v.own_ms("ckpt.commit", s)),
        );
        put(
            &name("ckpt.commit_mb_s"),
            "MB/s",
            per(committed_bytes / 1e6, v.secs("ckpt.commit", s)),
        );
        put(
            &name("ckpt.recover_ms_p50"),
            "ms",
            p50(&v.ms("ckpt.recover", s)),
        );
        put(
            &name("ckpt.recover_self_ms_p50"),
            "ms",
            p50(&v.own_ms("ckpt.recover", s)),
        );
        put(
            &name("ckpt.ckpts_committed"),
            "count",
            sample.map_or(0.0, |r| r.ckpts() as f64),
        );

        put(&name("dev.write_ms_p50"), "ms", p50(&v.ms("dev.write", s)));
        put(
            &name("dev.bytes_written"),
            "B",
            v.amount("dev.write", s) / v.rounds,
        );
        put(
            &name("dev.bytes_read"),
            "B",
            (v.amount("dev.read", s) + v.amount("dev.read_prefix", s)) / v.rounds,
        );

        // lcr_perfmodel: measured overhead next to Equations 5 and 8 fed
        // the measured per-checkpoint seconds, λ = crashes / base_s, the
        // observed N′ and the step time.  The model assumes Young's
        // interval, the workloads fix theirs, so the two are not expected
        // to agree — the ratio is the finding.  1e9 stands for "no
        // progress possible" (f ≥ 1); 0 for a series the replica never ran.
        let meas = per(untraced.estimate_s(series) - base, base);
        overhead_meas.insert(series, meas);
        put(&name("perfmodel.overhead_frac_meas"), "ratio", meas);
        let t_ckp = per(
            v.secs("core.encode", s) + v.secs("ckpt.commit", s),
            commit.len() as f64,
        );
        let lambda = per(crashes, base);
        let predicted = match (series, sample) {
            _ if commit.is_empty() => 0.0,
            ("lossy", Some(r)) => {
                let delay = r.end_iteration().saturating_sub(untraced.none_iters()) as f64;
                lossy_overhead_ratio(t_ckp, lambda, per(delay, crashes), step_s)
            }
            _ => traditional_overhead_ratio(t_ckp, lambda),
        };
        put(
            &name("perfmodel.overhead_frac_eq8"),
            "ratio",
            predicted.min(1e9),
        );

        // Trace health.
        let walls: Vec<f64> = runs.iter().filter(|r| r.0 == series).map(|r| r.1).collect();
        let own: f64 = runs.iter().filter(|r| r.0 == series).map(|r| r.2).sum();
        put(
            &name("trace.unexplained_frac"),
            "ratio",
            per(own, walls.iter().sum()),
        );
        put(
            &name("trace.coverage_frac"),
            "ratio",
            per(min(&walls).unwrap_or(0.0), untraced.estimate_s(series)),
        );
    }
    put(
        "perfmodel.lossy_over_trad_overhead",
        "ratio",
        per(overhead_meas["lossy"], overhead_meas["trad"]),
    );

    // The audit of the series every workload runs; the extra strategies of
    // `solve_heavy` report theirs in the strategy table.
    let empty = Audit::default();
    let audit = pass.audits.get("lossy").unwrap_or(&empty);
    let roundtrip_failed: u64 = SUFFIXED
        .iter()
        .filter_map(|s| pass.audits.get(s))
        .map(|a| a.failed)
        .sum();
    let anchors_deltas = |f: &dyn Fn(&crate::series::PhaseSig) -> usize| {
        pass.sample
            .get("lossy")
            .map_or(0.0, |r| r.phases.iter().map(f).sum::<usize>() as f64)
    };
    put("core.anchor_ckpts", "count", anchors_deltas(&|p| p.anchors));
    put("core.delta_ckpts", "count", anchors_deltas(&|p| p.deltas));
    put("core.chain_len_p50", "count", p50(&audit.chain_lens));
    put("core.err_over_bound_max", "ratio", audit.err_over_bound_max);
    put("core.roundtrip_failed", "count", roundtrip_failed as f64);
    let failed: usize = pass
        .sample
        .values()
        .flat_map(|r| &r.phases)
        .map(|p| p.failed_ckpts)
        .sum();
    put("ckpt.ckpts_failed", "count", failed as f64);
    put("ckpt.open_ms_p50", "ms", p50(&v.ms("ckpt.open", None)));

    let fsync = v.ms("dev.fsync", None);
    put("dev.fsync_ms_p50", "ms", p50(&fsync));
    put("dev.fsync_ms_p90", "ms", p90(&fsync));
    put("dev.rename_ms_p50", "ms", p50(&v.ms("dev.rename", None)));
    put("dev.read_ms_p50", "ms", p50(&v.ms("dev.read", None)));
    put(
        "dev.fsync_count",
        "count",
        (fsync.len() + v.ms("dev.fsync_dir", None).len()) as f64 / v.rounds,
    );

    // Shares of the traced lossy time-to-solution (single-process only).
    let lossy = Some("lossy");
    let total: f64 = runs.iter().filter(|r| r.0 == "lossy").map(|r| r.1).sum();
    let none_iters = untraced.none_iters();
    let (mut reexec_ns, mut ordinal, mut round) = (0u64, 0usize, u32::MAX);
    for (_, s) in v.sel("solvers.step", lossy) {
        if s.round != round {
            (round, ordinal) = (s.round, 0);
        }
        ordinal += 1;
        if ordinal > none_iters {
            reexec_ns += s.ns();
        }
    }
    let in_phase = |name: &str, recovering: bool| -> f64 {
        v.sel(name, lossy)
            .filter(|(_, s)| (s.phase > 0) == recovering)
            .map(|(_, s)| s.ns())
            .sum::<u64>() as f64
            / 1e9
    };
    put(
        "share.solver",
        "ratio",
        per(v.secs("solvers.step", lossy), total),
    );
    put("share.reexec", "ratio", per(reexec_ns as f64 / 1e9, total));
    put(
        "share.ckpt",
        "ratio",
        per(
            v.secs("core.encode", lossy)
                + v.secs("ckpt.commit", lossy)
                + in_phase("ckpt.open", false),
            total,
        ),
    );
    let recovery: f64 = [
        "solvers.build",
        "ckpt.open",
        "ckpt.recover",
        "core.recover_chain",
    ]
    .iter()
    .map(|name| in_phase(name, true))
    .sum();
    put("share.recovery", "ratio", per(recovery, total));

    // 1 when every replica run did exactly what the runner did: phases,
    // resume points, executed iterations, checkpoint sizes, final residual.
    let matched = untraced.sample.iter().all(|(series, run)| {
        pass.sample
            .get(series)
            .is_some_and(|t| t.phases == run.phases)
    });
    put("trace.replica_match", "ratio", f64::from(u8::from(matched)));
    m
}

/// One row per traced series: `[series, tts_s (fastest traced run; the
/// first run where the sharded executor ran it), executed, ckpts, B/ckpt,
/// encode_ms, commit_ms, decode_ms, phases resumed, audit failures]` — on
/// `solve_heavy` this is the table of all five ROADMAP strategies.
pub fn strategy_table(pass: &TracedPass) -> Vec<Vec<String>> {
    let v = View::new(&pass.spans, pass.rounds);
    let decodes = View::new(&pass.decodes, 1);
    let runs = v.runs();
    pass.sample
        .iter()
        .map(|(series, run)| {
            let s = Some(*series);
            let walls: Vec<f64> = runs
                .iter()
                .filter(|r| r.0 == *series)
                .map(|r| r.1)
                .collect();
            let resumed = run
                .phases
                .iter()
                .filter(|p| p.resumed_from.is_some())
                .count();
            vec![
                series.to_string(),
                format!("{:.4}", min(&walls).unwrap_or(run.seconds)),
                run.executed().to_string(),
                run.ckpts().to_string(),
                format!("{:.0}", per(run.ckpt_bytes() as f64, run.ckpts() as f64)),
                format!("{:.3}", p50(&v.ms("core.encode", s))),
                format!("{:.3}", p50(&v.ms("ckpt.commit", s))),
                format!("{:.3}", p50(&decodes.ms("audit.decode", s))),
                format!("{resumed}/{}", run.phases.len().saturating_sub(1)),
                pass.audits.get(series).map_or(0, |a| a.failed).to_string(),
            ]
        })
        .collect()
}
