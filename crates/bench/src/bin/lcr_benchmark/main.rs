//! `lcr_benchmark` — measured time-to-solution of real fault-tolerant
//! solves (real solver iterations, real SZ encode, real fsync'd
//! `DiskStore` commit, process-death-style crash, real read + CRC +
//! decode, real re-executed iterations) on four workloads that each
//! isolate a layer, with a separate traced pass for the per-layer numbers.
//! See `README.md` beside this file for the metric glossary.
//!
//! The metric names, units, directions and bounds live in the
//! repository's `BENCHMARK.json` alone; this binary embeds that file and
//! refuses to finish if what it measured does not match it name for name.

#![forbid(unsafe_code)]

mod env;
mod layers;
mod series;
mod stats;
mod trace;
mod traced;
mod workloads;

use layers::{layer_metrics, strategy_table, Metric, Metrics, TracedPass, Untraced};
use series::{run_untraced, CkptDirs, Ops, SeriesRun};
use stats::{median, min};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Span;
use traced::Tracing;
use workloads::{Instance, Series, Spec, SERIES, SPECS};

const CONTRACT: &str = include_str!("../../../../../BENCHMARK.json");

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds run even when the time budget is already spent.
const MIN_ROUNDS: usize = 3;

const USAGE: &str = "usage: lcr_benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1 | --no-trace] [--repeat N] [--smoke] [--ckpt-dir DIR] [--trace-out DIR]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    /// Measure the end-to-end metrics (tracing off).
    e2e: bool,
    /// Make the traced pass for the per-layer metrics.
    traced: bool,
    repeat: usize,
    smoke: bool,
    ckpt_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        e2e: true,
        traced: true,
        repeat: 1,
        smoke: false,
        ckpt_dir: None,
        trace_out: None,
    };
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |what: &str| format!("{flag}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                args.seconds = Some(s);
            }
            "--trace" => match value()?.as_str() {
                "0" => (args.e2e, args.traced) = (true, false),
                "1" => (args.e2e, args.traced) = (false, true),
                _ => return Err(bad("expects 0 or 1")),
            },
            "--no-trace" => (args.e2e, args.traced) = (true, false),
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|_| bad("not a count"))?;
                if args.repeat == 0 {
                    return Err(bad("must be at least 1"));
                }
            }
            "--smoke" => args.smoke = true,
            "--ckpt-dir" => args.ckpt_dir = Some(value()?.into()),
            "--trace-out" => args.trace_out = Some(value()?.into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.repeat > 1 && !args.e2e {
        return Err("--repeat compares end-to-end metrics; it cannot go with --trace 1".into());
    }
    Ok(args)
}

struct EndToEnd {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// What `BENCHMARK.json` promises.
struct Contract {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<String>,
}

impl Contract {
    /// # Panics
    /// On a `BENCHMARK.json` that lacks a key this binary reads — a
    /// build-time defect of the repository, not an input error.
    fn parse(text: &str) -> Contract {
        let doc = serde_json::from_str(text).expect("BENCHMARK.json is JSON");
        let list = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("a list")
                .clone()
        };
        let name = |v: &serde_json::Value| {
            v.get("name")
                .and_then(|n| n.as_str())
                .expect("a name")
                .to_string()
        };
        Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(|v| v.as_f64())
                .expect("run_seconds"),
            workloads: list("workloads").iter().map(name).collect(),
            end_to_end: list("end_to_end")
                .iter()
                .map(|v| EndToEnd {
                    name: name(v),
                    lower_is_better: v.get("better").and_then(|b| b.as_str()) == Some("lower"),
                    bound: v.get("bound").and_then(|b| b.as_f64()).expect("a bound"),
                })
                .collect(),
            per_layer: list("per_layer").iter().map(name).collect(),
        }
    }
}

/// Problem assembly + SpMV plan + seeded right-hand side + one warm-up
/// solve, which also fixes the iteration cap at 20× the failure-free count.
fn set_up(spec: &Spec, seed: u64, threads: usize, dirs: &mut CkptDirs) -> (Instance, SeriesRun) {
    let mut inst = Instance::assemble(spec, seed, threads);
    let warm = run_untraced(&inst, Series::None, dirs);
    inst.max_iterations = 20 * warm.end_iteration().max(1);
    (inst, warm)
}

/// One step of a round.
#[derive(Clone, Copy)]
enum Step {
    /// The program's own executor, tracing off.
    Plain(Series),
    /// The traced replica, or the sharded executor behind its seams.
    Traced(Series),
}

/// Runs rounds until `budget_s` is spent (at least [`MIN_ROUNDS`]; exactly
/// two under `--smoke`).  A round runs every series once on the program's
/// own executor and, in a traced run, once more on the traced one, in an
/// order rotated by the round number — so the traced and untraced times a
/// ratio compares were taken seconds apart, not minutes.
fn measure(
    inst: &Instance,
    args: &Args,
    budget_s: f64,
    ops: &mut Ops,
    problems: &mut Vec<String>,
    dirs: &mut CkptDirs,
) -> (Untraced, usize, Option<TracedPass>) {
    let mut steps: Vec<Step> = SERIES.iter().map(|s| Step::Plain(*s)).collect();
    let mut tracing = args.traced.then(|| {
        let mut order = SERIES.to_vec();
        if inst.spec.name == "solve_heavy" {
            // One table with all five ROADMAP strategies.
            order.extend([Series::Lossless, Series::LossyDelta]);
        }
        steps.extend(order.iter().map(|s| Step::Traced(*s)));
        Tracing::start(inst, &order, dirs)
    });
    let (min_rounds, budget_s) = if args.smoke {
        (2, 0.0)
    } else {
        (MIN_ROUNDS, budget_s)
    };

    let mut seconds: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut sample: BTreeMap<&'static str, SeriesRun> = BTreeMap::new();
    let start = Instant::now();
    let mut round = 0;
    while round < min_rounds || start.elapsed().as_secs_f64() < budget_s {
        for k in 0..steps.len() {
            let run = match steps[(round + k) % steps.len()] {
                Step::Plain(series) => {
                    let run = run_untraced(inst, series, dirs);
                    if series == Series::None && run.ops.failed > 0 {
                        problems.push(format!("round {round}: the failure-free solve failed"));
                    }
                    seconds.entry(series.name()).or_default().push(run.seconds);
                    match sample.get(series.name()) {
                        // Counts are only comparable if a series repeats exactly.
                        Some(first) => ops.record(first.phases == run.phases),
                        None => drop(sample.insert(series.name(), run.clone())),
                    }
                    run
                }
                Step::Traced(series) => {
                    let tracing = tracing.as_mut().expect("traced steps imply tracing");
                    let run = tracing.step(inst, round as u32, series, dirs);
                    if !SERIES.contains(&series) {
                        continue;
                    }
                    run
                }
            };
            ops.add(run.ops);
        }
        round += 1;
    }
    let untraced = Untraced { seconds, sample };
    let pass = tracing.map(|t| {
        let pass = t.finish(round as u32);
        for series in SERIES {
            if let Some(audit) = pass.audits.get(series.name()) {
                ops.attempted += audit.checked;
                ops.failed += audit.failed;
            }
        }
        pass
    });
    (untraced, round, pass)
}

fn end_to_end_metrics(inst: &Instance, untraced: &Untraced, setup_s: &[f64]) -> Metrics {
    let mut m = Metrics::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        let unit = unit.to_string();
        m.insert(name.to_string(), Metric { value, unit });
    };
    put("setup_s", "s", median(setup_s).unwrap_or(f64::NAN));
    put("base_s", "s", untraced.estimate_s("none"));
    put("tts_lossy_s", "s", untraced.estimate_s("lossy"));
    put("tts_trad_s", "s", untraced.estimate_s("trad"));
    let lossy = &untraced.sample["lossy"];
    put("iters_lossy", "count", lossy.executed() as f64);
    // Every lossy checkpoint stores the solution vector alone.
    let original = lossy.ckpts() * inst.unknowns() * 8;
    put(
        "ckpt_ratio",
        "ratio",
        original as f64 / lossy.ckpt_bytes() as f64,
    );
    put("peak_rss_mb", "MB", env::peak_rss_mb().unwrap_or(f64::NAN));
    m
}

/// What one workload measured, in this process.
struct WorkloadResult {
    name: &'static str,
    metrics: Metrics,
    ops: Ops,
    /// Guard violations: anything here makes the run exit non-zero.
    problems: Vec<String>,
    spans: Vec<Span>,
    rounds: usize,
    working_set_bytes: usize,
}

impl WorkloadResult {
    fn summary(&self) -> Summary {
        Summary {
            name: self.name.to_string(),
            metrics: self.metrics.clone(),
            ops: self.ops,
        }
    }
}

fn run_workload(
    spec: &Spec,
    args: &Args,
    contract: &Contract,
    threads: usize,
    dirs: &mut CkptDirs,
) -> WorkloadResult {
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let (mut ops, mut problems) = (Ops::default(), Vec::new());

    let setups = if args.e2e && !args.smoke { SETUPS } else { 1 };
    let mut setup_s = Vec::new();
    let (inst, warm) = (0..setups)
        .map(|_| {
            let t = Instant::now();
            let built = set_up(spec, args.seed, threads, dirs);
            setup_s.push(t.elapsed().as_secs_f64());
            built
        })
        .last()
        .expect("setups >= 1");
    ops.add(warm.ops);
    if warm.ops.failed > 0 {
        problems.push(format!(
            "the warm-up solve failed (residual {:.3e}, {} iterations)",
            warm.residual_rel,
            warm.end_iteration()
        ));
    }
    println!(
        "\n== {}: {}^3 = {} unknowns, working set {:.1} MB, crash plan {:?}, none = {} iterations",
        spec.name,
        spec.grid,
        inst.unknowns(),
        inst.working_set_bytes() as f64 / 1e6,
        inst.plan,
        warm.end_iteration()
    );

    // At least `MIN_ROUNDS` by construction: no workload ends without rounds.
    let (untraced, rounds, pass) = measure(&inst, args, seconds, &mut ops, &mut problems, dirs);

    let mut metrics = Metrics::new();
    if args.e2e {
        metrics.extend(end_to_end_metrics(&inst, &untraced, &setup_s));
        for (name, series) in [
            ("base_s", "none"),
            ("tts_lossy_s", "lossy"),
            ("tts_trad_s", "trad"),
        ] {
            let s = &untraced.seconds[series];
            println!(
                "{:<16}{name:<14} {:.4} s  (median {:.4} s  min {:.4} s  n = {})",
                spec.name,
                metrics[name].value,
                median(s).unwrap_or(f64::NAN),
                min(s).unwrap_or(f64::NAN),
                s.len()
            );
            let rounds: Vec<String> = s.iter().map(|v| format!("{v:.4}")).collect();
            println!("{:<16}{name:<14} rounds {}", spec.name, rounds.join(" "));
        }
    }
    let mut spans = Vec::new();
    if let Some(pass) = pass {
        let layers = layer_metrics(&inst, &untraced, &pass);
        println!(
            "{:<16}traced {} rounds; series  tts_s  executed  ckpts  B/ckpt  encode_ms  commit_ms  decode_ms  resumed  audit_failed",
            spec.name, pass.rounds
        );
        for row in strategy_table(&pass) {
            println!("{:<16}  {}", spec.name, row.join("  "));
        }
        for series in ["lossy", "trad"] {
            let coverage = layers[&format!("trace.coverage_frac.{series}")].value;
            let replica_ran = pass.spans.iter().any(|s| s.series == series);
            if replica_ran && !(0.9..=1.15).contains(&coverage) {
                println!(
                    "WARNING {} {series}: traced/untraced time = {coverage:.3}, outside [0.9, 1.15]: \
                     the per-layer numbers may not describe the runner",
                    spec.name
                );
            }
        }
        if layers["trace.replica_match"].value != 1.0 {
            println!(
                "WARNING {}: the traced replica did not reproduce the runner's phases",
                spec.name
            );
        }
        metrics.extend(layers);
        spans = pass.spans;
    }

    // Never silent: exactly the promised names, every value a number.
    let promised: BTreeSet<&String> = (contract.end_to_end.iter())
        .filter(|_| args.e2e)
        .map(|m| &m.name)
        .chain(contract.per_layer.iter().filter(|_| args.traced))
        .collect();
    for name in &promised {
        match metrics.get(*name) {
            Some(m) if m.value.is_finite() => {}
            Some(m) => problems.push(format!("{name} = {}", m.value)),
            None => problems.push(format!("{name} was not measured")),
        }
    }
    for name in metrics.keys().filter(|k| !promised.contains(k)) {
        problems.push(format!("{name} is not in BENCHMARK.json"));
    }
    for (name, m) in &metrics {
        println!("{:<16}{name:<40}{:>16.6} {}", spec.name, m.value, m.unit);
    }
    println!(
        "{:<16}operations: {} attempted, {} failed (solves, restarts, checkpoints, shard runs, repeats, audits); {rounds} rounds",
        spec.name, ops.attempted, ops.failed
    );
    WorkloadResult {
        name: spec.name,
        metrics,
        ops,
        problems,
        spans,
        rounds,
        working_set_bytes: inst.working_set_bytes(),
    }
}

/// What one workload run reports across a process boundary: the content
/// of its result line.
struct Summary {
    name: String,
    metrics: Metrics,
    ops: Ops,
}

impl Summary {
    /// Reads a single-workload result line back.
    fn parse(name: &str, line: &str) -> Option<Summary> {
        let doc = serde_json::from_str(line).ok()?;
        let count = |key: &str| doc.get(key).and_then(|v| v.as_u64());
        let serde_json::Value::Object(entries) = doc.get("metrics")? else {
            return None;
        };
        let mut metrics = Metrics::new();
        for (metric, m) in entries {
            let value = m.get("value").and_then(|v| v.as_f64())?;
            let unit = m.get("unit").and_then(|u| u.as_str())?.to_string();
            metrics.insert(metric.clone(), Metric { value, unit });
        }
        Some(Summary {
            name: name.to_string(),
            metrics,
            ops: Ops {
                attempted: count("attempted")?,
                failed: count("failed")?,
            },
        })
    }
}

/// `--repeat`: relative difference of every end-to-end metric between the
/// first and each later repetition, next to its bound.  Returns whether
/// all stayed within.
fn compare_repeats(contract: &Contract, results: &[Vec<Summary>]) -> bool {
    let mut within = true;
    println!("\n== repeat agreement (relative to repetition 1; + is worse)");
    for (rep, later) in results.iter().enumerate().skip(1) {
        for (a, b) in results[0].iter().zip(later) {
            for m in &contract.end_to_end {
                let (first, second) = (a.metrics[&m.name].value, b.metrics[&m.name].value);
                let sign = if m.lower_is_better { 1.0 } else { -1.0 };
                let worse = sign * (second - first) / first;
                let ok = worse.abs() <= m.bound;
                within &= ok;
                println!(
                    "{:<16}{:<14} rep {}: {first:.6} -> {second:.6}  {:+.2} %  (bound {:.0} %){}",
                    a.name,
                    m.name,
                    rep + 1,
                    100.0 * worse,
                    100.0 * m.bound,
                    if ok { "" } else { "  BEYOND" }
                );
            }
        }
    }
    within
}

/// The selected workloads, in `BENCHMARK.json` order.
fn selected(args: &Args, contract: &Contract) -> Result<Vec<Spec>, String> {
    let specs: Vec<Spec> = SPECS
        .iter()
        .filter(|s| args.workload.as_deref().is_none_or(|w| w == s.name))
        .map(|s| if args.smoke { s.smoke() } else { s.clone() })
        .collect();
    match specs.is_empty() {
        true => Err(format!(
            "no such workload; choose from {:?}",
            contract.workloads
        )),
        false => Ok(specs),
    }
}

/// Where checkpoint roots and trace files go: a real disk under the build
/// directory, never /tmp.
fn out_dir(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    args.ckpt_dir
        .clone()
        .unwrap_or(target.join("lcr_benchmark"))
}

/// Runs `specs` in this process, once each.
fn run_here(
    args: &Args,
    contract: &Contract,
    specs: &[Spec],
) -> Result<Vec<WorkloadResult>, String> {
    // The kernels use at most two pool threads, like the sizing runs.
    let threads = env::nproc().min(2);
    rayon::set_max_active_threads(threads);
    let ckpt_root = out_dir(args).join(format!("ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_root).map_err(|e| format!("{}: {e}", ckpt_root.display()))?;
    let mut dirs = CkptDirs::new(ckpt_root);
    let started = Instant::now();
    let results: Vec<WorkloadResult> = specs
        .iter()
        .map(|spec| run_workload(spec, args, contract, threads, &mut dirs))
        .collect();

    let per_workload: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "\"{}\":{{\"working_set_bytes\":{},\"rounds\":{}}}",
                r.name, r.working_set_bytes, r.rounds
            )
        })
        .collect();
    println!(
        "ENV {{\"nproc\":{},\"kernel_threads\":{threads},\"shards\":2,\"caches\":{:?},\
         \"workloads\":{{{}}},\"ckpt_filesystem\":{:?},\"seed\":{},\
         \"run_seconds\":{},\"git_commit\":{:?},\"wall_seconds\":{:.1}}}",
        env::nproc(),
        env::caches(),
        per_workload.join(","),
        env::filesystem(dirs.root()),
        args.seed,
        args.seconds.unwrap_or(contract.run_seconds),
        env::git_commit(),
        started.elapsed().as_secs_f64()
    );
    let _ = std::fs::remove_dir_all(dirs.root());
    Ok(results)
}

/// Runs one workload in a child process of this same binary and reads its
/// result line back.  A run of several workloads or repetitions does this
/// for each, as the driver does: peak memory is a property of a process,
/// and a workload must not inherit the heap its predecessor left behind
/// (in one process `ckpt_heavy` peaked at 96 MB after `solve_heavy`, at
/// 62 MB alone).
fn run_child(args: &Args, workload: &str) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    match (args.e2e, args.traced) {
        (true, false) => drop(cmd.args(["--trace", "0"])),
        (false, true) => drop(cmd.args(["--trace", "1"])),
        _ => {}
    }
    cmd.arg("--ckpt-dir").arg(out_dir(args));
    if let Some(dir) = &args.trace_out {
        cmd.arg("--trace-out").arg(dir);
    }
    // `output()` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("the {workload} run ended with {}", out.status));
    }
    stdout
        .lines()
        .last()
        .and_then(|line| Summary::parse(workload, line))
        .ok_or(format!("the {workload} run printed no result line"))
}

fn real_main(args: &Args) -> Result<bool, String> {
    let contract = Contract::parse(CONTRACT);
    let specs = selected(args, &contract)?;
    let in_process = args.smoke || (specs.len() == 1 && args.repeat == 1);
    let results: Vec<Vec<Summary>> = if in_process {
        let results = run_here(args, &contract, &specs)?;
        if args.traced {
            let dir = args.trace_out.clone().unwrap_or(out_dir(args));
            for r in &results {
                let path = dir.join(format!("trace-{}.jsonl", r.name));
                let file =
                    std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                let mut file = std::io::BufWriter::new(file);
                trace::write_jsonl(&mut file, r.name, &r.spans).map_err(|e| e.to_string())?;
                file.flush().map_err(|e| e.to_string())?;
                println!("trace: {}", path.display());
            }
        }
        let mut clean = true;
        for r in &results {
            for p in &r.problems {
                eprintln!("lcr_benchmark: {}: {p}", r.name);
                clean = false;
            }
        }
        if !clean {
            return Ok(false);
        }
        vec![results.iter().map(WorkloadResult::summary).collect()]
    } else {
        (0..args.repeat)
            .map(|_| {
                specs
                    .iter()
                    .map(|spec| run_child(args, spec.name))
                    .collect()
            })
            .collect::<Result<_, _>>()?
    };

    let agree = args.repeat == 1 || compare_repeats(&contract, &results);
    // The result line: the first repetition's metrics, every repetition's
    // operations.
    let mut ops = Ops::default();
    results.iter().flatten().for_each(|r| ops.add(r.ops));
    let mut entries = Vec::new();
    for r in &results[0] {
        for (name, Metric { value, unit }) in &r.metrics {
            let key = match results[0].len() {
                1 => name.clone(),
                _ => format!("{}:{name}", r.name),
            };
            entries.push(format!(
                "\"{key}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        entries.join(",")
    );
    Ok(agree)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lcr_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lcr_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(
            std::iter::once("lcr_benchmark")
                .chain(list.iter().copied())
                .map(String::from),
        )
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let a = args(&[
            "--workload",
            "ckpt_heavy",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds),
            (Some("ckpt_heavy"), 9, Some(3.0))
        );
        assert!(a.traced && !a.e2e);
        let a = args(&["--no-trace", "--repeat", "2"]).unwrap();
        assert!(a.e2e && !a.traced && a.repeat == 2);
        let a = args(&[]).unwrap();
        assert!(a.e2e && a.traced && a.seed == 1 && a.repeat == 1);
        for bad in [
            &["--trace", "2"][..],
            &["--seconds", "0"],
            &["--seed"],
            &["--repeat", "0"],
            &["--trace", "1", "--repeat", "2"],
            &["--quick"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn smoke_emits_exactly_the_names_of_benchmark_json() {
        let contract = Contract::parse(CONTRACT);
        let dir = std::env::temp_dir().join(format!("lcr-benchmark-smoke-{}", std::process::id()));
        let a = args(&["--smoke", "--ckpt-dir", dir.to_str().unwrap()]).unwrap();
        // Under a second optimised, about five unoptimised; not asserted,
        // because tests share the machine.
        let results = run_here(&a, &contract, &selected(&a, &contract).unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        let ran: Vec<&str> = results.iter().map(|r| r.name).collect();
        assert_eq!(ran, contract.workloads);
        let mut promised: Vec<&String> = (contract.end_to_end.iter().map(|m| &m.name))
            .chain(&contract.per_layer)
            .collect();
        promised.sort();
        for r in &results {
            // The guard inside run_workload found nothing missing, extra or NaN.
            assert_eq!(r.problems, Vec::<String>::new(), "{}", r.name);
            assert_eq!(r.metrics.keys().collect::<Vec<_>>(), promised, "{}", r.name);
            assert_eq!(r.ops.failed, 0, "{}", r.name);
            assert_eq!(r.rounds, 2);
            assert!(!r.spans.is_empty());
            assert_eq!(r.metrics["trace.replica_match"].value, 1.0, "{}", r.name);
            assert_eq!(r.metrics["core.roundtrip_failed"].value, 0.0, "{}", r.name);
        }
    }

    #[test]
    fn repeat_agreement_honours_direction_and_bound() {
        let contract = Contract::parse(CONTRACT);
        let result = |scale: f64| {
            let metrics = contract
                .end_to_end
                .iter()
                .map(|m| {
                    let (value, unit) = (10.0 * scale, "s".to_string());
                    (m.name.clone(), Metric { value, unit })
                })
                .collect();
            vec![Summary {
                name: "w".into(),
                metrics,
                ops: Ops::default(),
            }]
        };
        assert!(compare_repeats(&contract, &[result(1.0), result(1.01)]));
        assert!(!compare_repeats(
            &contract,
            &[result(1.0), result(1.0), result(2.0)]
        ));
        assert!(!compare_repeats(&contract, &[result(1.0), result(0.5)]));
    }

    #[test]
    fn a_result_line_reads_back() {
        let line = r#"{"correct":true,"attempted":7,"failed":1,"metrics":{"base_s":{"value":0.25,"unit":"s"},"iters_lossy":{"value":91,"unit":"count"}}}"#;
        let s = Summary::parse("w", line).unwrap();
        assert_eq!((s.ops.attempted, s.ops.failed), (7, 1));
        assert_eq!(
            (s.metrics["base_s"].value, s.metrics["base_s"].unit.as_str()),
            (0.25, "s")
        );
        assert_eq!(s.metrics["iters_lossy"].value, 91.0);
        assert!(Summary::parse("w", "ENV {}").is_none());
    }
}
