//! Shard-scaling benchmark for the domain-decomposed execution backend.
//!
//! Runs checkpoint-free sharded CG on the paper's 3-D Poisson stencil at
//! 1/2/4 shards and reports, per shard count, iterations/s plus the
//! halo-exchange overhead the decomposition pays for them: doubles (and
//! kB) crossing shard boundaries per iteration and lockstep reduction
//! rounds per iteration.  The 1-shard row is the no-communication
//! reference, so `speedup vs 1` isolates what concurrency buys net of the
//! halo traffic.
//!
//! Along the way it asserts the sharded determinism contract: every
//! multi-shard residual trace must be bit-identical to the 1-shard trace
//! of the same grid (fixed reduction-block size).  CI runs `--quick` and
//! fails if shard-count invariance breaks.
//!
//! Prints the usual aligned table + `JSON:` line.

use lcr_bench::{fmt, print_json, print_table};
use lcr_core::sharded::{try_run_sharded, ShardedReport, ShardedRunConfig};
use lcr_solvers::ShardedMethod;
use lcr_sparse::poisson::poisson3d;
use lcr_sparse::{CsrMatrix, Vector};
use serde::Serialize;
use std::time::Instant;

/// One measured (grid, shard-count) point.
#[derive(Debug, Clone, Serialize)]
struct ShardRow {
    /// Solver family (always sharded CG here).
    solver: String,
    /// Local grid edge (the system has `grid³` unknowns).
    grid: usize,
    /// Number of unknowns.
    unknowns: usize,
    /// Shard count the system was decomposed into.
    shards: usize,
    /// Solver iterations per second (median over repetitions).
    iters_per_s: f64,
    /// `iters_per_s` relative to the 1-shard row of the same grid.
    speedup_vs_1: f64,
    /// Halo doubles sent per iteration, summed over all shards.
    halo_doubles_per_iter: f64,
    /// The same traffic in kB per iteration.
    halo_kb_per_iter: f64,
    /// Lockstep reduction rounds per iteration (per shard).
    reduce_rounds_per_iter: f64,
    /// Whether the residual trace is bit-identical to the 1-shard trace.
    trace_bit_identical: bool,
}

/// Best (smallest) time over the repetitions.  Every sample pays the full
/// setup cost (CSR partition, shard spawn, channel wiring) before the
/// iterations start, so min-time is the least-biased estimate of the
/// steady-state rate on a loaded host.
fn best(samples: Vec<f64>) -> f64 {
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

/// The paper's Poisson operator is negative definite; CG needs SPD.
fn spd_poisson(edge: usize) -> (CsrMatrix, Vector) {
    let mut a = poisson3d(edge);
    for v in a.values_mut() {
        *v = -*v;
    }
    let b = Vector::filled(a.nrows(), 1.0);
    (a, b)
}

fn run_once(
    a: &CsrMatrix,
    b: &Vector,
    shards: usize,
    reduce_block: usize,
    iterations: usize,
) -> (ShardedReport, f64) {
    let mut cfg = ShardedRunConfig::new(shards, ShardedMethod::Cg);
    // Fixed iteration count (tolerance unreachable): every shard count
    // does identical numerical work, so wall time is comparable.
    cfg.rtol = 1e-30;
    cfg.max_iterations = iterations;
    cfg.reduce_block = reduce_block;
    let start = Instant::now();
    let report = try_run_sharded(a, b, &cfg).expect("fault-free sharded run");
    let seconds = start.elapsed().as_secs_f64();
    (report, seconds)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("LCR_QUICK").map(|v| v == "1").unwrap_or(false);

    // Long iteration windows: every sample pays the one-time partition +
    // shard-spawn cost up front, so the window must dwarf it or quick runs
    // would systematically under-report rates vs full runs.
    let (grids, repetitions, iterations) = if quick {
        (vec![12usize, 16], 2usize, 150usize)
    } else {
        (vec![16usize, 24, 32], 3usize, 250usize)
    };
    let shard_counts = [1usize, 2, 4];

    let mut rows: Vec<ShardRow> = Vec::new();
    for &grid in &grids {
        let (a, b) = spd_poisson(grid);
        let unknowns = a.nrows();
        // Enough reduction blocks that every shard count owns several;
        // fixed per grid so traces are comparable across shard counts.
        let reduce_block = (unknowns / 16).clamp(32, 1024);
        let mut base: Option<ShardedReport> = None;
        let mut base_rate = 0.0;
        for &shards in &shard_counts {
            let mut samples = Vec::with_capacity(repetitions);
            let mut report = None;
            for _ in 0..repetitions {
                let (r, seconds) = run_once(&a, &b, shards, reduce_block, iterations);
                samples.push(seconds);
                report = Some(r);
            }
            let report = report.expect("at least one repetition");
            let iters = report.iterations.max(1) as f64;
            let iters_per_s = iters / best(samples);
            let halo_doubles: u64 = report.shards.iter().map(|s| s.halo_doubles_sent).sum();
            let reduce_rounds = report
                .shards
                .iter()
                .map(|s| s.reduce_rounds)
                .max()
                .unwrap_or(0);
            let trace_bit_identical = match &base {
                None => true,
                Some(base) => {
                    report.residual_trace.len() == base.residual_trace.len()
                        && report
                            .residual_trace
                            .iter()
                            .zip(&base.residual_trace)
                            .all(|(x, y)| x.to_bits() == y.to_bits())
                }
            };
            if shards == 1 {
                base_rate = iters_per_s;
                base = Some(report);
            }
            rows.push(ShardRow {
                solver: "sharded-cg".to_string(),
                grid,
                unknowns,
                shards,
                iters_per_s,
                speedup_vs_1: iters_per_s / base_rate,
                halo_doubles_per_iter: halo_doubles as f64 / iters,
                halo_kb_per_iter: halo_doubles as f64 * 8.0 / 1e3 / iters,
                reduce_rounds_per_iter: reduce_rounds as f64 / iters,
                trace_bit_identical,
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.grid.to_string(),
                r.unknowns.to_string(),
                r.shards.to_string(),
                fmt(r.iters_per_s, 1),
                fmt(r.speedup_vs_1, 2),
                fmt(r.halo_doubles_per_iter, 0),
                fmt(r.halo_kb_per_iter, 1),
                fmt(r.reduce_rounds_per_iter, 1),
                if r.trace_bit_identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Shard scaling: sharded CG throughput and halo-exchange overhead",
        &[
            "grid",
            "unknowns",
            "shards",
            "iters/s",
            "speedup vs 1",
            "halo dbl/it",
            "halo kB/it",
            "reduce/it",
            "trace bit-identical",
        ],
        &table,
    );
    print_json("fig_shard_scaling", &rows);

    // The determinism contract is load-bearing (CI runs this with --quick):
    // residual traces must not depend on the shard count.
    assert!(
        rows.iter().all(|r| r.trace_bit_identical),
        "determinism violation: a sharded CG trace changed with the shard count"
    );
}
