//! Solver-throughput benchmark for the fused Krylov inner loops.
//!
//! Every solver's hot loop runs on the fused kernels of
//! `lcr_sparse::kernels` (`spmv_dot`, `axpy2_norm2`, `waxpy_norm2`, `dot2`,
//! …) driven by the precomputed per-matrix `SpmvPlan`.  This binary
//! measures CG, BiCGStab and GMRES(30) iterations/s on the paper's 3-D
//! Poisson stencil at two local sizes and 1/2/N pool threads.
//!
//! Along the way it asserts the fusion determinism contract: the residual
//! trace of every solver is **bit-identical** across thread counts (the
//! chunk partitions depend only on data shape, partials combine in chunk
//! order).  CI runs `--quick` and fails if 1-vs-N identity breaks.  (That
//! the fused loops equal the unfused kernel compositions is pinned by
//! `tests/fused_kernels.rs`.)
//!
//! Prints the usual aligned table + `JSON:` line.

use lcr_bench::{fmt, print_json, print_table};
use lcr_solvers::{
    BiCgStab, ConjugateGradient, Gmres, IterativeMethod, LinearSystem, StoppingCriteria,
};
use lcr_sparse::poisson::{manufactured_rhs, poisson3d};
use lcr_sparse::Vector;
use serde::Serialize;
use std::time::Instant;

/// One measured (solver, grid, thread-count) point.
#[derive(Debug, Clone, Serialize)]
struct ThroughputRow {
    /// Solver family.
    solver: String,
    /// Local grid edge (the system has `grid³` unknowns).
    grid: usize,
    /// Number of unknowns.
    unknowns: usize,
    /// Threads the pool was capped to.
    threads: usize,
    /// Iterations per second.
    iters_per_s: f64,
    /// Whether the residual trace is bit-identical to the 1-thread trace
    /// of the same solver and size.
    trace_bit_identical: bool,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Order-sensitive bit fingerprint of a residual trace.
fn trace_fingerprint(trace: &[f64]) -> u64 {
    trace
        .iter()
        .fold(0u64, |h, v| h.rotate_left(13) ^ v.to_bits())
}

/// SPD system for CG (the paper's generator is negative definite; flip the
/// sign of both sides) and the paper-sign system for BiCGStab/GMRES.
fn systems(grid: usize) -> (LinearSystem, LinearSystem) {
    let a = poisson3d(grid);
    let (_, b) = manufactured_rhs(&a);
    let mut a_spd = a.clone();
    for v in a_spd.values_mut() {
        *v = -*v;
    }
    let mut b_spd = b.clone();
    b_spd.scale(-1.0);
    (LinearSystem::new(a_spd, b_spd), LinearSystem::new(a, b))
}

/// Criteria that never trigger inside a measurement window.
fn open_criteria() -> StoppingCriteria {
    StoppingCriteria::new(0.0, usize::MAX)
}

/// Median iterations/s over `reps` fresh solvers stepped `steps` times,
/// plus the residual-trace fingerprint of the last one.
fn throughput<S: IterativeMethod>(make: impl Fn() -> S, steps: usize, reps: usize) -> (f64, u64) {
    let mut fp = 0u64;
    let rate = median(
        (0..reps)
            .map(|_| {
                let mut solver = make();
                let t = Instant::now();
                for _ in 0..steps {
                    solver.step();
                }
                let secs = t.elapsed().as_secs_f64();
                fp = trace_fingerprint(solver.history().residuals());
                steps as f64 / secs
            })
            .collect(),
    );
    (rate, fp)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("LCR_QUICK").map(|v| v == "1").unwrap_or(false);
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if std::env::var("LCR_NUM_THREADS").is_err() {
        rayon::initialize_pool(host_parallelism.max(4));
    }
    let pool_threads = rayon::pool_threads();
    if pool_threads > host_parallelism {
        println!(
            "note: pool has {pool_threads} threads on {host_parallelism} hardware \
             thread(s) — speedups across thread counts measure oversubscription"
        );
    }
    let mut thread_counts = vec![1usize, 2, pool_threads];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    thread_counts.retain(|&t| t <= pool_threads);

    let (grids, steps, reps) = if quick {
        (vec![16usize, 24], 12usize, 2usize)
    } else {
        (vec![40usize, 64], 30usize, 3usize)
    };

    let mut rows: Vec<ThroughputRow> = Vec::new();
    for &grid in &grids {
        let (spd, plain) = systems(grid);
        let n = spd.dim();
        // Reference trace fingerprints from the 1-thread runs.
        let mut reference_fp: std::collections::HashMap<&str, u64> =
            std::collections::HashMap::new();

        for &threads in &thread_counts {
            rayon::set_max_active_threads(threads);

            let cg = throughput(
                || {
                    ConjugateGradient::unpreconditioned(
                        spd.clone(),
                        Vector::zeros(n),
                        open_criteria(),
                    )
                },
                steps,
                reps,
            );
            let bicgstab = throughput(
                || BiCgStab::unpreconditioned(plain.clone(), Vector::zeros(n), open_criteria()),
                steps,
                reps,
            );
            let gmres = throughput(
                || Gmres::unpreconditioned(plain.clone(), Vector::zeros(n), 30, open_criteria()),
                steps,
                reps,
            );

            for (solver, (iters_per_s, fp)) in
                [("cg", cg), ("bicgstab", bicgstab), ("gmres", gmres)]
            {
                let base = *reference_fp.entry(solver).or_insert(fp);
                rows.push(ThroughputRow {
                    solver: solver.to_string(),
                    grid,
                    unknowns: n,
                    threads,
                    iters_per_s,
                    trace_bit_identical: fp == base,
                });
            }
        }
    }
    rayon::set_max_active_threads(0);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.solver.clone(),
                r.grid.to_string(),
                r.unknowns.to_string(),
                r.threads.to_string(),
                fmt(r.iters_per_s, 1),
                if r.trace_bit_identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Solver throughput (fused kernels)",
        &[
            "solver",
            "grid",
            "unknowns",
            "threads",
            "it/s",
            "trace bit-identical",
        ],
        &table,
    );
    print_json("fig_solver_throughput", &rows);

    // The determinism contract is load-bearing (CI runs this with --quick):
    // the residual traces must not depend on the thread count.
    assert!(
        rows.iter().all(|r| r.trace_bit_identical),
        "determinism violation: a solver trace changed with the thread count"
    );
}
