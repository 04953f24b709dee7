//! # lcr-bench
//!
//! Benchmark harness for the lossy-checkpointing reproduction: one binary
//! per table/figure of the paper's evaluation section (run with
//! `cargo run -p lcr-bench --release --bin <name>`), plus `scaling_kernels`,
//! the per-kernel throughput table.
//!
//! Every binary prints two things:
//!
//! 1. an aligned, human-readable table mirroring the paper's table/figure;
//! 2. a trailing `JSON:` line with the raw rows, so downstream tooling can
//!    re-plot the series.
//!
//! The binaries accept a `--quick` flag (also enabled by setting
//! `LCR_QUICK=1`) that shrinks the locally solved problem and the number of
//! repetitions so the full suite completes in a couple of minutes; without
//! it they run at [`BenchScale::full`].
//!
//! The repo's performance yardstick is the stand-alone `lcr_benchmark`
//! package under `src/bin/lcr_benchmark/` (see `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;

/// Scale knobs shared by the figure binaries.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Edge length of the locally solved 3-D grid.
    pub local_grid_edge: usize,
    /// Number of repetitions / trials where applicable.
    pub repetitions: usize,
    /// Iteration cap for solver runs.
    pub max_iterations: usize,
}

impl BenchScale {
    /// The default (full) scale used for the recorded experiments.
    pub fn full() -> Self {
        BenchScale {
            local_grid_edge: 16,
            repetitions: 5,
            max_iterations: 500_000,
        }
    }

    /// The reduced scale used by `--quick` / `LCR_QUICK=1`.
    pub fn quick() -> Self {
        BenchScale {
            local_grid_edge: 8,
            repetitions: 2,
            max_iterations: 200_000,
        }
    }

    /// Picks the scale from the process arguments and environment.
    pub fn from_env_and_args() -> Self {
        let quick = std::env::args().any(|a| a == "--quick")
            || std::env::var("LCR_QUICK").map(|v| v == "1").unwrap_or(false);
        if quick {
            Self::quick()
        } else {
            Self::full()
        }
    }
}

/// Prints a titled, aligned table of rows.
///
/// `headers` names the columns; `rows` supplies the cell text.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>width$}", h, width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Prints the machine-readable JSON payload for a figure/table.
pub fn print_json<T: Serialize>(label: &str, rows: &T) {
    match serde_json::to_string(rows) {
        Ok(json) => println!("\nJSON {label}: {json}"),
        Err(err) => eprintln!("failed to serialise {label}: {err}"),
    }
}

/// Formats a float with the given number of decimals (helper for the row
/// builders).
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales() {
        let full = BenchScale::full();
        let quick = BenchScale::quick();
        assert!(quick.local_grid_edge < full.local_grid_edge);
        assert!(quick.repetitions <= full.repetitions);
    }

    #[test]
    fn fmt_helper() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }

    #[test]
    fn print_helpers_do_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
        );
        print_json("demo", &vec![1, 2, 3]);
    }
}
