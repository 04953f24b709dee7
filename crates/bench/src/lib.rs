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

use lcr_core::impact::ImpactResult;
use lcr_core::{CheckpointTimeRow, ExpectedOverheadRow, FaultToleranceOverheadRow, Table3Row};
use lcr_perfmodel::OverheadPoint;

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

/// A value a bin's trailing `JSON` line can hold.
///
/// Numbers print with Rust's `Display` (`120`, `0.25`), a non-finite `f64`
/// and `None` print as `null`, sequences as arrays, and a struct as an
/// object through [`json_object!`].
// lcr-analyze: allow(dead-public-item): the bins reach it through the `json_object!` expansion and `print_json`
pub trait ToJson {
    /// Appends the JSON text of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

impl ToJson for usize {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&if self.is_finite() { self.to_string() } else { "null".into() });
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' | '\\' => out.extend(['\\', c]),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

/// Implements [`ToJson`] for structs as JSON objects of the listed fields,
/// in the order listed: `json_object!(Row { a, b });`.
#[macro_export]
macro_rules! json_object {
    ($($ty:ty { $first:ident $(, $field:ident)* $(,)? })+) => {$(
        impl $crate::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                out.push_str(concat!("{\"", stringify!($first), "\":"));
                $crate::ToJson::write_json(&self.$first, out);
                $(
                    out.push_str(concat!(",\"", stringify!($field), "\":"));
                    $crate::ToJson::write_json(&self.$field, out);
                )*
                out.push('}');
            }
        }
    )+};
}

json_object! {
    OverheadPoint { failures_per_hour, checkpoint_seconds, overhead_ratio }
    ImpactResult {
        solver, error_bound, clean_iterations, mean_extra_iterations,
        max_extra_iterations, mean_extra_fraction, trials,
    }
    Table3Row {
        processes, problem_edge, solver, traditional_mb, lossless_mb, lossy_mb,
        measured_shard_mb,
    }
    CheckpointTimeRow { processes, solver, strategy, checkpoint_seconds, recovery_seconds }
    ExpectedOverheadRow { processes, solver, strategy, mtti_hours, expected_overhead }
    FaultToleranceOverheadRow {
        solver, strategy, processes, checkpoint_interval_seconds, experimental_overhead,
        expected_overhead, mean_failures, mean_convergence_iterations, baseline_iterations,
    }
}

fn to_json<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Prints the machine-readable JSON payload for a figure/table.
pub fn print_json<T: ToJson + ?Sized>(label: &str, rows: &T) {
    println!("\nJSON {label}: {}", to_json(rows));
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

    struct Row {
        name: String,
        x: f64,
        ok: bool,
        gap: Option<f64>,
        trace: Vec<usize>,
    }

    json_object!(Row { name, x, ok, gap, trace });

    #[test]
    fn writes_what_serde_json_wrote_and_parses_back() {
        let row = Row {
            name: "sz \"quoted\" \\ path\nline\u{1} é".into(),
            x: -12.5e3,
            ok: true,
            gap: None,
            trace: vec![3, 1],
        };
        let json = to_json(&row);
        assert_eq!(
            json,
            r#"{"name":"sz \"quoted\" \\ path\nline\u0001 é","x":-12500,"ok":true,"gap":null,"trace":[3,1]}"#
        );
        let v = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get("name").and_then(|n| n.as_str()), Some(row.name.as_str()));
        assert_eq!(v.get("x").and_then(|x| x.as_f64()), Some(row.x));
        assert_eq!(to_json(&vec![0.1, 1.5e-7, 1e21]), "[0.1,0.00000015,1000000000000000000000]");
        assert_eq!(to_json(&vec![f64::NAN, f64::INFINITY]), "[null,null]");
        assert_eq!(to_json(&Some(2.0)), "2");
        assert_eq!(to_json(&Vec::<usize>::new()), "[]");
    }

    #[test]
    fn print_helpers_do_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
        );
        print_json("demo", &vec![1usize, 2, 3]);
    }
}
