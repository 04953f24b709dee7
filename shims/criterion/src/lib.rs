//! In-tree stand-in for `criterion`, written because the build environment
//! has no registry access.
//!
//! The `criterion_group!`/`criterion_main!`/`Criterion` surface is kept so
//! the workspace's benches compile and run under `cargo bench`; measurement
//! is a plain wall-clock loop (short warm-up, then a fixed measurement
//! budget) printing mean ns/iter plus derived throughput.  No statistics,
//! plots or baselines.

#![forbid(unsafe_code)]

use std::fmt;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Whether the bench binary was invoked in test mode (`--test`, as real
/// criterion accepts for smoke runs): every benchmark body runs exactly
/// once with no warm-up or measurement budget, so CI can check the benches
/// still execute without paying bench wall-clock.
fn test_mode() -> bool {
    static MODE: OnceLock<bool> = OnceLock::new();
    *MODE.get_or_init(|| std::env::args().any(|a| a == "--test"))
}

/// Opaque hint preventing the optimizer from deleting a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation for a benchmark.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Parameter-only id.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Timing-loop driver handed to bench closures.
// lcr-analyze: allow(dead-public-item): parameter type of every bench closure; benches take it by inference
pub struct Bencher {
    /// Mean nanoseconds per iteration measured by the last `iter` call.
    ns_per_iter: f64,
}

impl Bencher {
    /// Run `f` repeatedly and record the mean time per call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if test_mode() {
            let t0 = Instant::now();
            black_box(f());
            self.ns_per_iter = t0.elapsed().as_nanos() as f64;
            return;
        }
        // Warm-up.
        let warmup_deadline = Instant::now() + Duration::from_millis(50);
        while Instant::now() < warmup_deadline {
            black_box(f());
        }
        // Measurement: at least 10 iterations, at most ~200 ms.
        let start = Instant::now();
        let deadline = start + Duration::from_millis(200);
        let mut iters = 0u64;
        loop {
            black_box(f());
            iters += 1;
            if iters >= 10 && Instant::now() >= deadline {
                break;
            }
        }
        self.ns_per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
    }
}

/// A named collection of related benchmarks.
// lcr-analyze: allow(dead-public-item): return type of `Criterion::benchmark_group`; benches hold it by inference
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _criterion: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    /// Annotate subsequent benches with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    fn report(&self, id: &str, ns: f64) {
        let mut line = format!("{}/{:<40} {:>12.1} ns/iter", self.name, id, ns);
        match self.throughput {
            Some(Throughput::Bytes(b)) => {
                let gib_s = b as f64 / ns; // bytes/ns == GB/s
                line.push_str(&format!("  {:>8.3} GB/s", gib_s));
            }
            Some(Throughput::Elements(e)) => {
                let me_s = e as f64 / ns * 1e3; // elements/ns -> Melem/s
                line.push_str(&format!("  {:>8.1} Melem/s", me_s));
            }
            None => {}
        }
        println!("{line}");
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher { ns_per_iter: 0.0 };
        f(&mut b);
        self.report(&id.to_string(), b.ns_per_iter);
        self
    }

    /// Run one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher { ns_per_iter: 0.0 };
        f(&mut b, input);
        self.report(&id.to_string(), b.ns_per_iter);
        self
    }

    /// End the group.
    pub fn finish(self) {}
}

/// Top-level bench context.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            _criterion: std::marker::PhantomData,
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("").bench_function(id, f);
        self
    }
}

/// Declare a bench group: `criterion_group!(name, fn_a, fn_b, ...)`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let _ = $config;
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declare the bench entry point: `criterion_main!(group_a, group_b)`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
