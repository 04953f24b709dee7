//! The worked example of Section 4.3: the Theorem-1 budget of extra
//! iterations for GMRES on the Bebop-like configuration.
//!
//! The paper: checkpoint time drops from 120 s to 25 s with lossy
//! compression, MTTI = 1 hour, GMRES needs 5,875 iterations in 7,160 s
//! (T_it ≈ 1.2 s) → lossy checkpointing wins as long as one recovery costs
//! at most ≈500 extra iterations (≈9 % of the total).

use lcr_bench::print_json;
use lcr_perfmodel::{
    lossy_overhead_ratio, theorem1_max_extra_iterations, traditional_overhead_ratio,
    Theorem1Inputs,
};

struct Theorem1Report {
    t_trad_ckp: f64,
    t_lossy_ckp: f64,
    mtti_hours: f64,
    iterations: usize,
    t_it: f64,
    max_extra_iterations: f64,
    max_extra_fraction: f64,
    traditional_overhead: f64,
    lossy_overhead_at_bound: f64,
}

lcr_bench::json_object!(Theorem1Report {
    t_trad_ckp, t_lossy_ckp, mtti_hours, iterations, t_it, max_extra_iterations,
    max_extra_fraction, traditional_overhead, lossy_overhead_at_bound,
});

fn main() {
    let iterations = 5875usize;
    let total_seconds = 7160.0;
    let inputs = Theorem1Inputs {
        t_trad_ckp: 120.0,
        t_lossy_ckp: 25.0,
        lambda: 1.0 / 3600.0,
        t_it: total_seconds / iterations as f64,
    };
    let n_max = theorem1_max_extra_iterations(&inputs);
    let report = Theorem1Report {
        t_trad_ckp: inputs.t_trad_ckp,
        t_lossy_ckp: inputs.t_lossy_ckp,
        mtti_hours: 1.0,
        iterations,
        t_it: inputs.t_it,
        max_extra_iterations: n_max,
        max_extra_fraction: n_max / iterations as f64,
        traditional_overhead: traditional_overhead_ratio(inputs.t_trad_ckp, inputs.lambda),
        lossy_overhead_at_bound: lossy_overhead_ratio(
            inputs.t_lossy_ckp,
            inputs.lambda,
            n_max,
            inputs.t_it,
        ),
    };

    println!("=== Theorem 1 worked example (Section 4.3) ===");
    println!(
        "Traditional checkpoint {:.0} s → lossy checkpoint {:.0} s, MTTI 1 h, T_it {:.2} s",
        report.t_trad_ckp, report.t_lossy_ckp, report.t_it
    );
    println!(
        "Maximum acceptable extra iterations per lossy recovery: {:.0} ({:.1}% of {} iterations; paper: ≈500 / ≈9%)",
        report.max_extra_iterations,
        report.max_extra_fraction * 100.0,
        report.iterations
    );
    println!(
        "Expected overhead: traditional {:.1}%, lossy at the bound {:.1}% (they meet at the bound, as Theorem 1 states)",
        report.traditional_overhead * 100.0,
        report.lossy_overhead_at_bound * 100.0
    );
    print_json("theorem1", &report);
}
