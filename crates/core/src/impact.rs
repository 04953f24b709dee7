//! Convergence impact of a single lossy recovery (§4.4.3, Figure 2).
//!
//! The paper measures, for the CG method, the average number of extra
//! iterations caused by one lossy recovery: in each trial an iteration is
//! picked at random, the approximate solution vector is compressed and
//! decompressed with a given relative error bound, the solver restarts from
//! the perturbed vector, and the delay to convergence (relative to the
//! clean run) is recorded.  Figure 2 plots the average delay against the
//! error bound (1e-3 … 1e-6 → roughly 25 % … 10 % of the total iterations).
//!
//! The same experiment applies unchanged to the other solvers, which is how
//! the §4.4.1 (stationary) and §4.4.2 (GMRES) findings are validated
//! empirically.

use crate::strategy::{CheckpointStrategy, ErrorBoundPolicy, LossyCodecKind};
use crate::workload::{PaperWorkload, ScaledProblem};
use lcr_compress::ErrorBound;
use lcr_solvers::SolverKind;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Result of the lossy-recovery impact experiment for one error bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactResult {
    /// Solver evaluated.
    pub solver: String,
    /// Relative error bound used for the lossy compression.
    pub error_bound: f64,
    /// Iterations the failure-free run needs.
    pub clean_iterations: usize,
    /// Mean extra iterations across trials.
    pub mean_extra_iterations: f64,
    /// Maximum extra iterations observed.
    pub max_extra_iterations: usize,
    /// Mean extra iterations as a fraction of the clean iteration count.
    pub mean_extra_fraction: f64,
    /// Number of trials.
    pub trials: usize,
}

/// Runs the Figure 2 experiment: `trials` lossy recoveries at random
/// iterations for the given solver and error bound.
///
/// # Panics
/// Panics if `trials` is zero or the clean run does not converge.
fn lossy_recovery_impact(
    workload: &PaperWorkload,
    problem: &ScaledProblem,
    solver_kind: SolverKind,
    relative_error_bound: f64,
    trials: usize,
    seed: u64,
    max_iterations: usize,
) -> ImpactResult {
    assert!(trials > 0, "need at least one trial");

    // Clean (failure-free) reference run.
    let mut clean = workload.build_solver(problem, solver_kind, max_iterations);
    clean.run_to_convergence();
    assert!(
        !clean.history().limit_reached,
        "clean run must converge within the iteration limit"
    );
    let clean_iterations = clean.iteration();

    let strategy = CheckpointStrategy::Lossy {
        codec: LossyCodecKind::Sz,
        policy: ErrorBoundPolicy::Fixed(ErrorBound::PointwiseRel(relative_error_bound)),
    };

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut total_extra = 0.0f64;
    let mut max_extra = 0usize;
    for _ in 0..trials {
        // Pick the restart iteration uniformly in the middle 80 % of the
        // clean run (restarting at iteration 0 or at convergence is not a
        // meaningful recovery).
        let lo = (clean_iterations / 10).max(1);
        let hi = (clean_iterations * 9 / 10).max(lo + 1);
        let restart_at = rng.gen_range(lo..hi);

        let mut solver = workload.build_solver(problem, solver_kind, max_iterations);
        for _ in 0..restart_at {
            solver.step();
        }
        // Compress + decompress the current solution and restart from it.
        let encoded = strategy.encode(solver.as_ref()).expect("encode x");
        strategy
            .recover(
                solver.as_mut(),
                &encoded.payloads,
                encoded.iteration,
                &encoded.scalars,
            )
            .expect("recover from freshly encoded checkpoint");
        solver.run_to_convergence();
        assert!(
            !solver.history().limit_reached,
            "perturbed run must still converge"
        );
        let extra = solver.iteration().saturating_sub(clean_iterations);
        total_extra += extra as f64;
        max_extra = max_extra.max(extra);
    }

    let mean_extra = total_extra / trials as f64;
    ImpactResult {
        solver: solver_kind.name().to_string(),
        error_bound: relative_error_bound,
        clean_iterations,
        mean_extra_iterations: mean_extra,
        max_extra_iterations: max_extra,
        mean_extra_fraction: mean_extra / clean_iterations as f64,
        trials,
    }
}

/// Runs the full Figure 2 sweep (several error bounds) for one solver.
pub fn figure2_sweep(
    workload: &PaperWorkload,
    problem: &ScaledProblem,
    solver_kind: SolverKind,
    error_bounds: &[f64],
    trials: usize,
    seed: u64,
    max_iterations: usize,
) -> Vec<ImpactResult> {
    error_bounds
        .iter()
        .map(|&eb| {
            lossy_recovery_impact(
                workload,
                problem,
                solver_kind,
                eb,
                trials,
                seed ^ eb.to_bits(),
                max_iterations,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_extra_iterations_grow_with_error_bound() {
        let w = PaperWorkload::poisson(256, 7);
        let p = w.build();
        let loose = lossy_recovery_impact(&w, &p, SolverKind::Cg, 1e-2, 4, 1, 100_000);
        let tight = lossy_recovery_impact(&w, &p, SolverKind::Cg, 1e-8, 4, 1, 100_000);
        assert_eq!(loose.solver, "cg");
        assert!(loose.clean_iterations > 0);
        // A looser bound can only hurt more (or equally).
        assert!(
            loose.mean_extra_iterations >= tight.mean_extra_iterations,
            "loose {} vs tight {}",
            loose.mean_extra_iterations,
            tight.mean_extra_iterations
        );
        // Both still converge with a bounded delay.
        assert!(loose.mean_extra_fraction < 1.0);
    }

    #[test]
    fn jacobi_delay_is_negligible_at_paper_bound() {
        // §4.4.1 / Figure 8: Jacobi with eb = 1e-4 sees essentially no
        // extra iterations.
        let w = PaperWorkload::poisson(256, 7);
        let p = w.build();
        let res = lossy_recovery_impact(&w, &p, SolverKind::Jacobi, 1e-4, 3, 2, 200_000);
        assert!(
            res.mean_extra_fraction < 0.05,
            "Jacobi extra fraction {}",
            res.mean_extra_fraction
        );
    }

    #[test]
    fn gmres_delay_is_small_with_theorem3_scale_bound() {
        let w = PaperWorkload::poisson(256, 6);
        let p = w.build();
        let res = lossy_recovery_impact(&w, &p, SolverKind::Gmres, 1e-5, 3, 3, 200_000);
        assert!(
            res.mean_extra_fraction < 0.5,
            "GMRES extra fraction {}",
            res.mean_extra_fraction
        );
    }

    #[test]
    fn figure2_sweep_produces_one_row_per_bound() {
        let w = PaperWorkload::poisson(256, 6);
        let p = w.build();
        let rows = figure2_sweep(&w, &p, SolverKind::Cg, &[1e-3, 1e-5], 2, 9, 100_000);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].error_bound, 1e-3);
        assert_eq!(rows[1].error_bound, 1e-5);
        assert_eq!(rows[0].trials, 2);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let w = PaperWorkload::poisson(256, 6);
        let p = w.build();
        let _ = lossy_recovery_impact(&w, &p, SolverKind::Cg, 1e-4, 0, 1, 1000);
    }
}
