//! The paper's workloads, scaled to a single node.
//!
//! The evaluation solves two kinds of systems:
//!
//! 1. the 3-D Poisson system of Equation 15, weak-scaled from 1088³
//!    unknowns at 256 processes to 2160³ at 2,048 processes (Table 3), with
//!    Jacobi, GMRES(30) and CG at relative tolerances 1e-4, 7e-5 and 1e-7;
//! 2. the SuiteSparse KKT240 matrix solved with GMRES + Jacobi
//!    preconditioning at tolerance 1e-6 (Figure 3).
//!
//! Neither global problem fits on one node, so a [`ScaledProblem`] carries
//! both the *local* system actually solved (a smaller instance of the same
//! matrix family, so convergence behaviour and compressibility are genuine)
//! and the *paper-scale* dimensions used by the rank/PFS model for
//! checkpoint-size and I/O-time accounting.  The scaling is purely about
//! bytes and seconds; no numerical short-cuts are taken.

use lcr_solvers::{
    BlockJacobiPreconditioner, ConjugateGradient, Gmres, IterativeMethod, JacobiPreconditioner,
    Jacobi, LinearSystem, Preconditioner, SolverKind, StoppingCriteria,
};
use lcr_sparse::kkt::{kkt_system, KktConfig};
use lcr_sparse::poisson::{manufactured_rhs, poisson3d, table3_grid_edge};
use lcr_sparse::Vector;
use std::sync::Arc;

/// Which of the paper's workloads to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lcr-analyze: allow(dead-public-item): type of the public field `PaperWorkload::kind`; callers build workloads through `poisson`/`kkt`
pub enum WorkloadKind {
    /// The 3-D Poisson weak-scaling workload (Table 3, Figures 4–10).
    Poisson3d,
    /// The synthetic KKT workload standing in for KKT240 (Figure 3).
    Kkt,
}

/// The paper's GMRES restart length, the `m` of GMRES(m) (§4.4.2; PETSc's
/// default), on both fronts.
pub(crate) const GMRES_RESTART: usize = 30;

/// The paper's relative convergence tolerances (§5.1).
pub fn paper_rtol(kind: SolverKind) -> f64 {
    match kind {
        SolverKind::Jacobi => 1e-4,
        SolverKind::Gmres => 7e-5,
        SolverKind::Cg => 1e-7,
    }
}

/// A problem instance: the local system that is actually solved plus the
/// paper-scale dimensions used for checkpoint-size accounting.
#[derive(Debug, Clone)]
pub struct ScaledProblem {
    /// The local linear system solved on this node.
    pub system: LinearSystem,
    /// Exact solution of the local system (for validation).
    pub exact_solution: Vector,
    /// Number of simulated processes (the paper's 256–2,048).
    pub processes: usize,
    /// Global number of unknowns at paper scale (e.g. 2160³).
    pub paper_global_unknowns: usize,
    /// Local grid edge used for the solved system.
    pub local_grid_edge: usize,
}

impl ScaledProblem {
    /// Bytes of one paper-scale dynamic vector (8 bytes per unknown).
    pub fn paper_vector_bytes(&self) -> usize {
        self.paper_global_unknowns * std::mem::size_of::<f64>()
    }

    /// Per-process share of one paper-scale dynamic vector in bytes
    /// (Table 3's "checkpoint size per proc" unit for one vector).
    pub fn paper_vector_bytes_per_process(&self) -> f64 {
        self.paper_vector_bytes() as f64 / self.processes as f64
    }

    /// Scale factor between the paper-scale vector and the locally solved
    /// vector; multiply local byte counts by this to extrapolate to paper
    /// scale.
    pub fn byte_scale_factor(&self) -> f64 {
        self.paper_vector_bytes() as f64
            / (self.system.dim() * std::mem::size_of::<f64>()) as f64
    }
}

/// Builder for the paper's workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperWorkload {
    /// Which workload family.
    pub kind: WorkloadKind,
    /// Simulated process count (one of the paper's scales for Poisson).
    pub processes: usize,
    /// Edge length of the *local* grid actually solved.  The default of 20
    /// (8,000 unknowns for Poisson) keeps a full sweep of experiments in
    /// seconds; larger values sharpen the compression-ratio estimates.
    pub local_grid_edge: usize,
}

impl PaperWorkload {
    /// The Poisson workload at one of the paper's process counts.
    pub fn poisson(processes: usize, local_grid_edge: usize) -> Self {
        PaperWorkload {
            kind: WorkloadKind::Poisson3d,
            processes,
            local_grid_edge,
        }
    }

    /// The KKT workload (Figure 3) at a given process count.
    pub fn kkt(processes: usize, local_grid_edge: usize) -> Self {
        PaperWorkload {
            kind: WorkloadKind::Kkt,
            processes,
            local_grid_edge,
        }
    }

    /// Builds the scaled problem.
    ///
    /// # Panics
    /// Panics if `processes` or `local_grid_edge` is zero.
    pub fn build(&self) -> ScaledProblem {
        assert!(self.processes > 0, "need at least one process");
        assert!(self.local_grid_edge > 1, "local grid must be at least 2");
        match self.kind {
            WorkloadKind::Poisson3d => {
                let a = poisson3d(self.local_grid_edge);
                let (xstar, b) = manufactured_rhs(&a);
                // Paper-scale grid edge: the Table 3 entry if the process
                // count matches, otherwise weak-scale 1088³·(p/256).
                let paper_edge = table3_grid_edge(self.processes).unwrap_or_else(|| {
                    let base = 1088.0f64.powi(3) * self.processes as f64 / 256.0;
                    base.cbrt().round() as usize
                });
                let system = LinearSystem::new(a, b);
                // Finalize: the SpMV plan is part of the problem, built
                // once here rather than inside the first timed iteration.
                system.a.plan();
                ScaledProblem {
                    system,
                    exact_solution: xstar,
                    processes: self.processes,
                    paper_global_unknowns: paper_edge * paper_edge * paper_edge,
                    local_grid_edge: self.local_grid_edge,
                }
            }
            WorkloadKind::Kkt => {
                let cfg = KktConfig {
                    grid_n: self.local_grid_edge,
                    ..KktConfig::default()
                };
                let (k, xstar, b) = kkt_system(&cfg);
                // KKT240 has ≈27.9 million equations.
                let paper_unknowns = 27_993_600;
                let system = LinearSystem::new(k, b);
                system.a.plan();
                ScaledProblem {
                    system,
                    exact_solution: xstar,
                    processes: self.processes,
                    paper_global_unknowns: paper_unknowns,
                    local_grid_edge: self.local_grid_edge,
                }
            }
        }
    }

    /// Builds the solver the paper uses for this workload and solver kind,
    /// with the paper's tolerance, preconditioner and restart settings.
    ///
    /// # Panics
    /// Panics for solver kinds the paper does not pair with this workload
    /// (e.g. CG on the indefinite KKT system).
    pub fn build_solver(
        &self,
        problem: &ScaledProblem,
        kind: SolverKind,
        max_iterations: usize,
    ) -> Box<dyn IterativeMethod> {
        let criteria = StoppingCriteria::new(paper_rtol(kind), max_iterations);
        let (a, n) = (&problem.system.a, problem.system.dim());
        let x0 = Vector::zeros(n);
        let precond = || -> Arc<dyn Preconditioner> {
            match self.kind {
                WorkloadKind::Poisson3d => Arc::new(
                    BlockJacobiPreconditioner::new(a, 16.min(n)).expect("block Jacobi on Poisson"),
                ),
                WorkloadKind::Kkt => {
                    Arc::new(JacobiPreconditioner::new(a).expect("Jacobi preconditioner on KKT"))
                }
            }
        };
        let system = problem.system.clone();
        match (self.kind, kind) {
            (WorkloadKind::Poisson3d, SolverKind::Jacobi) => {
                Box::new(Jacobi::new(system, x0, criteria))
            }
            // CG runs on the paper's negative-definite matrix as is: IEEE
            // rounding is sign-symmetric, so x, p, α, β and every residual
            // norm are bit for bit those of the SPD system −A x = −b, and
            // only r, q and ρ carry the opposite sign.
            (WorkloadKind::Poisson3d, SolverKind::Cg) => {
                Box::new(ConjugateGradient::new(system, precond(), x0, criteria))
            }
            (_, SolverKind::Gmres) => {
                Box::new(Gmres::new(system, precond(), x0, GMRES_RESTART, criteria))
            }
            (workload, solver) => panic!(
                "the paper does not evaluate {solver:?} on the {workload:?} workload"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tolerances() {
        assert_eq!(paper_rtol(SolverKind::Jacobi), 1e-4);
        assert_eq!(paper_rtol(SolverKind::Gmres), 7e-5);
        assert_eq!(paper_rtol(SolverKind::Cg), 1e-7);
    }

    #[test]
    fn poisson_workload_dimensions() {
        let w = PaperWorkload::poisson(2048, 8);
        let p = w.build();
        assert_eq!(p.system.dim(), 512);
        assert_eq!(p.paper_global_unknowns, 2160 * 2160 * 2160);
        // Table 3: one vector is ≈39.4 MB per process at 2,048 processes.
        let mb = p.paper_vector_bytes_per_process() / 1e6;
        assert!((mb - 39.4).abs() < 1.0, "per-process vector {mb:.1} MB");
        assert!(p.byte_scale_factor() > 1e6);
    }

    #[test]
    fn poisson_256_matches_table3_first_row() {
        let p = PaperWorkload::poisson(256, 8).build();
        assert_eq!(p.paper_global_unknowns, 1088 * 1088 * 1088);
        let mb = p.paper_vector_bytes_per_process() / 1e6;
        assert!((mb - 38.4).abs() < 2.0, "per-process vector {mb:.1} MB");
    }

    #[test]
    fn unknown_process_count_weak_scales() {
        let p = PaperWorkload::poisson(4096, 6).build();
        // Roughly double the unknowns of the 2,048-process case.
        let ratio = p.paper_global_unknowns as f64 / (2160.0f64.powi(3));
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio:.2}");
    }

    #[test]
    fn kkt_workload_builds_indefinite_system() {
        let w = PaperWorkload::kkt(4096, 5);
        let p = w.build();
        assert!(p.system.a.is_symmetric(1e-12));
        assert_eq!(p.paper_global_unknowns, 27_993_600);
        let r = p.system.a.residual(&p.exact_solution, &p.system.b);
        assert!(r.norm2() < 1e-8 * p.system.b.norm2().max(1.0));
    }

    #[test]
    fn solver_factory_builds_converging_solvers() {
        let w = PaperWorkload::poisson(256, 6);
        let p = w.build();
        for kind in [SolverKind::Jacobi, SolverKind::Cg, SolverKind::Gmres] {
            let mut solver = w.build_solver(&p, kind, 200_000);
            solver.run_to_convergence();
            assert!(solver.converged(), "{kind:?} did not converge");
            assert!(!solver.history().limit_reached, "{kind:?} hit the limit");
        }
    }

    #[test]
    fn traditional_checkpoint_vectors_are_what_capture_state_saves() {
        let w = PaperWorkload::poisson(256, 4);
        let p = w.build();
        for kind in [SolverKind::Jacobi, SolverKind::Cg, SolverKind::Gmres] {
            let solver = w.build_solver(&p, kind, 10);
            assert_eq!(
                solver.capture_state().vectors.len(),
                kind.traditional_checkpoint_vectors(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn kkt_gmres_solver_converges() {
        let w = PaperWorkload::kkt(4096, 4);
        let p = w.build();
        let mut solver = w.build_solver(&p, SolverKind::Gmres, 100_000);
        solver.run_to_convergence();
        assert!(solver.converged());
        let rel_residual = p.system.a.residual(solver.solution(), &p.system.b).norm2()
            / p.system.b.norm2();
        assert!(rel_residual < 1e-2, "relative residual {rel_residual}");
    }

    #[test]
    #[should_panic(expected = "does not evaluate")]
    fn unsupported_pairing_panics() {
        let w = PaperWorkload::kkt(256, 4);
        let p = w.build();
        let _ = w.build_solver(&p, SolverKind::Cg, 100);
    }
}
