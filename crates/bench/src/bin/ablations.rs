//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! 1. **Compressor choice** (SZ vs ZFP vs lossless) on a solver's solution
//!    vector — the paper's §5.1 justification for choosing SZ on 1-D data.
//! 2. **Restarted vs non-restarted CG under a lossy recovery** — §4.2's
//!    argument for restarting the Krylov space from the decompressed `x`.
//! 3. **Checkpointing `x` only vs `x` and `p` for CG** — the storage/time
//!    saving of the lossy scheme's variable selection.
//! 4. **Theorem-3 adaptive bound vs a fixed bound for GMRES** — the
//!    convergence-delay difference after a lossy recovery.

use lcr_bench::{fmt, print_json, print_table, BenchScale};
use lcr_compress::{
    Codec, CompressionStats, ErrorBound, LosslessPipeline, SzCompressor, ZfpCompressor,
};
use lcr_core::strategy::{CheckpointStrategy, ErrorBoundPolicy, LossyCodecKind};
use lcr_core::workload::PaperWorkload;
use lcr_solvers::{ConjugateGradient, IterativeMethod, LinearSystem, StoppingCriteria};
use lcr_sparse::Vector;

struct CompressorRow {
    codec: String,
    ratio: f64,
    max_abs_error: f64,
    compress_mb_per_s: f64,
    decompress_mb_per_s: f64,
}

lcr_bench::json_object!(CompressorRow {
    codec, ratio, max_abs_error, compress_mb_per_s, decompress_mb_per_s,
});

struct AblationSummary {
    compressors: Vec<CompressorRow>,
    restarted_cg_extra_iters: f64,
    nonrestarted_cg_extra_iters: f64,
    cg_x_only_bytes: usize,
    cg_x_and_p_bytes: usize,
    gmres_adaptive_extra_iters: f64,
    gmres_loose_fixed_extra_iters: f64,
}

lcr_bench::json_object!(AblationSummary {
    compressors, restarted_cg_extra_iters, nonrestarted_cg_extra_iters, cg_x_only_bytes,
    cg_x_and_p_bytes, gmres_adaptive_extra_iters, gmres_loose_fixed_extra_iters,
});

fn compressor_ablation(x: &[f64]) -> Vec<CompressorRow> {
    let mb = (x.len() * 8) as f64 / 1e6;
    let codecs: [&dyn Codec; 3] = [&SzCompressor, &ZfpCompressor, &LosslessPipeline];
    codecs
        .into_iter()
        .map(|codec| {
            // The lossless pipeline ignores the bound.
            let (stats, _) = CompressionStats::measure(codec, x, ErrorBound::PointwiseRel(1e-4))
                .expect("compression");
            CompressorRow {
                codec: codec.name().to_string(),
                ratio: stats.ratio,
                max_abs_error: stats.max_abs_error,
                compress_mb_per_s: mb / stats.compress_seconds.max(1e-9),
                decompress_mb_per_s: mb / stats.decompress_seconds.max(1e-9),
            }
        })
        .collect()
}

/// Extra iterations of CG after one mid-run lossy recovery, either with the
/// restart-style recovery (paper's scheme) or by keeping the stale Krylov
/// direction `p` (non-restarted).
fn cg_recovery_ablation(system: &LinearSystem, restart: bool) -> f64 {
    let n = system.dim();
    let criteria = StoppingCriteria::new(1e-7, 200_000);
    let mut clean = ConjugateGradient::unpreconditioned(system.clone(), Vector::zeros(n), criteria);
    clean.run_to_convergence();
    let clean_iters = clean.iteration();

    let mut solver =
        ConjugateGradient::unpreconditioned(system.clone(), Vector::zeros(n), criteria);
    for _ in 0..clean_iters / 2 {
        solver.step();
    }
    // Lossy-compress x with the paper's bound.
    let sz = SzCompressor::new();
    let compressed = sz
        .compress(solver.solution().as_slice(), ErrorBound::PointwiseRel(1e-4))
        .expect("compress");
    let x = Vector::from_vec(sz.decompress(&compressed).expect("decompress"));
    if restart {
        solver.restart_from_solution(x, clean_iters / 2);
    } else {
        // Keep the stale p and rho: restore a state whose x is perturbed
        // but whose Krylov direction predates the perturbation.
        let mut state = solver.capture_state();
        for (name, vec) in state.vectors.iter_mut() {
            if name == "x" {
                *vec = x.clone();
            }
        }
        solver.restore_state(&state);
    }
    solver.run_to_convergence();
    (solver.iteration() as f64 - clean_iters as f64).max(0.0)
}

/// Extra GMRES iterations after a lossy recovery under the Theorem-3
/// adaptive bound versus a loose fixed bound.
fn gmres_bound_ablation(workload: &PaperWorkload, adaptive: bool, max_iterations: usize) -> f64 {
    let problem = workload.build();
    let mut clean = workload.build_solver(&problem, lcr_solvers::SolverKind::Gmres, max_iterations);
    clean.run_to_convergence();
    let clean_iters = clean.iteration();

    let mut solver = workload.build_solver(&problem, lcr_solvers::SolverKind::Gmres, max_iterations);
    for _ in 0..clean_iters / 2 {
        solver.step();
    }
    let strategy = CheckpointStrategy::Lossy {
        codec: LossyCodecKind::Sz,
        policy: if adaptive {
            ErrorBoundPolicy::adaptive_gmres()
        } else {
            ErrorBoundPolicy::Fixed(ErrorBound::PointwiseRel(1e-2))
        },
    };
    let enc = strategy.encode(solver.as_ref()).expect("encode");
    strategy
        .recover(solver.as_mut(), &enc.payloads, enc.iteration, &enc.scalars)
        .expect("recover");
    solver.run_to_convergence();
    (solver.iteration() as f64 - clean_iters as f64).max(0.0)
}

fn main() {
    let scale = BenchScale::from_env_and_args();
    let workload = PaperWorkload::poisson(2048, scale.local_grid_edge);
    let problem = workload.build();

    // 1. Compressor ablation on a converged Jacobi solution vector.
    let mut jacobi = workload.build_solver(&problem, lcr_solvers::SolverKind::Jacobi, scale.max_iterations);
    jacobi.run_to_convergence();
    let compressors = compressor_ablation(jacobi.solution().as_slice());
    let table: Vec<Vec<String>> = compressors
        .iter()
        .map(|r| {
            vec![
                r.codec.clone(),
                fmt(r.ratio, 2),
                format!("{:.2e}", r.max_abs_error),
                fmt(r.compress_mb_per_s, 0),
                fmt(r.decompress_mb_per_s, 0),
            ]
        })
        .collect();
    print_table(
        "Ablation 1 — compressor choice on the solution vector (rel. bound 1e-4)",
        &["codec", "ratio", "max abs err", "comp MB/s", "decomp MB/s"],
        &table,
    );

    // 2. Restarted vs non-restarted CG recovery.
    let spd_system = {
        let mut a = (*problem.system.a).clone();
        for v in a.values_mut() {
            *v = -*v;
        }
        let mut b = (*problem.system.b).clone();
        b.scale(-1.0);
        LinearSystem::new(a, b)
    };
    let restarted = cg_recovery_ablation(&spd_system, true);
    let nonrestarted = cg_recovery_ablation(&spd_system, false);
    print_table(
        "Ablation 2 — CG recovery style after one lossy recovery",
        &["recovery", "extra iterations"],
        &[
            vec!["restart Krylov space (paper)".into(), fmt(restarted, 1)],
            vec!["keep stale p/rho".into(), fmt(nonrestarted, 1)],
        ],
    );

    // 3. Checkpoint payload: x only vs x and p.
    let mut cg = ConjugateGradient::unpreconditioned(
        spd_system.clone(),
        Vector::zeros(spd_system.dim()),
        StoppingCriteria::new(1e-7, 200_000),
    );
    for _ in 0..10 {
        cg.step();
    }
    let x_only = CheckpointStrategy::lossy_default()
        .encode(&cg)
        .expect("encode x")
        .encoded_bytes();
    let x_and_p = CheckpointStrategy::Traditional
        .encode(&cg)
        .expect("encode x+p")
        .encoded_bytes();
    print_table(
        "Ablation 3 — CG checkpoint payload",
        &["payload", "bytes"],
        &[
            vec!["lossy, x only".into(), x_only.to_string()],
            vec!["traditional, x and p".into(), x_and_p.to_string()],
        ],
    );

    // 4. GMRES error-bound policy.
    let adaptive = gmres_bound_ablation(&workload, true, scale.max_iterations);
    let loose = gmres_bound_ablation(&workload, false, scale.max_iterations);
    print_table(
        "Ablation 4 — GMRES lossy-recovery error bound",
        &["policy", "extra iterations"],
        &[
            vec!["Theorem 3 adaptive ‖r‖/‖b‖".into(), fmt(adaptive, 1)],
            vec!["fixed 1e-2 relative".into(), fmt(loose, 1)],
        ],
    );

    let summary = AblationSummary {
        compressors,
        restarted_cg_extra_iters: restarted,
        nonrestarted_cg_extra_iters: nonrestarted,
        cg_x_only_bytes: x_only,
        cg_x_and_p_bytes: x_and_p,
        gmres_adaptive_extra_iters: adaptive,
        gmres_loose_fixed_extra_iters: loose,
    };
    print_json("ablations", &summary);
}
