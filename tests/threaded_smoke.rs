//! Threaded smoke test: the umbrella CG + SZ lossy-checkpoint pipeline (the
//! `tests/umbrella_smoke.rs` flow) run from several OS threads at once, on
//! problems large enough that every kernel takes its parallel path through
//! the worker pool.  Catches `Send`/`Sync` regressions anywhere in the
//! sparse → compress → solvers stack and pool misbehaviour under
//! concurrent top-level callers.

use lossy_ckpt::compress::{Codec, ErrorBound, SzCompressor};
use lossy_ckpt::solvers::{ConjugateGradient, IterativeMethod, LinearSystem, StoppingCriteria};
use lossy_ckpt::sparse::poisson::{manufactured_rhs, poisson3d};
use lossy_ckpt::sparse::{Vector, PAR_THRESHOLD};

#[test]
fn concurrent_cg_lossy_checkpoint_roundtrips_under_pool() {
    // A multi-thread pool even on single-core hosts (unless the CI matrix
    // pinned the size via LCR_NUM_THREADS).
    if std::env::var("LCR_NUM_THREADS").is_err() {
        rayon::initialize_pool(4);
    }

    let handles: Vec<_> = (0..4)
        .map(|tid: u64| {
            std::thread::spawn(move || {
                // 32³ = 32 768 unknowns — exactly the BLAS-1 parallel
                // threshold, so dot/axpy/spmv all go through the pool.
                let mut a = poisson3d(32);
                assert!(a.nrows() >= PAR_THRESHOLD);
                // The paper's generator is negative definite; CG needs SPD.
                a = a.negated();
                let (_xstar, b) = manufactured_rhs(&a);
                let system = LinearSystem::new(a, b);
                let n = system.dim();
                let criteria = StoppingCriteria::new(1e-8, 500);

                let mut solver = ConjugateGradient::unpreconditioned(
                    system.clone(),
                    Vector::zeros(n),
                    criteria,
                );
                for _ in 0..30 {
                    solver.step();
                }
                let mid_residual = solver.residual_norm();
                assert!(mid_residual.is_finite());

                // Lossy checkpoint of x, recover, restart (Algorithm 2).
                let eb = 1e-6;
                let sz = SzCompressor::new();
                let compressed = sz
                    .compress(solver.solution().as_slice(), ErrorBound::PointwiseRel(eb))
                    .expect("SZ compression failed");
                let restored = sz.decompress(&compressed).expect("SZ decompression failed");
                for (orig, rest) in solver.solution().iter().zip(restored.iter()) {
                    assert!(
                        (orig - rest).abs() <= eb * orig.abs() * (1.0 + 1e-9) + 1e-300,
                        "thread {tid}: SZ bound violated"
                    );
                }

                let mut recovered =
                    ConjugateGradient::unpreconditioned(system, Vector::zeros(n), criteria);
                recovered.restart_from_solution(Vector::from_vec(restored), solver.iteration());
                for _ in 0..30 {
                    recovered.step();
                }
                assert!(recovered.residual_norm().is_finite());
                assert!(
                    recovered.residual_norm() < mid_residual,
                    "thread {tid}: no progress after the lossy restart \
                     ({} vs {mid_residual})",
                    recovered.residual_norm()
                );
            })
        })
        .collect();

    for handle in handles {
        handle.join().expect("solver thread panicked");
    }
}
