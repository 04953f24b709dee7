//! Property tests of the execution layer's determinism guarantee: because
//! the rayon shim splits work into chunks that depend only on the data
//! length and combines partial results in chunk order, `dot`, `norm2`,
//! `spmv` and SZ compression/decompression are **bit-identical** whether
//! they run on 1 thread or on the whole pool — and so are whole
//! block-Jacobi-preconditioned CG and GMRES(30) solves, whose blocks are
//! factorised and swept on the pool, a few at a time per task, and the
//! fused inner loops of unpreconditioned CG and GMRES(30).

use lossy_ckpt::compress::{Codec, ErrorBound, SzCompressor};
use lossy_ckpt::core::{PaperWorkload, ScaledProblem};
use lossy_ckpt::solvers::{
    BlockJacobiPreconditioner, ConjugateGradient, Gmres, IterativeMethod, JacobiPreconditioner,
    LinearSystem, Preconditioner, SolverKind, StoppingCriteria,
};
use lossy_ckpt::sparse::poisson::{manufactured_rhs, poisson3d};
use lossy_ckpt::sparse::vector::{axpy, dot, norm2};
use lossy_ckpt::sparse::{CsrMatrix, Vector, PAR_THRESHOLD};
use proptest::prelude::*;

/// Gives this test binary a multi-thread pool even on single-core hosts,
/// unless the CI matrix pinned the size via `LCR_NUM_THREADS`.
fn ensure_pool() {
    if std::env::var("LCR_NUM_THREADS").is_err() {
        rayon::initialize_pool(4);
    }
}

/// Runs `f` with the calling thread's parallelism capped to `threads`
/// (0 = the whole pool).
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    rayon::set_max_active_threads(threads);
    let out = f();
    rayon::set_max_active_threads(0);
    out
}

/// A vector long enough that every BLAS-1 kernel takes its parallel path.
fn random_vector(len: usize, seed: u64) -> Vector {
    let mut v = Vector::zeros(len);
    v.fill_random(seed, -10.0, 10.0);
    v
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Tridiagonal test matrix with `n` rows (≈ `3n` non-zeros, above the SpMV
/// parallel threshold for the lengths used below).
fn banded(n: usize) -> CsrMatrix {
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    indptr.push(0usize);
    for i in 0..n {
        if i > 0 {
            indices.push((i - 1) as u32);
            values.push(1.0);
        }
        indices.push(i as u32);
        values.push(-2.0);
        if i + 1 < n {
            indices.push((i + 1) as u32);
            values.push(1.0);
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_unchecked(n, n, indptr, indices, values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn dot_and_norm2_bit_identical_at_1_vs_n_threads(
        extra in 0usize..8_000,
        seed in 1u64..1_000,
    ) {
        ensure_pool();
        let len = PAR_THRESHOLD + 17 + extra;
        let a = random_vector(len, seed);
        let b = random_vector(len, seed.wrapping_mul(31).wrapping_add(7));

        let dot_1 = with_threads(1, || dot(a.as_slice(), b.as_slice()));
        let dot_n = with_threads(0, || dot(a.as_slice(), b.as_slice()));
        prop_assert_eq!(dot_1.to_bits(), dot_n.to_bits());

        let norm_1 = with_threads(1, || norm2(a.as_slice()));
        let norm_n = with_threads(0, || norm2(a.as_slice()));
        prop_assert_eq!(norm_1.to_bits(), norm_n.to_bits());
    }

    #[test]
    fn spmv_bit_identical_at_1_vs_n_threads(
        extra in 0usize..6_000,
        seed in 1u64..1_000,
    ) {
        ensure_pool();
        let n = PAR_THRESHOLD + 100 + extra;
        let a = banded(n);
        prop_assert!(a.nnz() >= PAR_THRESHOLD);
        let x = random_vector(n, seed);

        let y_1 = with_threads(1, || a.mul_vec(&x));
        let y_n = with_threads(0, || a.mul_vec(&x));
        for (v1, vn) in y_1.iter().zip(y_n.iter()) {
            prop_assert_eq!(v1.to_bits(), vn.to_bits());
        }
    }

    #[test]
    fn sz_compress_decompress_bit_identical_at_1_vs_n_threads(
        len in 130_000usize..200_000,
        seed in 1u64..1_000,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        ensure_pool();
        // Smooth signal with a rough tail so both the predictable and the
        // unpredictable encoding paths are exercised across blocks.
        let mut data: Vec<f64> = (0..len)
            .map(|i| {
                let t = i as f64 / len as f64;
                (20.0 * t + phase).sin() + 0.1 * (301.0 * t).cos()
            })
            .collect();
        let noise = random_vector(4_096, seed);
        for (d, n) in data.iter_mut().zip(noise.iter()) {
            *d += n * 1e-3;
        }

        let sz = SzCompressor::new();
        let bound = ErrorBound::Abs(1e-6);
        let c_1 = with_threads(1, || sz.compress(&data, bound).unwrap());
        let c_n = with_threads(0, || sz.compress(&data, bound).unwrap());
        prop_assert_eq!(&c_1.bytes, &c_n.bytes, "compressed streams differ across thread counts");

        let d_1 = with_threads(1, || sz.decompress(&c_1).unwrap());
        let d_n = with_threads(0, || sz.decompress(&c_1).unwrap());
        prop_assert_eq!(d_1.len(), data.len());
        for (v1, vn) in d_1.iter().zip(d_n.iter()) {
            prop_assert_eq!(v1.to_bits(), vn.to_bits());
        }
        // And the error bound still holds on the parallel-decoded output.
        for (orig, rest) in data.iter().zip(d_n.iter()) {
            prop_assert!((orig - rest).abs() <= 1e-6 * (1.0 + 1e-12));
        }
    }
}

/// Builds (factorisation included) and runs the paper's preconditioned
/// solver under the given thread cap; returns the residual trace and the
/// solution as bits.
fn preconditioned_solve_bits(
    workload: &PaperWorkload,
    problem: &ScaledProblem,
    kind: SolverKind,
    threads: usize,
) -> (Vec<u64>, Vec<u64>) {
    with_threads(threads, || {
        let mut solver = workload.build_solver(problem, kind, 10_000);
        solver.run_to_convergence();
        assert!(solver.converged(), "{kind:?} did not converge");
        (
            bits(solver.history().residuals()),
            bits(solver.solution().as_slice()),
        )
    })
}

#[test]
fn preconditioned_cg_and_gmres_traces_bit_identical_at_1_vs_n_threads() {
    ensure_pool();
    // 33³ = 35 937 unknowns: above `PAR_THRESHOLD`, so the 16 blocks go to
    // the pool, and not a multiple of 16, so the blocks are uneven.
    let workload = PaperWorkload::poisson(256, 33);
    let problem = workload.build();
    assert!(problem.system.dim() >= PAR_THRESHOLD);
    for kind in [SolverKind::Cg, SolverKind::Gmres] {
        let one = preconditioned_solve_bits(&workload, &problem, kind, 1);
        for threads in [2, 0] {
            let many = preconditioned_solve_bits(&workload, &problem, kind, threads);
            assert!(
                one.0 == many.0,
                "{kind:?}: residual trace differs at {threads} threads"
            );
            assert!(
                one.1 == many.1,
                "{kind:?}: solution differs at {threads} threads"
            );
        }
    }
}

#[test]
fn unpreconditioned_cg_and_gmres_traces_bit_identical_at_1_2_n_threads() {
    ensure_pool();
    // The paper-sign Poisson system for GMRES; CG needs the
    // equivalent SPD one.  33³ unknowns: every fused kernel goes to the pool.
    let a = poisson3d(33);
    assert!(a.nrows() >= PAR_THRESHOLD);
    let (_, b) = manufactured_rhs(&a);
    let mut minus_b = b.clone();
    minus_b.scale(-1.0);
    let (plain, spd) = (LinearSystem::new(a.clone(), b), LinearSystem::new(a.negated(), minus_b));
    let x0 = || Vector::zeros(a.nrows());
    // 40 steps under criteria that never trigger: GMRES(30) restarts once.
    let open = StoppingCriteria::new(0.0, usize::MAX);
    type Make<'a> = &'a dyn Fn() -> Box<dyn IterativeMethod>;
    let solvers: [(&str, Make); 2] = [
        ("cg", &|| Box::new(ConjugateGradient::unpreconditioned(spd.clone(), x0(), open))),
        ("gmres(30)", &|| Box::new(Gmres::unpreconditioned(plain.clone(), x0(), 30, open))),
    ];
    for (name, make) in solvers {
        let trace = |threads: usize| {
            with_threads(threads, || {
                let mut solver = make();
                (0..40).for_each(|_| solver.step());
                bits(solver.history().residuals())
            })
        };
        let one = trace(1);
        assert!(one.len() >= 40, "{name}: {} residuals", one.len());
        for threads in [2, 0] {
            assert!(trace(threads) == one, "{name}: trace differs at {threads} threads");
        }
    }
}

#[test]
fn block_jacobi_apply_bit_identical_at_every_thread_cap() {
    ensure_pool();
    // The benchmark's shape: 48³ rows in 16 blocks.  How many blocks one
    // pool task sweeps together may follow the thread cap; the bits may not.
    let a = poisson3d(48);
    let pre = BlockJacobiPreconditioner::new(&a, 16).expect("ILU(0) of Poisson");
    let r = random_vector(a.nrows(), 48);
    let apply_bits = |threads: usize| -> Vec<u64> {
        let mut z = Vector::filled(a.nrows(), f64::NAN);
        with_threads(threads, || pre.apply_into(&r, &mut z));
        z.iter().map(|v| v.to_bits()).collect()
    };
    let one = apply_bits(1);
    for threads in 2..=rayon::pool_threads() {
        assert!(
            apply_bits(threads) == one,
            "apply_into differs at a cap of {threads} threads"
        );
    }
}

/// Above `PAR_THRESHOLD`, and a multiple neither of the eight SIMD lanes
/// nor of the pool's 1,024-element minimum chunk: chunks are ragged.
const RAGGED_LEN: usize = PAR_THRESHOLD + 1_037;

#[test]
fn elementwise_vector_kernels_match_a_sequential_loop_at_every_thread_cap() {
    ensure_pool();
    let x = random_vector(RAGGED_LEN, 11);
    let y0 = random_vector(RAGGED_LEN, 12);
    let (alpha, beta) = (0.37, -1.9);
    let looped = |f: &dyn Fn(f64, f64) -> f64| -> Vec<u64> {
        y0.iter().zip(x.iter()).map(|(&y, &x)| f(y, x).to_bits()).collect()
    };
    let scaled = looped(&|y, _| y * alpha);
    let axpyed = looped(&|y, x| y + alpha * x);
    let xpbyed = looped(&|y, x| x + beta * y);
    for threads in 1..=rayon::pool_threads() {
        with_threads(threads, || {
            let mut y = y0.clone();
            y.scale(alpha);
            assert!(bits(&y) == scaled, "scale differs at {threads} threads");
            let mut y = y0.clone();
            y.axpy(alpha, &x);
            assert!(bits(&y) == axpyed, "Vector::axpy differs at {threads} threads");
            let mut y = y0.clone();
            axpy(alpha, x.as_slice(), y.as_mut_slice());
            assert!(bits(&y) == axpyed, "axpy differs at {threads} threads");
            let mut y = y0.clone();
            y.xpby(&x, beta);
            assert!(bits(&y) == xpbyed, "xpby differs at {threads} threads");
        });
    }
}

#[test]
fn vector_reductions_match_a_sequential_fold_at_every_thread_cap() {
    ensure_pool();
    let a = random_vector(RAGGED_LEN, 21);
    let b = random_vector(RAGGED_LEN, 22);
    let norm_inf = a.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let max_abs_diff = a
        .iter()
        .zip(b.iter())
        .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()));
    let (min, max) = a
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(mn, mx), &v| {
            (mn.min(v), mx.max(v))
        });
    for threads in 1..=rayon::pool_threads() {
        with_threads(threads, || {
            assert_eq!(a.norm_inf().to_bits(), norm_inf.to_bits(), "{threads} threads");
            assert_eq!(
                a.max_abs_diff(&b).to_bits(),
                max_abs_diff.to_bits(),
                "{threads} threads"
            );
            assert_eq!(
                a.value_range().to_bits(),
                (max - min).to_bits(),
                "{threads} threads"
            );
        });
    }
}

#[test]
fn jacobi_apply_matches_a_sequential_loop_at_every_thread_cap() {
    ensure_pool();
    let n = RAGGED_LEN;
    let diag: Vec<f64> = (0..n).map(|i| 2.0 + (i % 13) as f64 * 0.375).collect();
    let a = CsrMatrix::from_raw_unchecked(
        n,
        n,
        (0..=n).collect(),
        (0..n as u32).collect(),
        diag.clone(),
    );
    let pre = JacobiPreconditioner::new(&a).expect("non-zero diagonal");
    let r = random_vector(n, 31);
    let expect: Vec<u64> = r
        .iter()
        .zip(&diag)
        .map(|(ri, d)| (ri * (1.0 / d)).to_bits())
        .collect();
    for threads in 1..=rayon::pool_threads() {
        let mut z = Vector::filled(n, f64::NAN);
        with_threads(threads, || pre.apply_into(&r, &mut z));
        assert!(bits(&z) == expect, "apply_into differs at {threads} threads");
    }
}

#[test]
fn block_jacobi_factors_bit_identical_at_every_thread_cap() {
    ensure_pool();
    // 33³ rows in 16 uneven blocks, factorised on the pool.
    let a = poisson3d(33);
    assert!(a.nrows() >= PAR_THRESHOLD);
    let factors = |threads: usize| -> Vec<(usize, usize, u64)> {
        let pre = with_threads(threads, || BlockJacobiPreconditioner::new(&a, 16));
        let pre = pre.expect("ILU(0) of Poisson");
        pre.factor_entries().map(|(i, j, v)| (i, j, v.to_bits())).collect()
    };
    let one = factors(1);
    for threads in 2..=rayon::pool_threads() {
        assert!(factors(threads) == one, "factors differ at {threads} threads");
    }
}
