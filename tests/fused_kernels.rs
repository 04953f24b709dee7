//! Property and golden tests of the fused solver kernels.
//!
//! Two contracts are pinned here:
//!
//! 1. **Equivalence** — every fused kernel matches its unfused composition
//!    (separate SpMV / dot / axpy / norm sweeps) within tight floating-point
//!    tolerance, and the elementwise ones match exactly;
//! 2. **Determinism** — every fused kernel is bit-identical whether it runs
//!    on 1 thread or the whole pool (chunk partitions depend only on data
//!    shape; partials combine in chunk order).
//!
//! Plus the golden solver-level check: CG on a fixed Poisson system
//! converges in exactly the same number of iterations as an unfused
//! reference implementation of the same recurrence.

use lossy_ckpt::solvers::{ConjugateGradient, IterativeMethod, LinearSystem, StoppingCriteria};
use lossy_ckpt::sparse::poisson::{manufactured_rhs, poisson2d, poisson3d};
use lossy_ckpt::sparse::{kernels, CsrMatrix, Vector, PAR_THRESHOLD};
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

fn random_vector(len: usize, seed: u64) -> Vector {
    let mut v = Vector::zeros(len);
    v.fill_random(seed, -1.0, 1.0);
    v
}

/// Tridiagonal matrix with `n` rows (≈ `3n` non-zeros: above the SpMV
/// parallel threshold for the lengths used below, non-uniform row widths).
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

fn assert_bits_eq(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn spmv_dot_matches_composition_and_is_thread_invariant(
        extra in 0usize..6_000,
        seed in 1u64..1_000,
    ) {
        ensure_pool();
        let n = PAR_THRESHOLD + 64 + extra;
        let a = banded(n);
        let x = random_vector(n, seed);
        let w = random_vector(n, seed + 7);

        let mut y1 = Vector::zeros(n);
        let d1 = with_threads(1, || kernels::spmv_dot(&a, &x, y1.as_mut_slice(), &w));
        let mut yn = Vector::zeros(n);
        let dn = with_threads(0, || kernels::spmv_dot(&a, &x, yn.as_mut_slice(), &w));
        prop_assert_eq!(d1.to_bits(), dn.to_bits());
        assert_bits_eq(&y1, &yn);

        // Unfused composition: separate SpMV and dot sweeps.
        let y_ref = a.mul_vec(&x);
        assert_bits_eq(&y1, &y_ref);
        let d_ref = w.dot(&y_ref);
        prop_assert!((d1 - d_ref).abs() <= 1e-10 * d_ref.abs().max(1.0));
    }

    #[test]
    fn residual_norm2_matches_composition_and_is_thread_invariant(
        extra in 0usize..6_000,
        seed in 1u64..1_000,
    ) {
        ensure_pool();
        let n = PAR_THRESHOLD + 64 + extra;
        let a = banded(n);
        let x = random_vector(n, seed);
        let b = random_vector(n, seed + 13);

        let mut r1 = Vector::zeros(n);
        let n1 = with_threads(1, || kernels::residual_norm2(&a, &x, &b, r1.as_mut_slice()));
        let mut rn = Vector::zeros(n);
        let nn = with_threads(0, || kernels::residual_norm2(&a, &x, &b, rn.as_mut_slice()));
        prop_assert_eq!(n1.to_bits(), nn.to_bits());
        assert_bits_eq(&r1, &rn);

        // Unfused composition: SpMV, subtraction sweep, norm sweep.
        let mut r_ref = a.mul_vec(&x);
        for (ri, bi) in r_ref.iter_mut().zip(b.iter()) {
            *ri = bi - *ri;
        }
        assert_bits_eq(&r1, &r_ref);
        let nrm_ref = r_ref.dot(&r_ref);
        prop_assert!((n1 - nrm_ref).abs() <= 1e-10 * nrm_ref.max(1.0));
    }

    #[test]
    fn fused_vector_kernels_match_compositions_and_are_thread_invariant(
        extra in 0usize..8_000,
        seed in 1u64..1_000,
        alpha in -2.0f64..2.0,
    ) {
        ensure_pool();
        let n = PAR_THRESHOLD + 17 + extra;
        let p = random_vector(n, seed);
        let q = random_vector(n, seed + 1);
        let x0 = random_vector(n, seed + 2);
        let r0 = random_vector(n, seed + 3);

        // axpy2_norm2 at 1 vs N threads.
        let (mut x1, mut r1) = (x0.clone(), r0.clone());
        let rr1 = with_threads(1, || {
            kernels::axpy2_norm2(alpha, &p, &q, x1.as_mut_slice(), r1.as_mut_slice())
        });
        let (mut xn, mut rn) = (x0.clone(), r0.clone());
        let rrn = with_threads(0, || {
            kernels::axpy2_norm2(alpha, &p, &q, xn.as_mut_slice(), rn.as_mut_slice())
        });
        prop_assert_eq!(rr1.to_bits(), rrn.to_bits());
        assert_bits_eq(&x1, &xn);
        assert_bits_eq(&r1, &rn);
        // Unfused composition: two axpys and a dot.
        let (mut x_ref, mut r_ref) = (x0.clone(), r0.clone());
        x_ref.axpy(alpha, &p);
        r_ref.axpy(-alpha, &q);
        assert_bits_eq(&x1, &x_ref);
        assert_bits_eq(&r1, &r_ref);
        prop_assert_eq!(rr1.to_bits(), r_ref.dot(&r_ref).to_bits());

        // axpy_norm2.
        let mut y1 = r0.clone();
        let t1 = with_threads(1, || kernels::axpy_norm2(alpha, &p, y1.as_mut_slice()));
        let mut y_n = r0.clone();
        let tn = with_threads(0, || kernels::axpy_norm2(alpha, &p, y_n.as_mut_slice()));
        prop_assert_eq!(t1.to_bits(), tn.to_bits());
        assert_bits_eq(&y1, &y_n);
        let mut y_ref = r0.clone();
        y_ref.axpy(alpha, &p);
        assert_bits_eq(&y1, &y_ref);
        prop_assert_eq!(t1.to_bits(), y_ref.dot(&y_ref).to_bits());
    }

    #[test]
    fn elementwise_fused_kernels_match_chains_exactly(
        extra in 0usize..8_000,
        seed in 1u64..1_000,
        beta in -1.5f64..1.5,
        omega in -1.0f64..1.0,
    ) {
        ensure_pool();
        let n = PAR_THRESHOLD + 9 + extra;
        let r = random_vector(n, seed);
        let p0 = random_vector(n, seed + 5);

        let mut z = p0.clone();
        with_threads(0, || kernels::axpby(beta, &r, omega, z.as_mut_slice()));
        for i in 0..n {
            prop_assert_eq!(z[i].to_bits(), (beta * r[i] + omega * p0[i]).to_bits());
        }
        let mut sc = Vector::zeros(n);
        with_threads(0, || kernels::scale_into(sc.as_mut_slice(), beta, &r));
        for i in 0..n {
            prop_assert_eq!(sc[i].to_bits(), (beta * r[i]).to_bits());
        }
    }

    #[test]
    fn jacobi_sweep_is_thread_invariant(
        extra in 0usize..4_000,
        seed in 1u64..1_000,
    ) {
        ensure_pool();
        let n = PAR_THRESHOLD + 25 + extra;
        let a = banded(n);
        let x = random_vector(n, seed);
        let b = random_vector(n, seed + 6);
        let mut out1 = Vector::zeros(n);
        with_threads(1, || kernels::jacobi_sweep(&a, &x, &b, out1.as_mut_slice()));
        let mut outn = Vector::zeros(n);
        with_threads(0, || kernels::jacobi_sweep(&a, &x, &b, outn.as_mut_slice()));
        assert_bits_eq(&out1, &outn);
    }
}

/// Unfused reference CG (the seed composition: separate SpMV, dot, axpy,
/// axpy, identity-preconditioner copy, dot, xpby, norm sweeps), used as the
/// "before fusion" side of the golden iteration-count test.
fn unfused_cg_iterations(system: &LinearSystem, rtol: f64, max_iters: usize) -> (usize, f64) {
    let n = system.dim();
    let reference_norm = system.b.norm2();
    let mut x = Vector::zeros(n);
    let mut r = system.a.residual(&x, &system.b);
    let mut residual_norm = r.norm2();
    let mut z = r.clone();
    let mut rho = r.dot(&z);
    let mut p = z.clone();
    let mut q = Vector::zeros(n);
    let mut iters = 0usize;
    while residual_norm > rtol * reference_norm && iters < max_iters {
        system.a.spmv(p.as_slice(), q.as_mut_slice());
        let pq = p.dot(&q);
        let alpha = rho / pq;
        x.axpy(alpha, &p);
        r.axpy(-alpha, &q);
        z.copy_from(&r);
        let rho_next = r.dot(&z);
        let beta = rho_next / rho;
        rho = rho_next;
        p.xpby(&z, beta);
        iters += 1;
        residual_norm = r.norm2();
    }
    (iters, residual_norm)
}

/// Golden test: CG on a fixed Poisson system must converge in exactly the
/// same number of iterations before and after kernel fusion.
#[test]
fn cg_iteration_count_is_unchanged_by_fusion() {
    ensure_pool();
    for (system, golden) in [
        // (negated 2-D Poisson 24², rtol 1e-10) — 86 iterations.
        (spd_poisson2d(24), 86usize),
        // (negated 3-D Poisson 12³, rtol 1e-10) — 55 iterations.
        (spd_poisson3d(12), 55usize),
    ] {
        let rtol = 1e-10;
        let n = system.dim();
        let mut fused = ConjugateGradient::unpreconditioned(
            system.clone(),
            Vector::zeros(n),
            StoppingCriteria::new(rtol, 100_000),
        );
        let fused_iters = fused.run_to_convergence();
        let (unfused_iters, unfused_norm) = unfused_cg_iterations(&system, rtol, 100_000);
        assert_eq!(
            fused_iters, unfused_iters,
            "fusion changed the CG iteration count on a fixed system"
        );
        assert_eq!(fused_iters, golden, "golden iteration count drifted");
        // Both converged to the same tolerance.
        assert!(fused.converged());
        assert!(unfused_norm <= rtol * system.b.norm2());
        // And the count is thread-invariant.
        let mut one_thread = ConjugateGradient::unpreconditioned(
            system.clone(),
            Vector::zeros(n),
            StoppingCriteria::new(rtol, 100_000),
        );
        let one_iters = with_threads(1, || one_thread.run_to_convergence());
        assert_eq!(one_iters, fused_iters);
        for (a, b) in fused
            .history()
            .residuals()
            .iter()
            .zip(one_thread.history().residuals())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

fn spd_poisson2d(n: usize) -> LinearSystem {
    let a = poisson2d(n).negated();
    let (_, b) = manufactured_rhs(&a);
    LinearSystem::new(a, b)
}

fn spd_poisson3d(n: usize) -> LinearSystem {
    let a = poisson3d(n).negated();
    let (_, b) = manufactured_rhs(&a);
    LinearSystem::new(a, b)
}
