//! Umbrella-crate smoke test: one CG solve with an SZ-compressed
//! checkpoint and a lossy restart, driven exclusively through the
//! `lossy_ckpt::{sparse, solvers, compress, ckpt}` re-export paths — the
//! exact pipeline of the paper's Algorithm 2, at the smallest useful size.

use lossy_ckpt::ckpt::{
    CheckpointBuffer, CheckpointLevel, ClusterConfig, FtiContext, PfsModel, SimClock,
};
use lossy_ckpt::compress::{Codec, Compressed, ErrorBound, SzCompressor};
use lossy_ckpt::solvers::{ConjugateGradient, IterativeMethod, LinearSystem, StoppingCriteria};
use lossy_ckpt::sparse::poisson::{manufactured_rhs, poisson3d};
use lossy_ckpt::sparse::Vector;

#[test]
fn cg_solve_sz_checkpoint_lossy_restart_roundtrip() {
    // -- build a small SPD Poisson system with a known exact solution -----
    let a = poisson3d(8);
    let n = a.nrows();
    let (xstar, b) = manufactured_rhs(&a);
    let system = LinearSystem::new(a, b);

    // -- run CG halfway to convergence ------------------------------------
    let criteria = StoppingCriteria::new(1e-10, 10_000);
    let mut solver =
        ConjugateGradient::unpreconditioned(system.clone(), Vector::zeros(n), criteria);
    let mut baseline =
        ConjugateGradient::unpreconditioned(system.clone(), Vector::zeros(n), criteria);
    baseline.run_to_convergence();
    let baseline_iters = baseline.iteration();
    assert!(baseline_iters > 4, "system too easy to exercise a restart");
    for _ in 0..baseline_iters / 2 {
        solver.step();
    }
    let ckpt_iteration = solver.iteration();

    // -- SZ-compress the solution vector (the lossy scheme's only dynamic
    //    variable) and snapshot it through the FTI-like context ------------
    let eb = 1e-5;
    let sz = SzCompressor::new();
    let compressed = sz
        .compress(solver.solution().as_slice(), ErrorBound::PointwiseRel(eb))
        .expect("SZ compression of the CG solution failed");
    assert!(
        compressed.ratio() > 1.0,
        "SZ should compress smooth solver state (ratio {})",
        compressed.ratio()
    );

    let mut clock = SimClock::new();
    let mut fti = FtiContext::new(
        ClusterConfig::bebop_like(64, 1.0),
        PfsModel::bebop_like(),
        CheckpointLevel::Pfs,
    );
    fti.protect("x", n * std::mem::size_of::<f64>());
    let mut buffer = CheckpointBuffer::new();
    buffer.push_with("x", |out| out.extend_from_slice(&compressed.bytes));
    let write_seconds = fti.planned_write_seconds(buffer.total_bytes());
    clock.advance(write_seconds);
    let metadata = fti
        .commit_snapshot_from_buffer(
            clock.now(),
            ckpt_iteration,
            "lossy",
            &[],
            None,
            &mut buffer,
            write_seconds,
        )
        .expect("the in-memory tier takes the snapshot");
    assert_eq!(metadata.iteration, ckpt_iteration);
    assert!(write_seconds > 0.0, "PFS write must consume simulated time");
    assert!(clock.now() >= write_seconds);

    // -- simulated failure: recover the payload, decompress, restart ------
    let recovered = fti
        .recover(&mut clock, n * std::mem::size_of::<f64>())
        .expect("recovery from the latest checkpoint failed");
    assert_eq!(recovered.iteration, ckpt_iteration);
    let (_, payload) = recovered
        .payloads()
        .iter()
        .find(|(id, _)| id == "x")
        .expect("checkpoint payload for 'x' missing");
    let restored = sz
        .decompress(&Compressed {
            bytes: payload.clone(),
            n_elements: n,
        })
        .expect("SZ decompression of the recovered payload failed");

    // The error-bound contract holds element-wise on the recovered state.
    for (orig, rest) in solver.solution().as_slice().iter().zip(restored.iter()) {
        let allowed = eb * orig.abs() * (1.0 + 1e-9) + 1e-300;
        assert!(
            (orig - rest).abs() <= allowed,
            "SZ bound violated: |{orig} - {rest}| > {allowed}"
        );
    }

    // Algorithm 2: treat the decompressed solution as a fresh initial guess.
    let mut recovered_solver =
        ConjugateGradient::unpreconditioned(system, Vector::zeros(n), criteria);
    recovered_solver.restart_from_solution(Vector::from_vec(restored), ckpt_iteration);
    assert_eq!(recovered_solver.iteration(), ckpt_iteration);
    recovered_solver.run_to_convergence();

    // -- the restarted run still converges to the right answer ------------
    assert!(
        !recovered_solver.history().limit_reached,
        "restarted CG failed to converge"
    );
    let err = recovered_solver.solution().max_abs_diff(&xstar);
    assert!(err < 1e-6, "restarted CG converged to the wrong answer: {err}");
    // ... and the lossy restart cost only modest extra iterations.
    assert!(
        recovered_solver.iteration() <= baseline_iters * 2 + 10,
        "lossy restart cost too many iterations: {} vs baseline {}",
        recovered_solver.iteration(),
        baseline_iters
    );
}
