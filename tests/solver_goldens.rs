//! Absolute goldens of the GMRES and Jacobi recurrences: the residual-trace
//! bits, the restart markers, the iteration count and the solution bits of
//! checkpointed, restarted and recovered solves.  `precond_goldens.rs` pins
//! only uninterrupted GMRES solves and `thread_determinism.rs` compares
//! traces across thread counts; these pin the bookkeeping around a restart
//! — what `capture_state`, `restore_state` and `restart_from_solution`
//! leave behind — so a change to how a solver keeps its books that moves
//! one bit fails here.

use lossy_ckpt::core::sharded::{try_run_sharded, KillSpec, ShardedRunConfig};
use lossy_ckpt::core::PaperWorkload;
use lossy_ckpt::solvers::{
    Gmres, IterativeMethod, Jacobi, LinearSystem, SolverKind, StoppingCriteria,
};
use lossy_ckpt::sparse::poisson::{manufactured_rhs, poisson2d, poisson3d};
use lossy_ckpt::sparse::Vector;

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the little-endian bits of `values`.
fn fnv(values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(FNV_SEED, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// `(iteration, restarts, initial-residual bits, trace FNV, solution FNV)`.
type Books = (usize, Vec<usize>, u64, u64, u64);

fn books(solver: &dyn IterativeMethod) -> Books {
    let history = solver.history();
    (
        solver.iteration(),
        history.restarts().to_vec(),
        history.initial_residual().to_bits(),
        fnv(history.residuals()),
        fnv(solver.solution().as_slice()),
    )
}

/// `(iteration, FNV of x)` of a captured traditional checkpoint.
fn captured(solver: &dyn IterativeMethod) -> (usize, u64) {
    let state = solver.capture_state();
    assert_eq!(
        state.vectors.len(),
        1,
        "{}: only x is dynamic",
        solver.name()
    );
    (state.iteration, fnv(state.vector("x").unwrap().as_slice()))
}

/// Steps until `iteration` is reached or the solve has converged.
fn step_to(solver: &mut dyn IterativeMethod, iteration: usize) {
    while solver.iteration() < iteration && !solver.converged() {
        solver.step();
    }
}

/// `x` with every entry scaled by `1 ± 1e-4`, alternating — a lossy
/// decompression under a 1e-4 point-wise relative bound.
fn perturbed(x: &Vector) -> Vector {
    let mut x = x.clone();
    for (i, v) in x.iter_mut().enumerate() {
        *v *= 1.0 + 1e-4 * if i % 2 == 0 { 1.0 } else { -1.0 };
    }
    x
}

#[test]
fn gmres_block_jacobi_checkpoints_and_lossy_restart_are_pinned() {
    let workload = PaperWorkload::poisson(256, 20);
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, SolverKind::Gmres, 10_000);
    step_to(solver.as_mut(), 25);
    let at25 = captured(solver.as_ref());
    step_to(solver.as_mut(), 40);
    let x = solver.capture_state().vector("x").unwrap().clone();
    solver.restart_from_solution(perturbed(&x), 40);
    // The restarted solve converges at 41, so the capture bound for 50
    // takes the converged state.
    step_to(solver.as_mut(), 50);
    let at50 = captured(solver.as_ref());
    solver.run_to_convergence();
    assert!(solver.converged() && !solver.history().limit_reached);
    let got = (at25, at50, books(solver.as_ref()));
    assert_eq!(
        got,
        (
            (25, 0x2132_c6b1_c948_9d09),
            (41, 0xcb1b_dff8_b6fc_3ef7),
            (
                41,
                vec![40],
                0x402f_444e_636b_6e72,
                0x2335_9307_c1f6_10a0,
                0xcb1b_dff8_b6fc_3ef7
            )
        ),
        "GMRES(30)+bjacobi at 20^3: {got:#x?}"
    );
}

#[test]
fn gmres_jacobi_on_kkt_is_pinned() {
    let workload = PaperWorkload::kkt(4096, 4);
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, SolverKind::Gmres, 10_000);
    solver.run_to_convergence();
    assert!(solver.converged() && !solver.history().limit_reached);
    let got = books(solver.as_ref());
    assert_eq!(
        got,
        (
            46,
            vec![],
            0x407f_d78c_b1e4_8799,
            0x5171_2eab_3103_96f0,
            0x1a1d_1107_2b4d_93ef
        ),
        "GMRES(30)+jacobi on KKT(4): {got:#x?}"
    );
}

#[test]
fn unpreconditioned_gmres5_capture_restore_round_trip_is_pinned() {
    let a = poisson2d(12);
    let (_, b) = manufactured_rhs(&a);
    let system = LinearSystem::new(a, b);
    let n = system.dim();
    let criteria = StoppingCriteria::new(1e-10, 10_000);
    let fresh = || Gmres::unpreconditioned(system.clone(), Vector::zeros(n), 5, criteria);
    let mut solver = fresh();
    step_to(&mut solver, 17);
    let state = solver.capture_state();
    let mut restored = fresh();
    restored.restore_state(&state);
    solver.run_to_convergence();
    restored.run_to_convergence();
    assert!(restored.converged() && !restored.history().limit_reached);
    let got = (books(&solver), books(&restored));
    assert_eq!(
        got,
        (
            (
                145,
                vec![],
                0x4020_1827_ac1c_cd56,
                0x7825_5761_e5a5_22de,
                0x4688_f02a_65cd_e519
            ),
            (
                135,
                vec![17],
                0x4020_1827_ac1c_cd56,
                0x1ce5_14e5_8232_5b89,
                0xed60_d208_61eb_8f30
            )
        ),
        "GMRES(5) on poisson2d(12), straight and restored at 17: {got:#x?}"
    );
}

#[test]
fn jacobi_lossy_restart_is_pinned() {
    let a = poisson3d(8);
    let (_, b) = manufactured_rhs(&a);
    let system = LinearSystem::new(a, b);
    let n = system.dim();
    let mut solver = Jacobi::new(
        system,
        Vector::zeros(n),
        StoppingCriteria::new(1e-6, 10_000),
    );
    step_to(&mut solver, 30);
    let x = perturbed(solver.solution());
    solver.restart_from_solution(x, 30);
    solver.run_to_convergence();
    assert!(solver.converged() && !solver.history().limit_reached);
    let got = books(&solver);
    assert_eq!(
        got,
        (
            136,
            vec![30],
            0x403e_0205_49dc_439e,
            0xaa23_6d9d_44a9_b2e4,
            0x0a35_6e9a_3bd4_e1c6
        ),
        "Jacobi on poisson3d(8) restarted at 30: {got:#x?}"
    );
}

#[test]
fn sharded_jacobi_kill_and_recover_is_pinned() {
    let a = poisson3d(10);
    let (_, b) = manufactured_rhs(&a);
    let got = [1, 2].map(|shards| {
        let dir =
            std::env::temp_dir().join(format!("lcr-solver-golden-{}-{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ShardedRunConfig::new(shards, SolverKind::Jacobi);
        cfg.rtol = 1e-4;
        cfg.reduce_block = 64;
        cfg.checkpoint_interval = 10;
        cfg.ckpt_dir = Some(dir.clone());
        cfg.kills = vec![KillSpec {
            shard: shards - 1,
            at_iteration: 45,
        }];
        let report = try_run_sharded(&a, &b, &cfg).expect("kill-and-recover run");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(report.converged, "{shards} shards");
        (
            report.iterations,
            report.restart_iterations,
            fnv(&report.residual_trace),
            fnv(report.solution.as_slice()),
        )
    });
    assert_eq!(
        got,
        [
            (106, vec![45], 0xf7e1_180f_9c81_d8f5, 0xddfd_1e6f_6c62_c555),
            (113, vec![45], 0x4343_f5de_e8e0_042a, 0xadd2_971a_f01c_dcc7)
        ],
        "sharded Jacobi on poisson3d(10), shard killed at 45, 1 and 2 shards: {got:#x?}"
    );
}

/// Shard 1 dies at iteration 12, mid-way through GMRES(30)'s first cycle,
/// and reloads its slice of the epoch at 10; the survivors keep their
/// slices, the open cycle's correction folded in, and only replay halos.
#[test]
fn sharded_gmres_kill_and_recover_is_pinned() {
    let a = poisson3d(12);
    let (_, b) = manufactured_rhs(&a);
    let got = [2, 4].map(|shards| {
        let dir = std::env::temp_dir().join(format!(
            "lcr-solver-golden-gmres-{}-{shards}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ShardedRunConfig::new(shards, SolverKind::Gmres);
        cfg.rtol = 1e-10;
        cfg.reduce_block = 64;
        cfg.checkpoint_interval = 5;
        cfg.ckpt_dir = Some(dir.clone());
        cfg.kills = vec![KillSpec {
            shard: 1,
            at_iteration: 12,
        }];
        let report = try_run_sharded(&a, &b, &cfg).expect("kill-and-recover run");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(report.converged, "{shards} shards");
        for s in &report.shards {
            let (rollbacks, replays) = if s.shard == 1 { (1, 0) } else { (0, 1) };
            assert_eq!(
                (s.rollbacks, s.halo_replays),
                (rollbacks, replays),
                "shard {}",
                s.shard
            );
        }
        assert_eq!(report.shards[1].resumed_from_iteration, Some(10));
        (
            report.iterations,
            report.restart_iterations,
            fnv(&report.residual_trace),
            fnv(report.solution.as_slice()),
            report.shards[0].reduce_rounds,
        )
    });
    assert_eq!(
        got,
        [
            (
                73,
                vec![12],
                0xb4a6_653c_e325_b139,
                0x6e9b_d90d_bfab_ad9f,
                1087
            ),
            (
                71,
                vec![12],
                0xb65e_1c7d_a910_b71f,
                0x112f_cfc3_b7c5_8549,
                1053
            )
        ],
        "sharded GMRES(30) on poisson3d(12), shard 1 killed at 12, 2 and 4 shards: {got:#x?}"
    );
}
