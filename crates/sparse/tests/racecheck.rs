//! Race/aliasing-checker integration tests (`--features racecheck`).
//!
//! These drive deliberately broken partition plans through the *real*
//! kernel entry points and assert the claim checker catches them, plus a
//! correctness pass proving valid custom plans still produce the right
//! answers with the instrumentation live.  Run at both `LCR_NUM_THREADS=1`
//! and `>1` — the claims are checked in either case.

#![cfg(feature = "racecheck")]

use lcr_sparse::kernels::spmv_dot;
use lcr_sparse::{poisson, CsrMatrix, RowBlock, SpmvPlan};
use std::panic::{catch_unwind, AssertUnwindSafe};

const N: usize = 64;

fn matrix() -> CsrMatrix {
    poisson::poisson1d(N)
}

fn x0() -> Vec<f64> {
    (0..N).map(|i| (i as f64 * 0.37).sin()).collect()
}

fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string payload>".to_string())
}

#[test]
fn racecheck_is_compiled_in() {
    assert!(rayon::racecheck::enabled());
}

#[test]
fn disjoint_custom_plan_matches_default_plan() {
    let reference = {
        let a = matrix();
        let mut y = vec![0.0; N];
        a.spmv(&x0(), &mut y);
        y
    };

    // A hand-written disjoint partition, forced parallel, must produce
    // bit-identical results under the live claim checker.
    let mut a = matrix();
    a.override_plan_for_racecheck(SpmvPlan::for_racecheck(vec![(0, 17), (17, 32), (32, N)]));
    let mut y = vec![0.0; N];
    a.spmv(&x0(), &mut y);
    assert_eq!(y, reference);
}

#[test]
fn overlapping_plan_panics_with_both_ranges() {
    let mut a = matrix();
    // Chunks 0..33 and 32..N overlap on row 32 — exactly the
    // off-by-one a buggy split formula would produce.
    a.override_plan_for_racecheck(SpmvPlan::for_racecheck(vec![(0, 33), (32, N)]));
    let x = x0();
    let mut y = vec![0.0; N];
    let err = catch_unwind(AssertUnwindSafe(|| a.spmv(&x, &mut y))).unwrap_err();
    let msg = panic_message(err);
    assert!(
        msg.contains("overlaps"),
        "expected an overlap report, got: {msg}"
    );
}

#[test]
fn out_of_bounds_plan_panics() {
    let mut a = matrix();
    // Final chunk runs one row past the matrix.
    a.override_plan_for_racecheck(SpmvPlan::for_racecheck(vec![(0, 32), (32, N + 1)]));
    let x = x0();
    let mut y = vec![0.0; N];
    let err = catch_unwind(AssertUnwindSafe(|| a.spmv(&x, &mut y))).unwrap_err();
    let msg = panic_message(err);
    assert!(
        msg.contains("out of bounds"),
        "expected an out-of-bounds report, got: {msg}"
    );
}

#[test]
fn fused_kernels_pass_under_racecheck() {
    // The fused two-output kernels claim against *separate* buffers; a
    // full solver-style pass over them must stay panic-free and correct.
    let a = matrix();
    let x = x0();
    let mut y = vec![0.0; N];
    let d = spmv_dot(&a, &x, &mut y, &x);
    let mut y2 = vec![0.0; N];
    a.spmv(&x, &mut y2);
    assert_eq!(y, y2);
    let serial: f64 = y2.iter().zip(&x).map(|(a, b)| a * b).sum();
    assert!((d - serial).abs() <= 1e-12 * serial.abs().max(1.0));

    let b = vec![1.0; N];
    let mut r = vec![0.0; N];
    a.residual_into(&x, &b, &mut r);
    for i in 0..N {
        assert_eq!(r[i], b[i] - y2[i]);
    }
}

/// The 1-D Poisson matrix's true block decomposition for a single
/// whole-matrix chunk: a one-row tail (2 entries), a width-3 slab over the
/// interior rows, a one-row tail (2 entries).
fn valid_blocks(a: &CsrMatrix) -> Vec<RowBlock> {
    let indptr = a.indptr();
    vec![
        RowBlock::Tail { rows: (0, 1) },
        RowBlock::Slab {
            rows: (1, N - 1),
            width: 3,
            k: indptr[1],
        },
        RowBlock::Tail { rows: (N - 1, N) },
    ]
}

#[test]
fn valid_custom_slab_plan_matches_reference() {
    // A hand-written SELL decomposition, driven through the live block
    // validator, must reproduce the default plan's output bit-for-bit.
    let reference = {
        let a = matrix();
        let mut y = vec![0.0; N];
        a.spmv(&x0(), &mut y);
        y
    };
    let mut a = matrix();
    let blocks = valid_blocks(&a);
    a.override_plan_for_racecheck(SpmvPlan::for_racecheck_with_blocks(
        vec![(0, N)],
        vec![blocks],
    ));
    let mut y = vec![0.0; N];
    a.spmv(&x0(), &mut y);
    assert_eq!(y, reference);
}

#[test]
fn overlapping_slab_rows_panic() {
    // Slab reaches one row into the trailing tail — the off-by-one a buggy
    // run-length scan would produce.
    let mut a = matrix();
    // Tails listed first so the slab's row claim is what collides — the
    // checker reports the row overlap itself, not a storage side effect.
    let blocks = vec![
        RowBlock::Tail { rows: (0, 1) },
        RowBlock::Tail { rows: (N - 1, N) },
        RowBlock::Slab {
            rows: (1, N),
            width: 3,
            k: a.indptr()[1],
        },
    ];
    a.override_plan_for_racecheck(SpmvPlan::for_racecheck_with_blocks(
        vec![(0, N)],
        vec![blocks],
    ));
    let x = x0();
    let mut y = vec![0.0; N];
    let err = catch_unwind(AssertUnwindSafe(|| a.spmv(&x, &mut y))).unwrap_err();
    let msg = panic_message(err);
    assert!(
        msg.contains("overlaps"),
        "expected an overlap report, got: {msg}"
    );
}

#[test]
fn mis_tiled_blocks_panic() {
    // Blocks leave row N-2 uncovered: disjoint and in bounds, but they do
    // not tile the chunk.
    let mut a = matrix();
    let blocks = vec![
        RowBlock::Tail { rows: (0, 1) },
        RowBlock::Slab {
            rows: (1, N - 2),
            width: 3,
            k: a.indptr()[1],
        },
        RowBlock::Tail { rows: (N - 1, N) },
    ];
    a.override_plan_for_racecheck(SpmvPlan::for_racecheck_with_blocks(
        vec![(0, N)],
        vec![blocks],
    ));
    let x = x0();
    let mut y = vec![0.0; N];
    let err = catch_unwind(AssertUnwindSafe(|| a.spmv(&x, &mut y))).unwrap_err();
    let msg = panic_message(err);
    assert!(
        msg.contains("do not tile"),
        "expected a tiling report, got: {msg}"
    );
}

#[test]
fn slab_extent_past_values_panics() {
    // Row ranges are fine, but the slab's storage offset is shifted so its
    // extent runs past the value array — the aliasing bug a wrong `k`
    // would cause, caught before any unchecked read.
    let mut a = matrix();
    let nnz = a.nnz();
    let blocks = vec![
        RowBlock::Tail { rows: (0, 1) },
        RowBlock::Slab {
            rows: (1, N - 1),
            width: 3,
            // Correct k is indptr[1] = 2; this pushes the extent past nnz.
            k: nnz - 3 * (N - 2) + 8,
        },
        RowBlock::Tail { rows: (N - 1, N) },
    ];
    a.override_plan_for_racecheck(SpmvPlan::for_racecheck_with_blocks(
        vec![(0, N)],
        vec![blocks],
    ));
    let x = x0();
    let mut y = vec![0.0; N];
    let err = catch_unwind(AssertUnwindSafe(|| a.spmv(&x, &mut y))).unwrap_err();
    let msg = panic_message(err);
    assert!(
        msg.contains("out of bounds"),
        "expected an out-of-bounds report, got: {msg}"
    );
}

#[test]
fn block_rows_before_chunk_start_panic() {
    // Two chunks; the second chunk's tail starts before its own row range
    // (a stale r0 from the previous chunk).
    let mut a = matrix();
    let blocks = vec![
        vec![RowBlock::Tail { rows: (0, 32) }],
        vec![RowBlock::Tail { rows: (30, N) }],
    ];
    a.override_plan_for_racecheck(SpmvPlan::for_racecheck_with_blocks(
        vec![(0, 32), (32, N)],
        blocks,
    ));
    let x = x0();
    let mut y = vec![0.0; N];
    let err = catch_unwind(AssertUnwindSafe(|| a.spmv(&x, &mut y))).unwrap_err();
    let msg = panic_message(err);
    assert!(
        msg.contains("start before chunk rows") || msg.contains("do not tile"),
        "expected a chunk-extent report, got: {msg}"
    );
}

#[test]
fn aliased_halo_recv_ranges_panic() {
    // Two peers scatter into the same halo slot while another slot stays
    // unwritten.  The coverage *count* balances (2 + 1 = 3 = halo_len), so
    // the plain cover assertion cannot see it — only the claim checker
    // catches the aliased scatter targets.
    use lcr_sparse::HaloPlan;
    let plan = HaloPlan {
        halo_cols: vec![3, 7, 9],
        recv_ranges: vec![(0, 2), (1, 2)],
        send_rows: vec![Vec::new(), Vec::new()],
    };
    let err = catch_unwind(AssertUnwindSafe(|| plan.validate())).unwrap_err();
    let msg = panic_message(err);
    assert!(
        msg.contains("overlaps"),
        "expected an overlap report, got: {msg}"
    );
}

#[test]
fn out_of_bounds_halo_recv_range_panics() {
    // A receive range running past the halo buffer must be rejected
    // before any scatter happens.
    use lcr_sparse::HaloPlan;
    let plan = HaloPlan {
        halo_cols: vec![3, 7],
        recv_ranges: vec![(0, 3)],
        send_rows: vec![Vec::new()],
    };
    let err = catch_unwind(AssertUnwindSafe(|| plan.validate())).unwrap_err();
    let msg = panic_message(err);
    assert!(
        msg.contains("halo recv range bounds"),
        "expected a bounds report, got: {msg}"
    );
}

#[test]
fn partitioned_halo_plans_validate_under_racecheck() {
    // Real plans from the 3-D stencil partition: every shard's receive
    // ranges must claim disjointly and tile the halo buffer exactly, with
    // the checker live.
    let a = poisson::poisson3d(6);
    for shards in [2usize, 3, 4] {
        let layout = lcr_sparse::ShardLayout::with_block(a.nrows(), shards, 27);
        for view in lcr_sparse::shard::partition_csr(&a, &layout) {
            view.halo.validate();
        }
    }
}

#[test]
fn checker_reports_survive_the_thread_hop() {
    // With enough chunks the claims are made on pool workers; the panic
    // payload must still surface on the caller with its message intact.
    let mut a = matrix();
    let chunks: Vec<(usize, usize)> = (0..8)
        .map(|i| {
            let s = i * N / 8;
            let e = (i + 1) * N / 8;
            // Make chunk 5 reach one row into chunk 6.
            if i == 5 {
                (s, e + 1)
            } else {
                (s, e)
            }
        })
        .collect();
    a.override_plan_for_racecheck(SpmvPlan::for_racecheck(chunks));
    let x = x0();
    let mut y = vec![0.0; N];
    let err = catch_unwind(AssertUnwindSafe(|| a.spmv(&x, &mut y))).unwrap_err();
    assert!(panic_message(err).contains("overlaps"));
}
