//! Kernel scaling benchmark: the perf-trajectory baseline for the threaded
//! execution layer.
//!
//! Measures a STREAM-style `triad` (the host's bandwidth ceiling through
//! the same pool and the same slice driver, `kernels::run_len`, the vector
//! kernels run on), `dot`/`norm2`/`spmv` — plus the fused solver kernels
//! `spmv_dot`, `axpy2_norm2`, `axpy_dot` (GMRES's Gram–Schmidt step) and
//! `residual_norm2` that the Krylov inner loops now run on, the paper's
//! preconditioner: `bjacobi_apply` (one block-Jacobi(16)/ILU(0)
//! application) and `ilu0_factor` (building it), and one whole
//! GMRES(30) + block-Jacobi(16) cycle (`gmres_cycle`: ms per iteration,
//! fingerprint of the residual history) —
//! on a large 3-D Poisson problem, whose assembly is a row of its own
//! (`poisson3d_assemble`: Melem/s of non-zeros written), SZ
//! compression *and decompression* of a ≥1M-element smooth buffer, the
//! temporal (version-5) SZ encoder over a three-snapshot point-wise-relative
//! chain of it (`sz_temporal_compress`, and `sz_temporal_compress_1blk` over
//! a 64,000-element one-block chain — the shape of a per-iteration
//! checkpoint) and the replay of the chains it built (`sz_chain_decompress`,
//! `sz_chain_decompress_1blk`: what a recovery costs), ZFP compression of
//! the same buffer, single-stream Huffman
//! encoding and decoding of SZ-like quantization codes (`huffman_encode`,
//! `huffman_decode`), the lossless baseline over a 131,072-value prefix of
//! the buffer (`fpc_lzss`: FPC predictors with the LZSS stage behind them), the
//! order-2 temporal delta codec of the
//! version-5 checkpoint streams (`delta_encode`/`delta_decode` over the
//! same codes against two simulated prior snapshots), the checkpoint
//! files' checksum (`crc32` over the arena the disk rows write) and the
//! traditional checkpoint's encode of the values in it (`raw_encode`), both
//! in GB/s and as a fraction of triad, and the durable checkpoint tier
//! (`disk_ckpt_write`: arena → crash-consistent file with CRCs + fsync +
//! rename; `disk_ckpt_read`: read-back with full CRC validation), at 1, 2
//! and N pool threads — verifying along the way that every result is
//! **bit-identical** across thread counts (the deterministic fixed-chunk
//! scheduling guarantee; the disk rows are single-threaded I/O measured
//! like-for-like).  The decompression rows are what the fig456
//! recovery-time experiments rest on.  Vector, SpMV and preconditioner
//! rows also report GB/s computed from their array sizes and that rate as
//! a fraction of the triad row at the same thread count; the two
//! preconditioner rows add nanoseconds per matrix row.
//!
//! Prints the usual aligned table + `JSON:` line.
//!
//! `--quick` / `LCR_QUICK=1` shrinks sizes and repetitions.  The pool is
//! sized by `LCR_NUM_THREADS` when set; otherwise it is forced to at least
//! 4 threads so the scaling series exists even on small CI hosts.

use lcr_bench::{fmt, print_json, print_table};
use lcr_ckpt::disk::crc32;
use lcr_ckpt::{CheckpointBuffer, DiskStore};
use lcr_compress::{
    delta, huffman, Chain, Codec, DeltaMode, ErrorBound, LosslessPipeline, RawCodec,
    SzCompressor, SzTemporalState, ZfpCompressor,
};
use lcr_solvers::{
    BlockJacobiPreconditioner, Gmres, IterativeMethod, LinearSystem, Preconditioner,
    StoppingCriteria,
};
use lcr_sparse::kernels;
use lcr_sparse::poisson::poisson3d;
use lcr_sparse::vector::{dot, norm2};
use lcr_sparse::{CsrMatrix, Vector};
use std::sync::Arc;
use std::time::Instant;

/// One measured (kernel, thread-count) point.
#[derive(Debug, Clone)]
struct ScalingRow {
    /// Kernel name.
    kernel: String,
    /// Threads the pool was capped to.
    threads: usize,
    /// Problem size (elements; non-zeros for spmv).
    elements: usize,
    /// Median seconds per invocation.
    seconds: f64,
    /// Throughput in millions of elements per second.
    melem_per_s: f64,
    /// Speedup relative to the 1-thread row of the same kernel.
    speedup_vs_1t: f64,
    /// GB/s over the bytes the kernel's arrays hold (computed from their
    /// sizes, not measured traffic); `None` for codec and disk rows
    /// (`crc32` has it: bytes checksummed; so has `raw_encode`: bytes read
    /// plus bytes written).
    gb_per_s_computed: Option<f64>,
    /// `gb_per_s_computed` over the `triad` row's at the same thread count.
    frac_of_triad: Option<f64>,
    /// Nanoseconds per matrix row, for the preconditioner rows: a
    /// triangular sweep is a latency chain per row, which GB/s hides.
    ns_per_row: Option<f64>,
    /// Milliseconds per solver iteration, for the solver-cycle row.
    ms_per_iter: Option<f64>,
    /// Fingerprint of the kernel's result (hex), to compare across commits.
    fingerprint: String,
    /// Whether the result was bit-identical to the 1-thread result.
    bit_identical: bool,
}

lcr_bench::json_object!(ScalingRow {
    kernel, threads, elements, seconds, melem_per_s, speedup_vs_1t, gb_per_s_computed,
    frac_of_triad, ns_per_row, ms_per_iter, fingerprint, bit_identical,
});

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times `reps` invocations of `f`, returning the median seconds.
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warm-up (first touch, pool spin-up)
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(samples)
}

/// FNV-1a over the little-endian bytes of `words`, in order.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Order-sensitive bit fingerprint of an `f64` buffer.
fn bits_fingerprint(data: &[f64]) -> u64 {
    fnv1a(data.iter().map(|v| v.to_bits()))
}

fn smooth_signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            (2.0 * std::f64::consts::PI * t).sin() + 0.3 * (211.0 * t).cos() + 2.0
        })
        .collect()
}

/// The restart length of the paper's GMRES runs (PETSc's default).
const GMRES_RESTART: usize = 30;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("LCR_QUICK").map(|v| v == "1").unwrap_or(false);
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Respect an explicit LCR_NUM_THREADS; otherwise make sure the pool has
    // at least 4 threads so the 1/2/N series is exercised everywhere.
    if std::env::var("LCR_NUM_THREADS").is_err() {
        rayon::initialize_pool(host_parallelism.max(4));
    }
    let pool_threads = rayon::pool_threads();
    if pool_threads > host_parallelism {
        println!(
            "note: pool has {pool_threads} threads on {host_parallelism} hardware \
             thread(s) — speedups below measure oversubscription, not scaling"
        );
    }
    let mut thread_counts = vec![1usize, 2, pool_threads];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    thread_counts.retain(|&t| t <= pool_threads);

    let (vec_len, grid_edge, sz_len, reps) = if quick {
        (1 << 20, 40, 1 << 20, 3)
    } else {
        (1 << 22, 64, 1 << 21, 7)
    };

    // --- problem setup ----------------------------------------------------
    let mut a_vec = Vector::zeros(vec_len);
    let mut b_vec = Vector::zeros(vec_len);
    a_vec.fill_random(1, -1.0, 1.0);
    b_vec.fill_random(2, -1.0, 1.0);

    let matrix: CsrMatrix = poisson3d(grid_edge);
    let n = matrix.nrows();
    let mut x = Vector::zeros(n);
    x.fill_random(3, -1.0, 1.0);
    let mut y = Vector::zeros(n);
    // Inputs for the fused kernels: a right-hand side for residual_norm2
    // and stable scratch targets for the fused x/r update.
    let mut pb = Vector::zeros(n);
    pb.fill_random(4, -1.0, 1.0);
    let mut ax_scratch = a_vec.clone();
    let mut rx_scratch = b_vec.clone();
    let mut triad_out = Vector::zeros(vec_len);
    // The paper's preconditioner set-up (§5.1): block Jacobi over 16
    // blocks, ILU(0) inside.
    const N_BLOCKS: usize = 16;
    let factorise =
        || BlockJacobiPreconditioner::new(&matrix, N_BLOCKS).expect("ILU(0) of Poisson");
    let mut z = Vector::zeros(n);

    let sz_data = smooth_signal(sz_len);
    let sz = SzCompressor::new();
    let sz_bound = ErrorBound::ValueRangeRel(1e-4);
    let zfp = ZfpCompressor::new();
    let zfp_bound = ErrorBound::Abs(1e-6);
    // Decompression input: one reference stream, decoded at every thread
    // count so the rows are comparable.
    let sz_compressed = sz.compress(&sz_data, sz_bound).expect("SZ compression failed");
    // Temporal-encoder input: three successive "snapshots" of the smooth
    // buffer (the multiplicative drift of the delta rows below, every
    // third value negative so the sign bitmap is not trivial), one chain
    // spanning many blocks and one of a single block.
    let temporal_chain = |len: usize| -> Vec<Vec<f64>> {
        (0..3)
            .map(|k| {
                let drift = 1.0 - 3e-5 * (2 - k) as f64;
                let signed =
                    |(i, &x): (usize, &f64)| if i % 3 == 0 { -x * drift } else { x * drift };
                sz_data[..len].iter().enumerate().map(signed).collect()
            })
            .collect()
    };
    // (encode row, decode row, snapshots)
    let temporal_chains = [
        ("sz_temporal_compress", "sz_chain_decompress", temporal_chain(sz_len)),
        ("sz_temporal_compress_1blk", "sz_chain_decompress_1blk", temporal_chain(64_000)),
    ];
    // Huffman input: SZ-like quantization codes (second differences of the
    // smooth buffer on a 2e-4 grid, shifted into the SZ code range).
    let quantize_codes = |data: &[f64]| -> Vec<u32> {
        let inv = 1.0 / 2e-4;
        let grid: Vec<f64> = data.iter().map(|&x| (x * inv).round()).collect();
        (0..grid.len())
            .map(|i| {
                let pred = match i {
                    0 => 0.0,
                    1 => grid[0],
                    _ => 2.0 * grid[i - 1] - grid[i - 2],
                };
                ((grid[i] - pred) as i64 + 32_769).clamp(0, 65_537) as u32
            })
            .collect()
    };
    let huff_symbols = quantize_codes(&sz_data);
    let huff_blob = huffman::encode_block(&huff_symbols);
    // Temporal-delta inputs: the codes of two slightly earlier "snapshots"
    // of the same buffer (small multiplicative drift, as a converging
    // solver state would show between checkpoints).
    let delta_prev1 = quantize_codes(
        &sz_data.iter().map(|&x| x * (1.0 - 3e-5)).collect::<Vec<f64>>(),
    );
    let delta_prev2 = quantize_codes(
        &sz_data.iter().map(|&x| x * (1.0 - 6e-5)).collect::<Vec<f64>>(),
    );
    // Durable-tier input: the smooth buffer as raw little-endian doubles in
    // a checkpoint arena, written through the crash-consistent file format
    // (header + CRCs + fsync + rename) into a scratch directory.
    let disk_dir = std::env::temp_dir().join(format!("lcr-scaling-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_dir);
    let mut disk_buffer = CheckpointBuffer::new();
    disk_buffer
        .push_with("x", |out| RawCodec.encode_into(&sz_data, sz_bound, None, out))
        .expect("raw encode");

    // --- measurement ------------------------------------------------------
    let mut rows: Vec<ScalingRow> = Vec::new();
    let mut baseline: std::collections::HashMap<String, (f64, u64)> =
        std::collections::HashMap::new();

    for &threads in &thread_counts {
        rayon::set_max_active_threads(threads);

        // (name, elements, bytes held by the kernel's arrays (0 = not a
        // bandwidth row), result fingerprint, median seconds)
        let mut measured: Vec<(&str, usize, usize, u64, f64)> = Vec::new();
        let matrix_bytes = matrix.storage_bytes();

        // STREAM triad through the pool: the ceiling the rows below are
        // reported against.
        let secs = time_median(reps, || {
            kernels::run_len(vec_len, [triad_out.as_mut_slice()], |chunk, [out]| {
                let (b, c) = (&a_vec.as_slice()[chunk.clone()], &b_vec.as_slice()[chunk]);
                for (o, (b, c)) in out.iter_mut().zip(b.iter().zip(c)) {
                    *o = b + 3.0 * c;
                }
            });
        });
        let triad_fp = bits_fingerprint(triad_out.as_slice());
        measured.push(("triad", vec_len, 3 * 8 * vec_len, triad_fp, secs));
        let triad_gbs = (3 * 8 * vec_len) as f64 / secs / 1e9;

        let mut dot_result = 0.0f64;
        let secs = time_median(reps, || {
            dot_result = dot(a_vec.as_slice(), b_vec.as_slice());
        });
        measured.push(("dot", vec_len, 2 * 8 * vec_len, dot_result.to_bits(), secs));

        let mut norm_result = 0.0f64;
        let secs = time_median(reps, || {
            norm_result = norm2(a_vec.as_slice());
        });
        measured.push(("norm2", vec_len, 8 * vec_len, norm_result.to_bits(), secs));

        let secs = time_median(reps, || {
            matrix.spmv(x.as_slice(), y.as_mut_slice());
        });
        let spmv_fp = bits_fingerprint(y.as_slice());
        measured.push((
            "spmv",
            matrix.nnz(),
            matrix_bytes + 2 * 8 * n,
            spmv_fp,
            secs,
        ));

        // Assembling the operator itself: the stencil written row by row
        // straight into the CSR arrays, on one thread (the fingerprint
        // covers indptr, indices and value bits).
        let mut assembled = poisson3d(grid_edge);
        let secs = time_median(reps, || assembled = poisson3d(grid_edge));
        let assembled_fp = fnv1a(
            assembled.indptr().iter().map(|&p| p as u64)
                .chain(assembled.indices().iter().map(|&c| u64::from(c)))
                .chain(assembled.values().iter().map(|v| v.to_bits())),
        );
        measured.push(("poisson3d_assemble", assembled.nnz(), 0, assembled_fp, secs));

        // The preconditioner: factorising the 16 diagonal blocks straight
        // from the matrix rows (parent read once + factors written once),
        // and one application (factors + r read, z written).  Blocks run
        // on the pool, swept a few at a time in lockstep; each block's
        // arithmetic is independent of the threads and of the grouping.
        let mut pre = factorise();
        let secs = time_median(reps, || pre = factorise());
        let factors: Vec<f64> = pre.factor_entries().map(|(_, _, v)| v).collect();
        let factor_entries = factors.len();
        measured.push((
            "ilu0_factor",
            factor_entries,
            matrix_bytes + pre.storage_bytes(),
            bits_fingerprint(&factors),
            secs,
        ));

        let secs = time_median(reps, || pre.apply_into(&pb, &mut z));
        measured.push((
            "bjacobi_apply",
            factor_entries,
            pre.storage_bytes() + 2 * 8 * n,
            bits_fingerprint(z.as_slice()),
            secs,
        ));

        // GMRES(30) cycles with the block-Jacobi(16) preconditioner above,
        // from the zero guess: each sample is 30 inner steps, the last one
        // closing the cycle and opening the next.  One untimed cycle first
        // fills the kept basis, so every sample is the steady-state Arnoldi
        // loop of one solver; the fingerprint covers all its cycles'
        // residual history.
        let system = LinearSystem::new(matrix.clone(), pb.clone());
        let precond: Arc<dyn Preconditioner> = Arc::new(pre.clone());
        let open = StoppingCriteria::new(1e-30, 1_000);
        let mut gmres = Gmres::new(system, precond, Vector::zeros(n), GMRES_RESTART, open);
        let cycle = |gmres: &mut Gmres| (0..GMRES_RESTART).for_each(|_| gmres.step());
        cycle(&mut gmres);
        let secs = time_median(reps, || cycle(&mut gmres));
        let history = gmres.history().residuals().iter().map(|r| r.to_bits());
        measured.push(("gmres_cycle", GMRES_RESTART, 0, fnv1a(history), secs));

        // Fused solver kernels (the CG inner-loop primitives):
        // q = A·x with xᵀq in the same traversal, the fused x/r update
        // returning ‖r‖², and the fused residual + norm.  All follow the
        // matrix's SpmvPlan / the deterministic length chunking, so their
        // fingerprints must be thread-count independent too.
        let mut spmv_dot_result = 0.0f64;
        let secs = time_median(reps, || {
            spmv_dot_result = kernels::spmv_dot(&matrix, x.as_slice(), y.as_mut_slice(), x.as_slice());
        });
        measured.push((
            "spmv_dot",
            matrix.nnz(),
            matrix_bytes + 2 * 8 * n,
            bits_fingerprint(y.as_slice()) ^ spmv_dot_result.to_bits(),
            secs,
        ));

        // α = 0 keeps the buffers (and therefore the fingerprint) stable
        // across repetitions while exercising the full fused read/write
        // traffic of the real update.
        let mut fused_rr = 0.0f64;
        let secs = time_median(reps, || {
            fused_rr = kernels::axpy2_norm2(
                0.0,
                a_vec.as_slice(),
                b_vec.as_slice(),
                ax_scratch.as_mut_slice(),
                rx_scratch.as_mut_slice(),
            );
        });
        measured.push((
            "axpy2_norm2",
            vec_len,
            6 * 8 * vec_len,
            fused_rr.to_bits(),
            secs,
        ));

        // GMRES's Gram–Schmidt step: y −= h·v_i with the next coefficient
        // yᵀv_{i+1} in the same pass (α = 0 again keeps y stable).
        let mut projected = 0.0f64;
        let secs = time_median(reps, || {
            projected = kernels::axpy_dot(
                0.0,
                a_vec.as_slice(),
                ax_scratch.as_mut_slice(),
                b_vec.as_slice(),
            );
        });
        measured.push((
            "axpy_dot",
            vec_len,
            4 * 8 * vec_len,
            bits_fingerprint(ax_scratch.as_slice()) ^ projected.to_bits(),
            secs,
        ));

        let mut resid_rr = 0.0f64;
        let secs = time_median(reps, || {
            resid_rr =
                kernels::residual_norm2(&matrix, x.as_slice(), pb.as_slice(), y.as_mut_slice());
        });
        measured.push((
            "residual_norm2",
            matrix.nnz(),
            matrix_bytes + 3 * 8 * n,
            bits_fingerprint(y.as_slice()) ^ resid_rr.to_bits(),
            secs,
        ));

        // Every compressing codec through the one trait: the two
        // pool-parallel lossy ones over the whole buffer, then the lossless
        // baseline (single-stream: it rides along at every thread count)
        // over a prefix.  The exact codec ignores the bound.
        let prefix = &sz_data[..1 << 17];
        let codecs: [(&str, &dyn Codec, &[f64], ErrorBound); 3] = [
            ("sz_compress", &sz, &sz_data, sz_bound),
            ("zfp_compress", &zfp, &sz_data, zfp_bound),
            ("fpc_lzss", &LosslessPipeline, prefix, sz_bound),
        ];
        for (name, codec, input, bound) in codecs {
            let mut stream: Vec<u8> = Vec::new();
            let secs = time_median(reps, || {
                stream = codec.compress(input, bound).expect("compression failed").bytes;
            });
            measured.push((name, input.len(), 0, u64::from(crc32(&stream)), secs));
        }

        // The anchored delta chain of a checkpointing run: an anchor, an
        // order-1 delta, then both delta orders on offer.  Every candidate
        // is sized per block on the pool and only the winner is packed; the
        // fingerprint covers the three streams and the modes chosen.
        for (name, decode_name, chain) in &temporal_chains {
            let mut streams = vec![Vec::new(); chain.len()];
            let mut modes = vec![DeltaMode::None; chain.len()];
            let secs = time_median(reps, || {
                let mut state = SzTemporalState::new();
                for (k, snapshot) in chain.iter().enumerate() {
                    streams[k].clear();
                    let link = Chain {
                        max_order: DeltaMode::Order2,
                        force_anchor: k == 0,
                        state: &mut state,
                    };
                    let bound = ErrorBound::PointwiseRel(1e-4);
                    modes[k] = sz
                        .encode_into(snapshot, bound, Some(link), &mut streams[k])
                        .expect("temporal SZ compression failed");
                }
            });
            assert_ne!(
                modes[1],
                DeltaMode::None,
                "a drifting snapshot must delta-code"
            );
            let fp = fnv1a(
                streams
                    .iter()
                    .zip(&modes)
                    .flat_map(|(stream, &mode)| [u64::from(crc32(stream)), mode as u64]),
            );
            measured.push((name, chain.len() * chain[0].len(), 0, fp, secs));

            // The recovery side of the same chain: all three links replayed
            // through the one block decoder, the last reconstructed.
            let links: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
            let mut replayed: Vec<f64> = Vec::new();
            let secs = time_median(reps, || {
                replayed = sz.decode_chain(&links, chain[0].len()).expect("SZ chain decode failed");
            });
            measured.push((
                decode_name,
                chain.len() * chain[0].len(),
                0,
                bits_fingerprint(&replayed),
                secs,
            ));
        }

        let mut restored: Vec<f64> = Vec::new();
        let secs = time_median(reps, || {
            restored = sz
                .decompress(&sz_compressed)
                .expect("SZ decompression failed");
        });
        measured.push((
            "sz_decompress",
            sz_len,
            0,
            bits_fingerprint(&restored),
            secs,
        ));

        // Single-stream canonical-Huffman coding (not pool-parallel; rides
        // along at every thread count as like-for-like rows): histogram,
        // code lengths and bit-packing of one block, then its table decode.
        let mut encoded: Vec<u8> = Vec::new();
        let secs = time_median(reps, || encoded = huffman::encode_block(&huff_symbols));
        measured.push((
            "huffman_encode",
            huff_symbols.len(),
            0,
            u64::from(crc32(&encoded)),
            secs,
        ));

        let mut decoded: Vec<u32> = Vec::new();
        let secs = time_median(reps, || {
            let mut pos = 0usize;
            decoded = huffman::decode_block(&huff_blob, &mut pos).expect("Huffman decode failed");
        });
        let huff_fp = fnv1a(decoded.iter().map(|&v| u64::from(v)));
        measured.push(("huffman_decode", huff_symbols.len(), 0, huff_fp, secs));

        // Temporal delta codec of the version-5 streams: order-2 symbols
        // of this snapshot's codes against the two priors, and the
        // inverse.  The chunk-of-8 kernels are single-stream; like the
        // Huffman row they ride along at every thread count.
        let mut delta_syms: Vec<u32> = Vec::new();
        let secs = time_median(reps, || {
            delta::encode_order2(&huff_symbols, &delta_prev1, &delta_prev2, &mut delta_syms);
        });
        let delta_enc_fp = fnv1a(delta_syms.iter().map(|&v| u64::from(v)));
        measured.push(("delta_encode", huff_symbols.len(), 0, delta_enc_fp, secs));

        let mut delta_codes: Vec<u32> = Vec::new();
        let secs = time_median(reps, || {
            delta::decode_order2(&delta_syms, &delta_prev1, &delta_prev2, &mut delta_codes);
        });
        assert_eq!(
            delta_codes, huff_symbols,
            "temporal delta round-trip must reproduce the codes exactly"
        );
        let delta_dec_fp = fnv1a(delta_codes.iter().map(|&v| u64::from(v)));
        measured.push(("delta_decode", huff_symbols.len(), 0, delta_dec_fp, secs));

        // The checksum every checkpoint file carries, over the arena the
        // disk rows below write: one pass over its bytes, so it reads
        // against the triad ceiling like the vector kernels.
        let arena = disk_buffer.arena_bytes();
        let mut checksum = 0u32;
        let secs = time_median(reps, || checksum = crc32(arena));
        measured.push(("crc32", arena.len(), arena.len(), u64::from(checksum), secs));

        // The traditional checkpoint's encode of the values behind that
        // arena, into a reused output: it reads eight bytes and writes
        // eight per value, and its output is the arena (same fingerprint).
        let mut raw = Vec::new();
        let secs = time_median(reps, || {
            raw.clear();
            RawCodec.encode_into(&sz_data, sz_bound, None, &mut raw).expect("raw encode");
        });
        let raw_fp = u64::from(crc32(&raw));
        measured.push(("raw_encode", sz_data.len(), 16 * sz_data.len(), raw_fp, secs));

        // Durable disk tier: single-threaded file I/O, measured at every
        // thread count as a like-for-like row.  The write streams the
        // arena through the crash-consistent format (CRCs + fsync +
        // rename); the read re-validates every CRC.  Two untimed commits
        // fill the retention window, so every timed one is a steady-state
        // commit: it overwrites the file the previous one evicted.
        let mut disk_store =
            DiskStore::open(&disk_dir, 2).expect("opening the scratch checkpoint directory");
        let mut iteration = 0usize;
        let mut commit = || {
            disk_store
                .push_from_buffer(
                    iteration,
                    iteration as f64,
                    sz_len * 8,
                    None,
                    "traditional",
                    &[],
                    &mut disk_buffer,
                )
                .expect("disk checkpoint write failed");
            iteration += 1;
        };
        commit();
        commit();
        let secs = time_median(reps, commit);
        let written = disk_store
            .latest_valid()
            .expect("reading back the benchmark checkpoint");
        let disk_fp = u64::from(crc32(&written.payloads[0].1));
        measured.push(("disk_ckpt_write", sz_len, 0, disk_fp, secs));

        let mut read_back = written;
        let secs = time_median(reps, || {
            read_back = disk_store
                .latest_valid()
                .expect("validating the benchmark checkpoint");
        });
        let disk_read_fp = u64::from(crc32(&read_back.payloads[0].1));
        measured.push(("disk_ckpt_read", sz_len, 0, disk_read_fp, secs));

        for (name, elements, bytes, fingerprint, seconds) in measured {
            let (base_secs, base_fp) = *baseline
                .entry(name.to_string())
                .or_insert((seconds, fingerprint));
            let gb_per_s_computed = (bytes > 0).then(|| bytes as f64 / seconds / 1e9);
            rows.push(ScalingRow {
                kernel: name.to_string(),
                threads,
                elements,
                seconds,
                melem_per_s: elements as f64 / seconds / 1e6,
                speedup_vs_1t: base_secs / seconds,
                gb_per_s_computed,
                frac_of_triad: gb_per_s_computed.map(|g| g / triad_gbs),
                ns_per_row: matches!(name, "ilu0_factor" | "bjacobi_apply")
                    .then(|| seconds * 1e9 / n as f64),
                ms_per_iter: (name == "gmres_cycle").then(|| seconds * 1e3 / elements as f64),
                fingerprint: format!("{fingerprint:016x}"),
                bit_identical: fingerprint == base_fp,
            });
        }
    }
    rayon::set_max_active_threads(0);
    let _ = std::fs::remove_dir_all(&disk_dir);

    // --- reporting --------------------------------------------------------
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                r.threads.to_string(),
                r.elements.to_string(),
                fmt(r.seconds * 1e3, 3),
                fmt(r.melem_per_s, 1),
                fmt(r.speedup_vs_1t, 2),
                r.gb_per_s_computed.map_or("-".into(), |g| fmt(g, 2)),
                r.frac_of_triad.map_or("-".into(), |f| fmt(f, 2)),
                r.ns_per_row.map_or("-".into(), |t| fmt(t, 2)),
                r.ms_per_iter.map_or("-".into(), |t| fmt(t, 3)),
                if r.bit_identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Kernel scaling (deterministic pool)",
        &[
            "kernel",
            "threads",
            "elements",
            "ms",
            "Melem/s",
            "speedup",
            "GB/s",
            "of triad",
            "ns/row",
            "ms/iter",
            "bit-identical",
        ],
        &table,
    );
    print_json("scaling_kernels", &rows);

    let every_result_identical = rows.iter().all(|r| r.bit_identical);
    assert!(
        every_result_identical,
        "determinism violation: some kernel result changed with the thread count"
    );
}
