//! SZ-style prediction-based, error-bounded lossy compressor.
//!
//! This is a from-scratch re-implementation of the algorithmic core of the
//! SZ 1.4 compressor the paper uses (Di & Cappello, IPDPS'16; Tao et al.,
//! IPDPS'17) specialised to 1-D `f64` data — which is all the lossy
//! checkpointing scheme needs, because the dynamic variables of iterative
//! methods are 1-D vectors (§5.1 of the paper).
//!
//! Pipeline (compression):
//!
//! 1. **Prediction.** Each value is predicted from the *previously
//!    reconstructed* values with the better of a 1-step (Lorenzo) or 2-step
//!    linear extrapolation predictor.
//! 2. **Linear-scaling quantization.** The prediction error is quantized to
//!    an integer bin of width `2·eb`, guaranteeing `|x − x'| ≤ eb`.
//! 3. **Huffman coding** of the bin indices (they cluster tightly around the
//!    zero bin on smooth data, giving the 20–60× ratios in Table 3).
//! 4. **Unpredictable values** whose bin index would overflow the code range
//!    are stored verbatim (IEEE-754 bits) and flagged with the reserved bin 0.
//!
//! Prediction and quantization run as one fused, branch-light pass per
//! parallel block, writing into per-thread scratch buffers that persist
//! across blocks (no per-block `Vec` churn), and the entropy stage uses the
//! word-buffered bitstream and table-driven canonical Huffman codec.
//!
//! Point-wise relative bounds (`ErrorBound::PointwiseRel`) are honoured with
//! the standard SZ trick: compress `ln|x|` under an absolute bound
//! `ln(1 + eb)` with the signs and exact zeros stored in side channels;
//! value-range-relative bounds are mapped to an absolute bound
//! `eb·(max − min)`.
//!
//! ## Stream versions
//!
//! | version | layout                                                        |
//! |---------|---------------------------------------------------------------|
//! | 4       | block-split; per block Huffman blob + varint unpredictable count (stateless) |
//! | 5       | v4 plus a per-variable [`DeltaMode`] byte before the block container: codes may be **temporal deltas** against the prior snapshot's codes, unpredictable values XOR-coded against the prior snapshot's bits (8 Huffman byte planes), and point-wise-relative zero/sign bitmaps either carried raw or inherited from the previous log link (see [`SzCompressor::compress_temporal_into`]) |
//!
//! Version 4 is what [`SzCompressor::compress`] emits; version 5 is what
//! the temporal (anchored-delta-chain) entry points emit.  A version-5
//! stream whose mode is [`DeltaMode::None`] is a self-contained **anchor**
//! and decodes through the stateless [`LossyCompressor::decompress`];
//! delta streams need their chain and decode through
//! [`SzCompressor::decompress_chain`].

use crate::bitstream::{bytes, BitReader, BitWriter};
use crate::delta::{self, DeltaMode};
use crate::{huffman, parblock};
use crate::{CompressError, Compressed, ErrorBound, LossyCompressor, Result};
use std::cell::RefCell;

/// Codec id stored in the stream header.
const CODEC_ID: u8 = 1;
/// Stream-format version written by the stateless compressor.
const VERSION: u8 = 4;
/// Stream-format version written by the temporal (delta-chain) entry
/// points; carries the per-variable [`DeltaMode`] header byte.
const TEMPORAL_VERSION: u8 = 5;

/// Half the number of quantization bins on each side of the zero bin.
/// 65536 intervals matches SZ's default `max_quant_intervals`.
const QUANT_RADIUS: i64 = 32_768;

/// Elements per independently compressed block.  The predictor restarts at
/// each block boundary, so blocks can be quantized, Huffman-coded and
/// decoded in parallel — and since every block's stream is produced
/// independently and concatenated in block order, the encoded bytes are
/// identical at any thread count.  Large enough that the per-block Huffman
/// table and the predictor warm-up cost are noise (<0.1% of a block).
const PAR_BLOCK: usize = 65_536;

thread_local! {
    /// Per-thread quantization-code scratch, reused across blocks (the
    /// worker threads of the deterministic pool persist, so each thread
    /// allocates these once).
    static QUANT_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread unpredictable-value scratch.
    static UNPRED_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Per-thread dense code histogram, kept all-zero between blocks (the
    /// Huffman builder zeroes the entries it consumed).
    static HIST_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread temporal-delta symbol scratch.
    static DELTA_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread dense histogram for temporal-delta symbols (their range
    /// exceeds [`N_CODES`], so they get their own table), grown on demand
    /// and kept all-zero between blocks like [`HIST_SCRATCH`].
    static DELTA_HIST_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Number of distinct quantization codes (`0` = unpredictable, then the
/// `2·QUANT_RADIUS − 1` bins shifted by `QUANT_RADIUS + 1`).
const N_CODES: usize = 2 * QUANT_RADIUS as usize + 2;

/// Rounds a scaled value to its integer grid point with the `1.5·2^52`
/// magic-constant trick (round-to-nearest, ties to even) — two additions
/// instead of a libm `round` call, and auto-vectorizable.  Exact for
/// `|v| < 2^51`; larger magnitudes produce *some* deterministic value that
/// the quantizer's range check rejects, and the decoder computes the
/// identical function, so encoder and decoder grids always agree.
#[inline]
fn grid_round(v: f64) -> f64 {
    const MAGIC: f64 = 6_755_399_441_055_744.0; // 1.5 * 2^52
    (v + MAGIC) - MAGIC
}

/// Largest grid magnitude the quantizer accepts as predictable.  Below
/// this bound every add/sub in the predictor is exact integer f64
/// arithmetic (all intermediates stay under 2^53), so the decoder's
/// reconstruction provably reproduces the encoder's grid value bit for
/// bit — no per-element replay check is needed and the whole quantization
/// pass is branch-light straight-line float code.
const GRID_MAX: f64 = (1u64 << 50) as f64;

/// Internal mode tag for the value transform applied before quantization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transform {
    /// Values compressed directly under an absolute bound.
    Identity = 0,
    /// `ln|x|` compressed under an absolute bound; signs/zeros in side
    /// channels (point-wise relative mode).
    Log = 1,
}

/// The SZ-style compressor.  Stateless and cheap to construct; the error
/// bound is supplied per call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SzCompressor;

impl SzCompressor {
    /// Creates a compressor.
    pub fn new() -> Self {
        SzCompressor
    }

    /// Fused prediction + linear-scaling quantization over one block,
    /// emitting bin codes into `quant`, out-of-range values into `unpred`
    /// (both cleared first) and symbol frequencies into `hist` (assumed
    /// all-zero on entry).  The predictor state starts from zero, so the
    /// block is decodable in isolation.
    ///
    /// The version-4 formulation works on the integer grid: every value is
    /// independently rounded to `r = round(x / 2eb)` and the bin codes are
    /// second differences of those integers.  Unlike the classic
    /// reconstruct-then-predict chain — which serialises one division, one
    /// libm rounding and two multiplies per element through a loop-carried
    /// FP dependency — each element's predictor inputs are independent
    /// roundings of its own *shifted value windows* (`x[i-1]`, `x[i-2]`),
    /// so the coding pass has no floating-point dependency chain and no
    /// materialised grid array: rounding a window element twice costs two
    /// vector ops, where the former grid scratch cost a full store+reload
    /// sweep of cache traffic per block.
    ///
    /// An element is coded (rather than stored verbatim) only if its
    /// window satisfies `|r| ≤ 2^50` and `|bin| < 2^15`, in which case
    /// every predictor add/sub below 2^53 is exact integer-f64 arithmetic
    /// and the decoder provably lands on the same grid point, and if the
    /// decoder's reconstruction `r · 2eb` (computed here with the same
    /// rounding) honours the bound.  NaN/∞ fail the comparisons and fall
    /// back to verbatim storage wholesale.
    /// Returns the inclusive `(min, max)` range of emitted codes (with
    /// `min > max` for the empty block), so the Huffman builder can scan
    /// only the live span of the 65 538-entry histogram.
    fn quantize_block(
        values: &[f64],
        abs_eb: f64,
        quant: &mut Vec<u32>,
        unpred: &mut Vec<f64>,
        hist: &mut [u32],
    ) -> (u32, u32) {
        let n = values.len();
        quant.clear();
        unpred.clear();
        quant.reserve(n);
        let two_eb = 2.0 * abs_eb;
        let inv = 1.0 / two_eb;

        // Coding pass (vectorizable): window codes.  The predictor inputs
        // `r1`/`r2` are the roundings of the two previous *values* (0.0
        // for the virtual elements before the block, matching the
        // order-0/1 warm-up predictors), recomputed per element from
        // shifted windows of `values` — `grid_round` is pure, so the
        // recomputed rounding is bit-identical to a stored one.  Every
        // element's code is then a pure branch-free expression of
        // `(x, r, r1, r2)` (the `if ok` compiles to a select; the
        // `f64 → u32` cast is saturating, hence defined even for the
        // not-taken lane), which the compiler turns into straight vector
        // code with no loop-carried state and no grid scratch traffic.
        let g = |x: f64| grid_round(x * inv);
        let shift = (QUANT_RADIUS + 1) as f64;
        let code_of = |x: f64, r: f64, r1: f64, r2: f64, pred: f64| -> u32 {
            let bin = r - pred;
            let ok = bin.abs() < QUANT_RADIUS as f64
                && r.abs() <= GRID_MAX
                && r1.abs() <= GRID_MAX
                && r2.abs() <= GRID_MAX
                && (x - r * two_eb).abs() <= abs_eb;
            // Code 0 is reserved for "unpredictable"; bins map to
            // 2..=2·QUANT_RADIUS.
            if ok {
                (bin + shift) as u32
            } else {
                0
            }
        };
        // Live-code range accumulators, fused into the coding pass as
        // eight independent integer lanes (u32 min/max is exact, so lane
        // order cannot change the result) — saves a full re-scan of the
        // code array.
        let mut lane_min = [u32::MAX; 8];
        let mut lane_max = [0u32; 8];
        if n >= 1 {
            let code = code_of(values[0], g(values[0]), 0.0, 0.0, 0.0);
            lane_min[0] = lane_min[0].min(code);
            lane_max[0] = lane_max[0].max(code);
            quant.push(code);
        }
        if n >= 2 {
            let r1 = g(values[0]);
            let code = code_of(values[1], g(values[1]), r1, 0.0, r1);
            lane_min[0] = lane_min[0].min(code);
            lane_max[0] = lane_max[0].max(code);
            quant.push(code);
        }
        if n >= 3 {
            // Chunk-of-8 coding with carried neighbour roundings: each
            // element is rounded exactly once per chunk and its predictor
            // inputs are the (pure, hence bit-identical) roundings of the
            // two previous elements, carried across the chunk boundary as
            // two scalars.  The 8-lane body fully unrolls; the carries are
            // value reuse, not an FP dependency chain — every `r[i]` is an
            // independent rounding of its own input.
            let mut c1 = g(values[1]);
            let mut c2 = g(values[0]);
            let mut chunks = values[2..].chunks_exact(8);
            for c in &mut chunks {
                let mut r = [0.0f64; 8];
                for i in 0..8 {
                    r[i] = g(c[i]);
                }
                let mut codes = [0u32; 8];
                for i in 0..8 {
                    let r1 = if i >= 1 { r[i - 1] } else { c1 };
                    let r2 = if i >= 2 {
                        r[i - 2]
                    } else if i == 1 {
                        c1
                    } else {
                        c2
                    };
                    codes[i] = code_of(c[i], r[i], r1, r2, 2.0 * r1 - r2);
                }
                for i in 0..8 {
                    lane_min[i] = lane_min[i].min(codes[i]);
                    lane_max[i] = lane_max[i].max(codes[i]);
                }
                quant.extend_from_slice(&codes);
                c1 = r[7];
                c2 = r[6];
            }
            for &x in chunks.remainder() {
                let r = g(x);
                let code = code_of(x, r, c1, c2, 2.0 * c1 - c2);
                lane_min[0] = lane_min[0].min(code);
                lane_max[0] = lane_max[0].max(code);
                quant.push(code);
                c2 = c1;
                c1 = r;
            }
        }

        let min_code = lane_min.into_iter().min().unwrap_or(u32::MAX);
        let max_code = lane_max.into_iter().max().unwrap_or(0);

        // Scatter pass: four interleaved sub-histograms over the live code
        // span break the store-to-load dependency that serialises runs of
        // equal codes (the common case for smooth fields, where one or two
        // bins dominate the block), then fold into the shared histogram.
        // The sub-histograms only span `[min_code, max_code]`, so the
        // scratch stays small for exactly the blocks where this pass is
        // hot.
        if min_code <= max_code {
            let base = min_code as usize;
            let span = (max_code - min_code) as usize + 1;
            let mut sub = vec![0u32; span * 4];
            let mut chunks = quant.chunks_exact(4);
            for c in &mut chunks {
                sub[(c[0] as usize - base) * 4] += 1;
                sub[(c[1] as usize - base) * 4 + 1] += 1;
                sub[(c[2] as usize - base) * 4 + 2] += 1;
                sub[(c[3] as usize - base) * 4 + 3] += 1;
            }
            for &code in chunks.remainder() {
                sub[(code as usize - base) * 4] += 1;
            }
            for (i, s) in sub.chunks_exact(4).enumerate() {
                hist[base + i] += s[0] + s[1] + s[2] + s[3];
            }
            // Verbatim collection only runs when code 0 was actually
            // emitted; fully predictable blocks skip the whole pass.
            if min_code == 0 {
                for (&code, &x) in quant.iter().zip(values) {
                    if code == 0 {
                        unpred.push(x);
                    }
                }
            }
        }
        (min_code, max_code)
    }

    /// Core absolute-error-bound compression of a pre-transformed stream.
    ///
    /// The stream is cut into [`PAR_BLOCK`]-element blocks that are
    /// predicted, quantized and Huffman-coded independently (and therefore
    /// in parallel), then concatenated in block order behind a length
    /// table:
    ///
    /// ```text
    /// [u64 nblocks][u64 len × nblocks][block bytes …]
    /// ```
    fn compress_abs(values: &[f64], abs_eb: f64, out: &mut Vec<u8>) {
        let n = values.len();
        parblock::encode_blocks(out, n.div_ceil(PAR_BLOCK), |b| {
            let start = b * PAR_BLOCK;
            let end = ((b + 1) * PAR_BLOCK).min(n);
            Self::encode_block_abs(&values[start..end], abs_eb)
        });
    }

    /// Quantization + entropy coding of one block in the version-4 layout:
    ///
    /// ```text
    /// [huffman v2 blob][varint n_unpred][f64 × n_unpred]
    /// ```
    fn encode_block_abs(values: &[f64], abs_eb: f64) -> Vec<u8> {
        QUANT_SCRATCH.with(|q| {
            UNPRED_SCRATCH.with(|u| {
                HIST_SCRATCH.with(|h| {
                    let quant = &mut q.borrow_mut();
                    let unpred = &mut u.borrow_mut();
                    let hist = &mut h.borrow_mut();
                    if hist.is_empty() {
                        hist.resize(N_CODES, 0);
                    }
                    let (lo, hi) = Self::quantize_block(values, abs_eb, quant, unpred, hist);
                    let mut out = Vec::with_capacity(values.len() / 2 + 32);
                    // The Huffman builder consumes the histogram and
                    // zeroes the entries it used, keeping the scratch
                    // all-zero for the next block; the live-code range
                    // from quantization confines its scan to the
                    // occupied span of the 65 538-entry table.
                    huffman::encode_block_from_hist_range(quant, hist, lo, hi, &mut out);
                    bytes::put_varint(&mut out, unpred.len() as u64);
                    for v in unpred.iter() {
                        bytes::put_f64(&mut out, *v);
                    }
                    out
                })
            })
        })
    }

    /// Inverse of [`SzCompressor::compress_abs`]: reads the block length
    /// table, then decodes the independent blocks in parallel and
    /// concatenates them in block order.
    fn decompress_abs(buf: &[u8], pos: &mut usize, n: usize, abs_eb: f64) -> Result<Vec<f64>> {
        parblock::decode_blocks(buf, pos, n.div_ceil(PAR_BLOCK), n, "SZ", |b, block| {
            let block_n = (((b + 1) * PAR_BLOCK).min(n)) - b * PAR_BLOCK;
            Self::decode_block_abs(block, block_n, abs_eb)
        })
    }

    /// Inverse of [`SzCompressor::encode_block_abs`].
    fn decode_block_abs(block: &[u8], n: usize, abs_eb: f64) -> Result<Vec<f64>> {
        QUANT_SCRATCH.with(|q| {
            let quant = &mut q.borrow_mut();
            let pos = &mut 0usize;
            huffman::decode_block_into(block, pos, quant)?;
            let n_unpred = bytes::get_varint(block, pos)? as usize;
            if quant.len() != n {
                return Err(CompressError::Corrupt(format!(
                    "expected {n} quantization codes, found {}",
                    quant.len()
                )));
            }
            // The unpredictable values are read straight off the stream
            // slice; the length pre-check keeps corrupt counts from
            // over-allocating or wrapping.
            let unpred_len = n_unpred
                .checked_mul(8)
                .ok_or_else(|| CompressError::Corrupt("unpredictable count overflow".into()))?;
            let unpred_bytes = bytes::get_slice(block, pos, unpred_len)?;
            Self::reconstruct_block_v4(quant, unpred_bytes, abs_eb)
        })
    }

    /// Grid-space value reconstruction of one version-4/5 block from its
    /// (fully un-delta'd) quantization codes and verbatim-value bytes —
    /// the exact loop the v4 decoder runs, factored out so the delta-chain
    /// decoder reconstructs the final link through the identical code path
    /// (bit-identical restarts by construction).
    fn reconstruct_block_v4(quant: &[u32], unpred_bytes: &[u8], abs_eb: f64) -> Result<Vec<f64>> {
        let mut unpred_iter = unpred_bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")));
        Self::reconstruct_block_from(quant, &mut unpred_iter, abs_eb)
    }

    /// [`SzCompressor::reconstruct_block_v4`] over an arbitrary source of
    /// unpredictable values (the delta-chain decoder feeds the un-XORed
    /// tail it materialized instead of raw stream bytes).
    fn reconstruct_block_from(
        quant: &[u32],
        unpred_iter: &mut dyn Iterator<Item = f64>,
        abs_eb: f64,
    ) -> Result<Vec<f64>> {
        let two_eb = 2.0 * abs_eb;
        let inv = 1.0 / two_eb;
        let mut out = Vec::with_capacity(quant.len());
        let mut rp = 0.0f64;
        let mut rp2 = 0.0f64;
        for (i, &code) in quant.iter().enumerate() {
            let pred = if i >= 2 {
                2.0 * rp - rp2
            } else if i == 1 {
                rp
            } else {
                0.0
            };
            rp2 = rp;
            let value = if code == 0 {
                let x = unpred_iter
                    .next()
                    .ok_or_else(|| CompressError::Corrupt("missing unpredictable value".into()))?;
                rp = grid_round(x * inv);
                x
            } else {
                let bin = (i64::from(code) - 1 - QUANT_RADIUS) as f64;
                let r = pred + bin;
                rp = r;
                r * two_eb
            };
            out.push(value);
        }
        Ok(out)
    }

    /// Shared body of [`LossyCompressor::compress`] /
    /// [`LossyCompressor::compress_into`]: appends a complete stream to
    /// `out`.
    fn compress_to(&self, data: &[f64], bound: ErrorBound, out: &mut Vec<u8>) -> Result<()> {
        let eb = bound.value();
        if !(eb.is_finite() && eb > 0.0) {
            return Err(CompressError::InvalidBound(eb));
        }

        out.reserve(data.len() / 2 + 64);
        out.push(CODEC_ID);
        out.push(VERSION);
        bytes::put_u64(out, data.len() as u64);

        match bound {
            ErrorBound::Abs(abs) => {
                out.push(Transform::Identity as u8);
                bytes::put_f64(out, abs);
                Self::compress_abs(data, abs, out);
            }
            ErrorBound::ValueRangeRel(rel) => {
                let (min, max) = min_max(data);
                let range = (max - min).abs();
                // Degenerate constant data: any positive bound works.
                let abs = if range > 0.0 {
                    rel * range
                } else {
                    rel.max(f64::MIN_POSITIVE)
                };
                out.push(Transform::Identity as u8);
                bytes::put_f64(out, abs);
                Self::compress_abs(data, abs, out);
            }
            ErrorBound::PointwiseRel(rel) => {
                out.push(Transform::Log as u8);
                // Bound in log space guaranteeing |x'/x - 1| <= rel:
                // use ln(1+rel) and note exp(-d) >= 1-rel for d = ln(1+rel).
                let log_eb = rel.ln_1p();
                if !(log_eb.is_finite() && log_eb > 0.0) {
                    return Err(CompressError::InvalidBound(rel));
                }
                bytes::put_f64(out, rel);

                // Sign bits + zero flags side channel, then log magnitudes.
                let mut signs = BitWriter::with_capacity(data.len() / 8 + 1);
                let mut zeros = BitWriter::with_capacity(data.len() / 8 + 1);
                let mut logs: Vec<f64> = Vec::with_capacity(data.len());
                for &x in data {
                    zeros.write_bit(x == 0.0);
                    signs.write_bit(x.is_sign_negative());
                    if x != 0.0 {
                        logs.push(x.abs().ln());
                    }
                }
                let zero_bytes = zeros.into_bytes();
                let sign_bytes = signs.into_bytes();
                bytes::put_u64(out, zero_bytes.len() as u64);
                out.extend_from_slice(&zero_bytes);
                bytes::put_u64(out, sign_bytes.len() as u64);
                out.extend_from_slice(&sign_bytes);
                bytes::put_u64(out, logs.len() as u64);
                Self::compress_abs(&logs, log_eb, out);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Temporal (anchored delta-chain) layer — stream version 5.
    // ------------------------------------------------------------------

    /// Parses the common stream prologue (any supported version).  For
    /// version-5 streams the per-variable [`DeltaMode`] byte follows the
    /// error bound; version-4 streams are implicitly [`DeltaMode::None`].
    fn parse_header(buf: &[u8], pos: &mut usize) -> Result<StreamHeader> {
        let codec = bytes::get_slice(buf, pos, 1)?[0];
        if codec != CODEC_ID {
            return Err(CompressError::WrongCodec {
                found: codec,
                expected: CODEC_ID,
            });
        }
        let version = bytes::get_slice(buf, pos, 1)?[0];
        if !(VERSION..=TEMPORAL_VERSION).contains(&version) {
            return Err(CompressError::Corrupt(format!(
                "unsupported SZ stream version {version}"
            )));
        }
        let n = bytes::get_u64(buf, pos)? as usize;
        let transform = bytes::get_slice(buf, pos, 1)?[0];
        let eb = bytes::get_f64(buf, pos)?;
        let mode = if version >= TEMPORAL_VERSION {
            let tag = bytes::get_slice(buf, pos, 1)?[0];
            DeltaMode::from_u8(tag).ok_or_else(|| {
                CompressError::Corrupt(format!("unknown delta mode tag {tag}"))
            })?
        } else {
            DeltaMode::None
        };
        Ok(StreamHeader {
            n,
            transform,
            eb,
            mode,
        })
    }

    /// Reads the point-wise-relative side channels (`zero` / `sign`
    /// bitmaps and the log-magnitude count) off the stream.
    fn read_log_side_channels<'a>(
        buf: &'a [u8],
        pos: &mut usize,
    ) -> Result<(&'a [u8], &'a [u8], usize)> {
        let zero_len = bytes::get_u64(buf, pos)? as usize;
        let zero_bytes = bytes::get_slice(buf, pos, zero_len)?;
        let sign_len = bytes::get_u64(buf, pos)? as usize;
        let sign_bytes = bytes::get_slice(buf, pos, sign_len)?;
        let n_logs = bytes::get_u64(buf, pos)? as usize;
        Ok((zero_bytes, sign_bytes, n_logs))
    }

    /// Reads a delta stream's point-wise-relative side channels: each
    /// bitmap is either flagged as inherited from the previous log link
    /// of the chain or carried raw (`u8 flag`, then the raw section when
    /// the flag is 0).
    fn read_log_side_channels_delta(
        buf: &[u8],
        pos: &mut usize,
        idx: usize,
        prev: Option<&(Vec<u8>, Vec<u8>)>,
    ) -> Result<(Vec<u8>, Vec<u8>, usize)> {
        let read_bitmap = |pos: &mut usize,
                               which: &str,
                               prev_bytes: Option<&[u8]>|
         -> Result<Vec<u8>> {
            let flag = bytes::get_slice(buf, pos, 1)?[0];
            match flag {
                0 => {
                    let len = bytes::get_u64(buf, pos)? as usize;
                    Ok(bytes::get_slice(buf, pos, len)?.to_vec())
                }
                1 => prev_bytes.map(<[u8]>::to_vec).ok_or_else(|| {
                    CompressError::Corrupt(format!(
                        "chain link {idx}: inherits its {which} bitmap with no prior log link"
                    ))
                }),
                other => Err(CompressError::Corrupt(format!(
                    "chain link {idx}: unknown {which} bitmap flag {other}"
                ))),
            }
        };
        let zero = read_bitmap(pos, "zero", prev.map(|p| p.0.as_slice()))?;
        let sign = read_bitmap(pos, "sign", prev.map(|p| p.1.as_slice()))?;
        let n_logs = bytes::get_u64(buf, pos)? as usize;
        Ok((zero, sign, n_logs))
    }

    /// Reassembles point-wise-relative values from the decoded log
    /// magnitudes and the zero/sign bitmaps.
    fn expand_log(
        zero_bytes: &[u8],
        sign_bytes: &[u8],
        logs: Vec<f64>,
        n: usize,
    ) -> Result<Vec<f64>> {
        let mut zero_reader = BitReader::new(zero_bytes);
        let mut sign_reader = BitReader::new(sign_bytes);
        let mut log_iter = logs.into_iter();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let is_zero = zero_reader.read_bit()?;
            let is_neg = sign_reader.read_bit()?;
            if is_zero {
                out.push(if is_neg { -0.0 } else { 0.0 });
            } else {
                let mag = log_iter
                    .next()
                    .ok_or_else(|| CompressError::Corrupt("missing log magnitude".into()))?
                    .exp();
                out.push(if is_neg { -mag } else { mag });
            }
        }
        Ok(out)
    }

    /// Compresses one snapshot of a variable into a version-5 stream,
    /// encoding its quantization codes as temporal deltas against the
    /// prior snapshot's codes retained in `state` whenever that is both
    /// possible and smaller than direct coding.
    ///
    /// The candidate streams (direct, order-1, and — with two retained
    /// priors and `max_order == Order2` — order-2) are entropy-coded
    /// per block in one parallel pass over the data, and the smallest
    /// total wins; ties prefer the lower order, so an anchor is emitted
    /// whenever delta coding does not pay.  `force_anchor` pins the
    /// stream to [`DeltaMode::None`] regardless (the periodic anchors of
    /// a checkpoint chain).  The delta transform is lossless on the
    /// codes, so replaying the chain reconstructs values bit-identically
    /// to a direct decode of the same snapshot.
    ///
    /// `state` is always updated to hold this snapshot's codes (even
    /// when direct coding wins) and is never consulted when the shape or
    /// transform of the stream changed — such snapshots fall back to
    /// direct coding automatically.  Returns the mode actually written.
    ///
    /// # Errors
    /// Rejects non-finite or non-positive error bounds; the stream
    /// layout itself cannot fail to encode.
    pub fn compress_temporal_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        max_order: DeltaMode,
        force_anchor: bool,
        state: &mut SzTemporalState,
        out: &mut Vec<u8>,
    ) -> Result<DeltaMode> {
        let eb = bound.value();
        if !(eb.is_finite() && eb > 0.0) {
            return Err(CompressError::InvalidBound(eb));
        }

        out.reserve(data.len() / 2 + 64);
        out.push(CODEC_ID);
        out.push(TEMPORAL_VERSION);
        bytes::put_u64(out, data.len() as u64);

        // The mode byte sits right after the error bound for every
        // transform; it is decided after the candidate encodings are
        // sized, so a placeholder is written now and patched below.
        let mode = match bound {
            ErrorBound::Abs(abs) => {
                out.push(Transform::Identity as u8);
                bytes::put_f64(out, abs);
                let mode_pos = out.len();
                out.push(DeltaMode::None as u8);
                let mode = Self::compress_abs_temporal(
                    data,
                    abs,
                    StateKey {
                        transform: Transform::Identity as u8,
                        n_codes: data.len(),
                    },
                    max_order,
                    force_anchor,
                    0,
                    0,
                    state,
                    out,
                );
                state.zeros1.clear();
                state.signs1.clear();
                out[mode_pos] = mode as u8;
                mode
            }
            ErrorBound::ValueRangeRel(rel) => {
                let (min, max) = min_max(data);
                let range = (max - min).abs();
                let abs = if range > 0.0 {
                    rel * range
                } else {
                    rel.max(f64::MIN_POSITIVE)
                };
                out.push(Transform::Identity as u8);
                bytes::put_f64(out, abs);
                let mode_pos = out.len();
                out.push(DeltaMode::None as u8);
                let mode = Self::compress_abs_temporal(
                    data,
                    abs,
                    StateKey {
                        transform: Transform::Identity as u8,
                        n_codes: data.len(),
                    },
                    max_order,
                    force_anchor,
                    0,
                    0,
                    state,
                    out,
                );
                state.zeros1.clear();
                state.signs1.clear();
                out[mode_pos] = mode as u8;
                mode
            }
            ErrorBound::PointwiseRel(rel) => {
                out.push(Transform::Log as u8);
                let log_eb = rel.ln_1p();
                if !(log_eb.is_finite() && log_eb > 0.0) {
                    return Err(CompressError::InvalidBound(rel));
                }
                bytes::put_f64(out, rel);
                let mode_pos = out.len();
                out.push(DeltaMode::None as u8);

                let mut signs = BitWriter::with_capacity(data.len() / 8 + 1);
                let mut zeros = BitWriter::with_capacity(data.len() / 8 + 1);
                let mut logs: Vec<f64> = Vec::with_capacity(data.len());
                for &x in data {
                    zeros.write_bit(x == 0.0);
                    signs.write_bit(x.is_sign_negative());
                    if x != 0.0 {
                        logs.push(x.abs().ln());
                    }
                }
                let zero_bytes = zeros.into_bytes();
                let sign_bytes = signs.into_bytes();

                // A delta stream inherits each bitmap from the prior link
                // when it is byte-identical (the common case: zero and
                // sign patterns of an iterative solve are stable), paying
                // one flag byte instead of the raw section.  The raw /
                // delta side-channel costs feed the mode decision, so a
                // stream whose bitmaps dominate can still pick delta.
                let same_zero = !force_anchor && state.zeros1 == zero_bytes;
                let same_sign = !force_anchor && state.signs1 == sign_bytes;
                let raw_zero = 8 + zero_bytes.len();
                let raw_sign = 8 + sign_bytes.len();
                let side_raw = raw_zero + raw_sign;
                let side_delta = (1 + if same_zero { 0 } else { raw_zero })
                    + (1 + if same_sign { 0 } else { raw_sign });

                // The side-channel layout depends on the winning mode,
                // which is only known after the blocks are sized — encode
                // the container into a scratch buffer first.
                //
                // The temporal delta applies to the log-magnitude
                // sub-stream; a changed zero pattern changes `n_codes`
                // and falls back to an anchor via the state key.
                let mut container = Vec::new();
                let mode = Self::compress_abs_temporal(
                    &logs,
                    log_eb,
                    StateKey {
                        transform: Transform::Log as u8,
                        n_codes: logs.len(),
                    },
                    max_order,
                    force_anchor,
                    side_raw,
                    side_delta,
                    state,
                    &mut container,
                );
                out[mode_pos] = mode as u8;
                if mode == DeltaMode::None {
                    bytes::put_u64(out, zero_bytes.len() as u64);
                    out.extend_from_slice(&zero_bytes);
                    bytes::put_u64(out, sign_bytes.len() as u64);
                    out.extend_from_slice(&sign_bytes);
                } else {
                    out.push(u8::from(same_zero));
                    if !same_zero {
                        bytes::put_u64(out, zero_bytes.len() as u64);
                        out.extend_from_slice(&zero_bytes);
                    }
                    out.push(u8::from(same_sign));
                    if !same_sign {
                        bytes::put_u64(out, sign_bytes.len() as u64);
                        out.extend_from_slice(&sign_bytes);
                    }
                }
                bytes::put_u64(out, logs.len() as u64);
                out.extend_from_slice(&container);
                state.zeros1 = zero_bytes;
                state.signs1 = sign_bytes;
                mode
            }
        };
        Ok(mode)
    }

    /// Temporal counterpart of [`SzCompressor::compress_abs`]: quantizes
    /// each block once, entropy-codes every available candidate (direct /
    /// order-1 / order-2) in the same parallel pass, writes the framed
    /// container of the stream-wide winning blocks, rotates this
    /// snapshot's codes into `state`, and returns the winning mode (the
    /// caller patches it into the header's mode byte).
    /// `side_raw` / `side_delta` are the byte costs of the stream's side
    /// channels under direct and delta coding respectively (the Log
    /// transform's bitmaps inherit from the prior link when unchanged, so
    /// a delta stream can be cheaper than its blocks alone suggest); the
    /// winner is picked on total stream bytes.
    #[allow(clippy::too_many_arguments)]
    fn compress_abs_temporal(
        values: &[f64],
        abs_eb: f64,
        key: StateKey,
        max_order: DeltaMode,
        force_anchor: bool,
        side_raw: usize,
        side_delta: usize,
        state: &mut SzTemporalState,
        out: &mut Vec<u8>,
    ) -> DeltaMode {
        let code_n = values.len();
        let nblocks = code_n.div_ceil(PAR_BLOCK);
        let shape_ok = state.key == Some(key) && state.codes1.len() == code_n;
        let mut prior1_ok = !force_anchor && max_order != DeltaMode::None && shape_ok;

        // The delta tail XORs each unpredictable value against the prior
        // snapshot's value at the same element position, so each block
        // needs its slice of the retained values: the offset is the number
        // of reserved (code 0) bins in the prior codes before the block.
        let mut unpred_offsets = Vec::new();
        if prior1_ok {
            unpred_offsets = Self::unpred_offsets(&state.codes1);
            // Defensive: a retained value per reserved bin, or no priors.
            prior1_ok = state.unpred1.len() == unpred_offsets[nblocks];
        }
        let prior2_ok = prior1_ok
            && max_order == DeltaMode::Order2
            && state.prev2_valid
            && state.codes2.len() == code_n;

        let blocks: Vec<TemporalBlock> = {
            let prev1 = prior1_ok.then_some(state.codes1.as_slice());
            let prev2 = prior2_ok.then_some(state.codes2.as_slice());
            let prev_unpred = prior1_ok.then_some(state.unpred1.as_slice());
            parblock::map_blocks(nblocks, |b| {
                let start = b * PAR_BLOCK;
                let end = ((b + 1) * PAR_BLOCK).min(code_n);
                Self::encode_block_temporal(
                    &values[start..end],
                    abs_eb,
                    prev1.map(|p| &p[start..end]),
                    prev2.map(|p| &p[start..end]),
                    prev_unpred.map(|u| &u[unpred_offsets[b]..unpred_offsets[b + 1]]),
                )
            })
        };

        // Stream-wide winner by total stream bytes (blocks plus the side
        // channels each outcome would carry); strict `<` prefers the
        // lower order (and hence an anchor) on ties.
        let direct_total: usize = blocks.iter().map(|t| t.direct.len()).sum();
        let mut best = (direct_total + side_raw, DeltaMode::None);
        if prior1_ok {
            let total = blocks
                .iter()
                .map(|t| t.delta1.as_ref().map_or(0, Vec::len))
                .sum::<usize>()
                + side_delta;
            if total < best.0 {
                best = (total, DeltaMode::Order1);
            }
        }
        if prior2_ok {
            let total = blocks
                .iter()
                .map(|t| t.delta2.as_ref().map_or(0, Vec::len))
                .sum::<usize>()
                + side_delta;
            if total < best.0 {
                best = (total, DeltaMode::Order2);
            }
        }
        let mode = best.1;

        // Rotate this snapshot's codes into the retained state: the old
        // `codes1` buffer becomes `codes2` (valid only if it belonged to
        // the same stream shape) and the freed buffer absorbs the new
        // codes — no steady-state reallocation.
        std::mem::swap(&mut state.codes1, &mut state.codes2);
        state.prev2_valid = shape_ok;
        state.codes1.clear();
        state.codes1.reserve(code_n);
        state.unpred1.clear();
        let mut chosen = Vec::with_capacity(nblocks);
        for t in blocks {
            state.codes1.extend_from_slice(&t.codes);
            state.unpred1.extend_from_slice(&t.unpred);
            chosen.push(match mode {
                DeltaMode::None => t.direct,
                DeltaMode::Order1 => t.delta1.expect("order-1 candidate exists"),
                DeltaMode::Order2 => t.delta2.expect("order-2 candidate exists"),
            });
        }
        state.key = Some(key);
        parblock::write_container(out, &chosen);
        mode
    }

    /// Quantizes one block and entropy-codes every candidate encoding of
    /// it.  The direct candidate carries the verbatim-value tail; the
    /// delta candidates carry the temporally XOR-coded tail (their values
    /// decode bit-identically through the chain replay).
    fn encode_block_temporal(
        values: &[f64],
        abs_eb: f64,
        prev1: Option<&[u32]>,
        prev2: Option<&[u32]>,
        prev_unpred: Option<&[f64]>,
    ) -> TemporalBlock {
        QUANT_SCRATCH.with(|q| {
            UNPRED_SCRATCH.with(|u| {
                HIST_SCRATCH.with(|h| {
                    let quant = &mut q.borrow_mut();
                    let unpred = &mut u.borrow_mut();
                    let hist = &mut h.borrow_mut();
                    if hist.is_empty() {
                        hist.resize(N_CODES, 0);
                    }
                    let (lo, hi) = Self::quantize_block(values, abs_eb, quant, unpred, hist);
                    let mut direct = Vec::with_capacity(values.len() / 2 + 32);
                    huffman::encode_block_from_hist_range(quant, hist, lo, hi, &mut direct);
                    Self::append_unpred(&mut direct, unpred);
                    let delta1 = prev1.map(|p1| {
                        Self::encode_delta_block(
                            quant,
                            p1,
                            None,
                            unpred,
                            prev_unpred.expect("order-1 prior carries its values"),
                        )
                    });
                    let delta2 = prev2.map(|p2| {
                        Self::encode_delta_block(
                            quant,
                            prev1.expect("order-2 prior implies order-1 prior"),
                            Some(p2),
                            unpred,
                            prev_unpred.expect("order-2 prior carries its values"),
                        )
                    });
                    TemporalBlock {
                        codes: quant.clone(),
                        unpred: unpred.clone(),
                        direct,
                        delta1,
                        delta2,
                    }
                })
            })
        })
    }

    /// Entropy-codes one block's temporal-delta candidate: zigzag delta
    /// symbols against the prior snapshot('s extrapolation), their own
    /// histogram + Huffman table, then the XOR-coded unpredictable tail.
    fn encode_delta_block(
        codes: &[u32],
        prev1: &[u32],
        prev2: Option<&[u32]>,
        unpred: &[f64],
        prev_unpred: &[f64],
    ) -> Vec<u8> {
        DELTA_SCRATCH.with(|d| {
            DELTA_HIST_SCRATCH.with(|h| {
                let syms = &mut d.borrow_mut();
                let hist = &mut h.borrow_mut();
                let (lo, hi) = match prev2 {
                    None => delta::encode_order1(codes, prev1, syms),
                    Some(p2) => delta::encode_order2(codes, prev1, p2, syms),
                };
                if lo <= hi {
                    let need = hi as usize + 1;
                    if hist.len() < need {
                        hist.resize(need, 0);
                    }
                    scatter_hist(syms, lo, hi, hist);
                }
                let mut out = Vec::with_capacity(codes.len() / 8 + 32);
                huffman::encode_block_from_hist_range(syms, hist, lo, hi, &mut out);
                Self::append_unpred_delta(&mut out, codes, prev1, unpred, prev_unpred);
                out
            })
        })
    }

    /// Appends the verbatim-value tail (`varint n_unpred` + raw f64s)
    /// used by anchor streams and the direct block candidate.
    fn append_unpred(out: &mut Vec<u8>, unpred: &[f64]) {
        bytes::put_varint(out, unpred.len() as u64);
        for &v in unpred {
            bytes::put_f64(out, v);
        }
    }

    /// Appends the temporally delta-coded unpredictable tail of a delta
    /// block: `varint n_unpred`, then eight Huffman blobs — byte plane
    /// `j` holds byte `j` of every value's XOR against the prior
    /// snapshot's value at the same element position (`0.0` where that
    /// position was predictable before).  Near-converged snapshots zero
    /// the high planes, which entropy-code to almost nothing, while the
    /// pairing stays exactly invertible from the replayed prior link.
    fn append_unpred_delta(
        out: &mut Vec<u8>,
        codes: &[u32],
        prev_codes: &[u32],
        unpred: &[f64],
        prev_unpred: &[f64],
    ) {
        bytes::put_varint(out, unpred.len() as u64);
        if unpred.is_empty() {
            return;
        }
        let mut xors = Vec::with_capacity(unpred.len());
        let mut cur = 0usize;
        let mut prev = 0usize;
        for (p, &c) in codes.iter().enumerate() {
            let prev_zero = prev_codes[p] == 0;
            if c == 0 {
                let base = if prev_zero { prev_unpred[prev] } else { 0.0 };
                xors.push(unpred[cur].to_bits() ^ base.to_bits());
                cur += 1;
            }
            prev += usize::from(prev_zero);
        }
        debug_assert_eq!(cur, unpred.len(), "one reserved bin per unpredictable value");
        let mut plane = Vec::with_capacity(xors.len());
        for j in 0..8 {
            plane.clear();
            plane.extend(xors.iter().map(|x| ((x >> (8 * j)) & 0xff) as u32));
            huffman::encode_block_into(&plane, out);
        }
    }

    /// Inverse of [`SzCompressor::append_unpred_delta`]: reads the eight
    /// XOR byte planes and reconstructs the block's unpredictable values
    /// from the prior snapshot's codes and values.
    fn read_unpred_delta(
        block: &[u8],
        pos: &mut usize,
        codes: &[u32],
        prev_codes: &[u32],
        prev_unpred: &[f64],
    ) -> Result<Vec<f64>> {
        let n_unpred = bytes::get_varint(block, pos)? as usize;
        let reserved = codes.iter().filter(|&&c| c == 0).count();
        if n_unpred != reserved {
            return Err(CompressError::Corrupt(format!(
                "delta tail declares {n_unpred} unpredictable values, codes reserve {reserved}"
            )));
        }
        let mut xors = vec![0u64; n_unpred];
        if n_unpred > 0 {
            let mut plane = Vec::with_capacity(n_unpred);
            for j in 0..8 {
                huffman::decode_block_into(block, pos, &mut plane)?;
                if plane.len() != n_unpred {
                    return Err(CompressError::Corrupt(format!(
                        "delta tail byte plane {j} holds {} values, expected {n_unpred}",
                        plane.len()
                    )));
                }
                for (x, &b) in xors.iter_mut().zip(plane.iter()) {
                    if b > 0xff {
                        return Err(CompressError::Corrupt(format!(
                            "delta tail byte plane {j} symbol {b} out of range"
                        )));
                    }
                    *x |= u64::from(b) << (8 * j);
                }
            }
        }
        let mut values = Vec::with_capacity(n_unpred);
        let mut cur = 0usize;
        let mut prev = 0usize;
        for (p, &c) in codes.iter().enumerate() {
            let prev_zero = prev_codes[p] == 0;
            if c == 0 {
                let base = if prev_zero { prev_unpred[prev] } else { 0.0 };
                values.push(f64::from_bits(base.to_bits() ^ xors[cur]));
                cur += 1;
            }
            prev += usize::from(prev_zero);
        }
        Ok(values)
    }

    /// Decodes a delta chain back to the final snapshot's values.
    ///
    /// `links` is the chain in temporal order: an **anchor** stream
    /// first ([`DeltaMode::None`]), then each dependent delta stream up
    /// to the target snapshot.  Intermediate links replay their
    /// quantization codes and unpredictable values (plus, for
    /// log-transformed streams, their zero/sign bitmaps, which later
    /// links may inherit) without reconstructing grid values; the final
    /// link is reconstructed through the exact v4 decode path, so the
    /// result is bit-identical to a direct decode of that snapshot.
    ///
    /// # Errors
    /// Rejects empty chains, chains not starting at an anchor, order-2
    /// links without two prior links, version/shape mismatches between
    /// consecutive links, and any per-link corruption the stateless
    /// decoder would reject.
    pub fn decompress_chain(&self, links: &[Compressed]) -> Result<Vec<f64>> {
        let last = links
            .last()
            .ok_or_else(|| CompressError::Corrupt("empty checkpoint chain".into()))?;
        if links.len() == 1 {
            return self.decompress(last);
        }

        let mut prev1: Vec<u32> = Vec::new();
        let mut prev2: Vec<u32> = Vec::new();
        // The previous link's unpredictable values (one per reserved bin
        // in `prev1`): the base the next delta link's XOR tail codes
        // against.
        let mut prev_unpred: Vec<f64> = Vec::new();
        // The previous log link's zero/sign bitmaps, which a delta link
        // may inherit instead of carrying its own.
        let mut prev_side: Option<(Vec<u8>, Vec<u8>)> = None;
        let mut result = None;
        for (idx, link) in links.iter().enumerate() {
            let buf = &link.bytes;
            let mut pos = 0usize;
            let h = Self::parse_header(buf, &mut pos)?;
            if h.n != link.n_elements {
                return Err(CompressError::Corrupt(format!(
                    "chain link {idx}: element count mismatch: header {}, metadata {}",
                    h.n, link.n_elements
                )));
            }
            if idx == 0 && h.mode != DeltaMode::None {
                return Err(CompressError::Corrupt(
                    "delta chain must start at an anchor".into(),
                ));
            }
            if h.mode == DeltaMode::Order2 && idx < 2 {
                return Err(CompressError::Corrupt(format!(
                    "chain link {idx}: order-2 delta without two prior links"
                )));
            }
            let final_link = idx + 1 == links.len();

            match h.transform {
                t if t == Transform::Identity as u8 => {
                    prev_side = None;
                    Self::check_chain_shape(idx, h.mode, h.n, &prev1, &prev2)?;
                    if final_link {
                        result = Some(Self::decode_final_abs(
                            buf,
                            &mut pos,
                            h.n,
                            h.eb,
                            h.mode,
                            &prev1,
                            &prev2,
                            &prev_unpred,
                        )?);
                    } else {
                        let (codes, unpred) = Self::decode_codes(
                            buf,
                            &mut pos,
                            h.n,
                            h.mode,
                            &prev1,
                            &prev2,
                            &prev_unpred,
                        )?;
                        std::mem::swap(&mut prev1, &mut prev2);
                        prev1 = codes;
                        prev_unpred = unpred;
                    }
                }
                t if t == Transform::Log as u8 => {
                    let (zero_bytes, sign_bytes, n_logs) = if h.mode == DeltaMode::None {
                        let (z, s, n) = Self::read_log_side_channels(buf, &mut pos)?;
                        (z.to_vec(), s.to_vec(), n)
                    } else {
                        Self::read_log_side_channels_delta(
                            buf,
                            &mut pos,
                            idx,
                            prev_side.as_ref(),
                        )?
                    };
                    let log_eb = h.eb.ln_1p();
                    Self::check_chain_shape(idx, h.mode, n_logs, &prev1, &prev2)?;
                    if final_link {
                        let logs = Self::decode_final_abs(
                            buf,
                            &mut pos,
                            n_logs,
                            log_eb,
                            h.mode,
                            &prev1,
                            &prev2,
                            &prev_unpred,
                        )?;
                        result = Some(Self::expand_log(&zero_bytes, &sign_bytes, logs, h.n)?);
                    } else {
                        let (codes, unpred) = Self::decode_codes(
                            buf,
                            &mut pos,
                            n_logs,
                            h.mode,
                            &prev1,
                            &prev2,
                            &prev_unpred,
                        )?;
                        std::mem::swap(&mut prev1, &mut prev2);
                        prev1 = codes;
                        prev_unpred = unpred;
                    }
                    prev_side = Some((zero_bytes, sign_bytes));
                }
                other => {
                    return Err(CompressError::Corrupt(format!(
                        "unknown transform tag {other}"
                    )))
                }
            }
        }
        Ok(result.expect("non-empty chain produced a final link"))
    }

    /// Validates that the retained prior-code buffers match the shape a
    /// delta link expects (anchors need no priors).
    fn check_chain_shape(
        idx: usize,
        mode: DeltaMode,
        code_n: usize,
        prev1: &[u32],
        prev2: &[u32],
    ) -> Result<()> {
        if mode.prior_snapshots() >= 1 && prev1.len() != code_n {
            return Err(CompressError::Corrupt(format!(
                "chain link {idx}: delta stream over {code_n} codes, prior has {}",
                prev1.len()
            )));
        }
        if mode.prior_snapshots() >= 2 && prev2.len() != code_n {
            return Err(CompressError::Corrupt(format!(
                "chain link {idx}: order-2 stream over {code_n} codes, second prior has {}",
                prev2.len()
            )));
        }
        Ok(())
    }

    /// Replays one intermediate chain link to its quantization codes and
    /// unpredictable values (Huffman decode + un-delta; the values are
    /// materialized because the next link's XOR tail codes against them).
    #[allow(clippy::too_many_arguments)]
    fn decode_codes(
        buf: &[u8],
        pos: &mut usize,
        code_n: usize,
        mode: DeltaMode,
        prev1: &[u32],
        prev2: &[u32],
        prev_unpred: &[f64],
    ) -> Result<(Vec<u32>, Vec<f64>)> {
        let offsets = (mode != DeltaMode::None).then(|| Self::unpred_offsets(prev1));
        parblock::decode_blocks2(buf, pos, code_n.div_ceil(PAR_BLOCK), code_n, "SZ", |b, block| {
            let start = b * PAR_BLOCK;
            let block_n = (((b + 1) * PAR_BLOCK).min(code_n)) - start;
            QUANT_SCRATCH.with(|q| {
                let syms = &mut q.borrow_mut();
                let bpos = &mut 0usize;
                huffman::decode_block_into(block, bpos, syms)?;
                if syms.len() != block_n {
                    return Err(CompressError::Corrupt(format!(
                        "expected {block_n} quantization codes, found {}",
                        syms.len()
                    )));
                }
                let mut codes = Vec::with_capacity(block_n);
                match mode {
                    DeltaMode::None => codes.extend_from_slice(syms),
                    DeltaMode::Order1 => {
                        delta::decode_order1(syms, &prev1[start..start + block_n], &mut codes)
                    }
                    DeltaMode::Order2 => delta::decode_order2(
                        syms,
                        &prev1[start..start + block_n],
                        &prev2[start..start + block_n],
                        &mut codes,
                    ),
                }
                let unpred = match &offsets {
                    None => Self::read_unpred_verbatim(block, bpos)?,
                    Some(offs) => Self::read_unpred_delta(
                        block,
                        bpos,
                        &codes,
                        &prev1[start..start + block_n],
                        &prev_unpred[offs[b]..offs[b + 1]],
                    )?,
                };
                Ok((codes, unpred))
            })
        })
    }

    /// Decodes the final chain link to values: Huffman symbols, un-delta
    /// to the snapshot's own v4 codes, un-XOR of the delta tail, then the
    /// shared grid-space reconstruction.
    #[allow(clippy::too_many_arguments)]
    fn decode_final_abs(
        buf: &[u8],
        pos: &mut usize,
        n: usize,
        abs_eb: f64,
        mode: DeltaMode,
        prev1: &[u32],
        prev2: &[u32],
        prev_unpred: &[f64],
    ) -> Result<Vec<f64>> {
        let offsets = (mode != DeltaMode::None).then(|| Self::unpred_offsets(prev1));
        parblock::decode_blocks(buf, pos, n.div_ceil(PAR_BLOCK), n, "SZ", |b, block| {
            let start = b * PAR_BLOCK;
            let block_n = (((b + 1) * PAR_BLOCK).min(n)) - start;
            QUANT_SCRATCH.with(|q| {
                let syms = &mut q.borrow_mut();
                let bpos = &mut 0usize;
                huffman::decode_block_into(block, bpos, syms)?;
                if syms.len() != block_n {
                    return Err(CompressError::Corrupt(format!(
                        "expected {block_n} quantization codes, found {}",
                        syms.len()
                    )));
                }
                let mut codes = Vec::with_capacity(block_n);
                match mode {
                    DeltaMode::None => codes.extend_from_slice(syms),
                    DeltaMode::Order1 => {
                        delta::decode_order1(syms, &prev1[start..start + block_n], &mut codes)
                    }
                    DeltaMode::Order2 => delta::decode_order2(
                        syms,
                        &prev1[start..start + block_n],
                        &prev2[start..start + block_n],
                        &mut codes,
                    ),
                }
                match &offsets {
                    None => {
                        let n_unpred = bytes::get_varint(block, bpos)? as usize;
                        let unpred_len = n_unpred.checked_mul(8).ok_or_else(|| {
                            CompressError::Corrupt("unpredictable count overflow".into())
                        })?;
                        let unpred_bytes = bytes::get_slice(block, bpos, unpred_len)?;
                        Self::reconstruct_block_v4(&codes, unpred_bytes, abs_eb)
                    }
                    Some(offs) => {
                        let unpred = Self::read_unpred_delta(
                            block,
                            bpos,
                            &codes,
                            &prev1[start..start + block_n],
                            &prev_unpred[offs[b]..offs[b + 1]],
                        )?;
                        let mut it = unpred.iter().copied();
                        Self::reconstruct_block_from(&codes, &mut it, abs_eb)
                    }
                }
            })
        })
    }

    /// Reads a block's verbatim-value tail into owned values
    /// (bounds-checked).
    fn read_unpred_verbatim(block: &[u8], pos: &mut usize) -> Result<Vec<f64>> {
        let n_unpred = bytes::get_varint(block, pos)? as usize;
        let len = n_unpred
            .checked_mul(8)
            .ok_or_else(|| CompressError::Corrupt("unpredictable count overflow".into()))?;
        let unpred_bytes = bytes::get_slice(block, pos, len)?;
        Ok(unpred_bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect())
    }

    /// Per-block offsets into a snapshot's unpredictable values: entry
    /// `b` counts the reserved (code 0) bins before block `b`; the final
    /// entry is the total.
    fn unpred_offsets(codes: &[u32]) -> Vec<usize> {
        let nblocks = codes.len().div_ceil(PAR_BLOCK);
        let mut offs = Vec::with_capacity(nblocks + 1);
        offs.push(0usize);
        let mut zeros = 0usize;
        for (i, &c) in codes.iter().enumerate() {
            zeros += usize::from(c == 0);
            if (i + 1) % PAR_BLOCK == 0 {
                offs.push(zeros);
            }
        }
        if offs.len() < nblocks + 1 {
            offs.push(zeros);
        }
        offs
    }
}

/// Parsed common stream prologue.
struct StreamHeader {
    n: usize,
    transform: u8,
    eb: f64,
    mode: DeltaMode,
}

/// Identity of the coded sub-stream a retained code buffer belongs to; a
/// snapshot whose key differs (shape or transform changed) cannot be
/// delta-coded against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StateKey {
    transform: u8,
    n_codes: usize,
}

/// One block's candidate encodings plus its raw codes and unpredictable
/// values (for the state rotation).
struct TemporalBlock {
    codes: Vec<u32>,
    unpred: Vec<f64>,
    direct: Vec<u8>,
    delta1: Option<Vec<u8>>,
    delta2: Option<Vec<u8>>,
}

/// Retained prior-snapshot quantization codes for one variable, enabling
/// temporal delta coding of the next snapshot.  `codes1` is the newest
/// prior; `codes2` the one before it (order-2 extrapolation), valid only
/// while `prev2_valid` and the shapes agree.  `unpred1` holds the newest
/// prior's unpredictable values (one per reserved bin in `codes1`) — the
/// base the next delta stream's XOR tail codes against — and `zeros1` /
/// `signs1` its point-wise-relative bitmaps, which the next delta stream
/// inherits when unchanged.  Reset (or drop) the state whenever the
/// chain breaks — an evicted base, a failed commit, a recovery — and the
/// next snapshot is forced to anchor.
#[derive(Debug, Clone, Default)]
pub struct SzTemporalState {
    key: Option<StateKey>,
    prev2_valid: bool,
    codes1: Vec<u32>,
    codes2: Vec<u32>,
    unpred1: Vec<f64>,
    zeros1: Vec<u8>,
    signs1: Vec<u8>,
}

impl SzTemporalState {
    /// Creates an empty state (no priors: the first snapshot anchors).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all retained prior-snapshot codes; the next temporal
    /// compression emits an anchor.
    pub fn reset(&mut self) {
        self.key = None;
        self.prev2_valid = false;
        self.codes1.clear();
        self.codes2.clear();
        self.unpred1.clear();
        self.zeros1.clear();
        self.signs1.clear();
    }

    /// True if a prior snapshot's codes are retained (the next
    /// shape-compatible snapshot may delta-code).
    pub fn has_prior(&self) -> bool {
        self.key.is_some()
    }
}

/// Reads the [`DeltaMode`] of an SZ stream from its header without
/// decoding the payload (version-4 streams report [`DeltaMode::None`]).
pub fn stream_delta_mode(stream: &[u8]) -> Result<DeltaMode> {
    let mut pos = 0usize;
    SzCompressor::parse_header(stream, &mut pos).map(|h| h.mode)
}

/// Four-way interleaved histogram scatter over the live symbol span
/// `[lo, hi]` — the same store-dependency-breaking pattern as the
/// quantizer's fused scatter pass, reused for the delta symbols (runs of
/// zero deltas are the common case on converging solver snapshots).
fn scatter_hist(syms: &[u32], lo: u32, hi: u32, hist: &mut [u32]) {
    let base = lo as usize;
    let span = (hi - lo) as usize + 1;
    let mut sub = vec![0u32; span * 4];
    let mut chunks = syms.chunks_exact(4);
    for c in &mut chunks {
        sub[(c[0] as usize - base) * 4] += 1;
        sub[(c[1] as usize - base) * 4 + 1] += 1;
        sub[(c[2] as usize - base) * 4 + 2] += 1;
        sub[(c[3] as usize - base) * 4 + 3] += 1;
    }
    for &s in chunks.remainder() {
        sub[(s as usize - base) * 4] += 1;
    }
    for (i, s) in sub.chunks_exact(4).enumerate() {
        hist[base + i] += s[0] + s[1] + s[2] + s[3];
    }
}

impl LossyCompressor for SzCompressor {
    fn compress(&self, data: &[f64], bound: ErrorBound) -> Result<Compressed> {
        let mut out = Vec::new();
        self.compress_to(data, bound, &mut out)?;
        Ok(Compressed {
            bytes: out,
            n_elements: data.len(),
        })
    }

    fn compress_into(&self, data: &[f64], bound: ErrorBound, out: &mut Vec<u8>) -> Result<usize> {
        self.compress_to(data, bound, out)?;
        Ok(data.len())
    }

    fn decompress(&self, compressed: &Compressed) -> Result<Vec<f64>> {
        let buf = &compressed.bytes;
        let mut pos = 0usize;
        let h = SzCompressor::parse_header(buf, &mut pos)?;
        if h.mode != DeltaMode::None {
            return Err(CompressError::Corrupt(format!(
                "version-5 {:?} delta stream needs its chain; decode via decompress_chain",
                h.mode
            )));
        }
        if h.n != compressed.n_elements {
            return Err(CompressError::Corrupt(format!(
                "element count mismatch: header {}, metadata {}",
                h.n, compressed.n_elements
            )));
        }

        match h.transform {
            t if t == Transform::Identity as u8 => {
                SzCompressor::decompress_abs(buf, &mut pos, h.n, h.eb)
            }
            t if t == Transform::Log as u8 => {
                // The side channels are decoded straight from the borrowed
                // stream slices — no intermediate copies.
                let (zero_bytes, sign_bytes, n_logs) =
                    SzCompressor::read_log_side_channels(buf, &mut pos)?;
                let log_eb = h.eb.ln_1p();
                let logs = SzCompressor::decompress_abs(buf, &mut pos, n_logs, log_eb)?;
                SzCompressor::expand_log(zero_bytes, sign_bytes, logs, h.n)
            }
            other => Err(CompressError::Corrupt(format!(
                "unknown transform tag {other}"
            ))),
        }
    }

    fn name(&self) -> &'static str {
        "sz"
    }
}

/// 8-lane min/max over one slice.  A single `(min, max)` accumulator pair
/// serialises the whole scan behind the 3–4-cycle latency of `minsd`/
/// `maxsd`; eight independent lane accumulators let the compiler issue
/// packed compares at full width instead.  `f64::min`/`f64::max` are
/// commutative and associative over any multiset (NaNs are absorbed, and a
/// `-0.0`-vs-`+0.0` tie is numerically indistinguishable downstream where
/// only `max − min` is used), so the lane-order reduction returns the same
/// range as a sequential fold.
fn min_max_lanes(data: &[f64]) -> (f64, f64) {
    let mut mn = [f64::INFINITY; 8];
    let mut mx = [f64::NEG_INFINITY; 8];
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        for i in 0..8 {
            mn[i] = mn[i].min(c[i]);
            mx[i] = mx[i].max(c[i]);
        }
    }
    for &v in chunks.remainder() {
        mn[0] = mn[0].min(v);
        mx[0] = mx[0].max(v);
    }
    (
        mn.iter().copied().fold(f64::INFINITY, f64::min),
        mx.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    )
}

fn min_max(data: &[f64]) -> (f64, f64) {
    if data.len() >= PAR_BLOCK {
        // Pool-parallel above one block so the range pre-pass of the
        // value-range-relative mode doesn't serialise the compressor
        // (lane-parallel min/max per chunk, combined in chunk order —
        // deterministic at any thread count).
        rayon::run_chunks(data.len(), rayon::DEFAULT_MIN_CHUNK, |s, e| {
            min_max_lanes(&data[s..e])
        })
        .into_iter()
        .fold(
            (f64::INFINITY, f64::NEG_INFINITY),
            |(amn, amx), (bmn, bmx)| (amn.min(bmn), amx.max(bmx)),
        )
    } else {
        min_max_lanes(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * std::f64::consts::PI * t).sin() + 0.3 * (11.0 * t).cos() + 2.0
            })
            .collect()
    }

    fn check_bound(data: &[f64], restored: &[f64], bound: ErrorBound) {
        assert_eq!(data.len(), restored.len());
        let range = {
            let (mn, mx) = min_max(data);
            mx - mn
        };
        for (i, (&a, &b)) in data.iter().zip(restored.iter()).enumerate() {
            let allowed = bound.allowed_abs_error(a, range) * (1.0 + 1e-12) + 1e-300;
            assert!(
                (a - b).abs() <= allowed,
                "element {i}: |{a} - {b}| = {} > {allowed}",
                (a - b).abs()
            );
        }
    }

    #[test]
    fn abs_bound_honoured_on_smooth_data() {
        let data = smooth_signal(10_000);
        let sz = SzCompressor::new();
        for eb in [1e-2, 1e-4, 1e-6, 1e-10] {
            let bound = ErrorBound::Abs(eb);
            let c = sz.compress(&data, bound).unwrap();
            let r = sz.decompress(&c).unwrap();
            check_bound(&data, &r, bound);
        }
    }

    #[test]
    fn value_range_rel_bound_honoured() {
        let data = smooth_signal(5_000);
        let sz = SzCompressor::new();
        let bound = ErrorBound::ValueRangeRel(1e-4);
        let c = sz.compress(&data, bound).unwrap();
        let r = sz.decompress(&c).unwrap();
        check_bound(&data, &r, bound);
    }

    #[test]
    fn pointwise_rel_bound_honoured() {
        // Mix of magnitudes, zeros and negatives.
        let mut data = smooth_signal(3_000);
        for (i, v) in data.iter_mut().enumerate() {
            *v = (*v - 2.0) * 10f64.powi((i % 7) as i32 - 3);
            if i % 97 == 0 {
                *v = 0.0;
            }
            if i % 3 == 0 {
                *v = -*v;
            }
        }
        let sz = SzCompressor::new();
        for eb in [1e-2, 1e-4, 1e-6] {
            let bound = ErrorBound::PointwiseRel(eb);
            let c = sz.compress(&data, bound).unwrap();
            let r = sz.decompress(&c).unwrap();
            check_bound(&data, &r, bound);
        }
    }

    #[test]
    fn smooth_data_compresses_much_better_than_lossless() {
        let data = smooth_signal(100_000);
        let sz = SzCompressor::new();
        let c = sz.compress(&data, ErrorBound::ValueRangeRel(1e-4)).unwrap();
        // The paper reports 20–60x on solver vectors; smooth analytic data
        // should comfortably exceed 10x.
        assert!(
            c.ratio() > 10.0,
            "expected ratio > 10, got {:.2}",
            c.ratio()
        );
    }

    #[test]
    fn random_data_still_respects_bound() {
        // Worst case for prediction: white noise.
        let mut data = vec![0.0f64; 4096];
        let mut state = 0x12345678u64;
        for v in data.iter_mut() {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            *v = (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
                - 0.5;
        }
        let sz = SzCompressor::new();
        let bound = ErrorBound::Abs(1e-3);
        let c = sz.compress(&data, bound).unwrap();
        let r = sz.decompress(&c).unwrap();
        check_bound(&data, &r, bound);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let sz = SzCompressor::new();
        for data in [vec![], vec![1.5], vec![1.5, -2.5]] {
            let c = sz.compress(&data, ErrorBound::Abs(1e-6)).unwrap();
            let r = sz.decompress(&c).unwrap();
            assert_eq!(r.len(), data.len());
            check_bound(&data, &r, ErrorBound::Abs(1e-6));
        }
    }

    #[test]
    fn constant_data() {
        let data = vec![3.25f64; 1000];
        let sz = SzCompressor::new();
        for bound in [
            ErrorBound::Abs(1e-8),
            ErrorBound::ValueRangeRel(1e-4),
            ErrorBound::PointwiseRel(1e-4),
        ] {
            let c = sz.compress(&data, bound).unwrap();
            let r = sz.decompress(&c).unwrap();
            check_bound(&data, &r, bound);
            assert!(c.ratio() > 10.0, "constant data should compress massively");
        }
    }

    #[test]
    fn compress_into_appends_identical_stream() {
        let data = smooth_signal(4_000);
        let sz = SzCompressor::new();
        let bound = ErrorBound::Abs(1e-6);
        let c = sz.compress(&data, bound).unwrap();

        let mut buf = vec![0xEE, 0xFF];
        let n = sz.compress_into(&data, bound, &mut buf).unwrap();
        assert_eq!(n, data.len());
        assert_eq!(&buf[..2], &[0xEE, 0xFF]);
        assert_eq!(&buf[2..], c.bytes.as_slice());
    }

    #[test]
    fn invalid_bounds_rejected() {
        let sz = SzCompressor::new();
        let data = [1.0, 2.0];
        assert!(sz.compress(&data, ErrorBound::Abs(0.0)).is_err());
        assert!(sz.compress(&data, ErrorBound::Abs(-1.0)).is_err());
        assert!(sz.compress(&data, ErrorBound::Abs(f64::NAN)).is_err());
        assert!(sz.compress(&data, ErrorBound::PointwiseRel(0.0)).is_err());
    }

    #[test]
    fn corrupt_streams_detected() {
        let sz = SzCompressor::new();
        let data = smooth_signal(256);
        let c = sz.compress(&data, ErrorBound::Abs(1e-5)).unwrap();

        // Wrong codec id.
        let mut wrong = c.clone();
        wrong.bytes[0] = 99;
        assert!(matches!(
            sz.decompress(&wrong),
            Err(CompressError::WrongCodec { .. })
        ));

        // Unknown version.
        let mut vers = c.clone();
        vers.bytes[1] = 99;
        assert!(sz.decompress(&vers).is_err());

        // Truncation.
        let mut trunc = c.clone();
        trunc.bytes.truncate(c.bytes.len() / 2);
        assert!(sz.decompress(&trunc).is_err());

        // Element-count mismatch.
        let mut mism = c;
        mism.n_elements += 1;
        assert!(sz.decompress(&mism).is_err());
    }

    #[test]
    fn name_is_sz() {
        assert_eq!(SzCompressor::new().name(), "sz");
    }

    /// Correlated snapshot sequence: a *rough* persistent base field (so
    /// spatial prediction is mediocre and the direct codes carry real
    /// entropy) plus a slowly drifting smooth perturbation — the regime
    /// where temporal deltas pay, like successive solver iterates whose
    /// error field persists between checkpoints.
    fn snapshots(n: usize, count: usize) -> Vec<Vec<f64>> {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rough = vec![0.0f64; n];
        for v in rough.iter_mut() {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            *v = (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
        }
        let base = smooth_signal(n);
        (0..count)
            .map(|k| {
                let a = 1e-4 * (k as f64 + 1.0);
                base.iter()
                    .zip(rough.iter())
                    .enumerate()
                    .map(|(i, (&v, &r))| {
                        let t = i as f64 / n as f64;
                        v + 1e-2 * r + a * (5.0 * std::f64::consts::PI * t).cos()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn temporal_anchor_decodes_like_v4() {
        let data = smooth_signal(10_000);
        let sz = SzCompressor::new();
        let bound = ErrorBound::Abs(1e-6);
        let mut state = SzTemporalState::new();
        let mut bytes = Vec::new();
        let mode = sz
            .compress_temporal_into(&data, bound, DeltaMode::Order1, true, &mut state, &mut bytes)
            .unwrap();
        assert_eq!(mode, DeltaMode::None, "forced anchor must be direct");
        assert_eq!(bytes[1], 5, "temporal streams carry version 5");
        assert_eq!(stream_delta_mode(&bytes).unwrap(), DeltaMode::None);
        let anchor = Compressed {
            bytes,
            n_elements: data.len(),
        };
        // A v5 anchor is self-contained and decodes bit-identically to
        // the plain v4 stream of the same data.
        let via_v5 = sz.decompress(&anchor).unwrap();
        let via_v4 = sz.decompress(&sz.compress(&data, bound).unwrap()).unwrap();
        assert_eq!(via_v5, via_v4);
    }

    #[test]
    fn delta_chain_replay_is_bit_identical_to_direct_decode() {
        let sz = SzCompressor::new();
        for bound in [
            ErrorBound::Abs(1e-6),
            ErrorBound::ValueRangeRel(1e-5),
            ErrorBound::PointwiseRel(1e-4),
        ] {
            for max_order in [DeltaMode::Order1, DeltaMode::Order2] {
                let snaps = snapshots(9_000, 4);
                let mut state = SzTemporalState::new();
                let mut chain: Vec<Compressed> = Vec::new();
                for (k, snap) in snaps.iter().enumerate() {
                    let mut bytes = Vec::new();
                    let mode = sz
                        .compress_temporal_into(
                            snap, bound, max_order, k == 0, &mut state, &mut bytes,
                        )
                        .unwrap();
                    if k == 0 {
                        assert_eq!(mode, DeltaMode::None);
                    }
                    chain.push(Compressed {
                        bytes,
                        n_elements: snap.len(),
                    });

                    // Chain replay must reconstruct snapshot k's values
                    // bit-identically to a direct (stateless) decode of
                    // the same snapshot.
                    let replayed = sz.decompress_chain(&chain).unwrap();
                    let direct = sz.decompress(&sz.compress(snap, bound).unwrap()).unwrap();
                    assert_eq!(
                        replayed, direct,
                        "bound {bound:?}, max_order {max_order:?}, link {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn correlated_snapshots_choose_delta_and_shrink() {
        let sz = SzCompressor::new();
        let bound = ErrorBound::Abs(1e-6);
        let snaps = snapshots(50_000, 2);
        let mut state = SzTemporalState::new();
        let mut anchor = Vec::new();
        sz.compress_temporal_into(
            &snaps[0],
            bound,
            DeltaMode::Order1,
            true,
            &mut state,
            &mut anchor,
        )
        .unwrap();
        let mut delta_bytes = Vec::new();
        let mode = sz
            .compress_temporal_into(
                &snaps[1],
                bound,
                DeltaMode::Order1,
                false,
                &mut state,
                &mut delta_bytes,
            )
            .unwrap();
        assert_eq!(mode, DeltaMode::Order1, "correlated snapshots should delta");
        assert_eq!(stream_delta_mode(&delta_bytes).unwrap(), DeltaMode::Order1);
        let direct = sz.compress(&snaps[1], bound).unwrap();
        assert!(
            delta_bytes.len() < direct.bytes.len(),
            "delta stream ({}) must be smaller than direct ({})",
            delta_bytes.len(),
            direct.bytes.len()
        );
    }

    #[test]
    fn shape_change_and_reset_force_anchors() {
        let sz = SzCompressor::new();
        let bound = ErrorBound::Abs(1e-6);
        let mut state = SzTemporalState::new();
        let a = smooth_signal(4_000);
        let b = smooth_signal(5_000);
        let mut out = Vec::new();
        sz.compress_temporal_into(&a, bound, DeltaMode::Order1, false, &mut state, &mut out)
            .unwrap();
        assert!(state.has_prior());
        // Different element count: the state key mismatches, so the next
        // stream anchors even though a prior is retained.
        out.clear();
        let mode = sz
            .compress_temporal_into(&b, bound, DeltaMode::Order1, false, &mut state, &mut out)
            .unwrap();
        assert_eq!(mode, DeltaMode::None);
        // Reset drops the prior outright.
        state.reset();
        assert!(!state.has_prior());
        out.clear();
        let mode = sz
            .compress_temporal_into(&b, bound, DeltaMode::Order1, false, &mut state, &mut out)
            .unwrap();
        assert_eq!(mode, DeltaMode::None);
    }

    #[test]
    fn stateless_decompress_rejects_delta_streams() {
        let sz = SzCompressor::new();
        let bound = ErrorBound::Abs(1e-6);
        let snaps = snapshots(6_000, 2);
        let mut state = SzTemporalState::new();
        let mut chain = Vec::new();
        for (k, snap) in snaps.iter().enumerate() {
            let mut bytes = Vec::new();
            sz.compress_temporal_into(snap, bound, DeltaMode::Order1, k == 0, &mut state, &mut bytes)
                .unwrap();
            chain.push(Compressed {
                bytes,
                n_elements: snap.len(),
            });
        }
        assert_eq!(stream_delta_mode(&chain[1].bytes).unwrap(), DeltaMode::Order1);
        assert!(
            sz.decompress(&chain[1]).is_err(),
            "a delta stream must not decode without its chain"
        );
        // And a chain that does not start at an anchor is rejected.
        assert!(sz.decompress_chain(&chain[1..]).is_err());
        assert!(sz.decompress_chain(&[]).is_err());
    }

    #[test]
    fn empty_and_tiny_temporal_streams() {
        let sz = SzCompressor::new();
        let bound = ErrorBound::Abs(1e-6);
        for data in [vec![], vec![1.5], vec![1.5, -2.5]] {
            let mut state = SzTemporalState::new();
            let mut chain = Vec::new();
            for k in 0..3 {
                let mut bytes = Vec::new();
                sz.compress_temporal_into(
                    &data,
                    bound,
                    DeltaMode::Order2,
                    k == 0,
                    &mut state,
                    &mut bytes,
                )
                .unwrap();
                chain.push(Compressed {
                    bytes,
                    n_elements: data.len(),
                });
            }
            let replayed = sz.decompress_chain(&chain).unwrap();
            let direct = sz.decompress(&sz.compress(&data, bound).unwrap()).unwrap();
            assert_eq!(replayed, direct);
        }
    }
}
