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
//! Prediction and quantization run as one fused, branch-light pass over
//! pool-sized chunks of each block, and the entropy stage is the
//! plan-then-emit canonical Huffman codec: a block's blob is sized exactly
//! from its histogram, so every block is bit-packed in place, on the pool.
//!
//! Point-wise relative bounds (`ErrorBound::PointwiseRel`) are honoured with
//! the standard SZ trick: compress `ln|x|` under an absolute bound
//! `ln(1 + eb)` with the signs and exact zeros stored in side channels;
//! value-range-relative bounds are mapped to an absolute bound
//! `eb·(max − min)`.
//!
//! ## Stream version
//!
//! Version 6, the only one read or written, is one self-contained stream
//! per vector: codec id, version, element count, transform and bound, then
//! — under the point-wise-relative transform — the zero and the sign
//! bitmap and the count of log magnitudes, then the block container (per
//! block a Huffman blob, a varint unpredictable count and the verbatim
//! values).  Each bitmap opens with a strategy byte and takes the smallest
//! of four codings, ties to the lower byte:
//!
//! | byte | coding |
//! |------|--------|
//! | 0 | raw: `u64` length + the bitmap's bytes (one bit per value, MSB first) |
//! | 1 | every bit clear, no payload |
//! | 2 | every bit set, no payload |
//! | 3 | runs: varint count, then the varint lengths of alternating runs, the first clear |
//!
//! A converged solver's zero bitmap is all clear and its sign bitmap a few
//! runs, so a checkpoint stops paying two raw bits per value for them.
//! Versions 3 to 5 are retired: their streams are rejected with the
//! typed unsupported-version error.

use crate::bitstream::{bytes, BitReader};
use crate::{huffman, parblock};
use crate::{Codec, CompressError, ErrorBound, Result};

/// Codec id stored in the stream header.
const CODEC_ID: u8 = 1;
/// Stream-format version.
const VERSION: u8 = 6;

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

/// The code of the zero bin (`0` is reserved for "unpredictable", then the
/// `2·QUANT_RADIUS − 1` bins shifted by `QUANT_RADIUS + 1`): the mode of
/// every well-predicted block, and where the Huffman stage is told to
/// expect it.
const ZERO_BIN: u32 = QUANT_RADIUS as u32 + 1;

/// Elements per pool task of the element-wise passes that run inside one
/// block (`ln` of the point-wise-relative transform, quantization): a
/// multiple of 64, so chunks start on bitmap word boundaries, that divides
/// [`PAR_BLOCK`], so no chunk straddles a block.
const CHUNK: usize = 8192;

/// Strategy byte of a bitmap stored raw: `u64` length + its bytes.
const BITMAP_RAW: u8 = 0;
/// Strategy byte of a bitmap whose every bit is clear: no payload.
const BITMAP_CLEAR: u8 = 1;
/// Strategy byte of a bitmap whose every bit is set: no payload.
const BITMAP_SET: u8 = 2;
/// Strategy byte of a run-coded bitmap: varint run count, then the varint
/// lengths of alternating runs, the first one clear (and empty if the
/// first bit is set).
const BITMAP_RUNS: u8 = 3;

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

    /// Fused prediction + linear-scaling quantization of
    /// `block[start..start + quant.len()]`, one bin code per value into
    /// `quant`.  The predictor state starts from zero at the head of the
    /// block, so the block is decodable in isolation; a range further in
    /// (`start >= 2`) reads its two predecessors from the block, so any
    /// split of a block into ranges yields the codes of one pass over it.
    ///
    /// The formulation works on the integer grid: every value is
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
    fn quantize_range(block: &[f64], start: usize, abs_eb: f64, quant: &mut [u32]) {
        assert!(
            start == 0 || start >= 2,
            "a range starts the block or has two predecessors"
        );
        let values = &block[start..start + quant.len()];
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
        // The first two values of a block see the virtual zeros before it.
        let mut head = 0;
        if start == 0 {
            if let [x0, ..] = *values {
                quant[0] = code_of(x0, g(x0), 0.0, 0.0, 0.0);
                head = 1;
            }
            if let [x0, x1, ..] = *values {
                let r1 = g(x0);
                quant[1] = code_of(x1, g(x1), r1, 0.0, r1);
                head = 2;
            }
        }
        if head < values.len() {
            // Chunk-of-8 coding with carried neighbour roundings: each
            // element is rounded exactly once per chunk and its predictor
            // inputs are the (pure, hence bit-identical) roundings of the
            // two previous elements, carried across the chunk boundary as
            // two scalars.  The 8-lane body fully unrolls; the carries are
            // value reuse, not an FP dependency chain — every `r[i]` is an
            // independent rounding of its own input.
            let at = start + head;
            let mut c1 = g(block[at - 1]);
            let mut c2 = g(block[at - 2]);
            let mut chunks = values[head..].chunks_exact(8);
            let mut slots = quant[head..].chunks_exact_mut(8);
            for (c, slot) in (&mut chunks).zip(&mut slots) {
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
                slot.copy_from_slice(&codes);
                c1 = r[7];
                c2 = r[6];
            }
            for (&x, slot) in chunks.remainder().iter().zip(slots.into_remainder()) {
                let r = g(x);
                *slot = code_of(x, r, c1, c2, 2.0 * c1 - c2);
                c2 = c1;
                c1 = r;
            }
        }
    }

    /// The values the quantizer could not code (reserved code 0), in order.
    /// Fully predictable blocks — the rule — cost one vectorized count.
    fn unpredictable(values: &[f64], codes: &[u32]) -> Vec<f64> {
        let reserved = codes.iter().filter(|&&c| c == 0).count();
        let mut unpred = Vec::with_capacity(reserved);
        if reserved > 0 {
            let coded = values.iter().zip(codes);
            unpred.extend(coded.filter(|&(_, &c)| c == 0).map(|(&x, _)| x));
        }
        unpred
    }

    /// Grid-space value reconstruction of one block from its quantization
    /// codes and its unpredictable values, one per reserved bin — the only
    /// reconstruction loop.
    fn reconstruct_block(codes: &[u32], unpred: &[f64], abs_eb: f64) -> Vec<f64> {
        let two_eb = 2.0 * abs_eb;
        let inv = 1.0 / two_eb;
        let mut unpred = unpred.iter();
        let mut out = Vec::with_capacity(codes.len());
        let mut rp = 0.0f64;
        let mut rp2 = 0.0f64;
        for (i, &code) in codes.iter().enumerate() {
            let pred = if i >= 2 {
                2.0 * rp - rp2
            } else if i == 1 {
                rp
            } else {
                0.0
            };
            rp2 = rp;
            let value = if code == 0 {
                let &x = unpred.next().expect("decode_block checked the tail count");
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
        out
    }

    /// Validates `bound` and resolves it against `data`: the transform,
    /// the bound as the stream header records it, and the absolute bound
    /// the quantizer works under.  Value-range-relative bounds become
    /// `eb·(max − min)`; point-wise-relative ones become `ln(1 + eb)` on
    /// the log magnitudes, which guarantees `|x'/x − 1| ≤ eb` (note
    /// `exp(−d) ≥ 1 − eb` for `d = ln(1 + eb)`).
    fn resolve_bound(data: &[f64], bound: ErrorBound) -> Result<(Transform, f64, f64)> {
        let eb = bound.value();
        if !(eb.is_finite() && eb > 0.0) {
            return Err(CompressError::InvalidBound(eb));
        }
        match bound {
            ErrorBound::Abs(abs) => Ok((Transform::Identity, abs, abs)),
            ErrorBound::ValueRangeRel(rel) => {
                let (min, max) = min_max(data);
                let range = (max - min).abs();
                // Degenerate constant data: any positive bound works.
                let abs = if range > 0.0 {
                    rel * range
                } else {
                    rel.max(f64::MIN_POSITIVE)
                };
                Ok((Transform::Identity, abs, abs))
            }
            ErrorBound::PointwiseRel(rel) => {
                let log_eb = rel.ln_1p();
                if !(log_eb.is_finite() && log_eb > 0.0) {
                    return Err(CompressError::InvalidBound(rel));
                }
                Ok((Transform::Log, rel, log_eb))
            }
        }
    }

    /// Appends the stream prologue up to and including the bound.
    fn put_header(out: &mut Vec<u8>, n: usize, transform: Transform, eb: f64) {
        out.reserve(n / 2 + 64);
        out.push(CODEC_ID);
        out.push(VERSION);
        bytes::put_u64(out, n as u64);
        out.push(transform as u8);
        bytes::put_f64(out, eb);
    }

    /// Parses the stream prologue; any version but [`VERSION`] is
    /// unsupported.
    fn parse_header(buf: &[u8], pos: &mut usize) -> Result<StreamHeader> {
        let codec = bytes::get_slice(buf, pos, 1)?[0];
        if codec != CODEC_ID {
            return Err(CompressError::WrongCodec {
                found: codec,
                expected: CODEC_ID,
            });
        }
        let version = bytes::get_slice(buf, pos, 1)?[0];
        if version != VERSION {
            return Err(CompressError::Corrupt(format!(
                "unsupported SZ stream version {version}"
            )));
        }
        let n = bytes::get_u64(buf, pos)? as usize;
        let transform = bytes::get_slice(buf, pos, 1)?[0];
        let eb = bytes::get_f64(buf, pos)?;
        Ok(StreamHeader { n, transform, eb })
    }

    /// Reads one point-wise-relative bitmap of `n` bits (inverse of
    /// [`put_bitmap`]) into the layout [`SzCompressor::expand_log`] reads:
    /// one bit per value, MSB first, the final byte zero-padded.  `n` was
    /// checked against the caller's element count before this sizes
    /// anything; a run list must cover exactly `n` bits in at most `n + 1`
    /// runs, and no count read from the stream sizes an allocation.
    fn read_bitmap(buf: &[u8], pos: &mut usize, n: usize) -> Result<Vec<u8>> {
        let strategy = bytes::get_slice(buf, pos, 1)?[0];
        if strategy == BITMAP_RAW {
            // `expand_log` checks that the section covers `n` bits.
            let len = bytes::get_u64(buf, pos)? as usize;
            return Ok(bytes::get_slice(buf, pos, len)?.to_vec());
        }
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        match strategy {
            BITMAP_CLEAR => {}
            BITMAP_SET => set_bits(&mut bitmap, 0, n),
            BITMAP_RUNS => {
                let count = bytes::get_varint(buf, pos)?;
                if count > (n as u64).saturating_add(1) {
                    return Err(CompressError::Corrupt(format!(
                        "{count} runs cannot code a bitmap of {n} bits"
                    )));
                }
                let mut at = 0usize;
                for k in 0..count {
                    let len = bytes::get_varint(buf, pos)?;
                    let end = usize::try_from(len)
                        .ok()
                        .and_then(|len| at.checked_add(len))
                        .filter(|&end| end <= n)
                        .ok_or_else(|| {
                            CompressError::Corrupt(format!(
                                "bitmap runs cover more than its {n} bits"
                            ))
                        })?;
                    if k % 2 == 1 {
                        set_bits(&mut bitmap, at, end);
                    }
                    at = end;
                }
                if at != n {
                    return Err(CompressError::Corrupt(format!(
                        "bitmap runs cover {at} of its {n} bits"
                    )));
                }
            }
            other => {
                return Err(CompressError::Corrupt(format!(
                    "unknown bitmap strategy {other}"
                )))
            }
        }
        Ok(bitmap)
    }

    /// Reassembles point-wise-relative values from the decoded log
    /// magnitudes and the zero/sign bitmaps.
    fn expand_log(
        zero_bytes: &[u8],
        sign_bytes: &[u8],
        logs: Vec<f64>,
        n: usize,
    ) -> Result<Vec<f64>> {
        // A bit per value in each bitmap: checked before `n` sizes anything.
        if zero_bytes.len().min(sign_bytes.len()) < n.div_ceil(8) {
            return Err(CompressError::Corrupt(format!(
                "zero/sign bitmaps of {} and {} bytes cannot cover {n} values",
                zero_bytes.len(),
                sign_bytes.len()
            )));
        }
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

    /// Appends the block container of `values` quantized under `abs_eb`:
    /// quantization a [`CHUNK`] per pool task, then a block per task its
    /// unpredictable tail and the exact plan of its Huffman blob, and
    /// finally every block bit-packed in place, on the pool, at the offset
    /// its exact length gives it.
    fn put_blocks(values: &[f64], abs_eb: f64, out: &mut Vec<u8>) {
        let mut codes = vec![0u32; values.len()];
        rayon::run_items(codes.chunks_mut(CHUNK), |j, chunk| {
            let at = j * CHUNK;
            let block = Self::block_of(values, at / PAR_BLOCK);
            Self::quantize_range(block, at % PAR_BLOCK, abs_eb, chunk);
        });
        let blocks: Vec<(huffman::Plan, Vec<u8>)> =
            rayon::run_ordered(values.len().div_ceil(PAR_BLOCK), |b| {
                let block_codes = Self::block_of(&codes, b);
                let unpred = Self::unpredictable(Self::block_of(values, b), block_codes);
                let mut tail = Vec::new();
                Self::append_unpred(&mut tail, &unpred);
                (huffman::Plan::of(block_codes, ZERO_BIN), tail)
            });
        let lens: Vec<usize> = blocks
            .iter()
            .map(|(plan, tail)| plan.blob_len() + tail.len())
            .collect();
        parblock::encode_blocks_in_place(out, &lens, |b, slot| {
            let (plan, tail) = &blocks[b];
            let (blob, after) = slot.split_at_mut(plan.blob_len());
            plan.emit(Self::block_of(&codes, b), blob);
            after.copy_from_slice(tail);
        });
    }

    /// Appends a block's verbatim-value tail: `varint n_unpred` + raw f64s.
    fn append_unpred(out: &mut Vec<u8>, unpred: &[f64]) {
        bytes::put_varint(out, unpred.len() as u64);
        for &v in unpred {
            bytes::put_f64(out, v);
        }
    }

    /// Decodes one block of `n` values to its quantization codes and its
    /// unpredictable values: `n` Huffman symbols, then the tail, whose
    /// count must equal the reserved bins of those codes.
    fn decode_block(block: &[u8], n: usize) -> Result<(Vec<u32>, Vec<f64>)> {
        let pos = &mut 0usize;
        let mut codes = Vec::new();
        huffman::decode_block_into(block, pos, &mut codes)?;
        if codes.len() != n {
            return Err(CompressError::Corrupt(format!(
                "expected {n} quantization codes, found {}",
                codes.len()
            )));
        }
        let declared = bytes::get_varint(block, pos)? as usize;
        let reserved = codes.iter().filter(|&&c| c == 0).count();
        if declared != reserved {
            return Err(CompressError::Corrupt(format!(
                "block tail declares {declared} unpredictable values, its codes reserve {reserved}"
            )));
        }
        let unpred = bytes::get_slice(block, pos, 8 * reserved)?
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        Ok((codes, unpred))
    }

    /// Block `b` of a stream-long array.
    fn block_of<T>(stream: &[T], b: usize) -> &[T] {
        &stream[b * PAR_BLOCK..((b + 1) * PAR_BLOCK).min(stream.len())]
    }
}

/// Parsed stream prologue.
struct StreamHeader {
    n: usize,
    transform: u8,
    eb: f64,
}

/// Bytes of `v` as a LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros()).max(1).div_ceil(7) as usize
}

/// The alternating run lengths of the first `n` bits of `bitmap` (MSB
/// first), the first run clear — and empty if bit 0 is set: one pass, a
/// 64-bit word at a time and a step per run.  `None` once the runs'
/// varints reach `cap` bytes: a run list that long cannot beat a section of
/// `cap` bytes.
fn bitmap_runs(bitmap: &[u8], n: usize, cap: usize) -> Option<Vec<u64>> {
    let mut runs = Vec::new();
    let (mut set, mut run, mut size) = (false, 0u64, 0usize);
    for (w, chunk) in bitmap.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let mut bits = u64::from_be_bytes(word);
        let mut left = n.saturating_sub(64 * w).min(64);
        while left > 0 {
            let same = if set { bits.leading_ones() } else { bits.leading_zeros() };
            let take = (same as usize).min(left);
            run += take as u64;
            left -= take;
            if left == 0 {
                break;
            }
            // The next bit differs: `take < left <= 64`.
            bits <<= take;
            size += varint_len(run);
            if size >= cap {
                return None;
            }
            runs.push(run);
            (set, run) = (!set, 0);
        }
    }
    if n > 0 {
        runs.push(run);
    }
    Some(runs)
}

/// Sets bits `start..end` of an MSB-first bitmap.
fn set_bits(bitmap: &mut [u8], start: usize, end: usize) {
    let mut i = start;
    while i < end && !i.is_multiple_of(8) {
        bitmap[i / 8] |= 0x80 >> (i % 8);
        i += 1;
    }
    let whole = (end - i) / 8;
    bitmap[i / 8..i / 8 + whole].fill(0xFF);
    i += 8 * whole;
    while i < end {
        bitmap[i / 8] |= 0x80 >> (i % 8);
        i += 1;
    }
}

/// Appends the first `n` bits of `bitmap` in the smallest of the four
/// codings, ties to the lower strategy byte.  One pass counts the runs, so
/// every size is exact before a byte is written: a constant bitmap costs
/// its strategy byte alone, and a run list is written only when it is
/// strictly smaller than the raw section.
fn put_bitmap(out: &mut Vec<u8>, bitmap: &[u8], n: usize) {
    let raw = 9 + bitmap.len();
    match bitmap_runs(bitmap, n, raw) {
        Some(runs) if runs.len() <= 1 => out.push(BITMAP_CLEAR),
        Some(runs) if runs.len() == 2 && runs[0] == 0 => out.push(BITMAP_SET),
        Some(runs)
            if 1 + varint_len(runs.len() as u64)
                + runs.iter().map(|&r| varint_len(r)).sum::<usize>()
                < raw =>
        {
            out.push(BITMAP_RUNS);
            bytes::put_varint(out, runs.len() as u64);
            for run in runs {
                bytes::put_varint(out, run);
            }
        }
        _ => {
            out.push(BITMAP_RAW);
            bytes::put_u64(out, bitmap.len() as u64);
            out.extend_from_slice(bitmap);
        }
    }
}

/// The point-wise-relative transform of a snapshot: which values are zero
/// and which negative (one bit per value each, MSB-first, final byte
/// zero-padded — [`BitWriter`]'s layout), and `ln|x|` of the non-zero ones.
///
/// [`BitWriter`]: crate::bitstream::BitWriter
struct LogSide {
    zeros: Vec<u8>,
    signs: Vec<u8>,
    logs: Vec<f64>,
}

impl LogSide {
    /// One sequential pass builds both bitmaps a 64-value word at a time
    /// and counts the non-zero values ahead of every [`CHUNK`]; those
    /// counts place each chunk's magnitudes in `logs`, so the `ln` pass —
    /// where the time goes — runs over the chunks on the pool.
    fn of(data: &[f64]) -> LogSide {
        let mut zeros = Vec::with_capacity(data.len().div_ceil(8));
        let mut signs = Vec::with_capacity(data.len().div_ceil(8));
        let mut offsets = vec![0usize];
        let mut nonzero = 0usize;
        for chunk in data.chunks(CHUNK) {
            for word in chunk.chunks(64) {
                let (mut z, mut s) = (0u64, 0u64);
                for (j, &x) in word.iter().enumerate() {
                    z |= u64::from(x == 0.0) << (63 - j);
                    s |= (x.to_bits() >> 63) << (63 - j);
                }
                nonzero += word.len() - z.count_ones() as usize;
                let nbytes = word.len().div_ceil(8);
                zeros.extend_from_slice(&z.to_be_bytes()[..nbytes]);
                signs.extend_from_slice(&s.to_be_bytes()[..nbytes]);
            }
            offsets.push(nonzero);
        }
        let mut logs = vec![0.0f64; nonzero];
        let pieces = rayon::split_mut(&mut logs, offsets.windows(2).map(|w| w[1] - w[0]));
        rayon::run_items(data.chunks(CHUNK).zip(pieces), |_, (chunk, dst)| {
            for (d, &x) in dst.iter_mut().zip(chunk.iter().filter(|&&x| x != 0.0)) {
                *d = x.abs().ln();
            }
        });
        LogSide { zeros, signs, logs }
    }
}

impl Codec for SzCompressor {
    fn name(&self) -> &'static str {
        "sz"
    }

    /// Encodes `data` as one self-contained stream: the prologue, under
    /// the point-wise-relative transform the two bitmaps (each in its
    /// smallest coding) and the count of log magnitudes, then the block
    /// container.
    ///
    /// # Errors
    /// Rejects non-finite or non-positive error bounds; the stream
    /// layout itself cannot fail to encode.
    fn encode_into(&self, data: &[f64], bound: ErrorBound, out: &mut Vec<u8>) -> Result<()> {
        let (transform, stream_eb, abs_eb) = Self::resolve_bound(data, bound)?;
        Self::put_header(out, data.len(), transform, stream_eb);
        let side = (transform == Transform::Log).then(|| LogSide::of(data));
        let values = match &side {
            Some(s) => {
                put_bitmap(out, &s.zeros, data.len());
                put_bitmap(out, &s.signs, data.len());
                bytes::put_u64(out, s.logs.len() as u64);
                s.logs.as_slice()
            }
            None => data,
        };
        Self::put_blocks(values, abs_eb, out);
        Ok(())
    }

    /// Decodes one stream: the prologue, whose element count must equal
    /// `n_elements` before it sizes anything, the bitmaps expanded to the
    /// layout [`SzCompressor::expand_log`] reads, then every block on the
    /// pool through the one reconstruction loop.
    ///
    /// # Errors
    /// Rejects another codec's stream, any version but the current one, an
    /// element count that disagrees with `n_elements`, a bitmap coding that
    /// is unknown or does not cover the stream's values, a block tail whose
    /// count differs from the reserved bins of its codes, and any other
    /// truncation or corruption.
    fn decode(&self, buf: &[u8], n_elements: usize) -> Result<Vec<f64>> {
        let pos = &mut 0usize;
        let h = Self::parse_header(buf, pos)?;
        if h.n != n_elements {
            return Err(CompressError::Corrupt(format!(
                "element count mismatch: header {}, metadata {n_elements}",
                h.n
            )));
        }
        // What the blocks code: the values themselves, or the log
        // magnitudes of the non-zero ones behind the two bitmaps.
        let (bitmaps, n_codes, abs_eb) = match h.transform {
            t if t == Transform::Identity as u8 => (None, h.n, h.eb),
            t if t == Transform::Log as u8 => {
                let zeros = Self::read_bitmap(buf, pos, h.n)?;
                let signs = Self::read_bitmap(buf, pos, h.n)?;
                let n_logs = bytes::get_u64(buf, pos)? as usize;
                (Some([zeros, signs]), n_logs, h.eb.ln_1p())
            }
            other => {
                return Err(CompressError::Corrupt(format!(
                    "unknown transform tag {other}"
                )))
            }
        };
        let nblocks = n_codes.div_ceil(PAR_BLOCK);
        let values = parblock::decode_blocks(buf, pos, nblocks, "SZ", |b, block| {
            let (codes, unpred) = Self::decode_block(block, PAR_BLOCK.min(n_codes - b * PAR_BLOCK))?;
            Ok(Self::reconstruct_block(&codes, &unpred, abs_eb))
        })?
        .concat();
        match bitmaps {
            Some([zeros, signs]) => Self::expand_log(&zeros, &signs, values, h.n),
            None => Ok(values),
        }
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
        let chunks = rayon::chunk_ranges(data.len(), rayon::DEFAULT_MIN_CHUNK);
        rayon::run_items(chunks, |_, chunk| min_max_lanes(&data[chunk]))
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

    #[test]
    fn tail_count_must_equal_the_reserved_bins() {
        // A one-block stream assembled by hand: two unpredictable values,
        // then one on the zero bin, behind a tail that declares `declared`.
        let stream = |declared: &[f64]| {
            let mut bytes = Vec::new();
            SzCompressor::put_header(&mut bytes, 3, Transform::Identity, 1e-3);
            let mut block = huffman::encode_block(&[0, 0, ZERO_BIN]);
            SzCompressor::append_unpred(&mut block, declared);
            parblock::write_container(&mut bytes, &[block]);
            bytes
        };
        let sz = SzCompressor::new();
        assert_eq!(sz.decode(&stream(&[7.0, -8.0]), 3).unwrap()[..2], [7.0, -8.0]);
        // One value short would read past the tail; one long would shift
        // every later value.
        for declared in [&[7.0][..], &[7.0, -8.0, 9.0]] {
            match sz.decode(&stream(declared), 3) {
                Err(CompressError::Corrupt(msg)) => assert!(msg.contains("reserve 2"), "{msg}"),
                other => panic!("expected a tail-count error, got {other:?}"),
            }
        }
    }

    /// Writes the bitmap of `bits` as `put_bitmap` does, reads it back,
    /// and returns the strategy byte and the bytes it took.
    fn bitmap_roundtrip(bits: &[bool]) -> (u8, usize) {
        let n = bits.len();
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        for (i, _) in bits.iter().enumerate().filter(|(_, &set)| set) {
            set_bits(&mut bitmap, i, i + 1);
        }
        let mut out = Vec::new();
        put_bitmap(&mut out, &bitmap, n);
        let pos = &mut 0usize;
        assert_eq!(SzCompressor::read_bitmap(&out, pos, n).unwrap(), bitmap, "{bits:?}");
        assert_eq!(*pos, out.len());
        (out[0], out.len())
    }

    #[test]
    fn every_bitmap_takes_its_smallest_coding_ties_to_the_lower_byte() {
        // Empty: all clear and all set both cost one byte; clear is lower.
        assert_eq!(bitmap_roundtrip(&[]), (BITMAP_CLEAR, 1));
        assert_eq!(bitmap_roundtrip(&[false; 1000]), (BITMAP_CLEAR, 1));
        assert_eq!(bitmap_roundtrip(&[true; 1000]), (BITMAP_SET, 1));
        // Clear 300, set 400, clear 300: byte, count, three 2-byte lengths.
        let middle: Vec<bool> = (0..1000).map(|i| (300..700).contains(&i)).collect();
        assert_eq!(bitmap_roundtrip(&middle), (BITMAP_RUNS, 8));
        // Set first: the first (clear) run is empty.
        let head: Vec<bool> = (0..1000).map(|i| i < 5).collect();
        assert_eq!(bitmap_roundtrip(&head), (BITMAP_RUNS, 6));
        // Eight runs of one bit: 1 + 1 + 8 bytes, as many as raw's 9 + 1.
        let alternating: Vec<bool> = (0..8).map(|i| i % 2 == 1).collect();
        assert_eq!(bitmap_roundtrip(&alternating), (BITMAP_RAW, 10));
        let noisy: Vec<bool> = (0..1000).map(|i| (i * 7919) % 13 < 6).collect();
        assert_eq!(bitmap_roundtrip(&noisy), (BITMAP_RAW, 9 + 125));
        // Runs across word boundaries and a ragged last byte.
        let ragged: Vec<bool> = (0..203).map(|i| (60..130).contains(&i) || i > 190).collect();
        assert_eq!(bitmap_roundtrip(&ragged).0, BITMAP_RUNS);
    }

    #[test]
    fn pointwise_streams_code_a_converged_iterates_bitmaps_in_a_few_bytes() {
        // No zeros, and negatives first: the bitmaps take 1 and 1 + 1 + 1 +
        // 2 + 2 bytes, where raw sections would take 2 × (9 + 1250).
        let data: Vec<f64> = (0..10_000)
            .map(|i| if i < 4_000 { -1.0 - i as f64 * 1e-3 } else { 2.0 + (i as f64).sin() })
            .collect();
        let sz = SzCompressor::new();
        let c = sz.compress(&data, ErrorBound::PointwiseRel(1e-4)).unwrap();
        assert_eq!(&c.bytes[19..27], &[BITMAP_CLEAR, BITMAP_RUNS, 3, 0, 0xA0, 0x1F, 0xF0, 0x2E]);
        check_bound(&data, &sz.decompress(&c).unwrap(), ErrorBound::PointwiseRel(1e-4));
    }
}
