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
//! from its histogram, and the encoder — which weighs up to three
//! candidate codings of every snapshot — sizes them all and bit-packs only
//! the winner.
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
//! | 4       | block-split; per block Huffman blob + varint unpredictable count + verbatim values; always an anchor, so no mode byte |
//! | 5       | v4 plus a per-variable [`DeltaMode`] byte before the block container: codes may be **temporal deltas** against the prior snapshot's codes, unpredictable values XOR-coded against the prior snapshot's bits (8 Huffman byte planes), and point-wise-relative zero/sign bitmaps either carried raw or inherited from the previous log link |
//!
//! Both come out of one encoder, [`Codec::encode_into`] (size every
//! candidate → emit the winner): within a [`Chain`] it writes version 5;
//! **without one it runs as a forced anchor** over a state that lives for
//! the call and writes the version-4 prologue, so a chainless stream is a
//! version-5 anchor minus its mode byte.  (Writing version 5 everywhere
//! would cost one byte per chainless stream and move the simulated-clock
//! goldens; it waits for their re-pin.)  Both decode through one decoder,
//! [`Codec::decode_chain`]: one loop over links, one block decoder
//! (Huffman symbols → un-delta against the retained prior links → tail
//! count checked against the reserved bins → verbatim values or XOR
//! planes), one reconstruction loop for the final link.  **A chain of one
//! is a stateless decode** — [`Codec::decode`] is `decode_chain` of a
//! single link — so a version-4 stream or a version-5 **anchor**
//! ([`DeltaMode::None`]) decodes on its own, and a delta stream decodes as
//! the end of its chain.

use crate::bitstream::{bytes, BitReader};
use crate::delta::{self, DeltaMode};
use crate::{huffman, parblock};
use crate::{Chain, Codec, CompressError, ErrorBound, Result};
use std::cell::RefCell;

/// Codec id stored in the stream header.
const CODEC_ID: u8 = 1;
/// Stream-format version of a chainless stream: always an anchor, so its
/// prologue carries no mode byte.
const VERSION: u8 = 4;
/// Stream-format version of a stream encoded within a [`Chain`]; carries
/// the per-variable [`DeltaMode`] header byte.
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
    /// Per-thread Huffman-symbol scratch, reused across blocks (the worker
    /// threads of the deterministic pool persist, so each thread allocates
    /// it once): a block's temporal-delta symbols on the way in, its
    /// decoded symbols on the way out.
    static SYMBOL_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The code of the zero bin (`0` is reserved for "unpredictable", then the
/// `2·QUANT_RADIUS − 1` bins shifted by `QUANT_RADIUS + 1`): the mode of
/// every well-predicted block, and where the Huffman stage is told to
/// expect it.
const ZERO_BIN: u32 = QUANT_RADIUS as u32 + 1;

/// Elements per pool task of the element-wise passes that run inside one
/// block (`ln` of the point-wise-relative transform, temporal
/// quantization): a multiple of 64, so chunks start on bitmap word
/// boundaries, that divides [`PAR_BLOCK`], so no chunk straddles a block.
const CHUNK: usize = 8192;

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

    /// Grid-space value reconstruction of one block from its (fully
    /// un-delta'd) quantization codes and its unpredictable values, one per
    /// reserved bin — the only reconstruction loop, so a chain replay and a
    /// stateless decode of the same snapshot agree bit for bit.
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

    /// Appends the common stream prologue up to and including the bound.
    fn put_header(out: &mut Vec<u8>, version: u8, n: usize, transform: Transform, eb: f64) {
        out.reserve(n / 2 + 64);
        out.push(CODEC_ID);
        out.push(version);
        bytes::put_u64(out, n as u64);
        out.push(transform as u8);
        bytes::put_f64(out, eb);
    }

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

    /// Reads one point-wise-relative bitmap (inverse of
    /// [`LogSide::put_bitmaps`]): a raw `u64 len` + bytes section on an
    /// anchor; on a delta link a flag byte first, which either announces
    /// the raw section (0) or stands for the previous log link's bitmap (1).
    fn read_bitmap(
        buf: &[u8],
        pos: &mut usize,
        delta: bool,
        inherited: Option<&Vec<u8>>,
    ) -> Result<Vec<u8>> {
        let flag = if delta {
            bytes::get_slice(buf, pos, 1)?[0]
        } else {
            0
        };
        match flag {
            0 => {
                let len = bytes::get_u64(buf, pos)? as usize;
                Ok(bytes::get_slice(buf, pos, len)?.to_vec())
            }
            1 => inherited.cloned().ok_or_else(|| {
                CompressError::Corrupt("bitmap inherited from a link that has none".into())
            }),
            other => Err(CompressError::Corrupt(format!(
                "unknown bitmap flag {other}"
            ))),
        }
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

    /// The sizing pass of the encoder: quantizes the snapshot
    /// straight into the state's spare code buffer, plans the exact Huffman
    /// blob of every (block × candidate) pair on the pool — a one-block
    /// stream still keeps as many threads busy as it has candidates — and
    /// picks the stream-wide winner.  Nothing is bit-packed and `state`'s
    /// retained priors are only read; [`SzCompressor::emit_temporal`]
    /// finishes the job.
    ///
    /// `max_order` is the highest order the retained priors may be used at
    /// ([`DeltaMode::None`]: not at all).  `side_costs` are the byte costs
    /// of the stream's side channels under
    /// direct and delta coding respectively (the Log transform's bitmaps
    /// inherit from the prior link when unchanged, so a delta stream can
    /// be cheaper than its blocks alone suggest); the winner is picked on
    /// total stream bytes.
    fn size_temporal(
        values: &[f64],
        abs_eb: f64,
        max_order: DeltaMode,
        side_costs: [usize; 2],
        state: &mut SzTemporalState,
    ) -> SizedSnapshot {
        let code_n = values.len();
        let nblocks = code_n.div_ceil(PAR_BLOCK);
        let mut prior1_ok = max_order != DeltaMode::None;

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
        let mut candidates = vec![DeltaMode::None];
        candidates.extend(prior1_ok.then_some(DeltaMode::Order1));
        candidates.extend(prior2_ok.then_some(DeltaMode::Order2));

        // Quantize, a chunk per pool task.
        state.spare.resize(code_n, 0);
        rayon::run_items(state.spare.chunks_mut(CHUNK), |j, chunk| {
            let at = j * CHUNK;
            let block = Self::block_of(values, at / PAR_BLOCK);
            Self::quantize_range(block, at % PAR_BLOCK, abs_eb, chunk);
        });
        let (codes, prev1, prev2) = (&state.spare, &state.codes1, &state.codes2);

        // Per block: its unpredictable values, and the tail that follows
        // the Huffman blob under direct coding (verbatim) and under either
        // delta coding (XOR planes against the prior).
        let tails: Vec<(Vec<f64>, [Vec<u8>; 2])> = rayon::run_ordered(nblocks, |b| {
            let block_codes = Self::block_of(codes, b);
            let unpred = Self::unpredictable(Self::block_of(values, b), block_codes);
            let (mut direct, mut delta) = (Vec::new(), Vec::new());
            Self::append_unpred(&mut direct, &unpred);
            if prior1_ok {
                let prior = &state.unpred1[unpred_offsets[b]..unpred_offsets[b + 1]];
                let prior_codes = Self::block_of(prev1, b);
                Self::append_unpred_delta(&mut delta, block_codes, prior_codes, &unpred, prior);
            }
            (unpred, [direct, delta])
        });

        // One exact plan per (block × candidate), block-major.
        let ncand = candidates.len();
        let plans: Vec<huffman::Plan> = rayon::run_ordered(nblocks * ncand, |task| {
            let (b, mode) = (task / ncand, candidates[task % ncand]);
            Self::with_symbols(mode, b, codes, prev1, prev2, huffman::Plan::of)
        });

        // Stream-wide winner by total stream bytes (blocks plus the side
        // channels each outcome would carry); strict `<` prefers the
        // lower order (and hence an anchor) on ties.
        let total = |c: usize| -> usize {
            let tail = |b: usize| tails[b].1[usize::from(c > 0)].len();
            (0..nblocks)
                .map(|b| plans[b * ncand + c].blob_len() + tail(b))
                .sum()
        };
        let mut best = (total(0) + side_costs[0], 0);
        for c in 1..ncand {
            let bytes = total(c) + side_costs[1];
            if bytes < best.0 {
                best = (bytes, c);
            }
        }
        let winner = best.1;

        let mut unpred = Vec::new();
        let mut blocks = Vec::with_capacity(nblocks);
        let winning_plans = plans.into_iter().skip(winner).step_by(ncand);
        for ((block_unpred, [direct, delta]), plan) in tails.into_iter().zip(winning_plans) {
            unpred.extend(block_unpred);
            blocks.push((plan, if winner == 0 { direct } else { delta }));
        }
        SizedSnapshot {
            mode: candidates[winner],
            blocks,
            unpred,
        }
    }

    /// The emit pass: appends the block container of a sized snapshot —
    /// every block bit-packed in place, on the pool, at the offset its
    /// exact length gives it — and rotates the snapshot into `state`.
    fn emit_temporal(sized: SizedSnapshot, state: &mut SzTemporalState, out: &mut Vec<u8>) {
        let lens: Vec<usize> = sized
            .blocks
            .iter()
            .map(|(plan, tail)| plan.blob_len() + tail.len())
            .collect();
        let (codes, prev1, prev2) = (&state.spare, &state.codes1, &state.codes2);
        parblock::encode_blocks_in_place(out, &lens, |b, slot| {
            let (plan, tail) = &sized.blocks[b];
            let (blob, after) = slot.split_at_mut(plan.blob_len());
            Self::with_symbols(sized.mode, b, codes, prev1, prev2, |syms, _| {
                plan.emit(syms, blob)
            });
            after.copy_from_slice(tail);
        });

        // Rotate the code buffers: the old `codes1` becomes `codes2` (valid
        // only if it belonged to the same stream shape), the just-filled
        // spare becomes `codes1`, and the old `codes2` is the next
        // snapshot's spare — no steady-state reallocation, no copy.
        std::mem::swap(&mut state.codes1, &mut state.codes2);
        std::mem::swap(&mut state.codes1, &mut state.spare);
        state.unpred1 = sized.unpred;
    }

    /// Runs `f` on the symbols block `b` of `codes` is coded as under
    /// `mode` — the codes themselves, or their temporal deltas against the
    /// prior snapshots' — and on the symbol their histogram peaks at.
    fn with_symbols<R>(
        mode: DeltaMode,
        b: usize,
        codes: &[u32],
        prev1: &[u32],
        prev2: &[u32],
        f: impl FnOnce(&[u32], u32) -> R,
    ) -> R {
        let codes = Self::block_of(codes, b);
        if mode == DeltaMode::None {
            return f(codes, ZERO_BIN);
        }
        SYMBOL_SCRATCH.with(|d| {
            let syms = &mut d.borrow_mut();
            let prev1 = Self::block_of(prev1, b);
            match mode {
                DeltaMode::Order2 => {
                    delta::encode_order2(codes, prev1, Self::block_of(prev2, b), syms)
                }
                _ => delta::encode_order1(codes, prev1, syms),
            };
            f(syms, 0)
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

    /// Inverse of [`SzCompressor::append_unpred_delta`] past the count:
    /// reads the eight XOR byte planes of `n_unpred` values and un-XORs
    /// them against the prior link's value at the same element position.
    fn read_unpred_delta(
        block: &[u8],
        pos: &mut usize,
        n_unpred: usize,
        codes: &[u32],
        (prev_codes, prev_unpred): &DecodedBlock,
    ) -> Result<Vec<f64>> {
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

    /// Decodes one block of one link — the only SZ block decoder: `n`
    /// Huffman symbols, un-delta'd under `mode` against the same block of
    /// the prior link (`prior`) and of the one before it (`prior2`) into
    /// the snapshot's own codes, then the tail, whose count must equal the
    /// reserved bins of those codes: verbatim values on a direct block, XOR
    /// planes against the prior link's values on a delta block.  The caller
    /// vouches that the priors `mode` needs have `n` codes.
    fn decode_block(
        block: &[u8],
        n: usize,
        mode: DeltaMode,
        prior: &DecodedBlock,
        prior2: &[u32],
    ) -> Result<DecodedBlock> {
        let pos = &mut 0usize;
        let mut codes = Vec::with_capacity(n);
        SYMBOL_SCRATCH.with(|q| {
            let syms = &mut q.borrow_mut();
            huffman::decode_block_into(block, pos, syms)?;
            if syms.len() != n {
                return Err(CompressError::Corrupt(format!(
                    "expected {n} quantization codes, found {}",
                    syms.len()
                )));
            }
            match mode {
                DeltaMode::None => codes.extend_from_slice(syms),
                DeltaMode::Order1 => delta::decode_order1(syms, &prior.0, &mut codes),
                DeltaMode::Order2 => delta::decode_order2(syms, &prior.0, prior2, &mut codes),
            }
            Ok(())
        })?;
        let declared = bytes::get_varint(block, pos)? as usize;
        let reserved = codes.iter().filter(|&&c| c == 0).count();
        if declared != reserved {
            return Err(CompressError::Corrupt(format!(
                "block tail declares {declared} unpredictable values, its codes reserve {reserved}"
            )));
        }
        let unpred = if mode == DeltaMode::None {
            bytes::get_slice(block, pos, 8 * reserved)?
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
                .collect()
        } else {
            Self::read_unpred_delta(block, pos, reserved, &codes, prior)?
        };
        Ok((codes, unpred))
    }

    /// Block `b` of a stream-long array.
    fn block_of<T>(stream: &[T], b: usize) -> &[T] {
        &stream[b * PAR_BLOCK..((b + 1) * PAR_BLOCK).min(stream.len())]
    }

    /// Per-block offsets into a snapshot's unpredictable values: entry
    /// `b` counts the reserved (code 0) bins before block `b`; the final
    /// entry is the total.
    fn unpred_offsets(codes: &[u32]) -> Vec<usize> {
        let mut offs = Vec::with_capacity(codes.len().div_ceil(PAR_BLOCK) + 1);
        offs.push(0usize);
        let mut zeros = 0usize;
        for block in codes.chunks(PAR_BLOCK) {
            zeros += block.iter().filter(|&&c| c == 0).count();
            offs.push(zeros);
        }
        offs
    }
}

/// One decoded block as the next link's deltas need it: its quantization
/// codes and its unpredictable values, one per reserved (code 0) bin.
type DecodedBlock = (Vec<u32>, Vec<f64>);

/// Stands in for the prior blocks an anchor never reads.
static NO_PRIOR: DecodedBlock = (Vec::new(), Vec::new());

/// A decoded chain link as the next links need it.
#[derive(Default)]
struct DecodedLink {
    n_codes: usize,
    blocks: Vec<DecodedBlock>,
    /// The zero and sign bitmaps of a log-transformed link.
    bitmaps: Option<[Vec<u8>; 2]>,
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

/// A snapshot after the encoder's sizing pass: the coding that won
/// and what emitting it takes.
struct SizedSnapshot {
    mode: DeltaMode,
    /// Per block, the winner's Huffman plan and the bytes after its blob.
    blocks: Vec<(huffman::Plan, Vec<u8>)>,
    /// The snapshot's unpredictable values, in stream order.
    unpred: Vec<f64>,
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

    /// Appends the zero and sign bitmaps.  An anchor (`inherit == None`)
    /// carries both as raw `u64 len` + bytes sections; a delta stream
    /// carries one flag byte per bitmap and the raw section only for a
    /// bitmap it does not inherit from the prior link.
    fn put_bitmaps(&self, out: &mut Vec<u8>, inherit: Option<[bool; 2]>) {
        for (i, bitmap) in [&self.zeros, &self.signs].into_iter().enumerate() {
            let inherited = inherit.is_some_and(|same| same[i]);
            if inherit.is_some() {
                out.push(u8::from(inherited));
            }
            if !inherited {
                bytes::put_u64(out, bitmap.len() as u64);
                out.extend_from_slice(bitmap);
            }
        }
    }
}

/// Retained prior-snapshot quantization codes for one variable, enabling
/// temporal delta coding of the next snapshot.  `codes1` is the newest
/// prior; `codes2` the one before it (order-2 extrapolation), valid only
/// while `prev2_valid` — the newest prior is itself a delta against it, so
/// both lie in the chain a store keeps from the last anchor — and the
/// shapes agree.  `unpred1` holds the newest
/// prior's unpredictable values (one per reserved bin in `codes1`) — the
/// base the next delta stream's XOR tail codes against — and `zeros1` /
/// `signs1` its point-wise-relative bitmaps, which the next delta stream
/// inherits when unchanged.  `spare` is the buffer the next snapshot
/// quantizes into: the three code buffers rotate, so the encoder neither
/// copies codes nor reallocates in steady state.  Reset (or drop) the state
/// whenever the chain breaks — an evicted base, a failed commit, a
/// recovery — and the next snapshot is forced to anchor.
#[derive(Clone, Default)]
pub struct SzTemporalState {
    key: Option<StateKey>,
    prev2_valid: bool,
    codes1: Vec<u32>,
    codes2: Vec<u32>,
    unpred1: Vec<f64>,
    zeros1: Vec<u8>,
    signs1: Vec<u8>,
    spare: Vec<u32>,
}

/// Shows what the state retains; the spare buffer's contents are scratch.
impl std::fmt::Debug for SzTemporalState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SzTemporalState")
            .field("key", &self.key)
            .field("prev2_valid", &self.prev2_valid)
            .field("codes1", &self.codes1)
            .field("codes2", &self.codes2)
            .field("unpred1", &self.unpred1)
            .field("zeros1", &self.zeros1)
            .field("signs1", &self.signs1)
            .finish()
    }
}

impl SzTemporalState {
    /// Creates an empty state (no priors: the first snapshot anchors).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all retained prior-snapshot codes; the next temporal
    /// compression emits an anchor.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// True if a prior snapshot's codes are retained (the next
    /// shape-compatible snapshot may delta-code).
    pub fn has_prior(&self) -> bool {
        self.key.is_some()
    }
}

impl Codec for SzCompressor {
    fn name(&self) -> &'static str {
        "sz"
    }

    /// Encodes one snapshot of a variable, its quantization codes as
    /// temporal deltas against the prior snapshot's codes retained in the
    /// chain's state whenever that is both possible and smaller than direct
    /// coding.
    ///
    /// The candidate codings (direct, order-1, and — with two retained
    /// priors and `max_order == Order2` — order-2) are **sized** exactly,
    /// block by block, from their symbol histograms; the smallest total
    /// wins, ties prefer the lower order (so an anchor is emitted whenever
    /// delta coding does not pay), and only the winner is bit-packed.
    /// `force_anchor` pins the stream to [`DeltaMode::None`] regardless
    /// (the periodic anchors of a checkpoint chain).  The delta transform
    /// is lossless on the codes, so replaying the chain reconstructs values
    /// bit-identically to a direct decode of the same snapshot.
    ///
    /// The state is always updated to hold this snapshot's codes (even
    /// when direct coding wins) and is never consulted when the shape or
    /// transform of the stream changed — such snapshots fall back to
    /// direct coding automatically.  Returns the mode actually written.
    ///
    /// **Without a chain the same body runs as a forced anchor** and
    /// writes the version-4 prologue, which has no mode byte to spend on
    /// the only mode it can have; within a chain it writes version 5.
    ///
    /// # Errors
    /// Rejects non-finite or non-positive error bounds; the stream
    /// layout itself cannot fail to encode.
    fn encode_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        chain: Option<Chain<'_>>,
        out: &mut Vec<u8>,
    ) -> Result<DeltaMode> {
        let (transform, stream_eb, abs_eb) = Self::resolve_bound(data, bound)?;
        // A chainless stream is a forced anchor over a state that lives for
        // the call, behind the version-4 prologue: no mode byte.
        let mut own = SzTemporalState::new();
        let (version, max_order, force_anchor, state) = match chain {
            Some(c) => (TEMPORAL_VERSION, c.max_order, c.force_anchor, c.state),
            None => (VERSION, DeltaMode::None, true, &mut own),
        };
        Self::put_header(out, version, data.len(), transform, stream_eb);

        // The temporal delta applies to the coded sub-stream: the values
        // themselves, or the log magnitudes of the non-zero ones — a
        // changed zero pattern changes `n_codes` and falls back to an
        // anchor via the state key.
        let side = (transform == Transform::Log).then(|| LogSide::of(data));
        let values = side.as_ref().map_or(data, |s| s.logs.as_slice());
        let key = StateKey {
            transform: transform as u8,
            n_codes: values.len(),
        };

        // The prior snapshot is a base for this one only if it had its
        // shape, and never on a forced anchor.
        let shape_ok = state.key == Some(key) && state.codes1.len() == values.len();
        let max_order = if force_anchor || !shape_ok {
            DeltaMode::None
        } else {
            max_order
        };

        // A delta stream inherits each bitmap from the prior link when it
        // is byte-identical (the common case: zero and sign patterns of an
        // iterative solve are stable), paying one flag byte instead of the
        // raw section.  The raw / delta side-channel costs feed the mode
        // decision, so a stream whose bitmaps dominate can still pick
        // delta.
        let mut inherit = [false; 2];
        let (mut side_raw, mut side_delta) = (0, 0);
        if let Some(s) = &side {
            let delta = max_order != DeltaMode::None;
            inherit = [
                delta && state.zeros1 == s.zeros,
                delta && state.signs1 == s.signs,
            ];
            for (bitmap, same) in [&s.zeros, &s.signs].into_iter().zip(inherit) {
                side_raw += 8 + bitmap.len();
                side_delta += 1 + if same { 0 } else { 8 + bitmap.len() };
            }
        }

        // Size every candidate, then write what the winner's mode decides:
        // the mode byte, the side channels, and only then the blocks.
        let sized =
            Self::size_temporal(values, abs_eb, max_order, [side_raw, side_delta], state);
        let mode = sized.mode;
        if version == TEMPORAL_VERSION {
            out.push(mode as u8);
        }
        match side {
            Some(s) => {
                s.put_bitmaps(out, (mode != DeltaMode::None).then_some(inherit));
                bytes::put_u64(out, s.logs.len() as u64);
                (state.zeros1, state.signs1) = (s.zeros, s.signs);
            }
            None => {
                state.zeros1.clear();
                state.signs1.clear();
            }
        }
        Self::emit_temporal(sized, state, out);
        // The rotated-out prior is a second-order base for the next snapshot
        // only if this one leans on it: a chain is stored from its anchor
        // on, so order 2 needs two links after the anchor.
        state.prev2_valid = shape_ok && mode != DeltaMode::None;
        state.key = Some(key);
        Ok(mode)
    }

    fn decode(&self, stream: &[u8], n_elements: usize) -> Result<Vec<f64>> {
        self.decode_chain(&[stream], n_elements)
    }

    /// Decodes a delta chain back to the final snapshot's values — the
    /// only SZ decoder: **a chain of one is a stateless decode**, and
    /// [`Codec::decode`] is exactly that.
    ///
    /// `links` is the chain in temporal order: a self-contained stream
    /// first (version 4, or version 5 with [`DeltaMode::None`]), then every
    /// stream up to the target snapshot.  Each link is decoded block by
    /// block to its quantization codes and unpredictable values (plus, for
    /// log-transformed streams, its zero/sign bitmaps, which the next link
    /// may inherit); the two newest links are retained for the deltas of
    /// the next, and an anchor mid-chain simply stops consulting them.
    /// Only the final link is reconstructed to values, through the one
    /// reconstruction loop, so the result is bit-identical to a direct
    /// decode of that snapshot.
    ///
    /// # Errors
    /// Rejects empty chains, a final link whose header disagrees with
    /// `n_elements`, a delta link with fewer links before it than
    /// its order needs, code-count mismatches between a delta link and the
    /// links it codes against, a block tail whose count differs from the
    /// reserved bins of its codes, and any other per-link corruption.
    fn decode_chain(&self, links: &[&[u8]], n_elements: usize) -> Result<Vec<f64>> {
        // The two newest decoded links, newest first.
        let mut priors: [DecodedLink; 2] = Default::default();
        for (idx, &buf) in links.iter().enumerate() {
            let pos = &mut 0usize;
            let h = Self::parse_header(buf, pos)?;
            if idx + 1 == links.len() && h.n != n_elements {
                return Err(CompressError::Corrupt(format!(
                    "chain link {idx}: element count mismatch: header {}, metadata {n_elements}",
                    h.n
                )));
            }
            let needs = h.mode.prior_snapshots();
            if needs > idx {
                return Err(CompressError::Corrupt(format!(
                    "chain link {idx}: {:?} delta stream with {idx} of the {needs} links it \
                     codes against; decode it as the end of its chain, anchor first",
                    h.mode
                )));
            }

            // What the blocks code: the values themselves, or the log
            // magnitudes of the non-zero ones behind the two bitmaps.
            let (bitmaps, n_codes, abs_eb) = match h.transform {
                t if t == Transform::Identity as u8 => (None, h.n, h.eb),
                t if t == Transform::Log as u8 => {
                    let inherited = priors[0].bitmaps.as_ref();
                    let delta = needs > 0;
                    let zeros = Self::read_bitmap(buf, pos, delta, inherited.map(|b| &b[0]))?;
                    let signs = Self::read_bitmap(buf, pos, delta, inherited.map(|b| &b[1]))?;
                    let n_logs = bytes::get_u64(buf, pos)? as usize;
                    (Some([zeros, signs]), n_logs, h.eb.ln_1p())
                }
                other => {
                    return Err(CompressError::Corrupt(format!(
                        "unknown transform tag {other}"
                    )))
                }
            };
            if priors[..needs].iter().any(|p| p.n_codes != n_codes) {
                return Err(CompressError::Corrupt(format!(
                    "chain link {idx}: {:?} delta over {n_codes} codes, the links before it \
                     have {} and {}",
                    h.mode, priors[0].n_codes, priors[1].n_codes
                )));
            }

            let nblocks = n_codes.div_ceil(PAR_BLOCK);
            let decode = |b: usize, block: &[u8]| {
                let prior = |k: usize| priors[k].blocks.get(b).unwrap_or(&NO_PRIOR);
                let block_n = PAR_BLOCK.min(n_codes - b * PAR_BLOCK);
                Self::decode_block(block, block_n, h.mode, prior(0), &prior(1).0)
            };
            if idx + 1 < links.len() {
                let blocks = parblock::decode_blocks(buf, pos, nblocks, "SZ", decode)?;
                let [newest, _] = priors;
                priors = [
                    DecodedLink {
                        n_codes,
                        blocks,
                        bitmaps,
                    },
                    newest,
                ];
                continue;
            }
            // The final link alone goes on to values.
            let values = parblock::decode_blocks(buf, pos, nblocks, "SZ", |b, block| {
                let (codes, unpred) = decode(b, block)?;
                Ok(Self::reconstruct_block(&codes, &unpred, abs_eb))
            })?
            .concat();
            return match bitmaps {
                Some([zeros, signs]) => Self::expand_log(&zeros, &signs, values, h.n),
                None => Ok(values),
            };
        }
        Err(CompressError::Corrupt("empty checkpoint chain".into()))
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
    use crate::Compressed;

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

    /// The streams of `links`, as `Codec::decode_chain` takes them.
    fn streams(links: &[Compressed]) -> Vec<&[u8]> {
        links.iter().map(|l| l.bytes.as_slice()).collect()
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
                    let chain_at = Chain { max_order, force_anchor: k == 0, state: &mut state };
                    let mode = sz.encode_into(snap, bound, Some(chain_at), &mut bytes).unwrap();
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
                    let replayed = sz.decode_chain(&streams(&chain), snap.len()).unwrap();
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
        let chain = Chain { max_order: DeltaMode::Order1, force_anchor: true, state: &mut state };
        sz.encode_into(&snaps[0], bound, Some(chain), &mut anchor).unwrap();
        let mut delta_bytes = Vec::new();
        let chain = Chain { max_order: DeltaMode::Order1, force_anchor: false, state: &mut state };
        let mode = sz.encode_into(&snaps[1], bound, Some(chain), &mut delta_bytes).unwrap();
        assert_eq!(mode, DeltaMode::Order1, "correlated snapshots should delta");
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
        let chain = Chain { max_order: DeltaMode::Order1, force_anchor: false, state: &mut state };
        sz.encode_into(&a, bound, Some(chain), &mut out).unwrap();
        assert!(state.has_prior());
        // Different element count: the state key mismatches, so the next
        // stream anchors even though a prior is retained.
        out.clear();
        let chain = Chain { max_order: DeltaMode::Order1, force_anchor: false, state: &mut state };
        let mode = sz.encode_into(&b, bound, Some(chain), &mut out).unwrap();
        assert_eq!(mode, DeltaMode::None);
        // Reset drops the prior outright.
        state.reset();
        assert!(!state.has_prior());
        out.clear();
        let chain = Chain { max_order: DeltaMode::Order1, force_anchor: false, state: &mut state };
        let mode = sz.encode_into(&b, bound, Some(chain), &mut out).unwrap();
        assert_eq!(mode, DeltaMode::None);
    }

    #[test]
    fn stateless_decompress_rejects_delta_streams() {
        let sz = SzCompressor::new();
        let bound = ErrorBound::Abs(1e-6);
        let snaps = snapshots(6_000, 2);
        let mut state = SzTemporalState::new();
        let mut chain = Vec::new();
        let mut mode = DeltaMode::None;
        for (k, snap) in snaps.iter().enumerate() {
            let mut bytes = Vec::new();
            let chain_at =
                Chain { max_order: DeltaMode::Order1, force_anchor: k == 0, state: &mut state };
            mode = sz.encode_into(snap, bound, Some(chain_at), &mut bytes).unwrap();
            chain.push(Compressed {
                bytes,
                n_elements: snap.len(),
            });
        }
        assert_eq!(mode, DeltaMode::Order1);
        assert!(
            sz.decompress(&chain[1]).is_err(),
            "a delta stream must not decode without its chain"
        );
        // And a chain that does not start at an anchor is rejected.
        assert!(sz.decode_chain(&streams(&chain[1..]), 6_000).is_err());
        assert!(sz.decode_chain(&[], 0).is_err());
    }

    /// A one-block version-5 Identity stream assembled by hand: the
    /// Huffman blob of `symbols`, then `tail`.
    fn hand_built_link(mode: DeltaMode, symbols: &[u32], tail: &[u8]) -> Compressed {
        let mut bytes = Vec::new();
        SzCompressor::put_header(
            &mut bytes,
            TEMPORAL_VERSION,
            symbols.len(),
            Transform::Identity,
            1e-3,
        );
        bytes.push(mode as u8);
        let mut block = Vec::new();
        huffman::encode_block_into(symbols, &mut block);
        block.extend_from_slice(tail);
        parblock::write_container(&mut bytes, &[block]);
        Compressed {
            bytes,
            n_elements: symbols.len(),
        }
    }

    #[test]
    fn tail_count_must_equal_the_reserved_bins_on_every_link() {
        let sz = SzCompressor::new();
        // Two unpredictable values, then one on the zero bin.
        let codes = [0, 0, ZERO_BIN];
        let anchor = |declared: &[f64]| {
            let mut tail = Vec::new();
            SzCompressor::append_unpred(&mut tail, declared);
            hand_built_link(DeltaMode::None, &codes, &tail)
        };
        // The same snapshot again: all-zero order-1 symbols and XORs.
        let delta = |declared: usize| {
            let mut tail = Vec::new();
            bytes::put_varint(&mut tail, declared as u64);
            for _ in 0..8 {
                huffman::encode_block_into(&vec![0; declared], &mut tail);
            }
            hand_built_link(DeltaMode::Order1, &[0, 0, 0], &tail)
        };
        let well_formed = [anchor(&[7.0, -8.0]), delta(2)];
        assert_eq!(sz.decode_chain(&streams(&well_formed), 3).unwrap()[..2], [7.0, -8.0]);
        assert_eq!(sz.decompress(&well_formed[0]).unwrap()[..2], [7.0, -8.0]);

        let rejected = |chain: &[Compressed]| match sz.decode_chain(&streams(chain), 3) {
            Err(CompressError::Corrupt(msg)) => assert!(msg.contains("reserve 2"), "{msg}"),
            other => panic!("expected a tail-count error, got {other:?}"),
        };
        // A verbatim tail one value short used to index past the retained
        // values when the next link paired its XORs; one value long used
        // to shift every later block's pairing by one.
        for declared in [&[7.0][..], &[7.0, -8.0, 9.0]] {
            rejected(&[anchor(declared), delta(2)]);
            rejected(&[anchor(declared)]);
        }
        for declared in [1, 3] {
            rejected(&[anchor(&[7.0, -8.0]), delta(declared)]);
        }
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
                let chain_at =
                    Chain { max_order: DeltaMode::Order2, force_anchor: k == 0, state: &mut state };
                sz.encode_into(&data, bound, Some(chain_at), &mut bytes).unwrap();
                chain.push(Compressed {
                    bytes,
                    n_elements: data.len(),
                });
            }
            let replayed = sz.decode_chain(&streams(&chain), data.len()).unwrap();
            let direct = sz.decompress(&sz.compress(&data, bound).unwrap()).unwrap();
            assert_eq!(replayed, direct);
        }
    }
}
