//! Exact floating-point codecs: raw IEEE-754 bytes (the traditional
//! checkpoint) and the lossless "Gzip" baseline of the paper.
//!
//! The paper's lossless-checkpointing baseline compresses checkpoint files
//! with Gzip and observes compression ratios of at most ≈6× (Table 3) —
//! far below the 20–60× of error-bounded lossy compression, because the
//! trailing mantissa bits of floating-point data are effectively random
//! (§2, "Scientific Data Compression").  This module provides one
//! [`Codec`] per strategy:
//!
//! * [`LosslessPipeline`] — the codec the lossless-checkpointing strategy
//!   uses, the closest analogue of "gzip on a scientific dataset".  It has
//!   two private stages: an FPC-style predictor pass (each double is
//!   XOR-ed with a predicted value from finite-context-hash predictors and
//!   the residual is stored with a leading-zero-byte count), then a
//!   general-purpose LZSS byte compressor with a 64 KiB window, standing
//!   in for DEFLATE's string matching, on the FPC output.  It costs some
//!   thirty times SZ's encode for a tenth off the raw size: a correctness
//!   baseline, not a headline comparator.
//! * [`RawCodec`] — every value's eight little-endian bytes, headerless.
//!
//! Both ignore the bound and the chain they are handed and write
//! self-contained streams.

use crate::bitstream::bytes;
use crate::{Chain, Codec, CompressError, DeltaMode, ErrorBound, Result};

/// Codec ids stored in stream headers.
const FPC_ID: u8 = 10;
const PIPELINE_ID: u8 = 12;

/// Reads the `[id][u64 n]` prologue the two compressed streams share.
fn read_prologue(stream: &[u8], pos: &mut usize, expected: u8, n_elements: usize) -> Result<()> {
    let found = bytes::get_slice(stream, pos, 1)?[0];
    if found != expected {
        return Err(CompressError::WrongCodec { found, expected });
    }
    let n = bytes::get_u64(stream, pos)? as usize;
    if n != n_elements {
        return Err(CompressError::Corrupt(format!(
            "element count mismatch: header {n}, metadata {n_elements}"
        )));
    }
    Ok(())
}

/// The `f64`s a run of little-endian bytes holds, eight bytes each.
fn doubles(raw: &[u8], n_elements: usize) -> Result<Vec<f64>> {
    if raw.len() != n_elements.saturating_mul(8) {
        return Err(CompressError::Corrupt(format!(
            "{} raw bytes do not hold {n_elements} values",
            raw.len()
        )));
    }
    Ok(raw
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect())
}

// ---------------------------------------------------------------------------
// Raw IEEE-754
// ---------------------------------------------------------------------------

/// The traditional checkpoint's encoding: every value's eight
/// little-endian bytes and nothing else, so a payload is its own length.
#[derive(Debug, Clone, Copy, Default)]
pub struct RawCodec;

impl Codec for RawCodec {
    fn name(&self) -> &'static str {
        "raw"
    }

    fn encode_into(
        &self,
        data: &[f64],
        _: ErrorBound,
        _: Option<Chain<'_>>,
        out: &mut Vec<u8>,
    ) -> Result<DeltaMode> {
        let start = out.len();
        out.resize(start + data.len() * 8, 0);
        for (bytes, x) in out[start..].chunks_exact_mut(8).zip(data) {
            bytes.copy_from_slice(&x.to_le_bytes());
        }
        Ok(DeltaMode::None)
    }

    fn decode(&self, stream: &[u8], n_elements: usize) -> Result<Vec<f64>> {
        doubles(stream, n_elements)
    }
}

// ---------------------------------------------------------------------------
// FPC stage
// ---------------------------------------------------------------------------

/// Size (log2) of the FCM/DFCM predictor tables.
const FPC_TABLE_BITS: usize = 16;

struct FpcPredictors {
    fcm: Vec<u64>,
    dfcm: Vec<u64>,
    fcm_hash: usize,
    dfcm_hash: usize,
    last: u64,
}

impl FpcPredictors {
    fn new() -> Self {
        FpcPredictors {
            fcm: vec![0u64; 1 << FPC_TABLE_BITS],
            dfcm: vec![0u64; 1 << FPC_TABLE_BITS],
            fcm_hash: 0,
            dfcm_hash: 0,
            last: 0,
        }
    }

    /// Returns the two predictions for the next value.
    fn predict(&self) -> (u64, u64) {
        (
            self.fcm[self.fcm_hash],
            self.dfcm[self.dfcm_hash].wrapping_add(self.last),
        )
    }

    /// Updates predictor state with the true value.
    fn update(&mut self, actual: u64) {
        let mask = (1usize << FPC_TABLE_BITS) - 1;
        self.fcm[self.fcm_hash] = actual;
        self.fcm_hash = ((self.fcm_hash << 6) ^ (actual >> 48) as usize) & mask;
        let delta = actual.wrapping_sub(self.last);
        self.dfcm[self.dfcm_hash] = delta;
        self.dfcm_hash = ((self.dfcm_hash << 2) ^ (delta >> 40) as usize) & mask;
        self.last = actual;
    }
}

/// The pipeline's first stage, an FPC-style predictor pass (Burtscher &
/// Ratanaworabhan's FPC, simplified): two hash-based predictors (FCM and
/// DFCM), pick whichever XORs to more leading zero bytes, emit a 4-bit
/// header per value plus the non-zero residual bytes, after an
/// `[FPC_ID][u64 n]` prologue of its own.
fn fpc_encode(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 8 / 2 + 64);
    out.push(FPC_ID);
    bytes::put_u64(&mut out, data.len() as u64);

    let mut pred = FpcPredictors::new();
    // Header nibbles: bit3 = predictor used (0 fcm, 1 dfcm),
    // bits 0-2 = number of leading zero BYTES (0..=7) of the residual;
    // residual always stores (8 - lzb) bytes... except lzb==8 encoded as 7
    // with 1 stored byte of 0 to keep the nibble in 3 bits (FPC does the
    // same).
    let mut headers: Vec<u8> = Vec::with_capacity(data.len().div_ceil(2));
    let mut residuals: Vec<u8> = Vec::with_capacity(data.len() * 4);
    let mut nibble_pending: Option<u8> = None;
    for &v in data {
        let bits = v.to_bits();
        let (p_fcm, p_dfcm) = pred.predict();
        let x_fcm = bits ^ p_fcm;
        let x_dfcm = bits ^ p_dfcm;
        let (sel, resid) = if x_fcm.leading_zeros() >= x_dfcm.leading_zeros() {
            (0u8, x_fcm)
        } else {
            (1u8, x_dfcm)
        };
        pred.update(bits);
        let mut lzb = (resid.leading_zeros() / 8) as u8;
        if lzb > 7 {
            lzb = 7;
        }
        let nbytes = 8 - lzb as usize;
        let nibble = (sel << 3) | lzb;
        match nibble_pending.take() {
            None => nibble_pending = Some(nibble),
            Some(first) => headers.push((first << 4) | nibble),
        }
        residuals.extend_from_slice(&resid.to_be_bytes()[8 - nbytes..]);
    }
    if let Some(first) = nibble_pending {
        headers.push(first << 4);
    }

    bytes::put_u64(&mut out, headers.len() as u64);
    out.extend_from_slice(&headers);
    bytes::put_u64(&mut out, residuals.len() as u64);
    out.extend_from_slice(&residuals);
    out
}

/// Inverts [`fpc_encode`].
fn fpc_decode(buf: &[u8], n: usize) -> Result<Vec<f64>> {
    let mut pos = 0usize;
    read_prologue(buf, &mut pos, FPC_ID, n)?;
    let header_len = bytes::get_u64(buf, &mut pos)? as usize;
    let headers = bytes::get_slice(buf, &mut pos, header_len)?.to_vec();
    let resid_len = bytes::get_u64(buf, &mut pos)? as usize;
    let residuals = bytes::get_slice(buf, &mut pos, resid_len)?;

    let mut pred = FpcPredictors::new();
    let mut out = Vec::with_capacity(n);
    let mut rpos = 0usize;
    for i in 0..n {
        let byte = headers
            .get(i / 2)
            .ok_or_else(|| CompressError::Corrupt("missing FPC header".into()))?;
        let nibble = if i % 2 == 0 { byte >> 4 } else { byte & 0x0F };
        let sel = nibble >> 3;
        let lzb = (nibble & 0x7) as usize;
        let nbytes = 8 - lzb;
        if rpos + nbytes > residuals.len() {
            return Err(CompressError::Corrupt("truncated FPC residuals".into()));
        }
        let mut resid_bytes = [0u8; 8];
        resid_bytes[8 - nbytes..].copy_from_slice(&residuals[rpos..rpos + nbytes]);
        rpos += nbytes;
        let resid = u64::from_be_bytes(resid_bytes);
        let (p_fcm, p_dfcm) = pred.predict();
        let bits = resid ^ if sel == 0 { p_fcm } else { p_dfcm };
        pred.update(bits);
        out.push(f64::from_bits(bits));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// LZSS stage
// ---------------------------------------------------------------------------

/// Sliding-window size for LZSS matches.  A match offset is stored in two
/// bytes, so matches reach back strictly less than this far.
const LZSS_WINDOW: usize = 1 << 16;
/// Minimum match length worth encoding.
const LZSS_MIN_MATCH: usize = 4;
/// Maximum match length (fits in one byte after bias).
const LZSS_MAX_MATCH: usize = LZSS_MIN_MATCH + 254;

/// The pipeline's second stage: a byte-oriented LZSS compressor with a
/// 64 KiB window and hash-chain match finding, the general-purpose half
/// of the "gzip-like" baseline.
fn lzss_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    bytes::put_u64(&mut out, input.len() as u64);

    const HASH_BITS: usize = 15;
    let hash = |a: u8, b: u8, c: u8| -> usize {
        ((a as usize) << 7 ^ (b as usize) << 3 ^ (c as usize)) & ((1 << HASH_BITS) - 1)
    };
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; input.len()];

    // Token stream: flag bytes each describing 8 items, followed by the
    // items (literal byte, or 2-byte offset + 1-byte length).
    let mut flags: Vec<u8> = Vec::new();
    let mut items: Vec<u8> = Vec::new();
    let mut flag_byte = 0u8;
    let mut flag_count = 0u8;
    let push_flag = |bit: bool, flags: &mut Vec<u8>, flag_byte: &mut u8, flag_count: &mut u8| {
        if bit {
            *flag_byte |= 1 << *flag_count;
        }
        *flag_count += 1;
        if *flag_count == 8 {
            flags.push(*flag_byte);
            *flag_byte = 0;
            *flag_count = 0;
        }
    };

    let mut i = 0usize;
    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + LZSS_MIN_MATCH <= input.len() {
            let h = hash(input[i], input[i + 1], input[i + 2]);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && i - cand < LZSS_WINDOW && chain < 32 {
                let max_len = (input.len() - i).min(LZSS_MAX_MATCH);
                let mut l = 0usize;
                while l < max_len && input[cand + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - cand;
                    if l == max_len {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            // Insert current position into the chain.
            prev[i] = head[h];
            head[h] = i;
        }
        if best_len >= LZSS_MIN_MATCH {
            push_flag(true, &mut flags, &mut flag_byte, &mut flag_count);
            items.extend_from_slice(&(best_off as u16).to_le_bytes());
            items.push((best_len - LZSS_MIN_MATCH) as u8);
            // Insert skipped positions into the hash chains so later
            // matches can reference them.
            let end = (i + best_len).min(input.len());
            let mut j = i + 1;
            while j + LZSS_MIN_MATCH <= input.len() && j < end {
                let h = hash(input[j], input[j + 1], input[j + 2]);
                prev[j] = head[h];
                head[h] = j;
                j += 1;
            }
            i += best_len;
        } else {
            push_flag(false, &mut flags, &mut flag_byte, &mut flag_count);
            items.push(input[i]);
            i += 1;
        }
    }
    if flag_count > 0 {
        flags.push(flag_byte);
    }

    bytes::put_u64(&mut out, flags.len() as u64);
    out.extend_from_slice(&flags);
    bytes::put_u64(&mut out, items.len() as u64);
    out.extend_from_slice(&items);
    out
}

/// Inverts [`lzss_compress`].
///
/// # Errors
/// Returns [`CompressError::Corrupt`] for malformed streams.
fn lzss_decompress(input: &[u8]) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let n = bytes::get_u64(input, &mut pos)? as usize;
    let flags_len = bytes::get_u64(input, &mut pos)? as usize;
    let flags = bytes::get_slice(input, &mut pos, flags_len)?.to_vec();
    let items_len = bytes::get_u64(input, &mut pos)? as usize;
    let items = bytes::get_slice(input, &mut pos, items_len)?;

    let mut out = Vec::with_capacity(n);
    let mut item_pos = 0usize;
    let mut flag_index = 0usize;
    while out.len() < n {
        let flag_byte = *flags
            .get(flag_index / 8)
            .ok_or_else(|| CompressError::Corrupt("missing LZSS flags".into()))?;
        let is_match = (flag_byte >> (flag_index % 8)) & 1 == 1;
        flag_index += 1;
        if is_match {
            if item_pos + 3 > items.len() {
                return Err(CompressError::Corrupt("truncated LZSS match".into()));
            }
            let off = u16::from_le_bytes([items[item_pos], items[item_pos + 1]]) as usize;
            let len = items[item_pos + 2] as usize + LZSS_MIN_MATCH;
            item_pos += 3;
            if off == 0 || off > out.len() {
                return Err(CompressError::Corrupt("invalid LZSS offset".into()));
            }
            let start = out.len() - off;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        } else {
            let b = *items
                .get(item_pos)
                .ok_or_else(|| CompressError::Corrupt("truncated LZSS literal".into()))?;
            item_pos += 1;
            out.push(b);
        }
    }
    if out.len() != n {
        return Err(CompressError::Corrupt("LZSS length mismatch".into()));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Pipeline: FPC residuals further compressed with LZSS
// ---------------------------------------------------------------------------

/// The default lossless checkpointing codec: FPC prediction followed by
/// LZSS on the FPC output, approximating what Gzip achieves on scientific
/// double-precision data.
#[derive(Debug, Clone, Copy, Default)]
pub struct LosslessPipeline;

impl LosslessPipeline {
    /// Creates the codec.
    pub fn new() -> Self {
        LosslessPipeline
    }
}

impl Codec for LosslessPipeline {
    fn name(&self) -> &'static str {
        "fpc+lzss"
    }

    fn encode_into(
        &self,
        data: &[f64],
        _: ErrorBound,
        _: Option<Chain<'_>>,
        out: &mut Vec<u8>,
    ) -> Result<DeltaMode> {
        out.push(PIPELINE_ID);
        bytes::put_u64(out, data.len() as u64);
        out.extend_from_slice(&lzss_compress(&fpc_encode(data)));
        Ok(DeltaMode::None)
    }

    fn decode(&self, buf: &[u8], n: usize) -> Result<Vec<f64>> {
        let mut pos = 0usize;
        read_prologue(buf, &mut pos, PIPELINE_ID, n)?;
        fpc_decode(&lzss_decompress(&buf[pos..])?, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn smooth_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * std::f64::consts::PI * t).sin() * 5.0 + t
            })
            .collect()
    }

    fn noisy_signal(n: usize) -> Vec<f64> {
        let mut state = 0xABCDEFu64;
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    /// The bound every exact codec ignores.
    const ANY: ErrorBound = ErrorBound::Abs(0.0);

    fn roundtrip_exact(codec: &dyn Codec, data: &[f64]) {
        let c = codec.compress(data, ANY).unwrap();
        let r = codec.decompress(&c).unwrap();
        assert_eq!(r.len(), data.len());
        for (a, b) in data.iter().zip(r.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "codec {}", codec.name());
        }
    }

    #[test]
    fn raw_roundtrip_exact_and_headerless() {
        roundtrip_exact(&RawCodec, &noisy_signal(1_000));
        roundtrip_exact(&RawCodec, &[]);
        roundtrip_exact(&RawCodec, &[0.0, -0.0, f64::NAN, f64::INFINITY]);
        let c = RawCodec.compress(&[1.5, -2.0], ANY).unwrap();
        assert_eq!(c.bytes, [1.5f64.to_le_bytes(), (-2.0f64).to_le_bytes()].concat());
        // A payload that is not `n_elements` doubles long is rejected, and
        // so is a chain: raw streams are self-contained.
        assert!(RawCodec.decode(&c.bytes[..13], 1).is_err());
        assert!(RawCodec.decode(&c.bytes, 3).is_err());
        assert!(RawCodec.decode_chain(&[&c.bytes, &c.bytes], 2).is_err());
    }

    /// The FPC stage's round trip, bit for bit.
    fn fpc_roundtrip(data: &[f64]) -> Vec<f64> {
        let r = fpc_decode(&fpc_encode(data), data.len()).unwrap();
        assert_eq!(r.len(), data.len());
        for (a, b) in data.iter().zip(r.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "fpc");
        }
        r
    }

    #[test]
    fn fpc_roundtrip_exact() {
        fpc_roundtrip(&smooth_signal(10_000));
        fpc_roundtrip(&noisy_signal(10_000));
        fpc_roundtrip(&[]);
        fpc_roundtrip(&[0.0, -0.0, f64::MAX, f64::MIN_POSITIVE]);
        fpc_roundtrip(&[f64::NAN]);
    }

    #[test]
    fn fpc_nan_preserved_bitwise() {
        let r = fpc_roundtrip(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        assert!(r[0].is_nan());
        assert_eq!(r[1], f64::INFINITY);
        assert_eq!(r[2], f64::NEG_INFINITY);
    }

    #[test]
    fn lzss_bytes_roundtrip() {
        for data in [
            b"".to_vec(),
            b"a".to_vec(),
            b"abcabcabcabcabcabc".to_vec(),
            vec![0u8; 10_000],
            (0..=255u8).cycle().take(5000).collect::<Vec<_>>(),
        ] {
            assert_eq!(lzss_decompress(&lzss_compress(&data)).unwrap(), data);
        }
    }

    #[test]
    fn lzss_repeat_at_window_distance_roundtrips() {
        // The only earlier copy of the 8-byte pattern sits exactly
        // LZSS_WINDOW bytes back — one more than the 2-byte offset field
        // can express — so it must not be taken as a match.
        let pattern = [0xA1u8, 0xB2, 0xC3, 0xD4, 0xE5, 0xF6, 0x17, 0x28];
        let mut data = pattern.to_vec();
        data.resize(LZSS_WINDOW, 0);
        data.extend_from_slice(&pattern);
        assert_eq!(lzss_decompress(&lzss_compress(&data)).unwrap(), data);
    }

    #[test]
    fn lzss_compresses_repetitive_data() {
        let data = vec![42u8; 100_000];
        assert!(lzss_compress(&data).len() < data.len() / 10);
    }

    /// Scientifically plausible values: a mix of magnitudes, signs, exact
    /// zeros and smooth segments.
    fn data_strategy() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(
            prop_oneof![
                3 => -1.0e3f64..1.0e3,
                2 => -1.0f64..1.0,
                1 => -1.0e-6f64..1.0e-6,
                1 => Just(0.0f64),
                1 => 1.0f64..1.0e9,
            ],
            0..400,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fpc_is_bit_exact_on_arbitrary_data(data in data_strategy()) {
            fpc_roundtrip(&data);
        }

        #[test]
        fn lzss_roundtrips_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..2000)) {
            prop_assert_eq!(lzss_decompress(&lzss_compress(&bytes)).unwrap(), bytes);
        }
    }

    #[test]
    fn pipeline_roundtrip_and_ratio() {
        let codec = LosslessPipeline::new();
        roundtrip_exact(&codec, &smooth_signal(20_000));
        roundtrip_exact(&codec, &noisy_signal(5_000));

        // Repetitive / smooth scientific data should show a modest lossless
        // ratio (>1.2), while noise should stay near 1 — mirroring the
        // paper's observation that lossless compression tops out low.
        let smooth = smooth_signal(50_000);
        let c = codec.compress(&smooth, ANY).unwrap();
        assert!(c.ratio() > 1.2, "smooth ratio {:.3}", c.ratio());

        let noise = noisy_signal(50_000);
        let cn = codec.compress(&noise, ANY).unwrap();
        assert!(cn.ratio() < 1.5, "noise ratio {:.3}", cn.ratio());
    }

    #[test]
    fn lossless_ratio_below_lossy_on_smooth_data() {
        use crate::SzCompressor;
        let data = smooth_signal(50_000);
        let lossless = LosslessPipeline::new().compress(&data, ANY).unwrap();
        let lossy = SzCompressor::new()
            .compress(&data, ErrorBound::ValueRangeRel(1e-4))
            .unwrap();
        assert!(
            lossy.ratio() > 3.0 * lossless.ratio(),
            "lossy {:.1} vs lossless {:.1}",
            lossy.ratio(),
            lossless.ratio()
        );
    }

    #[test]
    fn wrong_codec_and_corrupt_streams() {
        let data = smooth_signal(100);
        let mut fpc = fpc_encode(&data);
        assert!(matches!(
            LosslessPipeline::new().decode(&fpc, data.len()),
            Err(CompressError::WrongCodec { .. })
        ));

        fpc.truncate(fpc.len() / 3);
        assert!(fpc_decode(&fpc, data.len()).is_err());
    }

    #[test]
    fn names() {
        assert_eq!(RawCodec.name(), "raw");
        assert_eq!(LosslessPipeline::new().name(), "fpc+lzss");
    }
}
