//! ZFP-style transform-based lossy compressor (1-D blocks).
//!
//! The paper selects SZ over ZFP for checkpointing because the dynamic
//! variables are 1-D vectors and SZ performs better on 1-D data (§5.1);
//! this module provides the ZFP-style alternative so that the compressor
//! choice can be reproduced as an ablation (`lcr-bench --bin ablations`).
//!
//! The implementation follows ZFP's fixed-accuracy design in spirit,
//! specialised to 1-D blocks of 4 values:
//!
//! 1. Partition the input into blocks of 4.
//! 2. Convert the block to a common-exponent fixed-point representation.
//! 3. Apply the (reversible, lifting-based) orthogonal block transform that
//!    decorrelates smooth data.
//! 4. Store each transform coefficient with just enough of its high-order
//!    bits to meet the requested absolute error bound (bit-plane
//!    truncation), entropy-free but bit-packed.
//!
//! The result honours the same error-bound contract as the SZ-style
//! compressor (verified by property tests), though with lower compression
//! ratios on 1-D data — which is exactly the paper's observation.  As a
//! [`Codec`] it ignores the chain it is handed: every stream is
//! self-contained.
//!
//! ## Stream version
//!
//! Version 3, the only one read or written: per block one 51-bit header
//! (flag, exponent, dropped planes, all four 7-bit lengths), then the four
//! payloads — a block header is a single word-buffered read/write.

use crate::bitstream::{bytes, BitReader, BitWriter};
use crate::parblock;
use crate::{Chain, Codec, CompressError, DeltaMode, ErrorBound, Result};

/// Codec id stored in the stream header.
const CODEC_ID: u8 = 2;
/// Stream-format version written and read.
const VERSION: u8 = 3;
/// Block size (ZFP uses 4^d; d = 1 here).
const BLOCK: usize = 4;
/// Number of fraction bits in the block fixed-point representation.
const FRACTION_BITS: i32 = 52;
/// Elements per independently encoded group of blocks.  Each group gets
/// its own (byte-aligned) bitstream, so groups transform and bit-pack in
/// parallel and concatenate in group order — the encoded bytes are
/// identical at any thread count.  The ≤7 padding bits plus the 8-byte
/// length per 32 KiB of raw data cost well under 0.1% of ratio.
const GROUP_ELEMS: usize = 4_096;

/// The ZFP-style compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZfpCompressor;

impl ZfpCompressor {
    /// Creates a compressor.
    pub fn new() -> Self {
        ZfpCompressor
    }

    /// Forward lifting transform used by ZFP for one 4-vector (in place,
    /// integer arithmetic, exactly invertible).
    fn fwd_lift(v: &mut [i64; BLOCK]) {
        let (mut x, mut y, mut z, mut w) = (v[0], v[1], v[2], v[3]);
        x += w;
        x >>= 1;
        w -= x;
        z += y;
        z >>= 1;
        y -= z;
        x += z;
        x >>= 1;
        z -= x;
        w += y;
        w >>= 1;
        y -= w;
        w += y >> 1;
        y -= w >> 1;
        *v = [x, y, z, w];
    }

    /// Inverse of [`ZfpCompressor::fwd_lift`].
    fn inv_lift(v: &mut [i64; BLOCK]) {
        let (mut x, mut y, mut z, mut w) = (v[0], v[1], v[2], v[3]);
        y += w >> 1;
        w -= y >> 1;
        y += w;
        w <<= 1;
        w -= y;
        z += x;
        x <<= 1;
        x -= z;
        y += z;
        z <<= 1;
        z -= y;
        w += x;
        x <<= 1;
        x -= w;
        *v = [x, y, z, w];
    }

    /// Fixed-point conversion + forward transform + plane-drop selection.
    /// Returns `None` for an all-zero block, otherwise the exponent,
    /// dropped planes, and the four zig-zag-coded truncated coefficients
    /// with their bit lengths.
    #[allow(clippy::type_complexity)]
    fn transform_block(block: &[f64], abs_eb: f64) -> Option<(i32, u8, [(u64, u8); BLOCK])> {
        let mut padded = [0.0f64; BLOCK];
        padded[..block.len()].copy_from_slice(block);
        // Pad with the last value to avoid artificial discontinuities.
        if let Some(&last) = block.last() {
            for v in padded.iter_mut().skip(block.len()) {
                *v = last;
            }
        }

        // Common block exponent.
        let max_abs = padded.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if max_abs == 0.0 {
            return None;
        }
        let exp = max_abs.log2().floor() as i32 + 1;
        // Fixed-point conversion: value / 2^exp scaled by 2^FRACTION_BITS.
        let scale = (2.0f64).powi(FRACTION_BITS - exp);
        let mut ints = [0i64; BLOCK];
        for (i, &v) in padded.iter().enumerate() {
            ints[i] = (v * scale).round() as i64;
        }
        Self::fwd_lift(&mut ints);

        // How many low-order bit planes can we drop while staying within the
        // error bound?  The inverse lifting transform's worst-case gain (max
        // absolute row sum) is below 8 in the 1-D case, so dropping planes
        // below abs_eb/8 (in original units) keeps the reconstruction within
        // abs_eb after the inverse transform.
        let drop_threshold = abs_eb / 8.0;
        let dropped_planes = if drop_threshold > 0.0 {
            // Units of one integer step are 2^(exp - FRACTION_BITS).
            let step = (2.0f64).powi(exp - FRACTION_BITS);
            ((drop_threshold / step).log2().floor() as i64).clamp(0, 62) as u8
        } else {
            0
        };

        let mut coeffs = [(0u64, 0u8); BLOCK];
        for (slot, &c) in coeffs.iter_mut().zip(ints.iter()) {
            let truncated = c >> dropped_planes;
            // Zig-zag encode sign.
            let zig = ((truncated << 1) ^ (truncated >> 63)) as u64;
            let nbits = 64 - zig.leading_zeros() as u8;
            *slot = (zig, nbits);
        }
        Some((exp, dropped_planes, coeffs))
    }

    /// Encodes one block of up to 4 values in the version-3 layout: the
    /// flag, exponent, dropped planes and all four coefficient lengths are
    /// packed into one 51-bit header write, followed by the payloads.
    fn encode_block(block: &[f64], abs_eb: f64, writer: &mut BitWriter) {
        let Some((exp, dropped_planes, coeffs)) = Self::transform_block(block, abs_eb) else {
            // All-zero block: 1 flag bit.
            writer.write_bit(false);
            return;
        };
        let mut header = 1u64 << 50;
        header |= (exp as u64 & 0xFFFF) << 34;
        header |= u64::from(dropped_planes) << 28;
        for (i, &(_, nbits)) in coeffs.iter().enumerate() {
            header |= u64::from(nbits) << (21 - 7 * i);
        }
        writer.write_bits(header, 51);
        for &(zig, nbits) in &coeffs {
            if nbits > 0 {
                writer.write_bits(zig, nbits);
            }
        }
    }

    /// Reconstructs one block from its decoded coefficients.
    fn emit_block(
        mut ints: [i64; BLOCK],
        exp: i32,
        dropped_planes: u8,
        len: usize,
        out: &mut Vec<f64>,
    ) {
        for slot in ints.iter_mut() {
            *slot <<= dropped_planes;
        }
        Self::inv_lift(&mut ints);
        let scale = (2.0f64).powi(exp - FRACTION_BITS);
        for &i in ints.iter().take(len) {
            out.push(i as f64 * scale);
        }
    }

    /// Decodes one version-3 block of `len` values.
    fn decode_block(reader: &mut BitReader<'_>, len: usize, out: &mut Vec<f64>) -> Result<()> {
        let nonzero = reader.read_bit()?;
        if !nonzero {
            out.extend(std::iter::repeat_n(0.0, len));
            return Ok(());
        }
        let header = reader.read_bits(50)?;
        let exp = ((header >> 34) & 0xFFFF) as u16 as i16 as i32;
        let dropped_planes = ((header >> 28) & 0x3F) as u8;
        let mut ints = [0i64; BLOCK];
        for (i, slot) in ints.iter_mut().enumerate() {
            let nbits = ((header >> (21 - 7 * i)) & 0x7F) as u8;
            if nbits > 64 {
                return Err(CompressError::Corrupt("invalid coefficient length".into()));
            }
            let zig = if nbits == 0 { 0 } else { reader.read_bits(nbits)? };
            *slot = ((zig >> 1) as i64) ^ -((zig & 1) as i64);
        }
        Self::emit_block(ints, exp, dropped_planes, len, out);
        Ok(())
    }

    /// Maps the requested bound to the absolute bound ZFP natively honours.
    fn resolve_abs_bound(data: &[f64], bound: ErrorBound) -> f64 {
        match bound {
            ErrorBound::Abs(e) => e,
            ErrorBound::ValueRangeRel(e) => {
                let (mn, mx) = data
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                        (a.min(v), b.max(v))
                    });
                let range = (mx - mn).abs();
                if range > 0.0 {
                    e * range
                } else {
                    e.max(f64::MIN_POSITIVE)
                }
            }
            ErrorBound::PointwiseRel(e) => {
                // Conservative: bound relative to the smallest non-zero
                // magnitude.  Exact zeros cannot be represented with a
                // point-wise relative bound by a block-transform codec, so
                // they force the bound to the smallest positive magnitude.
                let min_abs = data
                    .iter()
                    .filter(|v| **v != 0.0)
                    .fold(f64::INFINITY, |m, v| m.min(v.abs()));
                if min_abs.is_finite() {
                    e * min_abs
                } else {
                    e.max(f64::MIN_POSITIVE)
                }
            }
        }
    }
}

impl Codec for ZfpCompressor {
    fn name(&self) -> &'static str {
        "zfp"
    }

    fn encode_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        _: Option<Chain<'_>>,
        out: &mut Vec<u8>,
    ) -> Result<DeltaMode> {
        let eb = bound.value();
        if !(eb.is_finite() && eb > 0.0) {
            return Err(CompressError::InvalidBound(eb));
        }
        let abs_eb = Self::resolve_abs_bound(data, bound);

        out.reserve(data.len() * 4 + 64);
        out.push(CODEC_ID);
        out.push(VERSION);
        bytes::put_u64(out, data.len() as u64);
        bytes::put_f64(out, abs_eb);

        // Each group of blocks is transformed and bit-packed independently
        // into the shared block-split container.
        let n = data.len();
        parblock::encode_blocks(out, n.div_ceil(GROUP_ELEMS), |g| {
            let start = g * GROUP_ELEMS;
            let end = ((g + 1) * GROUP_ELEMS).min(n);
            let mut writer = BitWriter::with_capacity((end - start) * 2);
            for block in data[start..end].chunks(BLOCK) {
                Self::encode_block(block, abs_eb, &mut writer);
            }
            writer.into_bytes()
        });
        Ok(DeltaMode::None)
    }

    fn decode(&self, buf: &[u8], n_elements: usize) -> Result<Vec<f64>> {
        let mut pos = 0usize;
        let codec = bytes::get_slice(buf, &mut pos, 1)?[0];
        if codec != CODEC_ID {
            return Err(CompressError::WrongCodec {
                found: codec,
                expected: CODEC_ID,
            });
        }
        let version = bytes::get_slice(buf, &mut pos, 1)?[0];
        if version != VERSION {
            return Err(CompressError::Corrupt(format!(
                "unsupported ZFP stream version {version}"
            )));
        }
        let n = bytes::get_u64(buf, &mut pos)? as usize;
        if n != n_elements {
            return Err(CompressError::Corrupt("element count mismatch".into()));
        }
        let _abs_eb = bytes::get_f64(buf, &mut pos)?;
        parblock::decode_blocks(buf, &mut pos, n.div_ceil(GROUP_ELEMS), "ZFP", |g, group| {
            let group_n = (((g + 1) * GROUP_ELEMS).min(n)) - g * GROUP_ELEMS;
            let mut reader = BitReader::new(group);
            let mut vals = Vec::with_capacity(group_n);
            let mut remaining = group_n;
            while remaining > 0 {
                let len = remaining.min(BLOCK);
                Self::decode_block(&mut reader, len, &mut vals)?;
                remaining -= len;
            }
            Ok(vals)
        })
        .map(|groups| groups.concat())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                100.0 * (2.0 * std::f64::consts::PI * t).sin() + 3.0 * t
            })
            .collect()
    }

    fn check_abs_bound(data: &[f64], restored: &[f64], eb: f64) {
        assert_eq!(data.len(), restored.len());
        for (i, (&a, &b)) in data.iter().zip(restored.iter()).enumerate() {
            assert!(
                (a - b).abs() <= eb * (1.0 + 1e-9) + 1e-290,
                "element {i}: error {} exceeds {eb}",
                (a - b).abs()
            );
        }
    }

    #[test]
    fn lift_transform_is_nearly_invertible() {
        // ZFP's lifting transform is not bit-exact under round-trip (the
        // right-shifts floor), but the reconstruction error is bounded by a
        // few integer steps — far below the quantization step sizes used in
        // practice.  Verify that bound.
        let cases = [
            [0i64, 0, 0, 0],
            [1, 2, 3, 4],
            [-1000, 500, 123456789, -987654321],
            [1 << 52, -(1 << 52), 42, -42],
        ];
        for c in cases {
            let mut v = c;
            ZfpCompressor::fwd_lift(&mut v);
            ZfpCompressor::inv_lift(&mut v);
            for (a, b) in v.iter().zip(c.iter()) {
                assert!((a - b).abs() <= 4, "roundtrip error too large: {v:?} vs {c:?}");
            }
        }
    }

    #[test]
    fn abs_bound_honoured() {
        let data = smooth_signal(4096);
        let zfp = ZfpCompressor::new();
        for eb in [1e-1, 1e-3, 1e-6, 1e-9] {
            let c = zfp.compress(&data, ErrorBound::Abs(eb)).unwrap();
            let r = zfp.decompress(&c).unwrap();
            check_abs_bound(&data, &r, eb);
        }
    }

    #[test]
    fn value_range_rel_bound_honoured() {
        let data = smooth_signal(1000);
        let zfp = ZfpCompressor::new();
        let range = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - data.iter().cloned().fold(f64::INFINITY, f64::min);
        let c = zfp
            .compress(&data, ErrorBound::ValueRangeRel(1e-5))
            .unwrap();
        let r = zfp.decompress(&c).unwrap();
        check_abs_bound(&data, &r, 1e-5 * range);
    }

    #[test]
    fn compresses_smooth_data() {
        let data = smooth_signal(100_000);
        let zfp = ZfpCompressor::new();
        let c = zfp.compress(&data, ErrorBound::Abs(1e-3)).unwrap();
        assert!(c.ratio() > 2.0, "ratio {:.2}", c.ratio());
    }

    #[test]
    fn zero_blocks_and_partial_blocks() {
        let zfp = ZfpCompressor::new();
        for data in [
            vec![],
            vec![0.0; 7],
            vec![1.0, 2.0, 3.0],
            vec![0.0, 0.0, 0.0, 0.0, 5.0],
        ] {
            let c = zfp.compress(&data, ErrorBound::Abs(1e-8)).unwrap();
            let r = zfp.decompress(&c).unwrap();
            check_abs_bound(&data, &r, 1e-8);
        }
    }

    #[test]
    fn mixed_magnitudes() {
        let data: Vec<f64> = (0..1024)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                sign * 10f64.powi(i % 9 - 4) * (1.0 + (i as f64) * 1e-3)
            })
            .collect();
        let zfp = ZfpCompressor::new();
        let c = zfp.compress(&data, ErrorBound::Abs(1e-7)).unwrap();
        let r = zfp.decompress(&c).unwrap();
        check_abs_bound(&data, &r, 1e-7);
    }

    #[test]
    fn invalid_bounds_rejected() {
        let zfp = ZfpCompressor::new();
        assert!(zfp.compress(&[1.0], ErrorBound::Abs(0.0)).is_err());
        assert!(zfp.compress(&[1.0], ErrorBound::Abs(f64::NAN)).is_err());
    }

    #[test]
    fn corrupt_streams_detected() {
        let zfp = ZfpCompressor::new();
        let data = smooth_signal(64);
        let c = zfp.compress(&data, ErrorBound::Abs(1e-4)).unwrap();

        let mut wrong = c.clone();
        wrong.bytes[0] = 77;
        assert!(matches!(
            zfp.decompress(&wrong),
            Err(CompressError::WrongCodec { .. })
        ));

        let mut vers = c.clone();
        vers.bytes[1] = 99;
        assert!(zfp.decompress(&vers).is_err());

        let mut trunc = c;
        trunc.bytes.truncate(10);
        assert!(zfp.decompress(&trunc).is_err());
    }

    #[test]
    fn name_is_zfp() {
        assert_eq!(ZfpCompressor::new().name(), "zfp");
    }
}
