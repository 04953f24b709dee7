//! Property-based tests of the compressor contracts.
//!
//! The error-bound guarantee is the foundation of the paper's Theorems 2
//! and 3, so it is checked here against arbitrary (not hand-picked) data:
//! for every generated input and every bound mode, the decompressed output
//! must stay within the bound element-wise, and the lossless codecs must be
//! bit-exact.

use lcr_compress::{Codec, ErrorBound, LosslessPipeline, SzCompressor, ZfpCompressor};
use proptest::prelude::*;

/// Generates scientifically-plausible values: a mix of magnitudes, signs,
/// exact zeros and smooth segments.
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

/// An SZ stream of `data` as the decoder-hardening tests take it: under an
/// absolute bound, or under the point-wise-relative one with the first
/// `zeros` values exact zeros and — unless `random_signs` — the values from
/// `negative_from` on negative and the rest positive, so the zero and the
/// sign bitmap take every coding (all clear, all set, runs, raw) across
/// cases.  With `spikes`, every eleventh value is one no bound can
/// quantize (NaN, ∞, −1e300), so blocks carry verbatim tails.
fn sz_stream(
    data: &[f64],
    pointwise: bool,
    zeros: usize,
    negative_from: usize,
    random_signs: bool,
    spikes: bool,
) -> lcr_compress::Compressed {
    let spiked: Vec<f64> = data
        .iter()
        .enumerate()
        .map(|(i, &v)| match i % 11 {
            2 if spikes => [f64::NAN, f64::INFINITY, -1e300][(i / 11) % 3],
            _ => v,
        })
        .collect();
    let sz = SzCompressor::new();
    if !pointwise {
        return sz.compress(&spiked, ErrorBound::Abs(1e-6)).unwrap();
    }
    let shaped: Vec<f64> = spiked
        .iter()
        .enumerate()
        .map(|(i, &v)| match i {
            _ if i < zeros => 0.0,
            _ if random_signs => v,
            _ if i < negative_from => v.abs(),
            _ => -v.abs(),
        })
        .collect();
    sz.compress(&shaped, ErrorBound::PointwiseRel(1e-4)).unwrap()
}

/// The proper prefix of `compressed` cut at `cut_frac` of its length.
fn truncated(compressed: &lcr_compress::Compressed, cut_frac: f64) -> lcr_compress::Compressed {
    let cut = ((compressed.bytes.len() as f64 * cut_frac) as usize).min(compressed.bytes.len() - 1);
    lcr_compress::Compressed {
        bytes: compressed.bytes[..cut].to_vec(),
        n_elements: compressed.n_elements,
    }
}

fn value_range(data: &[f64]) -> f64 {
    let (mn, mx) = data
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (a.min(v), b.max(v))
        });
    if data.is_empty() {
        0.0
    } else {
        mx - mn
    }
}

fn check_bound(data: &[f64], restored: &[f64], bound: ErrorBound) {
    assert_eq!(data.len(), restored.len());
    let range = value_range(data);
    for (i, (&a, &b)) in data.iter().zip(restored.iter()).enumerate() {
        let allowed = bound.allowed_abs_error(a, range) * (1.0 + 1e-9) + 1e-280;
        assert!(
            (a - b).abs() <= allowed,
            "element {i}: |{a} - {b}| = {} > {allowed} under {bound:?}",
            (a - b).abs()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sz_honours_absolute_bound(data in data_strategy(), exp in -10i32..-1) {
        let eb = 10f64.powi(exp);
        let sz = SzCompressor::new();
        let c = sz.compress(&data, ErrorBound::Abs(eb)).unwrap();
        let r = sz.decompress(&c).unwrap();
        check_bound(&data, &r, ErrorBound::Abs(eb));
    }

    #[test]
    fn sz_honours_pointwise_relative_bound(data in data_strategy(), exp in -8i32..-2) {
        let eb = 10f64.powi(exp);
        let sz = SzCompressor::new();
        let c = sz.compress(&data, ErrorBound::PointwiseRel(eb)).unwrap();
        let r = sz.decompress(&c).unwrap();
        check_bound(&data, &r, ErrorBound::PointwiseRel(eb));
    }

    #[test]
    fn sz_honours_value_range_relative_bound(data in data_strategy(), exp in -8i32..-2) {
        let eb = 10f64.powi(exp);
        let sz = SzCompressor::new();
        let c = sz.compress(&data, ErrorBound::ValueRangeRel(eb)).unwrap();
        let r = sz.decompress(&c).unwrap();
        check_bound(&data, &r, ErrorBound::ValueRangeRel(eb));
    }

    #[test]
    fn zfp_honours_absolute_bound(
        data in prop::collection::vec(-1.0e3f64..1.0e3, 0..400),
        exp in -6i32..-1,
    ) {
        // ZFP's block fixed-point representation cannot honour bounds far
        // below the precision of the common block exponent (the same
        // limitation the real ZFP has in fixed-accuracy mode), so the
        // property is checked over the regime the checkpointing scheme
        // actually uses: moderate magnitudes and bounds ≥ 1e-6.
        let eb = 10f64.powi(exp);
        let zfp = ZfpCompressor::new();
        let c = zfp.compress(&data, ErrorBound::Abs(eb)).unwrap();
        let r = zfp.decompress(&c).unwrap();
        check_bound(&data, &r, ErrorBound::Abs(eb));
    }

    #[test]
    fn lossless_codecs_are_bit_exact(data in data_strategy()) {
        // Exact codecs ignore the bound, even one no lossy codec accepts.
        let codec = LosslessPipeline::new();
        let c = codec.compress(&data, ErrorBound::Abs(0.0)).unwrap();
        let r = codec.decompress(&c).unwrap();
        prop_assert_eq!(r.len(), data.len());
        for (a, b) in data.iter().zip(r.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn compressed_streams_are_self_describing(data in data_strategy()) {
        // Compressing then decompressing through the trait objects never
        // mixes codecs up: each stream decodes only with its own codec.
        let sz = SzCompressor::new();
        let zfp = ZfpCompressor::new();
        let c = sz.compress(&data, ErrorBound::Abs(1e-6)).unwrap();
        if !data.is_empty() {
            prop_assert!(zfp.decompress(&c).is_err());
        }
        prop_assert!(sz.decompress(&c).is_ok());
    }

    // ---- decoder hardening -------------------------------------------------

    #[test]
    fn truncated_sz_streams_error_not_panic(
        data in prop::collection::vec(-1.0e3f64..1.0e3, 1..300),
        cut_frac in 0.0f64..1.0,
        pointwise in any::<bool>(),
        zeros in 0usize..300,
        negative_from in 0usize..300,
        random_signs in any::<bool>(),
        spikes in any::<bool>(),
    ) {
        // Any proper prefix must produce CompressError::Corrupt — never a
        // panic, never a huge allocation from a truncated length field or
        // run list.
        let sz = SzCompressor::new();
        let compressed = sz_stream(&data, pointwise, zeros, negative_from, random_signs, spikes);
        prop_assert!(sz.decompress(&truncated(&compressed, cut_frac)).is_err());
    }

    #[test]
    fn bitflipped_sz_streams_never_panic(
        data in prop::collection::vec(-1.0e3f64..1.0e3, 1..300),
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
        pointwise in any::<bool>(),
        zeros in 0usize..300,
        negative_from in 0usize..300,
        random_signs in any::<bool>(),
        spikes in any::<bool>(),
    ) {
        // A single flipped bit anywhere in the stream may decode to
        // garbage values (lossy streams carry no checksum) but must never
        // panic or over-allocate.
        let sz = SzCompressor::new();
        let mut compressed =
            sz_stream(&data, pointwise, zeros, negative_from, random_signs, spikes);
        let pos = ((compressed.bytes.len() as f64 * flip_frac) as usize)
            .min(compressed.bytes.len() - 1);
        compressed.bytes[pos] ^= 1 << bit;
        let _ = sz.decompress(&compressed);
    }

    #[test]
    fn corrupted_huffman_blobs_error_not_panic(
        symbols in prop::collection::vec(0u32..1 << 19, 1..500),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let blob = lcr_compress::huffman::encode_block(&symbols);
        // Truncation always errors.
        let cut = ((blob.len() as f64 * cut_frac) as usize).min(blob.len() - 1);
        let mut pos = 0usize;
        prop_assert!(lcr_compress::huffman::decode_block(&blob[..cut], &mut pos).is_err());
        // A bit flip errors or decodes to something — but never panics.
        let mut flipped = blob.clone();
        let at = ((flipped.len() as f64 * flip_frac) as usize).min(flipped.len() - 1);
        flipped[at] ^= 1 << bit;
        let mut pos = 0usize;
        let _ = lcr_compress::huffman::decode_block(&flipped, &mut pos);
    }

    #[test]
    fn truncated_zfp_streams_error_not_panic(
        data in prop::collection::vec(-1.0e3f64..1.0e3, 1..300),
        cut_frac in 0.0f64..1.0,
    ) {
        let zfp = ZfpCompressor::new();
        let compressed = zfp.compress(&data, ErrorBound::Abs(1e-4)).unwrap();
        prop_assert!(zfp.decompress(&truncated(&compressed, cut_frac)).is_err());
    }
}

// ---- retired stream versions ---------------------------------------------

/// A header of a retired stream version (SZ 3 to 5, ZFP 2) claiming `u64::MAX`
/// elements: the decoder must stop at the version byte with the typed
/// unsupported-version error, before it trusts any length in the stream.
fn assert_retired_version_rejected(codec: &dyn Codec, codec_id: u8, version: u8) {
    let mut bytes = vec![codec_id, version];
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&1e-4f64.to_le_bytes());
    bytes.extend_from_slice(&[0xFF; 64]);
    let retired = lcr_compress::Compressed {
        bytes,
        n_elements: usize::MAX,
    };
    match codec.decompress(&retired) {
        Err(lcr_compress::CompressError::Corrupt(msg)) => {
            assert!(
                msg.contains(&format!("stream version {version}")) && msg.contains("unsupported"),
                "unexpected message: {msg}"
            );
        }
        other => panic!("version {version} must be rejected as unsupported, got {other:?}"),
    }
}

#[test]
fn retired_sz_v3_stream_is_rejected_as_unsupported() {
    assert_retired_version_rejected(&SzCompressor::new(), 1, 3);
    // A live stream relabelled as version 3 is rejected the same way.
    let sz = SzCompressor::new();
    let mut live = sz.compress(&[1.0, 2.0, 3.0], ErrorBound::Abs(1e-6)).unwrap();
    live.bytes[1] = 3;
    assert!(sz.decompress(&live).is_err());
}

#[test]
fn retired_sz_v4_and_v5_streams_are_rejected_as_unsupported() {
    let sz = SzCompressor::new();
    for version in [4, 5] {
        assert_retired_version_rejected(&sz, 1, version);
        // A live stream of either transform relabelled as `version`.
        for bound in [ErrorBound::Abs(1e-6), ErrorBound::PointwiseRel(1e-4)] {
            let mut live = sz.compress(&[1.0, -2.0, 0.0], bound).unwrap();
            live.bytes[1] = version;
            assert!(sz.decompress(&live).is_err(), "version {version} under {bound:?}");
        }
    }
}

#[test]
fn retired_zfp_v2_stream_is_rejected_as_unsupported() {
    assert_retired_version_rejected(&ZfpCompressor::new(), 2, 2);
}

// ---- point-wise-relative bitmaps (stream v6) -----------------------------

/// A hand-built version-6 point-wise-relative stream of `n` values, every
/// one an exact zero: the zero bitmap coded as `zero_bitmap` (strategy byte
/// and payload), the sign bitmap all clear, no log magnitudes, no blocks.
fn all_zero_stream(n: u64, zero_bitmap: &[u8]) -> lcr_compress::Compressed {
    let mut bytes = vec![1, 6];
    bytes.extend_from_slice(&n.to_le_bytes());
    bytes.push(1); // the log transform
    bytes.extend_from_slice(&1e-4f64.to_le_bytes());
    bytes.extend_from_slice(zero_bitmap);
    bytes.push(1); // sign bitmap: all clear
    bytes.extend_from_slice(&0u64.to_le_bytes()); // no log magnitudes
    bytes.extend_from_slice(&0u64.to_le_bytes()); // no blocks
    lcr_compress::Compressed {
        bytes,
        n_elements: n as usize,
    }
}

#[test]
fn hand_built_bitmap_codings_decode_or_are_corrupt() {
    let sz = SzCompressor::new();
    // Well formed: all set, and the same as runs (an empty clear run, then
    // 16 set); the decoder returns 16 exact zeros either way.
    for zero_bitmap in [&[2u8][..], &[3, 2, 0, 16]] {
        let decoded = sz.decompress(&all_zero_stream(16, zero_bitmap)).unwrap();
        assert_eq!(decoded, vec![0.0; 16], "{zero_bitmap:?}");
    }
    let corrupt = |zero_bitmap: &[u8], why: &str| {
        match sz.decompress(&all_zero_stream(16, zero_bitmap)) {
            Err(lcr_compress::CompressError::Corrupt(msg)) => {
                assert!(msg.contains(why), "{zero_bitmap:?}: {msg}")
            }
            other => panic!("{zero_bitmap:?} must be corrupt ({why}), got {other:?}"),
        }
    };
    corrupt(&[4], "unknown bitmap strategy 4");
    corrupt(&[0xFF], "unknown bitmap strategy 255");
    // Runs that cover 17 or 15 of the 16 values.
    corrupt(&[3, 2, 0, 17], "cover more than");
    corrupt(&[3, 3, 0, 15, 2], "cover more than");
    corrupt(&[3, 2, 0, 15], "cover 15 of its 16");
    corrupt(&[3, 0], "cover 0 of its 16");
    // 18 runs for 16 bits, decided before a single run is read.
    corrupt(&[3, 18], "18 runs");
    corrupt(&[3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F], "runs cannot code");
    // Overlong varints: eleven bytes, and ten whose last overflows 64 bits.
    let overlong = [0x80u8; 10].iter().chain(&[0x01]).copied();
    corrupt(&[3].into_iter().chain(overlong.clone()).collect::<Vec<_>>(), "varint overflow");
    corrupt(&[3, 2, 0].into_iter().chain(overlong).collect::<Vec<_>>(), "varint overflow");
    let too_wide = [0xFFu8; 9].iter().chain(&[0x02]).copied();
    corrupt(&[3, 2, 0].into_iter().chain(too_wide).collect::<Vec<_>>(), "varint overflow");
    // A run length past `usize` is never added to a position.
    corrupt(&[3, 2, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01], "cover more than");
    // A raw section shorter than its 16 bits, and a stream cut mid-list.
    corrupt(&[0, 1, 0, 0, 0, 0, 0, 0, 0, 0xFF], "cannot cover 16 values");
    let mut cut = all_zero_stream(16, &[3, 2, 0, 16]);
    cut.bytes.truncate(19 + 3);
    match sz.decompress(&cut) {
        Err(lcr_compress::CompressError::Corrupt(msg)) => assert!(msg.contains("truncated"), "{msg}"),
        other => panic!("a stream cut mid-list must be corrupt, got {other:?}"),
    }
}

/// A corrupt length field must fail fast, not allocate proportionally to
/// the claimed (attacker-controlled) size.
#[test]
fn corrupt_sz_length_fields_do_not_overallocate() {
    let sz = SzCompressor::new();
    let data: Vec<f64> = (0..64).map(|i| i as f64 * 0.25).collect();
    let c = sz.compress(&data, ErrorBound::Abs(1e-6)).unwrap();

    // Patch the log-side-channel/unpredictable length region: overwrite
    // every u64-sized window with a huge value and check nothing blows up.
    for start in 0..c.bytes.len().saturating_sub(8) {
        let mut evil = c.clone();
        evil.bytes[start..start + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let _ = sz.decompress(&evil);
    }
}

/// A block count the stream's own header agrees with must still fit the
/// bytes that follow it: an empty stream relabelled as 2^42 blocks (with
/// the element counts of header and metadata patched to match, so no
/// earlier check fires) is rejected before the count sizes the length
/// table — 32 TiB, which ends the process rather than the call.
#[test]
fn huge_block_counts_are_rejected_before_allocating() {
    const BLOCKS: u64 = 1 << 42;
    let sz = SzCompressor::new();
    let zfp = ZfpCompressor::new();
    // (codec, empty stream, elements per block, offset of the count the
    // block count is derived from — `n`, or SZ's `n_logs` behind the two
    // one-byte all-clear bitmaps of an empty stream).
    let cases: [(&dyn Codec, ErrorBound, u64, usize); 3] = [
        (&sz, ErrorBound::Abs(1e-6), 65_536, 2),
        (&sz, ErrorBound::PointwiseRel(1e-4), 65_536, 21),
        (&zfp, ErrorBound::Abs(1e-4), 4_096, 2),
    ];
    for (codec, bound, block_elems, count_at) in cases {
        let mut evil = codec.compress(&[], bound).unwrap();
        assert!(codec.decompress(&evil).unwrap().is_empty());
        let elements = BLOCKS * block_elems;
        evil.bytes[count_at..count_at + 8].copy_from_slice(&elements.to_le_bytes());
        let container = evil.bytes.len() - 8;
        evil.bytes[container..].copy_from_slice(&BLOCKS.to_le_bytes());
        if count_at == 2 {
            evil.n_elements = elements as usize;
        }
        match codec.decompress(&evil) {
            Err(lcr_compress::CompressError::Corrupt(msg)) => {
                assert!(msg.contains("cannot be framed"), "{}: {msg}", codec.name());
            }
            other => panic!("{}: expected a framing error, got {other:?}", codec.name()),
        }
    }
}
