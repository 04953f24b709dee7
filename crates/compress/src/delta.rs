//! Temporal delta codec for SZ quantization-code streams.
//!
//! Successive checkpoints of an iterative solver are highly correlated, so
//! checkpoint *k*'s quantization codes are close to checkpoint *k−1*'s.
//! This module turns a code array into **temporal deltas** against the
//! prior snapshot's codes — order 1 predicts `c_k[i]` from `c_{k−1}[i]`,
//! order 2 extrapolates linearly from the two prior snapshots — and maps
//! the signed differences to compact unsigned symbols with the zigzag
//! encoding, ready for the same histogram + canonical-Huffman stage the
//! direct codes go through.  The transform is **lossless on the codes**:
//! un-delta-ing reproduces the exact v4 code array, so a delta chain
//! replay reconstructs values bit-identically to a direct decode.
//!
//! The kernels follow the `lcr_sparse::simd` style: chunk-of-8 `[u32; 8]`
//! blocks the compiler auto-vectorizes (no intrinsics, no `unsafe` — this
//! crate forbids it), and a [`scalar`] submodule with plain one-element
//! loops that the equivalence tests pin the vectorized paths against.
//!
//! Symbol ranges (codes are `0..=65_537`): order-1 deltas lie in
//! `±65_537`, so zigzag symbols stay below `2^18`; order-2 deltas lie in
//! `±131_074`, below `2^19` — inside the Huffman stage's one alphabet.

/// Number of lanes in the chunked kernels (matches `lcr_sparse::simd`).
pub const LANES: usize = 8;

/// Temporal encoding mode of one SZ stream, recorded per variable in the
/// version-5 stream header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaMode {
    /// Direct codes — a self-contained **anchor** stream.
    #[default]
    None = 0,
    /// Order-1 temporal deltas against the previous snapshot's codes.
    Order1 = 1,
    /// Order-2 temporal deltas against a linear extrapolation of the two
    /// previous snapshots' codes.
    Order2 = 2,
}

impl DeltaMode {
    /// Parses the stream-header byte.
    pub fn from_u8(tag: u8) -> Option<DeltaMode> {
        match tag {
            0 => Some(DeltaMode::None),
            1 => Some(DeltaMode::Order1),
            2 => Some(DeltaMode::Order2),
            _ => None,
        }
    }

    /// Number of prior snapshots the mode needs to decode.
    pub fn prior_snapshots(self) -> usize {
        match self {
            DeltaMode::None => 0,
            DeltaMode::Order1 => 1,
            DeltaMode::Order2 => 2,
        }
    }
}

/// Maps a signed delta to an unsigned symbol: `0, −1, 1, −2, 2, …` become
/// `0, 1, 2, 3, 4, …`, so small-magnitude deltas get small symbols.
/// Exact for `|d| < 2^30`, far beyond the code-delta range — which is what
/// lets the encoders work in 32-bit lanes (four per SSE2 vector, with a
/// native arithmetic shift; 64-bit lanes have neither).
#[inline]
fn zigzag(d: i32) -> u32 {
    ((d << 1) ^ (d >> 31)) as u32
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(z: u32) -> i64 {
    (i64::from(z >> 1)) ^ -i64::from(z & 1)
}

/// Order-1 temporal delta: `out[i] = zigzag(curr[i] − prev[i])`, appended
/// to `out` (cleared first).
///
/// # Panics
/// Panics if the lengths differ.
pub fn encode_order1(curr: &[u32], prev: &[u32], out: &mut Vec<u32>) {
    assert_eq!(curr.len(), prev.len(), "delta::encode_order1: length mismatch");
    out.clear();
    out.reserve(curr.len());
    let mut blocks = curr.chunks_exact(LANES).zip(prev.chunks_exact(LANES));
    for (vc, vp) in &mut blocks {
        let mut syms = [0u32; LANES];
        for j in 0..LANES {
            syms[j] = zigzag((vc[j] as i32).wrapping_sub(vp[j] as i32));
        }
        out.extend_from_slice(&syms);
    }
    let tc = curr.chunks_exact(LANES).remainder();
    let tp = prev.chunks_exact(LANES).remainder();
    for j in 0..tc.len() {
        out.push(zigzag((tc[j] as i32).wrapping_sub(tp[j] as i32)));
    }
}

/// Inverse of [`encode_order1`]: `out[i] = prev[i] + unzigzag(syms[i])`,
/// appended to `out` (cleared first).  Lossless for symbols produced by
/// the encoder; corrupt symbols wrap deterministically (the stream-level
/// CRC and element-count checks are the integrity layer).
///
/// # Panics
/// Panics if the lengths differ.
pub fn decode_order1(syms: &[u32], prev: &[u32], out: &mut Vec<u32>) {
    assert_eq!(syms.len(), prev.len(), "delta::decode_order1: length mismatch");
    out.clear();
    out.reserve(syms.len());
    let mut blocks = syms.chunks_exact(LANES).zip(prev.chunks_exact(LANES));
    for (vs, vp) in &mut blocks {
        let mut codes = [0u32; LANES];
        for j in 0..LANES {
            codes[j] = (i64::from(vp[j]) + unzigzag(vs[j])) as u32;
        }
        out.extend_from_slice(&codes);
    }
    let ts = syms.chunks_exact(LANES).remainder();
    let tp = prev.chunks_exact(LANES).remainder();
    for j in 0..ts.len() {
        out.push((i64::from(tp[j]) + unzigzag(ts[j])) as u32);
    }
}

/// Order-2 temporal delta against the linear extrapolation of the two
/// prior snapshots: `out[i] = zigzag(curr[i] − (2·prev1[i] − prev2[i]))`,
/// appended to `out` (cleared first).  `prev1` is the newer prior.
///
/// # Panics
/// Panics if the lengths differ.
pub fn encode_order2(curr: &[u32], prev1: &[u32], prev2: &[u32], out: &mut Vec<u32>) {
    assert_eq!(curr.len(), prev1.len(), "delta::encode_order2: length mismatch");
    assert_eq!(curr.len(), prev2.len(), "delta::encode_order2: length mismatch");
    out.clear();
    out.reserve(curr.len());
    let mut blocks = curr
        .chunks_exact(LANES)
        .zip(prev1.chunks_exact(LANES).zip(prev2.chunks_exact(LANES)));
    for (vc, (v1, v2)) in &mut blocks {
        let mut syms = [0u32; LANES];
        for j in 0..LANES {
            let pred = (v1[j] as i32).wrapping_mul(2).wrapping_sub(v2[j] as i32);
            syms[j] = zigzag((vc[j] as i32).wrapping_sub(pred));
        }
        out.extend_from_slice(&syms);
    }
    let tc = curr.chunks_exact(LANES).remainder();
    let t1 = prev1.chunks_exact(LANES).remainder();
    let t2 = prev2.chunks_exact(LANES).remainder();
    for j in 0..tc.len() {
        let pred = (t1[j] as i32).wrapping_mul(2).wrapping_sub(t2[j] as i32);
        out.push(zigzag((tc[j] as i32).wrapping_sub(pred)));
    }
}

/// Inverse of [`encode_order2`]:
/// `out[i] = 2·prev1[i] − prev2[i] + unzigzag(syms[i])`, appended to `out`
/// (cleared first).
///
/// # Panics
/// Panics if the lengths differ.
pub fn decode_order2(syms: &[u32], prev1: &[u32], prev2: &[u32], out: &mut Vec<u32>) {
    assert_eq!(syms.len(), prev1.len(), "delta::decode_order2: length mismatch");
    assert_eq!(syms.len(), prev2.len(), "delta::decode_order2: length mismatch");
    out.clear();
    out.reserve(syms.len());
    let mut blocks = syms
        .chunks_exact(LANES)
        .zip(prev1.chunks_exact(LANES).zip(prev2.chunks_exact(LANES)));
    for (vs, (v1, v2)) in &mut blocks {
        let mut codes = [0u32; LANES];
        for j in 0..LANES {
            let pred = 2 * i64::from(v1[j]) - i64::from(v2[j]);
            codes[j] = (pred + unzigzag(vs[j])) as u32;
        }
        out.extend_from_slice(&codes);
    }
    let ts = syms.chunks_exact(LANES).remainder();
    let t1 = prev1.chunks_exact(LANES).remainder();
    let t2 = prev2.chunks_exact(LANES).remainder();
    for j in 0..ts.len() {
        let pred = 2 * i64::from(t1[j]) - i64::from(t2[j]);
        out.push((pred + unzigzag(ts[j])) as u32);
    }
}

/// Scalar reference implementations of the chunked kernels above: plain
/// one-element-at-a-time loops with no `[u32; 8]` blocks for the compiler
/// to vectorize.  The equivalence tests pin the chunked kernels against
/// these exactly (integer arithmetic, so "equivalent" means *equal*).
pub mod scalar {
    use super::{unzigzag, zigzag};

    /// Scalar mirror of [`super::encode_order1`].
    pub fn encode_order1(curr: &[u32], prev: &[u32], out: &mut Vec<u32>) {
        assert_eq!(curr.len(), prev.len(), "delta::scalar::encode_order1: length mismatch");
        out.clear();
        for i in 0..curr.len() {
            out.push(zigzag((i64::from(curr[i]) - i64::from(prev[i])) as i32));
        }
    }

    /// Scalar mirror of [`super::decode_order1`].
    pub fn decode_order1(syms: &[u32], prev: &[u32], out: &mut Vec<u32>) {
        assert_eq!(syms.len(), prev.len(), "delta::scalar::decode_order1: length mismatch");
        out.clear();
        for i in 0..syms.len() {
            out.push((i64::from(prev[i]) + unzigzag(syms[i])) as u32);
        }
    }

    /// Scalar mirror of [`super::encode_order2`].
    pub fn encode_order2(curr: &[u32], prev1: &[u32], prev2: &[u32], out: &mut Vec<u32>) {
        assert_eq!(curr.len(), prev1.len(), "delta::scalar::encode_order2: length mismatch");
        assert_eq!(curr.len(), prev2.len(), "delta::scalar::encode_order2: length mismatch");
        out.clear();
        for i in 0..curr.len() {
            let pred = 2 * i64::from(prev1[i]) - i64::from(prev2[i]);
            out.push(zigzag((i64::from(curr[i]) - pred) as i32));
        }
    }

    /// Scalar mirror of [`super::decode_order2`].
    pub fn decode_order2(syms: &[u32], prev1: &[u32], prev2: &[u32], out: &mut Vec<u32>) {
        assert_eq!(syms.len(), prev1.len(), "delta::scalar::decode_order2: length mismatch");
        assert_eq!(syms.len(), prev2.len(), "delta::scalar::decode_order2: length mismatch");
        out.clear();
        for i in 0..syms.len() {
            let pred = 2 * i64::from(prev1[i]) - i64::from(prev2[i]);
            out.push((pred + unzigzag(syms[i])) as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SZ-like code arrays: values clustered around the zero bin
    /// (`32_769`), with occasional unpredictable markers (`0`).
    fn codes(n: usize, seed: u64) -> Vec<u32> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let r = state.wrapping_mul(0x2545F4914F6CDD1D);
                match r % 97 {
                    0 => 0,                                  // unpredictable marker
                    1 => 65_537,                             // extreme bin
                    _ => (32_769 + (r >> 32) % 41 - 20) as u32, // near the zero bin
                }
            })
            .collect()
    }

    #[test]
    fn zigzag_roundtrips_and_orders_by_magnitude() {
        for d in [-131_074i32, -65_537, -2, -1, 0, 1, 2, 65_537, 131_074] {
            assert_eq!(unzigzag(zigzag(d)), i64::from(d));
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert!(zigzag(-65_537) < (1 << 18));
        assert!(zigzag(131_074) < (1 << 19));
    }

    #[test]
    fn order1_roundtrips_losslessly() {
        for n in (0..=2 * LANES).chain([129, 1000, 4097]) {
            let curr = codes(n, 1);
            let prev = codes(n, 2);
            let mut syms = Vec::new();
            encode_order1(&curr, &prev, &mut syms);
            let mut back = Vec::new();
            decode_order1(&syms, &prev, &mut back);
            assert_eq!(back, curr, "n={n}");
        }
    }

    #[test]
    fn order2_roundtrips_losslessly() {
        for n in (0..=2 * LANES).chain([129, 1000, 4097]) {
            let curr = codes(n, 3);
            let prev1 = codes(n, 4);
            let prev2 = codes(n, 5);
            let mut syms = Vec::new();
            encode_order2(&curr, &prev1, &prev2, &mut syms);
            let mut back = Vec::new();
            decode_order2(&syms, &prev1, &prev2, &mut back);
            assert_eq!(back, curr, "n={n}");
        }
    }

    #[test]
    fn chunked_kernels_match_scalar_mirrors_exactly() {
        for n in (0..=2 * LANES).chain([129, 1000, 4097]) {
            let curr = codes(n, 6);
            let prev1 = codes(n, 7);
            let prev2 = codes(n, 8);

            let (mut a, mut b) = (Vec::new(), Vec::new());
            encode_order1(&curr, &prev1, &mut a);
            scalar::encode_order1(&curr, &prev1, &mut b);
            assert_eq!(a, b);

            let (mut a2, mut b2) = (Vec::new(), Vec::new());
            encode_order2(&curr, &prev1, &prev2, &mut a2);
            scalar::encode_order2(&curr, &prev1, &prev2, &mut b2);
            assert_eq!(a2, b2);

            let (mut da, mut db) = (Vec::new(), Vec::new());
            decode_order1(&a, &prev1, &mut da);
            scalar::decode_order1(&b, &prev1, &mut db);
            assert_eq!(da, db);

            let (mut d2a, mut d2b) = (Vec::new(), Vec::new());
            decode_order2(&a2, &prev1, &prev2, &mut d2a);
            scalar::decode_order2(&b2, &prev1, &prev2, &mut d2b);
            assert_eq!(d2a, d2b);
        }
    }

    #[test]
    fn identical_snapshots_give_all_zero_symbols() {
        let curr = codes(1000, 9);
        let mut syms = Vec::new();
        encode_order1(&curr, &curr, &mut syms);
        assert!(syms.iter().all(|&s| s == 0));
    }

    #[test]
    fn mode_tags_roundtrip() {
        for mode in [DeltaMode::None, DeltaMode::Order1, DeltaMode::Order2] {
            assert_eq!(DeltaMode::from_u8(mode as u8), Some(mode));
        }
        assert_eq!(DeltaMode::from_u8(3), None);
        assert_eq!(DeltaMode::None.prior_snapshots(), 0);
        assert_eq!(DeltaMode::Order1.prior_snapshots(), 1);
        assert_eq!(DeltaMode::Order2.prior_snapshots(), 2);
    }
}
