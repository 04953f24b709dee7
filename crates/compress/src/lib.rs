//! # lcr-compress
//!
//! Floating-point compressors for the lossy-checkpointing reproduction of
//! *"Improving Performance of Iterative Methods by Lossy Checkpointing"*
//! (Tao et al., HPDC 2018).
//!
//! The paper compresses the solver's dynamic variables (1-D `f64` vectors)
//! with the SZ error-bounded lossy compressor before writing checkpoints,
//! and compares against Gzip lossless compression and uncompressed
//! checkpoints.  This crate re-implements that compressor stack from
//! scratch, behind one trait: a [`Codec`] appends a vector's stream to a
//! buffer (`encode_into`, optionally within a [`Chain`] of earlier
//! snapshots) and decodes a chain of streams back (`decode_chain`; a chain
//! of one is the stateless case).
//!
//! * [`sz`] — an SZ-style prediction-based, error-bounded lossy compressor:
//!   Lorenzo/linear prediction + linear-scaling quantization + Huffman
//!   coding of the quantization bins, with unpredictable values stored
//!   verbatim.  Supports absolute, point-wise-relative (the paper's
//!   definition) and value-range-relative error bounds.  The only codec
//!   with a temporal encoder.
//! * [`zfp`] — a ZFP-style transform-based lossy compressor (1-D blocks,
//!   fixed-point block conversion, orthogonal lifting transform, bit-plane
//!   truncation) used for the compressor-choice ablation.
//! * [`lossless`] — the exact codecs: raw IEEE-754 bytes (the traditional
//!   checkpoint), and an FPC-style XOR/leading-zero codec, an LZSS byte
//!   codec and their pipeline standing in for Gzip.
//! * [`delta`] — temporal delta codec for SZ quantization-code streams:
//!   checkpoint *k*'s codes coded as order-1/order-2 deltas against
//!   checkpoint *k−1*'s, powering the anchored delta-chain checkpoint
//!   streams (SZ stream version 5).
//! * [`huffman`] / [`bitstream`] — the entropy-coding substrate shared by
//!   the lossy compressors.
//!
//! Every lossy compressor in this crate upholds the **error-bound
//! contract** (checked by property tests): for each element `x_i` of the
//! input and `x'_i` of the decompressed output,
//!
//! * `Abs(eb)`:            `|x_i − x'_i| ≤ eb`
//! * `PointwiseRel(eb)`:   `|x_i − x'_i| ≤ eb · |x_i|`
//! * `ValueRangeRel(eb)`:  `|x_i − x'_i| ≤ eb · (max(x) − min(x))`
//!
//! which is precisely the property Theorems 2 and 3 of the paper rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitstream;
pub mod delta;
pub mod huffman;
pub mod lossless;
mod parblock;
pub mod sz;
pub mod zfp;


/// Error-bound mode for lossy compression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `|x − x'| ≤ eb`.
    Abs(f64),
    /// Point-wise relative bound: `|x − x'| ≤ eb·|x|` (the paper's
    /// definition of "relative error bound", §4.4.1).
    PointwiseRel(f64),
    /// Value-range relative bound: `|x − x'| ≤ eb·(max−min)` (SZ's classic
    /// "REL" mode).
    ValueRangeRel(f64),
}

impl ErrorBound {
    /// The numeric bound parameter regardless of mode.
    pub fn value(&self) -> f64 {
        match *self {
            ErrorBound::Abs(e) | ErrorBound::PointwiseRel(e) | ErrorBound::ValueRangeRel(e) => e,
        }
    }

    /// Returns the maximum allowed absolute deviation for element `x` given
    /// the whole-array value range.  Used to *verify* the contract.
    pub fn allowed_abs_error(&self, x: f64, value_range: f64) -> f64 {
        match *self {
            ErrorBound::Abs(e) => e,
            ErrorBound::PointwiseRel(e) => e * x.abs(),
            ErrorBound::ValueRangeRel(e) => e * value_range,
        }
    }
}

/// Outcome of one compression call.
#[derive(Debug, Clone, PartialEq)]
pub struct Compressed {
    /// The encoded byte stream (self-describing; feed back to `decompress`).
    pub bytes: Vec<u8>,
    /// Number of `f64` elements in the original input.
    pub n_elements: usize,
}

impl Compressed {
    /// Size of the original data in bytes.
    pub fn original_bytes(&self) -> usize {
        self.n_elements * std::mem::size_of::<f64>()
    }

    /// Compression ratio (original / compressed); returns 0 for empty
    /// streams so the value is always finite.
    pub fn ratio(&self) -> f64 {
        if self.bytes.is_empty() {
            return 0.0;
        }
        self.original_bytes() as f64 / self.bytes.len() as f64
    }
}

/// Errors produced by the compressors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressError {
    /// The compressed stream is truncated or corrupt.
    Corrupt(String),
    /// The requested error bound is not usable (non-positive or NaN).
    InvalidBound(f64),
    /// The stream was produced by a different codec.
    WrongCodec {
        /// Codec id found in the header.
        found: u8,
        /// Codec id expected by the decoder.
        expected: u8,
    },
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Corrupt(msg) => write!(f, "corrupt compressed stream: {msg}"),
            CompressError::InvalidBound(eb) => write!(f, "invalid error bound: {eb}"),
            CompressError::WrongCodec { found, expected } => {
                write!(f, "wrong codec id: found {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for CompressError {}

/// Result alias for compressor operations.
pub type Result<T> = std::result::Result<T, CompressError>;

/// Where a snapshot stands in a checkpoint chain: what the previous
/// snapshots of the same variable left behind, and how far the encoder may
/// lean on them.
pub struct Chain<'a> {
    /// Highest delta order the encoder may choose.
    pub max_order: DeltaMode,
    /// Pins the stream to a self-contained anchor (the periodic anchors
    /// that bound a chain's length).
    pub force_anchor: bool,
    /// The retained codes of the previous snapshots; always left holding
    /// this snapshot's.
    pub state: &'a mut SzTemporalState,
}

/// What turns a dynamic vector into checkpoint bytes and back — the one
/// line in which the paper's Algorithms 1 and 2 differ: raw IEEE-754
/// ([`RawCodec`]), the Gzip-like lossless baseline ([`LosslessPipeline`]
/// and its two stages), SZ ([`SzCompressor`]) or ZFP ([`ZfpCompressor`]).
///
/// The lossy codecs honour the bound they are handed; the exact ones
/// ignore it.  Only SZ has a temporal encoder; every other codec ignores
/// `chain` and writes self-contained streams.
pub trait Codec: Send + Sync {
    /// Short human-readable name ("raw", "fpc+lzss", "sz", "zfp").
    fn name(&self) -> &'static str;

    /// Appends the encoded stream of `data` to `out` — compressors write
    /// straight into a reusable checkpoint buffer — and returns how it
    /// leans on the chain: [`DeltaMode::None`] for a stream that decodes
    /// on its own, which is all a codec can write without a `chain`.
    ///
    /// # Errors
    /// A lossy codec returns [`CompressError::InvalidBound`] for
    /// non-positive or NaN bounds.
    fn encode_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        chain: Option<Chain<'_>>,
        out: &mut Vec<u8>,
    ) -> Result<DeltaMode>;

    /// Decodes one self-contained stream of `n_elements` values.
    ///
    /// # Errors
    /// Returns [`CompressError::Corrupt`] or [`CompressError::WrongCodec`]
    /// for invalid streams.
    fn decode(&self, stream: &[u8], n_elements: usize) -> Result<Vec<f64>>;

    /// Decodes the final snapshot of a chain of streams in temporal order,
    /// a self-contained one first; `n_elements` is that snapshot's length.
    /// A codec whose streams are all self-contained accepts a chain of one.
    ///
    /// # Errors
    /// As [`Codec::decode`]; a longer chain than the codec can have
    /// written is [`CompressError::Corrupt`].
    fn decode_chain(&self, links: &[&[u8]], n_elements: usize) -> Result<Vec<f64>> {
        match links {
            [only] => self.decode(only, n_elements),
            _ => Err(CompressError::Corrupt(format!(
                "{} streams are self-contained, but a {}-link chain was recovered",
                self.name(),
                links.len()
            ))),
        }
    }

    /// [`Codec::encode_into`] without a chain, into a stream of its own.
    ///
    /// # Errors
    /// As [`Codec::encode_into`].
    fn compress(&self, data: &[f64], bound: ErrorBound) -> Result<Compressed> {
        let mut bytes = Vec::new();
        self.encode_into(data, bound, None, &mut bytes)?;
        Ok(Compressed {
            bytes,
            n_elements: data.len(),
        })
    }

    /// Decodes a stream produced by [`Codec::compress`].
    ///
    /// # Errors
    /// As [`Codec::decode_chain`].
    fn decompress(&self, compressed: &Compressed) -> Result<Vec<f64>> {
        self.decode_chain(&[&compressed.bytes], compressed.n_elements)
    }
}

pub use delta::DeltaMode;
pub use lossless::{LosslessPipeline, RawCodec};
pub use sz::{SzCompressor, SzTemporalState};
pub use zfp::ZfpCompressor;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bound_value_and_allowance() {
        let abs = ErrorBound::Abs(1e-3);
        assert_eq!(abs.value(), 1e-3);
        assert_eq!(abs.allowed_abs_error(100.0, 50.0), 1e-3);

        let rel = ErrorBound::PointwiseRel(1e-2);
        assert_eq!(rel.allowed_abs_error(-4.0, 50.0), 4.0e-2);

        let vr = ErrorBound::ValueRangeRel(1e-2);
        assert_eq!(vr.allowed_abs_error(-4.0, 50.0), 0.5);
    }

    #[test]
    fn compressed_ratio() {
        let c = Compressed {
            bytes: vec![0u8; 100],
            n_elements: 100,
        };
        assert_eq!(c.original_bytes(), 800);
        assert!((c.ratio() - 8.0).abs() < 1e-12);

        let empty = Compressed {
            bytes: vec![],
            n_elements: 0,
        };
        assert_eq!(empty.ratio(), 0.0);
    }

    #[test]
    fn error_display() {
        assert!(CompressError::Corrupt("x".into()).to_string().contains('x'));
        assert!(CompressError::InvalidBound(-1.0).to_string().contains("-1"));
        assert!(CompressError::WrongCodec {
            found: 2,
            expected: 1
        }
        .to_string()
        .contains('2'));
    }
}
