//! In-tree stand-in for `rand` (0.8-style API surface).
//!
//! Provides the [`RngCore`] / [`Rng`] / [`SeedableRng`] traits with
//! `gen_range` and `gen`, which is everything the workspace calls.  The
//! statistical quality requirements here are mild (exponential failure
//! inter-arrival sampling and test-data generation), which any decent
//! 64-bit generator satisfies; `rand_chacha`'s shim supplies the concrete
//! generator.

#![forbid(unsafe_code)]

/// Core entropy source: 64-bit outputs.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut i = 0;
        while i < dest.len() {
            let word = self.next_u64().to_le_bytes();
            let n = (dest.len() - i).min(8);
            dest[i..i + n].copy_from_slice(&word[..n]);
            i += n;
        }
    }
}

/// Types `gen::<T>()` can produce.
// lcr-analyze: allow(dead-public-item): bound of `Rng::gen`; callers never name it
pub trait Standard: Sized {
    /// Draw one value from the "standard" distribution for the type
    /// (uniform over the type's range; `[0, 1)` for floats).
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges `gen_range` accepts.
// lcr-analyze: allow(dead-public-item): bound of `Rng::gen_range`; callers pass ranges
pub trait SampleRange<T> {
    /// Draw a value uniformly from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Modulo bias is negligible for the spans used here.
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (start as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_int_range!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let u = <$t as Standard>::sample_standard(rng);
                let v = self.start + u * (self.end - self.start);
                // Guard against rounding up to the exclusive endpoint.
                if v >= self.end { self.start.max(self.end - (self.end - self.start) * 1e-9) } else { v }
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// User-facing random-value methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Draw from the standard distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Bernoulli(p).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore> Rng for R {}

/// Deterministically seedable generators.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed;

    /// Construct from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64` convenience seed.
    fn seed_from_u64(state: u64) -> Self;
}

pub mod prelude {
    //! Mirror of `rand::prelude`.
    pub use crate::{Rng, RngCore, SeedableRng};
}
