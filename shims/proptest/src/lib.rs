//! In-tree stand-in for `proptest`, written because the build environment
//! has no registry access.
//!
//! It keeps the workspace's property tests compiling and *meaningful*: the
//! `proptest!` macro runs each test body against `cases` freshly generated
//! random inputs from a deterministic per-test RNG.  What it does not do is
//! shrink failing cases — a failure reports the case number and message
//! only.  The supported strategy surface is exactly what the workspace's
//! tests use: numeric ranges, `Just`, tuples, `prop::collection::vec`,
//! `any::<T>()`, `prop_oneof!` with weights, `prop_map`/`prop_flat_map`.

#![forbid(unsafe_code)]

// lcr-analyze: allow(dead-public-item): named by the `proptest!` expansion (`$crate::test_runner::…`)
pub mod test_runner {
    //! Deterministic RNG + config for the mini test runner.

    /// Runner configuration (only `cases` is honoured).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Configuration running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Failure type carried by `TestCaseResult` (the shim's asserts panic
    /// instead, but `return Ok(())` sites need the Result type to exist).
    pub type TestCaseError = String;

    /// Result type of a test-case body.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic xoshiro256**-based generator, seeded from the test
    /// name so every test gets a stable, independent stream.
    #[derive(Debug, Clone)]
    // lcr-analyze: allow(dead-public-item): named by the `proptest!` expansion
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Seed deterministically from a test name.
        // lcr-analyze: allow(dead-public-item): called by the `proptest!` expansion
        pub fn from_name(name: &str) -> Self {
            // FNV-1a over the name, then SplitMix64 expansion.
            let mut h: u64 = 0xcbf29ce484222325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            let mut sm = h;
            let mut mix = || {
                sm = sm.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            TestRng {
                s: [mix(), mix(), mix(), mix()],
            }
        }

        /// Next 64 random bits (xoshiro256**).
        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform draw from `[0, 1)`.
        pub(crate) fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform draw from `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "TestRng::below: zero bound");
            // Modulo bias is irrelevant at test-case scale.
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> impl Strategy<Value = U>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generate a value, then generate from the strategy `f` builds
        /// out of it.
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(
            self,
            f: F,
        ) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erase the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    // lcr-analyze: allow(dead-public-item): return type of `Strategy::prop_flat_map`; tests hold it by inference
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Weighted union of type-erased strategies (built by `prop_oneof!`).
    // lcr-analyze: allow(dead-public-item): built by the `prop_oneof!` expansion
    pub struct Union<T> {
        options: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// Build from `(weight, strategy)` pairs.
        pub fn new(options: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            assert!(!options.is_empty(), "prop_oneof!: no options");
            let total = options.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof!: zero total weight");
            Union { options, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.options {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as i128 - start as i128) as u64;
                    let off = if span == u64::MAX { rng.next_u64() } else { rng.below(span + 1) };
                    (start as i128 + off as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let u = rng.next_f64() as $t;
                    let v = self.start + u * (self.end - self.start);
                    if v >= self.end { self.start } else { v }
                }
            }
        )*};
    }

    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($(($($name:ident . $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

// lcr-analyze: allow(dead-public-item): home of `any`, which tests reach through the prelude
pub mod arbitrary {
    //! `any::<T>()` — canonical strategies per type.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical strategy.
    // lcr-analyze: allow(dead-public-item): bound of `any::<T>()`; tests never name it
    pub trait Arbitrary: Sized {
        /// Generate one canonical random value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary_value(rng: &mut TestRng) -> Self {
            // A spread of magnitudes and signs; no NaN/inf (the real
            // proptest reserves those for edge-case phases anyway).
            let mag = rng.next_f64() * 60.0 - 30.0; // exponent in [-30, 30)
            let mantissa = rng.next_f64() * 2.0 - 1.0;
            mantissa * 10f64.powf(mag)
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary_value(rng: &mut TestRng) -> Self {
            f64::arbitrary_value(rng) as f32
        }
    }
}

pub mod collection {
    //! `prop::collection` — container strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specification for [`vec`]: an exact size or a half-open
    /// range.
    #[derive(Debug, Clone, Copy)]
    // lcr-analyze: allow(dead-public-item): parameter type of `collection::vec`; tests pass ranges that convert into it
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "vec strategy: empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` with random length.
    // lcr-analyze: allow(dead-public-item): return type of `collection::vec`; tests hold it by inference
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy: `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + if span > 0 { rng.below(span) as usize } else { 0 };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prop {
    //! Mirror of the `prop` path alias from `proptest::prelude`.
    pub use crate::collection;
}

pub mod prelude {
    //! Mirror of `proptest::prelude`.
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Run each contained test function against `cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    (($config:expr)) => {};
    (($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            let mut __rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            for __case in 0..__config.cases {
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __result: $crate::test_runner::TestCaseResult =
                    (move || { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = __result {
                    panic!(
                        "proptest {} failed at case {}: {}",
                        stringify!($name), __case, e
                    );
                }
            }
        }
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
}

/// Weighted choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Assertion inside a `proptest!` body (panics; the shim does not shrink).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}
