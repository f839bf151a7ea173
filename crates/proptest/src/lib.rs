//! An offline, API-compatible subset of the `proptest` crate.
//!
//! This workspace builds in containers with no crates.io access, so the
//! real `proptest` cannot be downloaded. This shim implements exactly the
//! surface the workspace's property tests use — the [`proptest!`] macro,
//! range/tuple/bool/vec strategies, `prop_map`, and the `prop_assert*`
//! macros — on a deterministic SplitMix64 generator.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case reports its generated inputs (every
//!   argument is `Debug`-formatted before the body runs) but is not
//!   minimized.
//! * **No persistence.** `*.proptest-regressions` seed files are written by
//!   the real proptest's PRNG and cannot be replayed here; regressions are
//!   instead pinned as explicit unit tests (see
//!   `tests/prop_invariants.rs`). The files stay in-tree so the cases
//!   survive a future switch back to upstream proptest.
//! * **Deterministic by default.** The stream is seeded from the test's
//!   module path and name, so failures always reproduce; set
//!   `PROPTEST_SEED=<u64>` to explore a different stream.

use std::ops::Range;

/// Per-test configuration. Only `cases` is honoured.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic SplitMix64 stream used to generate cases.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the stream from a test identifier (stable across runs) unless
    /// `PROPTEST_SEED` overrides it.
    pub fn for_test(test_id: &str) -> TestRng {
        if let Some(seed) = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
        {
            return TestRng { state: seed };
        }
        // FNV-1a over the test id.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in test_id.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Multiply-shift rejection-free mapping; bias is < 2^-64 * bound,
        // irrelevant for test-case generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Something that can generate values: the core abstraction, matching the
/// used subset of proptest's `Strategy`.
pub trait Strategy {
    /// The type of generated values.
    type Value: std::fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Applies `f` to every generated value.
    fn prop_map<U: std::fmt::Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: std::fmt::Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end - self.start) as u64;
                self.start + rng.below(width) as $t
            }
        }
    )*};
}
int_range_strategy!(usize, u64, u32, u16, u8);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as i64 - self.start as i64) as u64;
                (self.start as i64 + rng.below(width) as i64) as $t
            }
        }
    )*};
}
signed_range_strategy!(i64, i32, i16, i8, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);

/// `proptest::bool`: the boolean strategy.
pub mod bool {
    use super::{Strategy, TestRng};

    /// A 50/50 boolean strategy (the value of [`ANY`]).
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Generates `true` or `false` with equal probability.
    pub const ANY: Any = Any;
}

/// `proptest::collection`: container strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.len.generate(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// A `Vec` whose length is drawn from `len` and whose elements are
    /// drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property test (panics; no shrinking here,
/// so this is plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over generated cases. A leading
/// `#![proptest_config(...)]` sets the case count for the whole block.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng =
                $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                let described = format!(
                    concat!($(stringify!($arg), " = {:?}, "),*),
                    $(&$arg),*
                );
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(|| $body),
                );
                if let Err(panic) = outcome {
                    eprintln!(
                        "proptest case {}/{} failed with inputs: {}",
                        case + 1,
                        config.cases,
                        described
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_test_id() {
        let mut a = crate::TestRng::for_test("x::y");
        let mut b = crate::TestRng::for_test("x::y");
        let mut c = crate::TestRng::for_test("x::z");
        assert_eq!(a.next_u64(), b.next_u64());
        // different ids give different streams (overwhelmingly likely)
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::for_test("bounds");
        for _ in 0..1000 {
            let v = Strategy::generate(&(3usize..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = Strategy::generate(&(-1.5f64..2.5), &mut rng);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn tuples_and_map_compose() {
        let strat = (1usize..5, 1usize..5).prop_map(|(a, b)| a * 10 + b);
        let mut rng = crate::TestRng::for_test("compose");
        for _ in 0..100 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!((11..=44).contains(&v));
        }
    }

    #[test]
    fn collection_vec_lengths() {
        let strat = crate::collection::vec(0usize..3, 2..6);
        let mut rng = crate::TestRng::for_test("vecs");
        for _ in 0..100 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 3));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The macro itself: generated args are in range and the body runs.
        #[test]
        fn macro_generates_cases(a in 1usize..10, flip in crate::bool::ANY) {
            prop_assert!((1..10).contains(&a));
            let _ = flip;
        }
    }
}
