//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`Strategy`] trait with `prop_map`, `any::<T>()`, integer range
//! strategies, tuple strategies, `collection::vec`, and the
//! [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Case generation is **deterministic**: every test derives its RNG seed
//! from the test-function name and the case index, so failures reproduce
//! exactly on re-run. There is no shrinking — a failing case reports the
//! case index and the assertion message.

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// The RNG handed to strategies during generation.
pub type TestRng = SmallRng;

/// An error raised by a failing property-test case.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// A failed case with the given message.
    pub fn fail<S: Into<String>>(message: S) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }

    /// A rejected case (treated as failure here — no case filtering).
    pub fn reject<S: Into<String>>(message: S) -> Self {
        Self::fail(message)
    }

    /// The failure message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// Per-test configuration.
#[derive(Debug, Clone)]
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

/// A generator of arbitrary values of type `Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (*self).generate(rng)
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Types with a canonical "whole domain" strategy.
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value over the whole domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                // Bias toward small values half the time: edge-heavy
                // domains (ASNs, lengths) exercise more interesting paths.
                if rng.gen::<bool>() {
                    (rng.gen_range(0u64..=u8::MAX as u64)) as $t
                } else {
                    rng.next_u64() as $t
                }
            }
        }
    )*};
}
arb_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Same small-value bias as the other integers, with full-width
        // values composed from two u64 draws.
        if rng.gen::<bool>() {
            rng.gen_range(0u64..=u8::MAX as u64) as u128
        } else {
            (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
        }
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<bool>()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<f64>()
    }
}

/// The strategy returned by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy over the whole domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// A strategy that always produces a clone of one value (proptest's
/// `Just`).
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Boxes a strategy (used by the [`prop_oneof!`] expansion to unify arm
/// types).
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// A weighted union of strategies over one value type — what
/// [`prop_oneof!`] builds.
pub struct Union<T> {
    arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
    total: u64,
}

/// Builds a weighted [`Union`]. Panics on empty input or all-zero
/// weights.
pub fn union<T>(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Union<T> {
    let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
    assert!(total > 0, "prop_oneof! needs at least one positive weight");
    Union { arms, total }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.gen_range(0..self.total);
        for (w, arm) in &self.arms {
            let w = u64::from(*w);
            if pick < w {
                return arm.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weights sum to total")
    }
}

/// Weighted (or unweighted) choice between strategies producing the same
/// value type: `prop_oneof![3 => a, 1 => b]` or `prop_oneof![a, b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::union(vec![$(($weight as u32, $crate::boxed($strategy))),+])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::union(vec![$((1u32, $crate::boxed($strategy))),+])
    };
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
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

/// Strategies over collections.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.min >= self.max {
                self.min
            } else {
                rng.gen_range(self.min..self.max)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy producing `Vec`s whose length is drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy {
            element,
            min: len.start,
            max: len.end,
        }
    }
}

/// Drives a single property test: `cases` deterministic generations of
/// `strategy`, each run through `body`. Panics with the case number and
/// message on the first failure. Used by the [`proptest!`] expansion.
pub fn run_property_test<S, F>(test_name: &str, config: &ProptestConfig, strategy: S, body: F)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    // FNV-1a over the test name: stable across runs and platforms.
    let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for case in 0..config.cases {
        let mut rng = TestRng::seed_from_u64(seed ^ ((case as u64) << 32 | case as u64));
        let value = strategy.generate(&mut rng);
        if let Err(e) = body(value) {
            panic!(
                "proptest case {case}/{total} failed for `{test_name}`: {msg}",
                total = config.cases,
                msg = e.message()
            );
        }
    }
}

/// Declares deterministic property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(128))]
///     #[test]
///     fn addition_commutes(a in any::<u32>(), b in 0u32..100) {
///         prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (@cfg ($cfg:expr) $(
        #[test]
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let strategy = ($($strat,)+);
            $crate::run_property_test(
                stringify!($name),
                &config,
                strategy,
                |($($arg,)+)| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                },
            );
        }
    )*};
    // With a leading #![proptest_config(...)] attribute.
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    // Without one: default config.
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` != `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Fails the current case when both sides are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: `{:?}` == `{:?}`", l, r);
    }};
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn add_commutes(a in any::<u32>(), b in any::<u32>()) {
            prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn ranges_respected(x in 3u8..=9, y in 0usize..5) {
            prop_assert!((3..=9).contains(&x));
            prop_assert!(y < 5);
        }
    }

    proptest! {
        #[test]
        fn vec_lengths(v in collection::vec(any::<u16>(), 0..12)) {
            prop_assert!(v.len() < 12);
        }
    }

    proptest! {
        #[test]
        fn prop_map_applies(s in (0u32..100).prop_map(|x| x * 2)) {
            prop_assert!(s % 2 == 0 && s < 200);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = (any::<u64>(), 0u8..255);
        let first = std::cell::RefCell::new(Vec::new());
        let second = std::cell::RefCell::new(Vec::new());
        crate::run_property_test("det", &ProptestConfig::with_cases(8), &s, |v| {
            first.borrow_mut().push(format!("{v:?}"));
            Ok(())
        });
        crate::run_property_test("det", &ProptestConfig::with_cases(8), &s, |v| {
            second.borrow_mut().push(format!("{v:?}"));
            Ok(())
        });
        assert_eq!(first.into_inner(), second.into_inner());
    }
}
