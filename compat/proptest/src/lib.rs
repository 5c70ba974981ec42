//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this crate provides
//! the subset of the proptest API the workspace's property tests use:
//! the [`Strategy`] trait over ranges / tuples / [`Just`] / mapped
//! strategies, `any::<T>()`, `proptest::collection::vec`, and the
//! [`proptest!`] / `prop_assert*` macros. Cases are generated from a
//! fixed-seed deterministic generator (override with the
//! `RANA_PROPTEST_SEED` environment variable); failures report the case
//! number and seed. Shrinking is intentionally not implemented — a
//! failing case prints its inputs via `Debug` instead.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Deterministic case generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Error signalled by `prop_assert*` / `prop_assume!` inside a case.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case's inputs don't satisfy a precondition; skip it.
    Reject,
    /// A property failed.
    Fail(String),
}

/// Result type the generated case bodies return.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A recipe for generating values of `Value`.
pub trait Strategy {
    /// The generated type.
    type Value: fmt::Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// A strategy that post-processes generated values with `f`.
    fn prop_map<U: fmt::Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: fmt::Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy producing one fixed value.
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between same-typed strategies (the `prop_oneof!` core).
#[derive(Debug, Clone)]
pub struct Union<S>(Vec<S>);

impl<S: Strategy> Union<S> {
    /// A union over `arms`.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<S>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Self(arms)
    }
}

impl<S: Strategy> Strategy for Union<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        let i = (rng.next_u64() % self.0.len() as u64) as usize;
        self.0[i].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + (rng.next_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)*) = self;
                ($($name.generate(rng),)*)
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

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary: fmt::Debug + Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, sign-symmetric, wide dynamic range.
        let m = rng.next_f64() * 2.0 - 1.0;
        let e = (rng.next_u64() % 61) as i32 - 30;
        m * (2f64).powi(e)
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f64::arbitrary(rng) as f32
    }
}

/// The whole-domain strategy for `T` (proptest's `any`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A `Vec` strategy with lengths drawn from `len` and elements from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 128 }
    }
}

/// The base seed for a property run: `RANA_PROPTEST_SEED` or a fixed
/// default, mixed with the property name so distinct properties explore
/// distinct streams.
pub fn base_seed(property: &str) -> u64 {
    let env = std::env::var("RANA_PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0x5EED_CAFE_F00D_D00D);
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ env;
    for b in property.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Defines randomized property tests (see crate docs for the dialect).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @run ($cfg); $($rest)* }
    };
    (@run ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let seed = $crate::base_seed(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    let mut rng = $crate::TestRng::new(seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                    let result: $crate::TestCaseResult = (|| { $body Ok(()) })();
                    match result {
                        Ok(()) => {}
                        Err($crate::TestCaseError::Reject) => {}
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property {} failed at case {case} (seed {seed:#x}): {msg}\ninputs: {:?}",
                                stringify!($name),
                                ($(&$arg,)*)
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @run ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Fails the enclosing property when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} ({}:{})", stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}: {} ({}:{})",
                stringify!($cond), format!($($fmt)*), file!(), line!()
            )));
        }
    };
}

/// Fails the enclosing property when the operands differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::TestCaseError::Fail(format!(
                "{} != {} ({:?} vs {:?}) ({}:{})",
                stringify!($a), stringify!($b), a, b, file!(), line!()
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::TestCaseError::Fail(format!(
                "{} != {} ({:?} vs {:?}): {} ({}:{})",
                stringify!($a), stringify!($b), a, b, format!($($fmt)*), file!(), line!()
            )));
        }
    }};
}

/// Skips the case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategy arms of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($arm),+])
    };
}

pub mod prelude {
    //! The usual imports.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Just, ProptestConfig,
        Strategy, TestCaseError, TestCaseResult,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in -2.0f64..2.0, z in 0u8..=15) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            prop_assert!(z <= 15);
        }

        #[test]
        fn mapped_tuples_work(pair in (1usize..5, 1usize..5).prop_map(|(a, b)| a * b)) {
            prop_assert!((1..25).contains(&pair));
        }

        #[test]
        fn oneof_picks_an_arm(k in prop_oneof![Just(1usize), Just(3), Just(5)]) {
            prop_assert!(k == 1 || k == 3 || k == 5);
        }

        #[test]
        fn vec_lengths_respected(v in crate::collection::vec(any::<i16>(), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
        }

        #[test]
        fn assume_rejects_quietly(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = crate::TestRng::new(9);
        let mut b = crate::TestRng::new(9);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
