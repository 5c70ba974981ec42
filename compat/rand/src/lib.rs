//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small slice of the `rand` API it actually uses:
//! [`RngCore`]/[`RngExt`], [`SeedableRng`], and [`rngs::StdRng`]. The
//! generator is xoshiro256++ seeded through SplitMix64 — statistically
//! solid for simulation and test workloads, deterministic for a given
//! seed, and with no stability guarantee across versions (the same
//! contract the real `StdRng` gives).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next word of the stream.
    fn next_u64(&mut self) -> u64;
}

/// Types constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling a value of a type from raw generator output.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for u16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Standard for i16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as i16
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges a generator can sample uniformly.
pub trait SampleRange {
    /// The element type of the range.
    type Output;
    /// Draws one element uniformly from `self`.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample an empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let u = <$t as Standard>::sample(rng);
                self.start + u * (self.end - self.start)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// The convenience sampling surface (`rand` 0.9+ naming).
pub trait RngExt: RngCore {
    /// A uniform value of `T` (full integer range, `[0, 1)` for floats).
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value from `range`.
    fn random_range<S: SampleRange>(&mut self, range: S) -> S::Output {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        <f64 as Standard>::sample(self) < p
    }
}

impl<T: RngCore + ?Sized> RngExt for T {}

/// Alias kept so `R: Rng` bounds from older rand idioms still compile.
pub trait Rng: RngExt {}
impl<T: RngExt + ?Sized> Rng for T {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — the workspace's standard generator.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as the xoshiro authors recommend.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngs::StdRng;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.random();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = rng.random_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.random_range(-5i16..=5);
            assert!((-5..=5).contains(&w));
        }
    }

    #[test]
    fn bool_probability_roughly_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "hits {hits}");
    }
}
