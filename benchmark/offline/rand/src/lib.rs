//! Offline stand-in for `rand` 0.10 — see `../README.md`.
//!
//! Implements exactly the surface sigmund-rs calls: a seedable `StdRng`,
//! `random::<T>()`, `random_range(range)`, and slice `shuffle`. The
//! generator is xoshiro256++ seeded through splitmix64, so streams differ
//! from the published crate's ChaCha12 but are deterministic per seed,
//! which is the only property the repository relies on.

use std::ops::{Range, RangeInclusive};

/// Seeding from a `u64`.
pub trait SeedableRng: Sized {
    /// Builds a generator whose whole stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The generator trait: one raw source plus the typed helpers.
pub trait Rng {
    /// The next 64 raw bits.
    fn next_u64(&mut self) -> u64;

    /// A uniformly distributed value of `T` (`[0, 1)` for floats).
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::draw(self)
    }

    /// A uniformly distributed value inside `range`.
    ///
    /// # Panics
    /// Panics on an empty range, like the published crate.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

/// Types `Rng::random` can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: Rng>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn draw<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    fn draw<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    fn draw<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }
}

/// Ranges `Rng::random_range` accepts.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample<R: Rng>(self, rng: &mut R) -> T;
}

/// Uniform integer in `[0, span)` by widening multiply (Lemire, without the
/// rejection step: the bias is below 2^-32 for every span used here).
fn below<R: Rng>(rng: &mut R, span: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

/// Types with a uniform distribution over a range. One generic
/// `SampleRange` impl per range kind (rather than one per type) keeps
/// integer-literal ranges inferring their type from the use site, e.g.
/// `v[rng.random_range(0..2)]` picks `usize` as with the published crate.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `[lo, hi)`.
    fn sample_half_open<R: Rng>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform in `[lo, hi]`.
    fn sample_inclusive<R: Rng>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: Rng>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: Rng>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(lo, hi, rng)
    }
}

macro_rules! uniform_ints {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: Rng>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                (lo as $wide).wrapping_add(below(rng, span) as $wide) as $t
            }
            fn sample_inclusive<R: Rng>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as $wide).wrapping_add(below(rng, span + 1) as $wide) as $t
            }
        }
    )*};
}
uniform_ints!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
              i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

macro_rules! uniform_floats {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: Rng>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let u: $t = <$t as Standard>::draw(rng);
                lo + (hi - lo) * u
            }
            fn sample_inclusive<R: Rng>(lo: Self, hi: Self, rng: &mut R) -> Self {
                Self::sample_half_open(lo, hi, rng)
            }
        }
    )*};
}
uniform_floats!(f32, f64);

/// Generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The default seedable generator (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut st = seed;
            let s = [
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
            ];
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Slice helpers.
pub mod seq {
    use super::Rng;

    /// In-place shuffling.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle driven by `rng`.
        fn shuffle<R: Rng>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = super::below(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }
    }
}

/// The glob import the repository uses.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: usize = a.random_range(3..17);
            assert_eq!(x, b.random_range(3..17));
            assert!((3..17).contains(&x));
            let f: f64 = a.random();
            assert_eq!(f.to_bits(), b.random::<f64>().to_bits());
            assert!((0.0..1.0).contains(&f));
            let g: f32 = a.random();
            b.random::<f32>();
            assert!((0.0..1.0).contains(&g));
            let k: u32 = a.random_range(2..=4);
            b.random_range::<u32, _>(2..=4);
            assert!((2..=4).contains(&k));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut StdRng::seed_from_u64(5));
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<u32>>());
    }
}
