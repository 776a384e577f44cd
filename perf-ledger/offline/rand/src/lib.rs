//! Offline stand-in for `rand` 0.8 (see ../README.md).
//!
//! `StdRng` here is xoshiro256++ seeded through splitmix64, not ChaCha12:
//! every seeded stream — model weights, image pools, tie-breaks — differs
//! from the published crate's, but is fixed for a seed, which is all the
//! benchmark needs.

use std::ops::{Range, RangeInclusive};

/// The raw generator interface.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (the high half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draw one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits -> [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        // 24 random mantissa bits -> [0, 1)
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draw one value from the range; panics when the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! float_range {
    ($t:ty) => {
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = <$t as Standard>::draw(rng);
                let v = self.start + (self.end - self.start) * u;
                // Rounding may land exactly on `end`; stay half-open.
                if v < self.end {
                    v
                } else {
                    self.start
                }
            }
        }
    };
}
float_range!(f32);
float_range!(f64);

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing generator methods.
pub trait Rng: RngCore {
    /// A value of `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A value uniformly drawn from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        <f64 as Standard>::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (Blackman & Vigna), state filled by splitmix64.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// The small generator is the same generator.
    pub type SmallRng = StdRng;

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *slot = x ^ (x >> 31);
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

pub mod seq {
    //! Slice helpers.
    use super::{Rng, RngCore};

    /// Shuffling for slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}
