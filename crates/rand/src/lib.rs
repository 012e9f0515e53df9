//! Vendored, dependency-free subset of the `rand` 0.8 API.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships the small slice of `rand` it actually uses: [`rngs::SmallRng`]
//! seeded via [`SeedableRng::seed_from_u64`], and the [`Rng`] extension
//! methods `gen`, `gen_bool`, and `gen_range` over the integer and float
//! ranges the simulator draws from.
//!
//! The generator is xoshiro256++ (the same family the real `SmallRng`
//! uses on 64-bit targets) seeded through SplitMix64. Streams are stable
//! across runs and platforms — a property the deterministic-trace
//! regression tests rely on — but are **not** bit-compatible with the
//! upstream crate, and none of this is cryptographically secure. A
//! caller that maps draws through `f64::ln` (geometric gaps, think
//! times) is stable per platform only: `ln` is not correctly rounded,
//! so another libm may round a draw to a neighbouring integer.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level uniform bit generation.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;

    /// Builds a generator from another generator's output.
    fn from_rng<R: RngCore>(mut source: R) -> Self {
        Self::seed_from_u64(source.next_u64())
    }
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`] (including `&mut R`, which is what makes `R: Rng + ?Sized`
/// call sites work).
pub trait Rng: RngCore {
    /// Samples a value of a [`Standard`]-distributed type (`f64` in
    /// `[0, 1)`, `bool` fair coin, uniform integers).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} out of range"
        );
        f64::sample(self) < p
    }

    /// Uniform sample from a range (`lo..hi` or `lo..=hi`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types samplable uniformly from the generator's raw bits.
pub trait Standard {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges a uniform value can be drawn from. The single generic impl per
/// range shape (mirroring upstream) lets type inference unify an integer
/// literal range's element type with the surrounding expression.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types drawable uniformly from half-open and inclusive ranges.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

/// Unbiased-enough uniform draw from `[0, span)` via 128-bit widening
/// multiply (Lemire's method without the rejection loop; the bias is
/// below 2^-64, irrelevant for simulation workloads).
fn uniform_below(rng: &mut (impl RngCore + ?Sized), span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                let span = (hi as i128 - lo as i128) as u64;
                lo.wrapping_add(uniform_below(rng, span) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span + 1) as $t)
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                lo + <$t>::sample(rng) * (hi - lo)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                lo + <$t>::sample(rng) * (hi - lo)
            }
        }
    )*};
}
uniform_float!(f64, f32);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SmallRng {
        fn from_state(seed: u64) -> Self {
            // SplitMix64 stream expands the seed into four nonzero words.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            SmallRng { s }
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            SmallRng::from_state(seed)
        }
    }

    impl RngCore for SmallRng {
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

/// `rand::prelude` lookalike.
pub mod prelude {
    pub use super::rngs::SmallRng;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_streams() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u16..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let u = rng.gen_range(0usize..1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "uniform draw missed a value: {seen:?}"
        );
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn bool_is_fair() {
        let mut rng = SmallRng::seed_from_u64(4);
        let heads = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4500..5500).contains(&heads), "biased coin: {heads}");
    }

    #[test]
    fn works_through_unsized_bound() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> u32 {
            rng.gen_range(0..10u32)
        }
        let mut rng = SmallRng::seed_from_u64(5);
        assert!(draw(&mut rng) < 10);
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
