//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small slice of `rand` it actually uses: a seeded
//! deterministic generator (`StdRng`), the `Rng` convenience methods
//! (`gen_range`, `gen_bool`, `gen`), and `seq::SliceRandom`
//! (`shuffle`/`choose`). Every generator is explicitly seeded in this
//! workspace — determinism is a feature (the simulator's results must
//! reproduce bit-for-bit) — so no OS entropy source is needed or provided.
//!
//! The generator is xoshiro256**, seeded via SplitMix64, which is the same
//! construction the real `rand_xoshiro` crate uses; statistical quality is
//! far beyond what workload generation and property tests need.
// A stand-in for a crates.io crate: the workspace's rule that only
// `disksim::codec` decodes integers (clippy.toml) is not its to keep.
#![allow(clippy::disallowed_methods)]

/// Core random-number source: a stream of `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    type Seed: AsMut<[u8]> + Default;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64 { state };
        sm.fill_bytes(seed.as_mut());
        Self::from_seed(seed)
    }
}

/// SplitMix64: used to expand small seeds into full generator state.
struct SplitMix64 {
    state: u64,
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Values `Rng::gen` can produce uniformly ("standard" distribution).
pub trait Standard: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange {
    type Output;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Uniform integer in `[0, bound)` without modulo bias (Lemire-style
/// rejection via widening multiply).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128).wrapping_mul(bound as u128);
        let lo = m as u64;
        if lo >= bound || lo >= bound.wrapping_neg() % bound {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                if span == 0 {
                    // Full-width range: every value is fair game.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let unit = <$t as Standard>::sample_standard(rng);
                self.start + unit * (self.end - self.start)
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let unit = <$t as Standard>::sample_standard(rng);
                lo + unit * (hi - lo)
            }
        }
    )*};
}
impl_range_float!(f32, f64);

/// Convenience methods over any [`RngCore`] (subset of `rand::Rng`).
pub trait Rng: RngCore {
    fn gen_range<T: SampleRange>(&mut self, range: T) -> T::Output {
        range.sample(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        f64::sample_standard(self) < p
    }

    #[allow(clippy::should_implement_trait)]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generator types (subset of `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator standing in for `rand`'s
    /// `StdRng`. Not cryptographic — nothing in this workspace needs that.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[1]
                .wrapping_mul(5)
                .rotate_left(7)
                .wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            // All-zero state would be a fixed point; nudge it.
            if s == [0; 4] {
                s = [0x9E3779B97F4A7C15, 1, 2, 3];
            }
            Self { s }
        }
    }
}

/// Sequence helpers (subset of `rand::seq`).
pub mod seq {
    use super::{Rng, RngCore};

    pub trait SliceRandom {
        type Item;

        /// Fisher–Yates shuffle.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = rngs::StdRng::seed_from_u64(42);
        let mut b = rngs::StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = rngs::StdRng::seed_from_u64(1);
        let mut b = rngs::StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = rngs::StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = r.gen_range(0.25f64..0.5);
            assert!((0.25..0.5).contains(&f));
            let i = r.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&i));
        }
    }

    #[test]
    fn gen_range_covers_the_range() {
        let mut r = rngs::StdRng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = rngs::StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_uniform_and_empty() {
        let mut r = rngs::StdRng::seed_from_u64(5);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut r).is_none());
        let v = [1u8, 2, 3];
        for _ in 0..100 {
            assert!(v.contains(v.choose(&mut r).unwrap()));
        }
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut r = rngs::StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }
}
