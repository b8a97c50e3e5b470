//! # sst-prng
//!
//! A small, dependency-free, deterministic pseudo-random number generator
//! for the workspace: SplitMix64 seed expansion feeding xoshiro256++.
//! It replaces the external `rand` crate so the whole workspace builds
//! and tests with **no registry access**, and it guarantees that a given
//! seed produces the same stream on every platform and toolchain —
//! workload data images (and therefore experiment results and the
//! harness's content-addressed cache) depend on that stability.
//!
//! ```
//! use sst_prng::Prng;
//!
//! let mut r = Prng::seed_from_u64(42);
//! let a: u64 = r.next_u64();
//! let b = r.gen_range(0..10u64);
//! assert!(b < 10);
//! let mut r2 = Prng::seed_from_u64(42);
//! assert_eq!(r2.next_u64(), a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// xoshiro256++ generator, seeded via SplitMix64.
#[derive(Clone, Debug)]
pub struct Prng {
    s: [u64; 4],
}

/// One SplitMix64 step (also used for seed expansion and stable hashing).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Seeds the generator from a single `u64` (SplitMix64 expansion, as
    /// recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Prng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng { s }
    }

    /// The next 64 uniformly random bits (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// A uniformly random value of a supported type (`u64`, `u32`, `u8`,
    /// `bool`, `f64` in `[0, 1)`).
    #[inline]
    pub fn gen<T: FromPrng>(&mut self) -> T {
        T::from_prng(self)
    }

    /// A uniform sample from `range` (`Range` or `RangeInclusive` over the
    /// supported integer types).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be a probability: {p}");
        self.gen::<f64>() < p
    }

    /// Uniform `u64` in `[0, bound)` via Lemire's multiply-shift with
    /// rejection (unbiased).
    #[inline]
    fn bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Rejection zone below 2^64 mod bound.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Types [`Prng::gen`] can produce.
pub trait FromPrng {
    /// Draws one value.
    fn from_prng(rng: &mut Prng) -> Self;
}

impl FromPrng for u64 {
    #[inline]
    fn from_prng(rng: &mut Prng) -> u64 {
        rng.next_u64()
    }
}

impl FromPrng for u32 {
    #[inline]
    fn from_prng(rng: &mut Prng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromPrng for u8 {
    #[inline]
    fn from_prng(rng: &mut Prng) -> u8 {
        (rng.next_u64() >> 56) as u8
    }
}

impl FromPrng for i64 {
    #[inline]
    fn from_prng(rng: &mut Prng) -> i64 {
        rng.next_u64() as i64
    }
}

impl FromPrng for bool {
    #[inline]
    fn from_prng(rng: &mut Prng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl FromPrng for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn from_prng(rng: &mut Prng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges [`Prng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample(self, rng: &mut Prng) -> T;
}

macro_rules! impl_unsigned_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut Prng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.bounded(span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut Prng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.bounded(span + 1) as $t
            }
        }
    )*};
}

impl_unsigned_range!(u64, u32, u16, u8, usize);

macro_rules! impl_signed_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut Prng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(rng.bounded(span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut Prng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.bounded(span + 1) as $t)
            }
        }
    )*};
}

impl_signed_range!(i64 => u64, i32 => u32, i16 => u16, i8 => u8, isize => usize);

/// FNV-1a 64-bit hash of a byte string — the workspace's stable content
/// hash (cache keys must not depend on `std`'s randomized hasher).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors_xoshiro256pp() {
        // Seeded s = [1, 2, 3, 4]: first outputs of the reference C
        // implementation of xoshiro256++.
        let mut r = Prng { s: [1, 2, 3, 4] };
        let expect: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expect {
            assert_eq!(r.next_u64(), e);
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // SplitMix64 with state 0: first output is 0xE220A8397B1DCDAF.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        let mut c = Prng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Prng::seed_from_u64(1);
        for _ in 0..2000 {
            let x = r.gen_range(5..17u64);
            assert!((5..17).contains(&x));
            let y = r.gen_range(-50..50i64);
            assert!((-50..50).contains(&y));
            let z = r.gen_range(1..=255u8);
            assert!((1..=255).contains(&z));
            let w = r.gen_range(0..3usize);
            assert!(w < 3);
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bounded_covers_small_ranges() {
        let mut r = Prng::seed_from_u64(9);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.gen_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = Prng::seed_from_u64(3);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn fnv1a_stable() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_ne!(fnv1a(b"oltp"), fnv1a(b"erp"));
    }
}
