//! A minimal, offline stand-in for the crates.io `rand` crate.
//!
//! The workspace must build and test without network access (the
//! warehouse's own premise — unreachable sources — extends to its build).
//! This shim implements exactly the subset of the `rand` 0.8 API the
//! workload generators use: [`SeedableRng::seed_from_u64`],
//! [`Rng::gen_range`] over integer ranges, and [`Rng::gen_bool`], backed
//! by the xoshiro256** generator seeded through SplitMix64.
//!
//! Determinism matters more than statistical quality here: every workload
//! is seeded, and streams must be reproducible across runs and platforms.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value uniformly from `range` (half-open or inclusive
    /// integer ranges). Generic over the output type, as in the real
    /// crate, so range literals take their type from the call site.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p={p} out of [0, 1]");
        // 53 uniform mantissa bits, compared against p.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

impl<T: RngCore> Rng for T {}

/// A range values of type `T` can be sampled from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<G: RngCore>(self, rng: &mut G) -> T;
}

/// Types with a uniform distribution over ranges. The `SampleRange`
/// impls below are blanket impls over this trait (as in the real crate),
/// which keeps a range literal's integer type unified with the call
/// site's expected output type during inference.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open<G: RngCore>(rng: &mut G, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive<G: RngCore>(rng: &mut G, lo: Self, hi: Self) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<G: RngCore>(self, rng: &mut G) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<G: RngCore>(self, rng: &mut G) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(rng, lo, hi)
    }
}

/// Uniform draw from `[0, bound)` via 128-bit widening multiply (Lemire's
/// unbiased-enough mapping; bias is < 2⁻⁶⁴, irrelevant for workloads).
fn below<G: RngCore>(rng: &mut G, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    ((rng.next_u64() as u128 * bound as u128) >> 64) as u64
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<G: RngCore>(rng: &mut G, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + below(rng, span) as i128) as $t
            }
            fn sample_inclusive<G: RngCore>(rng: &mut G, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u64, usize, i32, i64);

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** seeded via SplitMix64 — the shim's standard generator.
    ///
    /// Not the same stream as the real `rand::rngs::StdRng` (which is
    /// ChaCha12); workloads only require *a* deterministic stream, not a
    /// bit-compatible one.
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
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1000u64), b.gen_range(0..1000u64));
        }
        let mut c = StdRng::seed_from_u64(8);
        let a_vals: Vec<u64> = (0..10).map(|_| a.gen_range(0..u64::MAX)).collect();
        let c_vals: Vec<u64> = (0..10).map(|_| c.gen_range(0..u64::MAX)).collect();
        assert_ne!(a_vals, c_vals);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..17i64);
            assert!((3..17).contains(&v));
            let v = rng.gen_range(1..=5usize);
            assert!((1..=5).contains(&v));
            let v = rng.gen_range(0..100u8);
            assert!(v < 100);
            let v = rng.gen_range(-4..=4i32);
            assert!((-4..=4).contains(&v));
        }
        // Both endpoints of an inclusive range are reachable.
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.gen_range(0..=5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
