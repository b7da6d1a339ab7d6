//! Deterministic pseudo-randomness.
//!
//! The environment models need small amounts of randomness — run-to-run jitter on NFS
//! service times, the >20% variation the paper observed between "identical" BG/L
//! sampling runs, the draws of the seeded fault campaigns.  All of it flows through
//! [`DeterministicRng`], a thin wrapper around a SplitMix64/xoshiro-style generator
//! with convenience samplers, so that every experiment is reproducible from a single
//! seed printed in its output.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded random number generator with the samplers the models need.
#[derive(Clone, Debug)]
pub struct DeterministicRng {
    inner: StdRng,
    seed: u64,
}

impl DeterministicRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        DeterministicRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Derive an independent child generator; used to give each daemon or node its own
    /// stream so that adding one actor does not perturb every other actor's draws.
    pub fn fork(&mut self, stream: u64) -> DeterministicRng {
        // Mix the parent's seed with the stream id through SplitMix64 so forked
        // streams are decorrelated even for consecutive stream ids.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        DeterministicRng::new(z)
    }

    /// Uniform draw in `[lo, hi)`.  Returns `lo` if the interval is empty/inverted.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer draw in `[lo, hi)`.  Returns `lo` if the interval is empty.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// A multiplicative jitter factor in `[1 - spread, 1 + spread]`, clamped to stay
    /// positive.  `spread = 0.2` reproduces the ±20% run-to-run variation the paper
    /// reports for BG/L sampling.
    pub fn jitter(&mut self, spread: f64) -> f64 {
        let spread = spread.clamp(0.0, 0.99);
        self.uniform(1.0 - spread, 1.0 + spread)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen_bool(p)
        }
    }
}

impl RngCore for DeterministicRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::new(99);
        let mut b = DeterministicRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_deterministic_and_decorrelated() {
        let mut parent1 = DeterministicRng::new(5);
        let mut parent2 = DeterministicRng::new(5);
        let mut c1 = parent1.fork(3);
        let mut c2 = parent2.fork(3);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut c3 = parent1.fork(4);
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = DeterministicRng::new(7);
        for _ in 0..1000 {
            let x = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
        assert_eq!(rng.uniform(5.0, 5.0), 5.0);
        assert_eq!(rng.uniform(5.0, 1.0), 5.0);
    }

    #[test]
    fn jitter_stays_within_spread() {
        let mut rng = DeterministicRng::new(11);
        for _ in 0..1000 {
            let j = rng.jitter(0.2);
            assert!((0.8..=1.2).contains(&j));
        }
        // degenerate spreads do not panic
        assert!(rng.jitter(0.0) == 1.0);
        let extreme = rng.jitter(5.0);
        assert!(extreme > 0.0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DeterministicRng::new(17);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }
}
