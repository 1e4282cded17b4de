//! Deterministic pseudo-random numbers.
//!
//! The simulator must be bit-for-bit reproducible across runs and platforms,
//! so it uses a small self-contained SplitMix64 generator rather than an
//! OS-seeded source. SplitMix64 passes BigCrush for this use (jitter, loss
//! coins) and needs eight bytes of state.

/// A deterministic SplitMix64 pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicRng {
    state: u64,
}

impl DeterministicRng {
    /// Creates a generator from a seed. Equal seeds yield equal sequences.
    pub fn new(seed: u64) -> Self {
        DeterministicRng { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits → [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// Returns 0 when `bound` is 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift; bias is negligible for simulation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn coin(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_sequences() {
        let mut a = DeterministicRng::new(7);
        let mut b = DeterministicRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = DeterministicRng::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = DeterministicRng::new(9);
        for _ in 0..10_000 {
            assert!(rng.next_below(13) < 13);
        }
        assert_eq!(rng.next_below(0), 0);
        assert_eq!(rng.next_below(1), 0);
    }

    #[test]
    fn coin_extremes_are_deterministic() {
        let mut rng = DeterministicRng::new(5);
        assert!(!rng.coin(0.0));
        assert!(rng.coin(1.0));
        assert!(!rng.coin(-0.5));
        assert!(rng.coin(1.5));
    }

    #[test]
    fn coin_frequency_tracks_probability() {
        let mut rng = DeterministicRng::new(11);
        let hits = (0..100_000).filter(|_| rng.coin(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "frequency {freq}");
    }
}
