//! Small deterministic per-walker random number generator.
//!
//! Walkers hop between machines whose threads interleave
//! non-deterministically, so each walker carries its own tiny RNG state in its
//! message. A SplitMix64 generator keeps the state to a single `u64`, makes
//! every walk reproducible given `(seed, walk_id)` regardless of thread
//! scheduling, and is far cheaper than re-seeding a `StdRng` per step.

/// The SplitMix64 output finalizer: a cheap, statistically strong scrambling
/// of a 64-bit value. Shared by [`SplitMix64`] and the flat frequency
/// store's walk-id hashing (`crate::freq`).
#[inline]
pub(crate) fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 state. Copy-able so it can travel inside walker messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Two different seeds give independent
    /// streams for all practical purposes.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives a walker-specific generator from a global seed and a walk id.
    pub fn for_walker(seed: u64, walk_id: u64) -> Self {
        // Mix the two inputs so consecutive walk ids do not produce
        // correlated streams.
        let mut s = Self::new(seed ^ walk_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        s.next_u64();
        s
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    pub fn next_bounded(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        // Multiply-shift; bias is negligible for the bounds used here (< 2^32).
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Raw state, for embedding into a message.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuilds a generator from a previously extracted state.
    pub fn from_state(state: u64) -> Self {
        Self { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_walkers_get_different_streams() {
        let mut a = SplitMix64::for_walker(1, 0);
        let mut b = SplitMix64::for_walker(1, 1);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_values_in_range_and_roughly_uniform() {
        let mut r = SplitMix64::new(11);
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            let x = r.next_bounded(5);
            counts[x] += 1;
        }
        for &c in &counts {
            assert!(
                c > 1_500 && c < 2_500,
                "counts {counts:?} not roughly uniform"
            );
        }
    }

    #[test]
    fn state_round_trip() {
        let mut a = SplitMix64::new(5);
        a.next_u64();
        let saved = a.state();
        let mut b = SplitMix64::from_state(saved);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
