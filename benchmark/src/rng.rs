//! The benchmark's own seeded generator (SplitMix64).
//!
//! Inputs must be a pure function of `--seed`, independent of the
//! vendored `rand` stand-in the crates under test use, so a change to
//! that stand-in cannot silently change what the benchmark feeds them.

/// SplitMix64: 64 bits of state, full period, good enough to pick
/// specs, edit sites and instance orders.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one named purpose, so adding a draw to
    /// one generator never shifts the inputs of another.
    pub fn fork(&self, label: &str) -> Rng {
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut forked = Rng(h);
        forked.next_u64();
        forked
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `percent`/100.
    pub fn percent(&mut self, percent: u32) -> bool {
        self.below(100) < percent as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_are_independent() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let root = Rng::new(7);
        let mut x = root.fork("specs");
        let mut y = root.fork("script");
        assert_ne!(x.next_u64(), y.next_u64());
        let mut x2 = root.fork("specs");
        x = root.fork("specs");
        assert_eq!(x.next_u64(), x2.next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
