//! The benchmark's own seeded generator (SplitMix64). Workload inputs are a
//! pure function of `--seed`: the same seed gives the same request lines,
//! operand seeds and check vectors.

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant at the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Derives an operand seed from the run seed and a stream label. Kept
/// below 2^48 so it survives the NDJSON protocol's `f64` numbers exactly
/// (the daemon also caps seeds at 2^52).
pub fn derive_seed(run_seed: u64, stream: u64) -> u64 {
    let mut g = SplitMix64::new(run_seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    g.next_u64() >> 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        assert_eq!(derive_seed(42, 1), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
        assert_ne!(derive_seed(42, 1), derive_seed(43, 1));
        assert!(derive_seed(u64::MAX, u64::MAX) < 1 << 48);
        let mut a: Vec<u32> = (0..48).collect();
        let mut b = a.clone();
        SplitMix64::new(7).shuffle(&mut a);
        SplitMix64::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..48).collect::<Vec<u32>>());
        assert_ne!(a, sorted);
    }
}
