//! Link latency: the one-way delay every simulated link samples.

use rand::rngs::StdRng;
use rand::Rng;

/// Uniformly random latency in `[min_ms, max_ms]`.
///
/// Sampling is deterministic given the RNG state, so whole simulations
/// replay exactly from a seed. A constant delay `c` is
/// `UniformLatency { min_ms: c, max_ms: c }`.
#[derive(Clone, Copy, Debug)]
pub struct UniformLatency {
    /// Lower bound (inclusive), milliseconds.
    pub min_ms: u64,
    /// Upper bound (inclusive), milliseconds.
    pub max_ms: u64,
}

impl UniformLatency {
    /// One link's one-way delay, in simulated milliseconds.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        rng.gen_range(self.min_ms..=self.max_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = UniformLatency {
            min_ms: 10,
            max_ms: 20,
        };
        for _ in 0..100 {
            let l = m.sample(&mut rng);
            assert!((10..=20).contains(&l));
        }
    }
}
