//! Link latency and loss models.

use rand::rngs::StdRng;
use rand::Rng;

use crate::sim::NodeId;

/// Samples a one-way delivery latency in simulated milliseconds.
///
/// Implementations must be deterministic given the RNG state, so that
/// whole simulations replay exactly from a seed.
pub trait LatencyModel {
    /// Latency for a message from `from` to `to`.
    fn sample(&self, rng: &mut StdRng, from: NodeId, to: NodeId) -> u64;

    /// An upper bound `D` on network delay, used by the protocol to size
    /// the epoch-validation threshold `Thr = D / T` (§III).
    fn max_delay_ms(&self) -> u64;

    /// A boxed deep copy of this model, so whole networks can be
    /// checkpointed by `Clone` (the soak harness's checkpoint/restore).
    fn clone_box(&self) -> Box<dyn LatencyModel>;
}

impl Clone for Box<dyn LatencyModel> {
    fn clone(&self) -> Box<dyn LatencyModel> {
        self.clone_box()
    }
}

/// Fixed latency for every link.
#[derive(Clone, Copy, Debug)]
pub struct ConstantLatency(pub u64);

impl LatencyModel for ConstantLatency {
    fn sample(&self, _rng: &mut StdRng, _from: NodeId, _to: NodeId) -> u64 {
        self.0
    }
    fn max_delay_ms(&self) -> u64 {
        self.0
    }
    fn clone_box(&self) -> Box<dyn LatencyModel> {
        Box::new(*self)
    }
}

/// Uniformly random latency in `[min_ms, max_ms]`.
#[derive(Clone, Copy, Debug)]
pub struct UniformLatency {
    /// Lower bound (inclusive), milliseconds.
    pub min_ms: u64,
    /// Upper bound (inclusive), milliseconds.
    pub max_ms: u64,
}

impl LatencyModel for UniformLatency {
    fn sample(&self, rng: &mut StdRng, _from: NodeId, _to: NodeId) -> u64 {
        rng.gen_range(self.min_ms..=self.max_ms)
    }
    fn max_delay_ms(&self) -> u64 {
        self.max_ms
    }
    fn clone_box(&self) -> Box<dyn LatencyModel> {
        Box::new(*self)
    }
}

/// Internet-like latency: a base propagation delay plus an occasionally
/// heavy tail (models congestion / retransmissions).
#[derive(Clone, Copy, Debug)]
pub struct InternetLatency {
    /// Typical base latency, milliseconds.
    pub base_ms: u64,
    /// Jitter added uniformly on top of the base, milliseconds.
    pub jitter_ms: u64,
    /// Probability of a tail event (e.g. `0.01`).
    pub tail_probability: f64,
    /// Extra delay during a tail event, milliseconds.
    pub tail_ms: u64,
}

impl Default for InternetLatency {
    fn default() -> InternetLatency {
        InternetLatency {
            base_ms: 40,
            jitter_ms: 60,
            tail_probability: 0.01,
            tail_ms: 400,
        }
    }
}

impl LatencyModel for InternetLatency {
    fn sample(&self, rng: &mut StdRng, _from: NodeId, _to: NodeId) -> u64 {
        let mut latency = self.base_ms + rng.gen_range(0..=self.jitter_ms);
        if rng.gen_bool(self.tail_probability) {
            latency += self.tail_ms;
        }
        latency
    }
    fn max_delay_ms(&self) -> u64 {
        self.base_ms + self.jitter_ms + self.tail_ms
    }
    fn clone_box(&self) -> Box<dyn LatencyModel> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = ConstantLatency(50);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng, NodeId(0), NodeId(1)), 50);
        }
        assert_eq!(m.max_delay_ms(), 50);
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = UniformLatency {
            min_ms: 10,
            max_ms: 20,
        };
        for _ in 0..100 {
            let l = m.sample(&mut rng, NodeId(0), NodeId(1));
            assert!((10..=20).contains(&l));
        }
    }

    #[test]
    fn internet_respects_max() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = InternetLatency::default();
        for _ in 0..1000 {
            assert!(m.sample(&mut rng, NodeId(0), NodeId(1)) <= m.max_delay_ms());
        }
    }

    #[test]
    fn deterministic_replay_from_seed() {
        let m = InternetLatency::default();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32)
                .map(|_| m.sample(&mut rng, NodeId(0), NodeId(1)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
