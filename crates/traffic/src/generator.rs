//! The traffic-generator abstraction and the Bernoulli injector used by the
//! synthetic patterns.

use crate::pattern::SyntheticPattern;
use noc_sim::flit::TrafficClass;
use noc_sim::{Network, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A source of packets that is polled once per simulated cycle.
///
/// Implementations enqueue whatever packets they decide to create this cycle
/// into the network's injection queues; the network then serializes and
/// routes them.
pub trait TrafficGenerator: Send {
    /// Called once per cycle *before* the network steps. `cycle` is the
    /// cycle about to be simulated.
    fn inject(&mut self, network: &mut Network, cycle: u64);

    /// Human-readable name for reports.
    fn name(&self) -> String;
}

/// Bernoulli packet injection for a [`SyntheticPattern`]: each node
/// independently creates a packet with probability `injection_rate` per
/// cycle, destined according to the pattern.
///
/// # Examples
///
/// ```
/// use noc_sim::{Network, NocConfig};
/// use noc_traffic::{BernoulliInjector, SyntheticPattern, TrafficGenerator};
///
/// let mut net = Network::new(NocConfig::mesh(4, 4));
/// let mut gen = BernoulliInjector::new(SyntheticPattern::Tornado, 0.1, 42);
/// for cycle in 0..100 {
///     gen.inject(&mut net, cycle);
///     net.step();
/// }
/// assert!(net.stats().packets_created > 0);
/// ```
#[derive(Debug, Clone)]
pub struct BernoulliInjector {
    pattern: SyntheticPattern,
    injection_rate: f64,
    rng: ChaCha8Rng,
}

impl BernoulliInjector {
    /// Creates an injector for `pattern` with a per-node, per-cycle packet
    /// injection probability of `injection_rate`.
    ///
    /// # Panics
    ///
    /// Panics if `injection_rate` is not within `[0, 1]`.
    pub fn new(pattern: SyntheticPattern, injection_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&injection_rate),
            "injection rate must be in [0, 1], got {injection_rate}"
        );
        BernoulliInjector {
            pattern,
            injection_rate,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The synthetic pattern driving destination selection.
    pub fn pattern(&self) -> SyntheticPattern {
        self.pattern
    }

    /// The per-node per-cycle injection probability.
    pub fn injection_rate(&self) -> f64 {
        self.injection_rate
    }
}

impl TrafficGenerator for BernoulliInjector {
    fn inject(&mut self, network: &mut Network, cycle: u64) {
        let rows = network.topology().rows();
        let cols = network.topology().cols();
        let n = rows * cols;
        for node in 0..n {
            if self.rng.gen_bool(self.injection_rate) {
                let random = self.rng.gen_range(0..n);
                let src = NodeId(node);
                let dst = self.pattern.destination(src, rows, cols, random);
                if dst != src {
                    network.enqueue_with_class(src, dst, cycle, TrafficClass::Benign);
                }
            }
        }
    }

    fn name(&self) -> String {
        format!("{} @ {:.3}", self.pattern.name(), self.injection_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::NocConfig;

    #[test]
    fn zero_rate_injects_nothing() {
        let mut net = Network::new(NocConfig::mesh(4, 4));
        let mut gen = BernoulliInjector::new(SyntheticPattern::UniformRandom, 0.0, 1);
        for c in 0..200 {
            gen.inject(&mut net, c);
            net.step();
        }
        assert_eq!(net.stats().packets_created, 0);
    }

    #[test]
    fn injection_rate_controls_volume() {
        let mut low_net = Network::new(NocConfig::mesh(4, 4));
        let mut low = BernoulliInjector::new(SyntheticPattern::UniformRandom, 0.01, 1);
        let mut high_net = Network::new(NocConfig::mesh(4, 4));
        let mut high = BernoulliInjector::new(SyntheticPattern::UniformRandom, 0.2, 1);
        for c in 0..500 {
            low.inject(&mut low_net, c);
            low_net.step();
            high.inject(&mut high_net, c);
            high_net.step();
        }
        assert!(high_net.stats().packets_created > 5 * low_net.stats().packets_created);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let run = |seed| {
            let mut net = Network::new(NocConfig::mesh(4, 4));
            let mut gen = BernoulliInjector::new(SyntheticPattern::Shuffle, 0.1, seed);
            for c in 0..300 {
                gen.inject(&mut net, c);
                net.step();
            }
            (net.stats().packets_created, net.stats().packet_latency.sum)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "injection rate")]
    fn invalid_rate_panics() {
        BernoulliInjector::new(SyntheticPattern::Tornado, 1.5, 0);
    }

    #[test]
    fn name_mentions_pattern() {
        let gen = BernoulliInjector::new(SyntheticPattern::BitComplement, 0.05, 0);
        assert!(gen.name().contains("Bit Complement"));
    }
}
