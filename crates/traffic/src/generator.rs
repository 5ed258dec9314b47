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

/// Per-node arrival cycles of a packet source in which every node
/// independently creates a packet with probability `rate` per cycle.
///
/// Instead of one coin per node per cycle, each arrival draws the gap to
/// the node's next one: Bernoulli(`p`) trials per cycle and Geometric(`p`)
/// gaps `1 + floor(ln(u) / ln(1 − p))`, with `u` uniform on `(0, 1]`, are
/// the same process. So a cycle costs one comparison per node and one
/// draw per packet. `p = 0` never fires and `p = 1` fires every cycle.
/// The process is memoryless, so a rate change is exact when every node's
/// next arrival is redrawn from the cycle of the change, which
/// [`Arrivals::fire`] does whenever its `rate` differs from the last call's.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arrivals {
    /// The rate the schedule was drawn at.
    rate: f64,
    /// `ln(1 − rate)`, the divisor of every gap.
    ln_miss: f64,
    /// Each node's next arrival cycle: due when `next <= cycle`.
    next: Vec<u64>,
    /// The earliest entry of `next`; a call before it has nothing to do.
    earliest: u64,
}

impl Arrivals {
    /// Calls `arrive(node, rng)` for every node due at `cycle`, in node
    /// order (a node fires at most once per call, however many cycles it
    /// is overdue), and draws each one's next arrival after it. The
    /// schedule is redrawn first when `nodes` or `rate` differs from the
    /// last call's.
    pub(crate) fn fire(
        &mut self,
        nodes: usize,
        rate: f64,
        cycle: u64,
        rng: &mut ChaCha8Rng,
        mut arrive: impl FnMut(usize, &mut ChaCha8Rng),
    ) {
        if self.next.len() != nodes || self.rate != rate {
            self.redraw(nodes, rate, cycle, rng);
        }
        if self.rate == 0.0 || cycle < self.earliest {
            return;
        }
        let mut earliest = u64::MAX;
        for node in 0..nodes {
            if self.next[node] <= cycle {
                arrive(node, rng);
                self.next[node] = cycle.saturating_add(self.gap(rng));
            }
            earliest = earliest.min(self.next[node]);
        }
        self.earliest = earliest;
    }

    /// Draws every node's first arrival at or after `cycle` at `rate`.
    fn redraw(&mut self, nodes: usize, rate: f64, cycle: u64, rng: &mut ChaCha8Rng) {
        self.rate = rate;
        self.ln_miss = (-rate).ln_1p();
        self.next.clear();
        self.earliest = u64::MAX;
        if rate == 0.0 {
            self.next.resize(nodes, u64::MAX);
            return;
        }
        for _ in 0..nodes {
            let next = cycle.saturating_add(self.gap(rng) - 1);
            self.earliest = self.earliest.min(next);
            self.next.push(next);
        }
    }

    /// One Geometric(`rate`) gap, at least 1 (saturating for tiny rates).
    fn gap(&self, rng: &mut ChaCha8Rng) -> u64 {
        let u = 1.0 - rng.gen::<f64>();
        // `as` saturates, and `ln(1) / ln_miss` is ±0.
        1u64.saturating_add((u.ln() / self.ln_miss).floor() as u64)
    }
}

/// Bernoulli packet injection for a [`SyntheticPattern`]: each node
/// independently creates a packet with probability `injection_rate` per
/// cycle, destined according to the pattern. Each node draws the gap to
/// its next packet, one draw per packet, from the geometric distribution
/// of that same process.
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
    arrivals: Arrivals,
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
            arrivals: Arrivals::default(),
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
        let pattern = self.pattern;
        self.arrivals
            .fire(n, self.injection_rate, cycle, &mut self.rng, |node, rng| {
                let src = NodeId(node);
                let dst = pattern.destination(src, rows, cols, rng.gen_range(0..n));
                if dst != src {
                    network.enqueue_with_class(src, dst, cycle, TrafficClass::Benign);
                }
            });
    }

    fn name(&self) -> String {
        format!("{} @ {:.3}", self.pattern.name(), self.injection_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::NocConfig;

    /// The per-cycle draw [`Arrivals`] replaced, kept as the oracle: one
    /// Bernoulli(`rate`) coin per node per cycle.
    fn reference_fire(
        rng: &mut ChaCha8Rng,
        nodes: usize,
        rate: f64,
        mut arrive: impl FnMut(usize),
    ) {
        for node in 0..nodes {
            if rng.gen_bool(rate) {
                arrive(node);
            }
        }
    }

    /// Calls `arrive(node, cycle)` for every arrival of `nodes` nodes over
    /// `cycles` cycles at `rate`, from the schedule or from the reference.
    fn each_arrival(
        per_cycle: bool,
        nodes: usize,
        rate: f64,
        cycles: u64,
        seed: u64,
        mut arrive: impl FnMut(usize, u64),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut schedule = Arrivals::default();
        for cycle in 0..cycles {
            if per_cycle {
                reference_fire(&mut rng, nodes, rate, |node| arrive(node, cycle));
            } else {
                schedule.fire(nodes, rate, cycle, &mut rng, |node, _| arrive(node, cycle));
            }
        }
    }

    /// Whether `observed` out of `trials` is within 5 standard errors (plus
    /// one count) of probability `expected`.
    fn near(observed: u64, trials: u64, expected: f64) -> bool {
        let trials = trials as f64;
        let sigma = (expected * (1.0 - expected) / trials).sqrt();
        (observed as f64 / trials - expected).abs() <= 5.0 * sigma + 1.0 / trials
    }

    #[test]
    fn gap_histogram_and_rate_match_the_per_cycle_draw() {
        // Gap bins `(EDGES[i - 1], EDGES[i]]`, then a tail bin.
        const EDGES: [u64; 13] = [0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000];
        let (nodes, cycles) = (16, 500_000);
        for rate in [0.0, 0.001, 0.02, 0.5, 1.0] {
            for per_cycle in [true, false] {
                let source = if per_cycle { "per-cycle" } else { "schedule" };
                // A gap runs from one arrival (or the start) to the next.
                let mut since = vec![0u64; nodes];
                let mut bins = [0u64; EDGES.len() + 1];
                let mut arrivals = 0u64;
                each_arrival(per_cycle, nodes, rate, cycles, 11, |node, cycle| {
                    let gap = cycle + 1 - since[node];
                    since[node] = cycle + 1;
                    bins[EDGES.partition_point(|&edge| edge < gap)] += 1;
                    arrivals += 1;
                });
                let trials = (nodes as u64) * cycles;
                if rate == 0.0 || rate == 1.0 {
                    assert_eq!(arrivals, trials * rate as u64, "{source} at {rate}");
                    assert_eq!(bins[1], arrivals, "{source} at {rate}: every gap is 1");
                    continue;
                }
                assert!(
                    near(arrivals, trials, rate),
                    "{source} at {rate}: {arrivals} arrivals"
                );
                // P(gap > k) = (1 - p)^k.
                let survival = |k: Option<&u64>| k.map_or(0.0, |&k| (1.0 - rate).powf(k as f64));
                for (i, &count) in bins.iter().enumerate().skip(1) {
                    let expected = survival(EDGES.get(i - 1)) - survival(EDGES.get(i));
                    assert!(
                        near(count, arrivals, expected),
                        "{source} at {rate}: bin {i} holds {count} of {arrivals} gaps, expected {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn packets_per_window_match_the_binomial_over_many_seeds() {
        const WINDOW: u64 = 400;
        let (nodes, windows, seeds) = (64, 3, 100);
        for rate in [0.001, 0.02, 0.5] {
            for per_cycle in [true, false] {
                let source = if per_cycle { "per-cycle" } else { "schedule" };
                let mut counts = Vec::new();
                for seed in 0..seeds {
                    let mut seed_counts = vec![0u64; nodes * windows];
                    each_arrival(
                        per_cycle,
                        nodes,
                        rate,
                        WINDOW * windows as u64,
                        seed,
                        |node, cycle| seed_counts[(cycle / WINDOW) as usize * nodes + node] += 1,
                    );
                    counts.extend(seed_counts);
                }
                let n = counts.len() as f64;
                let mean = counts.iter().sum::<u64>() as f64 / n;
                let var = counts
                    .iter()
                    .map(|&c| (c as f64 - mean).powi(2))
                    .sum::<f64>()
                    / (n - 1.0);
                // Binomial(400, p): its mean, variance and central fourth
                // moment, for the standard errors of both estimates.
                let trials = WINDOW as f64;
                let expected_var = trials * rate * (1.0 - rate);
                let fourth = expected_var * (1.0 + 3.0 * (trials - 2.0) * rate * (1.0 - rate));
                let mean_se = (expected_var / n).sqrt();
                let var_se = ((fourth - expected_var.powi(2)) / n).sqrt();
                assert!(
                    (mean - trials * rate).abs() <= 5.0 * mean_se,
                    "{source} at {rate}: mean {mean}, expected {}",
                    trials * rate
                );
                assert!(
                    (var - expected_var).abs() <= 5.0 * var_se,
                    "{source} at {rate}: variance {var}, expected {expected_var}"
                );
            }
        }
    }

    #[test]
    fn a_call_that_skips_cycles_fires_every_overdue_node_once() {
        let nodes = 64;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut schedule = Arrivals::default();
        let mut cycle = 0;
        for skip in [1, 3, 40, 1, 500, 7, 10_000, 2] {
            let overdue: Vec<usize> = (0..nodes)
                .filter(|&node| schedule.next.get(node).is_none_or(|&next| next <= cycle))
                .collect();
            let mut fired = Vec::new();
            schedule.fire(nodes, 0.02, cycle, &mut rng, |node, _| fired.push(node));
            if cycle > 0 {
                assert_eq!(fired, overdue, "cycle {cycle}");
            }
            assert!(schedule.next.iter().all(|&next| next > cycle));
            cycle += skip;
        }
        // After 10,000 skipped cycles at 0.02, every node was overdue.
        let mut fired = 0;
        schedule.fire(nodes, 0.02, cycle + 10_000, &mut rng, |_, _| fired += 1);
        assert_eq!(fired, nodes);
    }

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
