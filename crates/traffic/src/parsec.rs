//! PARSEC-like workload models.
//!
//! The paper runs blackscholes, bodytrack and x264 in gem5 full-system mode
//! on an 8×8 NoC. Full-system traces are not available in this environment,
//! so these generators reproduce the *traffic-relevant* properties the paper
//! relies on:
//!
//! * **Low communication density** during the Region of Interest (ROI) —
//!   PARSEC applications compute far more than they communicate, which is
//!   exactly why the paper finds flooding traffic "more prominent" and easier
//!   to localize on PARSEC than on traffic-heavy synthetic patterns.
//! * **Phase structure** — alternating compute phases (almost no packets)
//!   and communication bursts (synchronization / data exchange).
//! * **Hot-spot bias** — a fraction of traffic targets a small set of shared
//!   nodes modelling memory controllers / shared caches at the mesh corners.

use crate::generator::{Arrivals, TrafficGenerator};
use noc_sim::flit::TrafficClass;
use noc_sim::{Network, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which phase of the workload a node is currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParsecPhase {
    /// Computation-dominated phase: essentially no packet injection.
    Compute,
    /// Communication burst: synchronization and data exchange packets.
    Communicate,
}

/// The three PARSEC benchmarks the paper evaluates, modelled as
/// phase-structured synthetic generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParsecWorkload {
    /// Embarrassingly parallel option pricing: long compute phases, short and
    /// sparse communication bursts, strong hot-spot bias (input distribution
    /// from a single node).
    Blackscholes,
    /// Body tracking: moderate communication, frame-synchronised bursts.
    Bodytrack,
    /// Video encoding: pipeline parallelism with neighbour-biased exchange of
    /// reference frames and moderate bursts.
    X264,
}

/// Traffic parameters of one workload model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParsecProfile {
    /// Injection probability per node per cycle during a communication burst.
    pub burst_injection_rate: f64,
    /// Injection probability per node per cycle during compute phases.
    pub compute_injection_rate: f64,
    /// Length of a compute phase in cycles.
    pub compute_phase_len: u64,
    /// Length of a communication burst in cycles.
    pub burst_phase_len: u64,
    /// Fraction of packets that target a shared hot-spot node
    /// (memory-controller model) instead of a random peer.
    pub hotspot_fraction: f64,
}

impl ParsecWorkload {
    /// The three workloads in the order the paper's tables list them.
    pub const ALL: [ParsecWorkload; 3] = [
        ParsecWorkload::Blackscholes,
        ParsecWorkload::Bodytrack,
        ParsecWorkload::X264,
    ];

    /// Human-readable benchmark name.
    pub fn name(&self) -> &'static str {
        match self {
            ParsecWorkload::Blackscholes => "Blackscholes",
            ParsecWorkload::Bodytrack => "Bodytrack",
            ParsecWorkload::X264 => "X264",
        }
    }

    /// The traffic profile of this workload.
    ///
    /// Rates are chosen well below the synthetic-pattern rates so that, as in
    /// the paper, the ROI traffic density is low and flooding stands out.
    pub fn profile(&self) -> ParsecProfile {
        match self {
            ParsecWorkload::Blackscholes => ParsecProfile {
                burst_injection_rate: 0.015,
                compute_injection_rate: 0.001,
                compute_phase_len: 400,
                burst_phase_len: 60,
                hotspot_fraction: 0.5,
            },
            ParsecWorkload::Bodytrack => ParsecProfile {
                burst_injection_rate: 0.03,
                compute_injection_rate: 0.002,
                compute_phase_len: 250,
                burst_phase_len: 100,
                hotspot_fraction: 0.35,
            },
            ParsecWorkload::X264 => ParsecProfile {
                burst_injection_rate: 0.025,
                compute_injection_rate: 0.003,
                compute_phase_len: 300,
                burst_phase_len: 120,
                hotspot_fraction: 0.25,
            },
        }
    }
}

impl fmt::Display for ParsecWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A phase-structured traffic generator modelling one PARSEC workload.
///
/// Arrivals are drawn as geometric gaps, one draw per packet, and every
/// node's next arrival is redrawn when the phase, and with it the rate,
/// changes (exact, since the per-cycle Bernoulli process is memoryless).
#[derive(Debug, Clone)]
pub struct ParsecGenerator {
    workload: ParsecWorkload,
    profile: ParsecProfile,
    rng: ChaCha8Rng,
    arrivals: Arrivals,
}

impl ParsecGenerator {
    /// Creates a generator for `workload` seeded with `seed`.
    pub fn new(workload: ParsecWorkload, seed: u64) -> Self {
        ParsecGenerator {
            workload,
            profile: workload.profile(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            arrivals: Arrivals::default(),
        }
    }

    /// The workload this generator models.
    pub fn workload(&self) -> ParsecWorkload {
        self.workload
    }

    /// The phase active at `cycle`.
    pub fn phase(&self, cycle: u64) -> ParsecPhase {
        let period = self.profile.compute_phase_len + self.profile.burst_phase_len;
        if cycle % period < self.profile.compute_phase_len {
            ParsecPhase::Compute
        } else {
            ParsecPhase::Communicate
        }
    }

    /// The hot-spot nodes (memory-controller models) of a `rows × cols`
    /// mesh: the four corners.
    pub fn hotspots(rows: usize, cols: usize) -> [NodeId; 4] {
        [
            NodeId(0),
            NodeId(cols - 1),
            NodeId((rows - 1) * cols),
            NodeId(rows * cols - 1),
        ]
    }
}

impl TrafficGenerator for ParsecGenerator {
    fn inject(&mut self, network: &mut Network, cycle: u64) {
        let rows = network.topology().rows();
        let cols = network.topology().cols();
        let n = rows * cols;
        let rate = match self.phase(cycle) {
            ParsecPhase::Compute => self.profile.compute_injection_rate,
            ParsecPhase::Communicate => self.profile.burst_injection_rate,
        };
        let hotspots = Self::hotspots(rows, cols);
        let hotspot_fraction = self.profile.hotspot_fraction;
        self.arrivals
            .fire(n, rate, cycle, &mut self.rng, |node, rng| {
                let src = NodeId(node);
                let dst = if rng.gen_bool(hotspot_fraction) {
                    hotspots[rng.gen_range(0..hotspots.len())]
                } else {
                    NodeId(rng.gen_range(0..n))
                };
                if dst != src {
                    network.enqueue_with_class(src, dst, cycle, TrafficClass::Benign);
                }
            });
    }

    fn name(&self) -> String {
        format!("PARSEC {}", self.workload.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BernoulliInjector;
    use crate::pattern::SyntheticPattern;
    use noc_sim::NocConfig;

    #[test]
    fn phase_alternates() {
        let g = ParsecGenerator::new(ParsecWorkload::Blackscholes, 0);
        assert_eq!(g.phase(0), ParsecPhase::Compute);
        assert_eq!(g.phase(399), ParsecPhase::Compute);
        assert_eq!(g.phase(400), ParsecPhase::Communicate);
        assert_eq!(g.phase(459), ParsecPhase::Communicate);
        assert_eq!(g.phase(460), ParsecPhase::Compute);
    }

    #[test]
    fn parsec_traffic_is_sparser_than_stp() {
        let cycles = 2_000u64;
        let mut p_net = Network::new(NocConfig::mesh(8, 8));
        let mut parsec = ParsecGenerator::new(ParsecWorkload::Bodytrack, 3);
        let mut s_net = Network::new(NocConfig::mesh(8, 8));
        let mut stp = BernoulliInjector::new(SyntheticPattern::UniformRandom, 0.05, 3);
        for c in 0..cycles {
            parsec.inject(&mut p_net, c);
            p_net.step();
            stp.inject(&mut s_net, c);
            s_net.step();
        }
        assert!(
            p_net.stats().packets_created * 2 < s_net.stats().packets_created,
            "PARSEC-like traffic ({}) should be much sparser than STP ({})",
            p_net.stats().packets_created,
            s_net.stats().packets_created
        );
    }

    #[test]
    fn mean_rate_in_each_phase_matches_the_profile() {
        let nodes = 64u64;
        for w in ParsecWorkload::ALL {
            let profile = w.profile();
            let period = profile.compute_phase_len + profile.burst_phase_len;
            // (packets, node-cycles) per phase: compute, then burst.
            let mut tallies = [(0u64, 0u64); 2];
            for seed in 0..20 {
                let mut net = Network::new(NocConfig::mesh(8, 8));
                let mut g = ParsecGenerator::new(w, seed);
                for c in 0..4 * period {
                    let before = net.stats().packets_created;
                    g.inject(&mut net, c);
                    let tally = &mut tallies[usize::from(g.phase(c) == ParsecPhase::Communicate)];
                    tally.0 += net.stats().packets_created - before;
                    tally.1 += nodes;
                }
            }
            let rates = [profile.compute_injection_rate, profile.burst_injection_rate];
            for ((packets, trials), rate) in tallies.into_iter().zip(rates) {
                // A packet is dropped when it draws its own source, which
                // averages 1/n over the nodes (hot spots included).
                let expected = rate * (nodes - 1) as f64 / nodes as f64;
                let sigma = (expected * (1.0 - expected) / trials as f64).sqrt();
                let observed = packets as f64 / trials as f64;
                assert!(
                    (observed - expected).abs() <= 5.0 * sigma,
                    "{w} at {rate}: {observed} packets per node-cycle, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn hotspots_are_corners() {
        let h = ParsecGenerator::hotspots(8, 8);
        assert_eq!(h, [NodeId(0), NodeId(7), NodeId(56), NodeId(63)]);
    }

    #[test]
    fn all_workloads_generate_some_traffic() {
        for w in ParsecWorkload::ALL {
            let mut net = Network::new(NocConfig::mesh(8, 8));
            let mut g = ParsecGenerator::new(w, 5);
            for c in 0..3_000 {
                g.inject(&mut net, c);
                net.step();
            }
            assert!(net.stats().packets_created > 0, "{w} generated no packets");
            assert!(net.stats().packets_received > 0);
        }
    }

    #[test]
    fn profiles_keep_rates_low() {
        for w in ParsecWorkload::ALL {
            let p = w.profile();
            assert!(p.burst_injection_rate < 0.05);
            assert!(p.compute_injection_rate < p.burst_injection_rate);
            assert!((0.0..=1.0).contains(&p.hotspot_fraction));
        }
    }
}
