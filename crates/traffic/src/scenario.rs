//! End-to-end attack scenarios: a benign workload overlaid with zero or more
//! DoS attacks (flooding, distributed or stealth), driving one [`Network`].

use crate::dos::DosAttack;
use crate::generator::{BernoulliInjector, TrafficGenerator};
use crate::parsec::{ParsecGenerator, ParsecWorkload};
use crate::pattern::SyntheticPattern;
use noc_sim::{Network, NocConfig, NodeId};
use serde::{Deserialize, Serialize};

/// The benign (non-attack) workload of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BenignWorkload {
    /// No benign traffic at all (attack-only runs, useful for debugging).
    Idle,
    /// A synthetic traffic pattern at a given injection rate.
    Synthetic(SyntheticPattern, f64),
    /// A PARSEC-like workload model.
    Parsec(ParsecWorkload),
}

impl BenignWorkload {
    /// The benchmark name used in tables.
    pub fn name(&self) -> String {
        match self {
            BenignWorkload::Idle => "Idle".to_string(),
            BenignWorkload::Synthetic(p, _) => p.name().to_string(),
            BenignWorkload::Parsec(w) => w.name().to_string(),
        }
    }

    fn into_generator(self, seed: u64) -> Option<Box<dyn TrafficGenerator>> {
        match self {
            BenignWorkload::Idle => None,
            BenignWorkload::Synthetic(p, rate) => {
                Some(Box::new(BernoulliInjector::new(p, rate, seed)))
            }
            BenignWorkload::Parsec(w) => Some(Box::new(ParsecGenerator::new(w, seed))),
        }
    }
}

/// Builder for [`AttackScenario`].
#[derive(Debug)]
pub struct AttackScenarioBuilder {
    config: NocConfig,
    benign: BenignWorkload,
    attacks: Vec<DosAttack>,
    seed: u64,
}

impl AttackScenarioBuilder {
    /// Sets the benign workload to a synthetic pattern at `injection_rate`.
    pub fn benign(mut self, pattern: SyntheticPattern, injection_rate: f64) -> Self {
        self.benign = BenignWorkload::Synthetic(pattern, injection_rate);
        self
    }

    /// Sets the benign workload to a PARSEC-like model.
    pub fn parsec(mut self, workload: ParsecWorkload) -> Self {
        self.benign = BenignWorkload::Parsec(workload);
        self
    }

    /// Sets the benign workload explicitly.
    pub fn workload(mut self, workload: BenignWorkload) -> Self {
        self.benign = workload;
        self
    }

    /// Adds a DoS attack overlay of any family.
    pub fn attack(mut self, attack: DosAttack) -> Self {
        self.attacks.push(attack);
        self
    }

    /// Sets the master seed; benign and attack generators derive their own
    /// sub-seeds from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the scenario (constructing the network and all generators).
    pub fn build(self) -> AttackScenario {
        let network = Network::new(self.config);
        let mut generators: Vec<Box<dyn TrafficGenerator>> = Vec::new();
        if let Some(g) = self.benign.into_generator(self.seed) {
            generators.push(g);
        }
        let mut ground_truth_attacks = Vec::new();
        for (i, attack) in self.attacks.into_iter().enumerate() {
            let seeded = attack.with_seed(self.seed.wrapping_add(1 + i as u64));
            ground_truth_attacks.push(seeded.clone());
            generators.push(Box::new(seeded) as Box<dyn TrafficGenerator>);
        }
        AttackScenario {
            benign: self.benign,
            network,
            generators,
            attacks: ground_truth_attacks,
        }
    }
}

/// A runnable scenario: one network plus its benign and malicious traffic
/// generators.
///
/// # Examples
///
/// ```
/// use noc_sim::{NocConfig, NodeId};
/// use noc_traffic::{AttackKind, AttackScenario, DosAttack, SyntheticPattern};
///
/// let mut scenario = AttackScenario::builder(NocConfig::mesh(4, 4))
///     .benign(SyntheticPattern::Neighbor, 0.02)
///     .attack(DosAttack::new(AttackKind::Fdos, vec![NodeId(15)], NodeId(0), 0.6))
///     .build();
/// scenario.run(500);
/// assert!(scenario.network().stats().packets_received > 0);
/// assert!(scenario.is_under_attack());
/// ```
pub struct AttackScenario {
    benign: BenignWorkload,
    network: Network,
    generators: Vec<Box<dyn TrafficGenerator>>,
    attacks: Vec<DosAttack>,
}

impl AttackScenario {
    /// Starts building a scenario for the given NoC configuration.
    pub fn builder(config: NocConfig) -> AttackScenarioBuilder {
        AttackScenarioBuilder {
            config,
            benign: BenignWorkload::Idle,
            attacks: Vec::new(),
            seed: 0,
        }
    }

    /// The benign workload of this scenario.
    pub fn benign_workload(&self) -> BenignWorkload {
        self.benign
    }

    /// The simulated network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the simulated network (e.g. to reset BOC counters
    /// between sampling windows).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// The configured DoS attacks (ground truth).
    pub fn attacks(&self) -> &[DosAttack] {
        &self.attacks
    }

    /// Whether at least one attack with a non-zero FIR is configured.
    pub fn is_under_attack(&self) -> bool {
        self.attacks.iter().any(|a| a.fir() > 0.0)
    }

    /// The ground-truth attacker set.
    pub fn attacker_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .attacks
            .iter()
            .flat_map(|a| a.attackers().to_vec())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Every `(attacker, target victim)` pair across all configured attacks.
    pub fn attack_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut out: Vec<(NodeId, NodeId)> = self
            .attacks
            .iter()
            .flat_map(|a| {
                a.attackers()
                    .iter()
                    .map(|&att| (att, a.victim()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The ground-truth victim set (target victims plus routing-path
    /// victims across all attacks).
    pub fn victim_nodes(&self) -> Vec<NodeId> {
        let topology = self.network.topology();
        let mut out: Vec<NodeId> = self
            .attacks
            .iter()
            .flat_map(|a| a.routing_path_victims(topology))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Advances the scenario by one cycle (inject, then step the network).
    pub fn step(&mut self) {
        let cycle = self.network.cycle();
        for g in &mut self.generators {
            g.inject(&mut self.network, cycle);
        }
        self.network.step();
    }

    /// Runs the scenario for `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }
}

impl std::fmt::Debug for AttackScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AttackScenario({:?}, {} attack(s), cycle {})",
            self.benign,
            self.attacks.len(),
            self.network.cycle()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttackKind::{Ddos, Fdos, Stealth};

    #[test]
    fn mixed_attack_families_coexist() {
        let s = AttackScenario::builder(NocConfig::mesh(4, 4))
            .attack(DosAttack::new(Fdos, vec![NodeId(3)], NodeId(0), 0.8))
            .attack(DosAttack::new(
                Ddos,
                vec![NodeId(12), NodeId(15)],
                NodeId(0),
                0.6,
            ))
            .attack(DosAttack::new(Stealth, vec![NodeId(7)], NodeId(0), 0.4))
            .build();
        assert!(s.is_under_attack());
        assert_eq!(s.attacks().len(), 3);
        assert_eq!(
            s.attacker_nodes(),
            vec![NodeId(3), NodeId(7), NodeId(12), NodeId(15)]
        );
        assert!(s.attack_pairs().contains(&(NodeId(12), NodeId(0))));
    }

    #[test]
    fn torus_scenario_uses_wrap_aware_ground_truth() {
        let mut s = AttackScenario::builder(NocConfig::torus(4, 4))
            .attack(DosAttack::new(Fdos, vec![NodeId(3)], NodeId(0), 0.8))
            .seed(7)
            .build();
        // 3 -> 0 is one wrap hop on the torus: the only victim is the target.
        assert_eq!(s.victim_nodes(), vec![NodeId(0)]);
        s.run(500);
        assert!(s.network().stats().malicious_packets_received > 0);
    }

    #[test]
    fn benign_only_scenario_has_no_attack() {
        let mut s = AttackScenario::builder(NocConfig::mesh(4, 4))
            .benign(SyntheticPattern::UniformRandom, 0.02)
            .seed(3)
            .build();
        s.run(300);
        assert!(!s.is_under_attack());
        assert!(s.attacker_nodes().is_empty());
        assert!(s.victim_nodes().is_empty());
        assert_eq!(s.network().stats().malicious_packets_received, 0);
        assert!(s.network().stats().packets_received > 0);
    }

    #[test]
    fn attack_scenario_reports_ground_truth() {
        let s = AttackScenario::builder(NocConfig::mesh(4, 4))
            .benign(SyntheticPattern::Tornado, 0.01)
            .attack(DosAttack::new(Fdos, vec![NodeId(3)], NodeId(0), 0.8))
            .build();
        assert!(s.is_under_attack());
        assert_eq!(s.attacker_nodes(), vec![NodeId(3)]);
        assert_eq!(s.victim_nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn two_attacker_scenario_merges_ground_truth() {
        let s = AttackScenario::builder(NocConfig::mesh(4, 4))
            .attack(DosAttack::new(Fdos, vec![NodeId(3)], NodeId(0), 0.8))
            .attack(DosAttack::new(Fdos, vec![NodeId(12)], NodeId(0), 0.8))
            .build();
        let attackers = s.attacker_nodes();
        assert_eq!(attackers, vec![NodeId(3), NodeId(12)]);
        let victims = s.victim_nodes();
        assert!(victims.contains(&NodeId(0)));
        assert!(!victims.contains(&NodeId(3)));
        assert!(!victims.contains(&NodeId(12)));
    }

    #[test]
    fn attack_slows_benign_traffic() {
        let run = |with_attack: bool| {
            let mut b = AttackScenario::builder(NocConfig::mesh(8, 8))
                .benign(SyntheticPattern::UniformRandom, 0.02)
                .seed(11);
            if with_attack {
                b = b.attack(DosAttack::new(Fdos, vec![NodeId(56)], NodeId(7), 0.9));
            }
            let mut s = b.build();
            s.run(3_000);
            s.network().stats().packet_latency.mean()
        };
        let clean = run(false);
        let attacked = run(true);
        assert!(
            attacked > clean,
            "attack latency {attacked} should exceed clean latency {clean}"
        );
    }

    #[test]
    fn parsec_scenario_runs() {
        let mut s = AttackScenario::builder(NocConfig::mesh(8, 8))
            .parsec(ParsecWorkload::X264)
            .attack(DosAttack::new(Fdos, vec![NodeId(63)], NodeId(9), 0.8))
            .seed(4)
            .build();
        s.run(2_000);
        assert!(s.network().stats().malicious_packets_received > 0);
        assert_eq!(s.benign_workload().name(), "X264");
    }
}
