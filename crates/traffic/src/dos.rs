//! The refined DoS attack model: one [`DosAttack`] for every attack family.
//!
//! This is the paper's first contribution: a flooding attack that
//!
//! * is launched by one or more **malicious nodes** against a single **target
//!   victim**,
//! * injects protocol-legal packets that follow the default XY routing (no
//!   compromised routers, balanced credits),
//! * *overlays* normal workload traffic — benign communication continues,
//!   merely slowed down, and
//! * exposes a single tuning knob, the **Flooding Injection Rate (FIR)**: the
//!   probability per cycle that an attacker injects one flooding packet.
//!   `FIR = 0` disables the attack; `FIR = 1` saturates the victim's row and
//!   crashes the system; intermediate values trade stealth for impact.
//!
//! The three [`AttackKind`] families differ only in which attackers may fire
//! in a cycle and with what probability:
//!
//! * **Fdos** — every attacker fires with probability `fir` each cycle.
//! * **Ddos** — the coordinated distributed DoS of Weerasena et al. 2025:
//!   the `k` sources take round-robin turns (in cycle `c` only attacker
//!   `c % k` may fire), so the *aggregate* rate matches a single-source
//!   flood at the same FIR while each source averages `fir / k`.
//! * **Stealth** — a linear **ramp-up** from zero over `ramp_cycles`, pulsed
//!   by a **duty cycle** (on for `duty_on` of every `duty_period` cycles),
//!   so a detector calibrated on a step change or on the per-source rate
//!   sees only a drifting, low-average baseline. With the defaults (50%
//!   duty) the long-run average rate is half the configured peak FIR.
//!
//! Ramp and duty cycle are options of every family ([`DosAttack::with_ramp`],
//! [`DosAttack::with_duty`]); only Stealth turns them on by default.

use crate::generator::TrafficGenerator;
use noc_sim::flit::TrafficClass;
use noc_sim::{Network, NodeId, Topology};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The DoS attack families the campaign grid can sweep over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackKind {
    /// Single- or multi-source flooding at a fixed FIR.
    #[default]
    Fdos,
    /// Coordinated multi-source distributed DoS with round-robin
    /// turn-taking.
    Ddos,
    /// Duty-cycled ramp-up flooding that stays under the FIR threshold.
    Stealth,
}

impl AttackKind {
    /// The lowercase spec-axis name (`"fdos"`, `"ddos"`, `"stealth"`).
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Fdos => "fdos",
            AttackKind::Ddos => "ddos",
            AttackKind::Stealth => "stealth",
        }
    }
}

/// One configured DoS attack: attacker nodes, a victim, the FIR and the
/// family-specific firing schedule.
#[derive(Debug, Clone)]
pub struct DosAttack {
    kind: AttackKind,
    attackers: Vec<NodeId>,
    victim: NodeId,
    fir: f64,
    ramp_cycles: u64,
    duty_period: u64,
    duty_on: u64,
    rng: ChaCha8Rng,
}

impl DosAttack {
    /// Creates a `kind` attack by `attackers` against `victim` at flooding
    /// injection rate `fir` (per attacker for Fdos, aggregate for Ddos, peak
    /// for Stealth). Stealth starts with a 1000-cycle ramp and a 100-on /
    /// 200-cycle duty window; the other families with neither.
    ///
    /// # Panics
    ///
    /// Panics if `fir` is outside `[0, 1]`, `attackers` is empty, or the
    /// victim is listed as an attacker.
    pub fn new(kind: AttackKind, attackers: Vec<NodeId>, victim: NodeId, fir: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fir),
            "FIR must be in [0, 1], got {fir}"
        );
        assert!(!attackers.is_empty(), "at least one attacker is required");
        assert!(
            !attackers.contains(&victim),
            "the victim cannot also be an attacker"
        );
        let (seed, ramp_cycles, duty_period, duty_on) = match kind {
            AttackKind::Fdos => (0xD05, 0, 1, 1),
            AttackKind::Ddos => (0xDD05, 0, 1, 1),
            AttackKind::Stealth => (0x57EA, 1_000, 200, 100),
        };
        DosAttack {
            kind,
            attackers,
            victim,
            fir,
            ramp_cycles,
            duty_period,
            duty_on,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Overrides the RNG seed used for the Bernoulli injection decisions.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self
    }

    /// Sets the ramp-up length in cycles (0 disables the ramp).
    pub fn with_ramp(mut self, ramp_cycles: u64) -> Self {
        self.ramp_cycles = ramp_cycles;
        self
    }

    /// Sets the duty cycle: active for `on` cycles out of every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `on > period`.
    pub fn with_duty(mut self, period: u64, on: u64) -> Self {
        assert!(period > 0, "duty period must be non-zero");
        assert!(on <= period, "duty on-time cannot exceed the period");
        self.duty_period = period;
        self.duty_on = on;
        self
    }

    /// The family this attack belongs to.
    pub fn kind(&self) -> AttackKind {
        self.kind
    }

    /// The malicious nodes.
    pub fn attackers(&self) -> &[NodeId] {
        &self.attackers
    }

    /// The target victim node.
    pub fn victim(&self) -> NodeId {
        self.victim
    }

    /// The (peak/aggregate) flooding injection rate in `[0, 1]`.
    pub fn fir(&self) -> f64 {
        self.fir
    }

    /// The long-run average injection rate once the ramp has completed:
    /// peak FIR scaled by the duty cycle.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_sim::NodeId;
    /// use noc_traffic::{AttackKind, DosAttack};
    ///
    /// let stealth = DosAttack::new(AttackKind::Stealth, vec![NodeId(15)], NodeId(0), 0.8)
    ///     .with_ramp(500)
    ///     .with_duty(100, 40);
    /// // Peak FIR 0.8, but 40/100 duty ⇒ long-run average 0.32.
    /// assert!((stealth.average_fir() - 0.32).abs() < 1e-9);
    /// ```
    pub fn average_fir(&self) -> f64 {
        self.fir * self.duty_on as f64 / self.duty_period as f64
    }

    /// The injection probability of an active attacker at `cycle`: zero
    /// outside the duty window, else the FIR scaled by the ramp.
    pub fn effective_fir(&self, cycle: u64) -> f64 {
        if cycle % self.duty_period >= self.duty_on {
            return 0.0;
        }
        let ramp = if self.ramp_cycles == 0 {
            1.0
        } else {
            (cycle as f64 / self.ramp_cycles as f64).min(1.0)
        };
        self.fir * ramp
    }

    /// The ground-truth set of victims: the target victim plus every
    /// routing-path victim (RPV) on the minimal route of each attacker,
    /// excluding the attackers themselves. Sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if the victim or an attacker lies outside the topology.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_sim::{NodeId, Topology};
    /// use noc_traffic::{AttackKind, DosAttack};
    ///
    /// let attack = DosAttack::new(AttackKind::Fdos, vec![NodeId(104)], NodeId(0), 0.8);
    /// let rpv = attack.routing_path_victims(&Topology::mesh(16, 16));
    /// assert!(rpv.contains(&NodeId(96)));   // the corner hop of the XY route
    /// assert!(rpv.contains(&NodeId(0)));    // the target victim
    /// assert!(!rpv.contains(&NodeId(104))); // the attacker itself is not a victim
    /// ```
    pub fn routing_path_victims(&self, topology: &Topology) -> Vec<NodeId> {
        let mut victims: Vec<NodeId> = Vec::new();
        for &a in &self.attackers {
            let path = topology
                .route_path(a, self.victim)
                .unwrap_or_else(|e| panic!("routing_path_victims: {e}"));
            for node in path {
                if !self.attackers.contains(&node) && !victims.contains(&node) {
                    victims.push(node);
                }
            }
        }
        victims.sort();
        victims
    }
}

impl TrafficGenerator for DosAttack {
    fn inject(&mut self, network: &mut Network, cycle: u64) {
        let p = self.effective_fir(cycle);
        if p <= 0.0 {
            return;
        }
        let active = match self.kind {
            AttackKind::Ddos => {
                let turn = (cycle % self.attackers.len() as u64) as usize;
                &self.attackers[turn..=turn]
            }
            AttackKind::Fdos | AttackKind::Stealth => &self.attackers[..],
        };
        for &attacker in active {
            if p >= 1.0 || self.rng.gen_bool(p) {
                network.enqueue_with_class(attacker, self.victim, cycle, TrafficClass::Malicious);
            }
        }
    }

    fn name(&self) -> String {
        let (k, victim, fir) = (self.attackers.len(), self.victim, self.fir);
        match self.kind {
            AttackKind::Fdos => format!("FDoS {k} attacker(s) -> {victim} @ FIR {fir:.2}"),
            AttackKind::Ddos => {
                format!("DDoS {k} source(s) -> {victim} @ aggregate FIR {fir:.2}")
            }
            AttackKind::Stealth => format!(
                "Stealth {k} attacker(s) -> {victim} @ peak FIR {fir:.2}, ramp {}, duty {}/{}",
                self.ramp_cycles, self.duty_on, self.duty_period
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{NetworkStats, NocConfig};

    #[test]
    fn kind_and_accessors_dispatch() {
        let f = DosAttack::new(AttackKind::Fdos, vec![NodeId(3)], NodeId(0), 0.8);
        let d = DosAttack::new(
            AttackKind::Ddos,
            vec![NodeId(3), NodeId(12)],
            NodeId(0),
            0.8,
        );
        let s = DosAttack::new(AttackKind::Stealth, vec![NodeId(3)], NodeId(0), 0.8);
        assert_eq!(f.kind(), AttackKind::Fdos);
        assert_eq!(d.kind(), AttackKind::Ddos);
        assert_eq!(s.kind(), AttackKind::Stealth);
        for a in [&f, &d, &s] {
            assert_eq!(a.victim(), NodeId(0));
            assert_eq!(a.fir(), 0.8);
            assert!(a.attackers().contains(&NodeId(3)));
        }
        assert_eq!(d.attackers().len(), 2);
        // Only Stealth ramps or pulses by default.
        assert_eq!(f.effective_fir(0), 0.8);
        assert_eq!(d.average_fir(), 0.8);
        assert_eq!(s.effective_fir(0), 0.0);
    }

    #[test]
    fn rpv_dispatches_through_the_enum() {
        let mesh = Topology::mesh(4, 4);
        for kind in [AttackKind::Fdos, AttackKind::Ddos, AttackKind::Stealth] {
            let a = DosAttack::new(kind, vec![NodeId(3)], NodeId(0), 0.8);
            assert_eq!(
                a.routing_path_victims(&mesh),
                vec![NodeId(0), NodeId(1), NodeId(2)]
            );
        }
    }

    #[test]
    fn attack_kind_names_round_trip_style() {
        assert_eq!(AttackKind::Fdos.name(), "fdos");
        assert_eq!(AttackKind::Ddos.name(), "ddos");
        assert_eq!(AttackKind::Stealth.name(), "stealth");
        assert_eq!(AttackKind::default(), AttackKind::Fdos);
    }

    /// The network statistics after `attack` ran alone on an 8×8 mesh for
    /// 3000 injecting cycles plus a 500-cycle drain.
    fn run_alone(mut attack: DosAttack) -> NetworkStats {
        let mut net = Network::new(NocConfig::mesh(8, 8));
        for c in 0..3_000 {
            attack.inject(&mut net, c);
            net.step();
        }
        net.run(500);
        net.stats().clone()
    }

    #[test]
    fn families_nest() {
        // A single-source Ddos is an Fdos: its only source has every turn.
        let single = vec![NodeId(63)];
        assert_eq!(
            run_alone(
                DosAttack::new(AttackKind::Ddos, single.clone(), NodeId(0), 0.5).with_seed(7)
            ),
            run_alone(DosAttack::new(AttackKind::Fdos, single, NodeId(0), 0.5).with_seed(7)),
        );
        // A Stealth attack without ramp or duty cycle is an Fdos.
        for attackers in [vec![NodeId(63)], vec![NodeId(63), NodeId(7)]] {
            let stealth = DosAttack::new(AttackKind::Stealth, attackers.clone(), NodeId(0), 0.5)
                .with_ramp(0)
                .with_duty(1, 1)
                .with_seed(7);
            let fdos = DosAttack::new(AttackKind::Fdos, attackers, NodeId(0), 0.5).with_seed(7);
            let (s, f) = (run_alone(stealth), run_alone(fdos));
            assert!(f.malicious_packets_received > 0);
            assert_eq!(s, f);
        }
    }
}
