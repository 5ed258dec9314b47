//! FIR latency sweep — the measurement behind the paper's Figure 1 (right):
//! packet/flit queue and end-to-end latencies as the Flooding Injection Rate
//! rises from 0 to 1, including the saturation ("system crashed") point.

use noc_sim::{NocConfig, NodeId};
use noc_traffic::{AttackKind, AttackScenario, BenignWorkload, DosAttack};
use serde::{Deserialize, Serialize};

/// Configuration of a FIR sweep experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FirSweepConfig {
    /// The NoC to simulate.
    pub noc: NocConfig,
    /// The benign workload overlaid by the attack.
    pub workload: BenignWorkload,
    /// Attacker node(s).
    pub attackers: Vec<NodeId>,
    /// Target victim node.
    pub victim: NodeId,
    /// The FIR values to sweep (typically `0.0, 0.1, …, 1.0`).
    pub firs: Vec<f64>,
    /// Cycles to simulate per FIR point.
    pub cycles: u64,
    /// Master seed.
    pub seed: u64,
}

impl FirSweepConfig {
    /// The sweep used for Figure 1: FIR 0.0–1.0 in steps of 0.1.
    pub fn figure1(
        noc: NocConfig,
        workload: BenignWorkload,
        attacker: NodeId,
        victim: NodeId,
    ) -> Self {
        FirSweepConfig {
            noc,
            workload,
            attackers: vec![attacker],
            victim,
            firs: (0..=10).map(|i| i as f64 / 10.0).collect(),
            cycles: 5_000,
            seed: 0xF1,
        }
    }
}

/// One point of the sweep: the four latency curves of Figure 1 plus the
/// saturation flag.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FirSweepPoint {
    /// The flooding injection rate of this run.
    pub fir: f64,
    /// Mean packet queueing latency (creation → head injection), cycles.
    pub packet_queue_latency: f64,
    /// Mean end-to-end packet latency, cycles.
    pub packet_latency: f64,
    /// Mean flit queueing latency, cycles.
    pub flit_queue_latency: f64,
    /// Mean end-to-end flit latency, cycles.
    pub flit_latency: f64,
    /// Whether an injection queue saturated (the "system crashed" condition).
    pub saturated: bool,
    /// Packets delivered during the run.
    pub packets_received: u64,
    /// Packets created during the run.
    pub packets_created: u64,
}

/// Runs the sweep and returns one point per FIR value, in the order given by
/// the configuration.
pub fn sweep_fir(config: &FirSweepConfig) -> Vec<FirSweepPoint> {
    config
        .firs
        .iter()
        .map(|&fir| {
            let mut builder = AttackScenario::builder(config.noc.clone())
                .workload(config.workload)
                .seed(config.seed);
            if fir > 0.0 {
                builder = builder.attack(DosAttack::new(
                    AttackKind::Fdos,
                    config.attackers.clone(),
                    config.victim,
                    fir,
                ));
            }
            let mut scenario = builder.build();
            scenario.run(config.cycles);
            let stats = scenario.network().stats();
            FirSweepPoint {
                fir,
                packet_queue_latency: stats.packet_queue_latency.mean(),
                packet_latency: stats.packet_latency.mean(),
                flit_queue_latency: stats.flit_queue_latency.mean(),
                flit_latency: stats.flit_latency.mean(),
                saturated: scenario.network().is_saturated(),
                packets_received: stats.packets_received,
                packets_created: stats.packets_created,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_traffic::SyntheticPattern;

    fn small_sweep(firs: Vec<f64>, cycles: u64) -> Vec<FirSweepPoint> {
        let config = FirSweepConfig {
            noc: NocConfig::mesh(4, 4).with_injection_queue_capacity(64),
            workload: BenignWorkload::Synthetic(SyntheticPattern::UniformRandom, 0.02),
            attackers: vec![NodeId(15)],
            victim: NodeId(0),
            firs,
            cycles,
            seed: 3,
        };
        sweep_fir(&config)
    }

    #[test]
    fn latency_rises_with_fir() {
        let points = small_sweep(vec![0.0, 0.4, 0.9], 3_000);
        assert_eq!(points.len(), 3);
        assert!(
            points[2].packet_latency > points[0].packet_latency,
            "FIR 0.9 latency {} should exceed FIR 0 latency {}",
            points[2].packet_latency,
            points[0].packet_latency
        );
        assert!(points[2].flit_latency >= points[2].flit_queue_latency * 0.0);
    }

    #[test]
    fn fir_one_saturates_the_source() {
        // FIR 1.0 creates one packet (5 flits) per cycle at a single NI that
        // can inject at most 1 flit per cycle — the queue must blow up.
        let points = small_sweep(vec![1.0], 2_000);
        assert!(
            points[0].saturated,
            "FIR 1.0 should saturate the attacker's queue"
        );
        assert!(points[0].packets_created > points[0].packets_received);
    }

    #[test]
    fn fir_zero_is_not_saturated() {
        let points = small_sweep(vec![0.0], 2_000);
        assert!(!points[0].saturated);
    }

    #[test]
    fn figure1_config_covers_eleven_points() {
        let cfg = FirSweepConfig::figure1(
            NocConfig::mesh(8, 8),
            BenignWorkload::Parsec(noc_traffic::ParsecWorkload::Blackscholes),
            NodeId(63),
            NodeId(0),
        );
        assert_eq!(cfg.firs.len(), 11);
        assert_eq!(cfg.firs[0], 0.0);
        assert_eq!(cfg.firs[10], 1.0);
    }
}
