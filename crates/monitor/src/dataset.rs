//! Dataset generation: run attack scenarios, sample labeled feature frames.
//!
//! The paper collects 162 runs (18 attack placements × 9 benchmarks) at
//! FIR 0.8, sampling VCO every 1 000 cycles for the synthetic patterns. This
//! module reproduces that collection procedure at a configurable scale so the
//! benchmark harness can trade run time against dataset size.

use crate::frame::DirectionalFrames;
use crate::label::GroundTruth;
use crate::sampler::FrameSampler;
use noc_sim::{NocConfig, NodeId};
use noc_traffic::{AttackKind, AttackScenario, BenignWorkload, DosAttack};
use serde::{Deserialize, Serialize};

/// One simulation run to collect samples from: a benign workload plus an
/// optional DoS attack of any family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The benign workload.
    pub workload: BenignWorkload,
    /// Attacker nodes; empty means an attack-free run.
    pub attackers: Vec<NodeId>,
    /// The target victim (ignored when `attackers` is empty).
    pub victim: NodeId,
    /// The flooding injection rate (peak/aggregate, depending on `attack`).
    pub fir: f64,
    /// Which attack family the attackers mount (ignored when benign).
    pub attack: AttackKind,
}

impl ScenarioSpec {
    /// An attack-free run of `workload`.
    pub fn benign(workload: BenignWorkload) -> Self {
        ScenarioSpec {
            workload,
            attackers: Vec::new(),
            victim: NodeId(0),
            fir: 0.0,
            attack: AttackKind::Fdos,
        }
    }

    /// A run of `workload` with a flooding attack overlaid.
    pub fn attacked(
        workload: BenignWorkload,
        attackers: Vec<NodeId>,
        victim: NodeId,
        fir: f64,
    ) -> Self {
        ScenarioSpec {
            workload,
            attackers,
            victim,
            fir,
            attack: AttackKind::Fdos,
        }
    }

    /// Switches the attack family mounted by the attackers.
    pub fn with_attack(mut self, attack: AttackKind) -> Self {
        self.attack = attack;
        self
    }

    /// Whether this run contains an attack.
    pub fn is_attack(&self) -> bool {
        !self.attackers.is_empty() && self.fir > 0.0
    }

    /// Builds the runnable scenario on `config`, seeded with `seed`.
    pub fn build(&self, config: NocConfig, seed: u64) -> AttackScenario {
        let mut builder = AttackScenario::builder(config)
            .workload(self.workload)
            .seed(seed);
        if self.is_attack() {
            builder = builder.attack(DosAttack::new(
                self.attack,
                self.attackers.clone(),
                self.victim,
                self.fir,
            ));
        }
        builder.build()
    }
}

/// One labeled observation: the VCO and BOC frame bundles sampled at the end
/// of a monitoring window, plus the ground truth of the run they came from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledSample {
    /// VCO frames at the sampling instant.
    pub vco: DirectionalFrames,
    /// BOC frames accumulated over the sampling window.
    pub boc: DirectionalFrames,
    /// Ground-truth labels.
    pub truth: GroundTruth,
    /// Name of the benign benchmark this sample came from.
    pub benchmark: String,
}

/// How to run and sample the collection.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionConfig {
    /// NoC configuration for every run.
    pub noc: NocConfig,
    /// Cycles simulated before the first sample (lets congestion develop).
    pub warmup_cycles: u64,
    /// Length of each sampling window in cycles (the paper uses 1 000 for
    /// STP and 100 000 for PARSEC; smaller windows keep run times short).
    pub sample_period: u64,
    /// Number of windows (and therefore samples) per run.
    pub samples_per_run: usize,
    /// Master seed for all scenario RNGs.
    pub seed: u64,
}

impl CollectionConfig {
    /// A small default collection on the given NoC configuration: 200-cycle
    /// warm-up, 500-cycle windows, 4 samples per run.
    pub fn quick(noc: NocConfig) -> Self {
        CollectionConfig {
            noc,
            warmup_cycles: 200,
            sample_period: 500,
            samples_per_run: 4,
            seed: 0x5EED,
        }
    }
}

/// Generates labeled datasets by running scenario specifications.
#[derive(Debug, Clone)]
pub struct DatasetGenerator {
    config: CollectionConfig,
}

impl DatasetGenerator {
    /// Creates a generator with the given collection configuration.
    pub fn new(config: CollectionConfig) -> Self {
        DatasetGenerator { config }
    }

    /// The collection configuration.
    pub fn config(&self) -> &CollectionConfig {
        &self.config
    }

    /// Runs one scenario spec and returns its labeled samples.
    pub fn collect_run(&self, spec: &ScenarioSpec, run_seed: u64) -> Vec<LabeledSample> {
        let mut scenario = spec.build(self.config.noc.clone(), run_seed);
        let truth = GroundTruth::of_scenario(&scenario);
        let benchmark = spec.workload.name();
        scenario.run(self.config.warmup_cycles);
        scenario.network_mut().reset_boc();
        let mut samples = Vec::with_capacity(self.config.samples_per_run);
        for _ in 0..self.config.samples_per_run {
            scenario.run(self.config.sample_period);
            let (vco, boc) = FrameSampler::sample_both(scenario.network());
            scenario.network_mut().reset_boc();
            samples.push(LabeledSample {
                vco,
                boc,
                truth: truth.clone(),
                benchmark: benchmark.clone(),
            });
        }
        samples
    }

    /// Runs every spec (deriving one sub-seed per run) and concatenates the
    /// samples.
    pub fn collect(&self, specs: &[ScenarioSpec]) -> Vec<LabeledSample> {
        specs
            .iter()
            .enumerate()
            .flat_map(|(i, spec)| self.collect_run(spec, self.config.seed.wrapping_add(i as u64)))
            .collect()
    }
}

/// Deterministically generates `count` attack placements (alternating one-
/// and two-attacker configurations spread across the mesh) at the given FIR
/// — the reproduction of the paper's "18 attack scenarios".
///
/// Placements keep attackers distinct from the victim and inside the mesh.
pub fn attack_catalog(
    rows: usize,
    cols: usize,
    count: usize,
    fir: f64,
) -> Vec<(Vec<NodeId>, NodeId, f64)> {
    let n = rows * cols;
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        // Spread victims over the mesh with a fixed stride.
        let victim = NodeId((i * 37 + 5) % n);
        let a1 = NodeId((victim.0 + (i + 1) * (cols + 1) + 1) % n);
        if i % 2 == 0 {
            // Single attacker.
            let attacker = if a1 == victim {
                NodeId((a1.0 + 1) % n)
            } else {
                a1
            };
            out.push((vec![attacker], victim, fir));
        } else {
            // Two attackers.
            let mut a2 = NodeId((victim.0 + n / 2 + i) % n);
            if a2 == victim || a2 == a1 {
                a2 = NodeId((a2.0 + 3) % n);
            }
            let a1 = if a1 == victim {
                NodeId((a1.0 + 2) % n)
            } else {
                a1
            };
            if a1 == a2 || a1 == victim || a2 == victim {
                // Extremely small meshes: fall back to a fixed safe pattern.
                let attacker = NodeId((victim.0 + 1) % n);
                out.push((vec![attacker], victim, fir));
            } else {
                out.push((vec![a1, a2], victim, fir));
            }
        }
    }
    out
}

/// Deterministically generates `count` coordinated multi-source placements
/// for a distributed DoS campaign: each placement spreads `sources`
/// attackers across the topology around a strided victim (per the
/// topology-aware distributed-DoS threat model of Weerasena et al. 2025).
///
/// Placements keep attackers distinct from each other and from the victim;
/// on topologies with fewer than `sources + 1` nodes the source count is
/// clamped.
///
/// # Panics
///
/// Panics if `sources` is zero or the topology has fewer than two nodes.
pub fn distributed_catalog(
    rows: usize,
    cols: usize,
    count: usize,
    sources: usize,
    fir: f64,
) -> Vec<(Vec<NodeId>, NodeId, f64)> {
    let n = rows * cols;
    assert!(
        sources > 0,
        "a distributed attack needs at least one source"
    );
    assert!(
        n >= 2,
        "need at least two nodes for an attacker and a victim"
    );
    let k = sources.min(n - 1);
    let stride = (n / (k + 1)).max(1);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let victim = NodeId((i * 37 + 5) % n);
        let mut attackers: Vec<NodeId> = Vec::with_capacity(k);
        let mut cursor = victim.0;
        for j in 0..k {
            cursor = (cursor + stride + i + j) % n;
            // Probe past the victim and already-chosen sources.
            while cursor == victim.0 || attackers.contains(&NodeId(cursor)) {
                cursor = (cursor + 1) % n;
            }
            attackers.push(NodeId(cursor));
        }
        out.push((attackers, victim, fir));
    }
    out
}

/// Builds the full list of scenario specs for one benchmark: `attacks`
/// attack placements plus `benign_runs` attack-free runs (needed so the
/// detector sees both classes).
pub fn specs_for_benchmark(
    workload: BenignWorkload,
    rows: usize,
    cols: usize,
    attacks: usize,
    benign_runs: usize,
    fir: f64,
) -> Vec<ScenarioSpec> {
    let mut specs: Vec<ScenarioSpec> = attack_catalog(rows, cols, attacks, fir)
        .into_iter()
        .map(|(attackers, victim, fir)| ScenarioSpec::attacked(workload, attackers, victim, fir))
        .collect();
    for _ in 0..benign_runs {
        specs.push(ScenarioSpec::benign(workload));
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_traffic::SyntheticPattern;

    fn quick_config() -> CollectionConfig {
        CollectionConfig {
            noc: NocConfig::mesh(4, 4),
            warmup_cycles: 100,
            sample_period: 200,
            samples_per_run: 2,
            seed: 1,
        }
    }

    #[test]
    fn benign_spec_is_not_attack() {
        let spec = ScenarioSpec::benign(BenignWorkload::Synthetic(
            SyntheticPattern::UniformRandom,
            0.02,
        ));
        assert!(!spec.is_attack());
    }

    #[test]
    fn collect_run_yields_requested_sample_count() {
        let gen = DatasetGenerator::new(quick_config());
        let spec = ScenarioSpec::attacked(
            BenignWorkload::Synthetic(SyntheticPattern::UniformRandom, 0.02),
            vec![NodeId(15)],
            NodeId(0),
            0.8,
        );
        let samples = gen.collect_run(&spec, 7);
        assert_eq!(samples.len(), 2);
        for s in &samples {
            assert!(s.truth.under_attack);
            assert_eq!(s.vco.rows(), 4);
            assert_eq!(s.benchmark, "Uniform Random");
            assert!(s.boc.max_value() > 0.0, "attack run must produce traffic");
        }
    }

    #[test]
    fn benign_and_attack_samples_are_labeled_differently() {
        let gen = DatasetGenerator::new(quick_config());
        let workload = BenignWorkload::Synthetic(SyntheticPattern::Tornado, 0.03);
        let specs = vec![
            ScenarioSpec::benign(workload),
            ScenarioSpec::attacked(workload, vec![NodeId(3)], NodeId(0), 0.9),
        ];
        let samples = gen.collect(&specs);
        assert_eq!(samples.len(), 4);
        assert!(samples[..2].iter().all(|s| !s.truth.under_attack));
        assert!(samples[2..].iter().all(|s| s.truth.under_attack));
    }

    #[test]
    fn attack_catalog_produces_valid_placements() {
        for (attackers, victim, fir) in attack_catalog(8, 8, 18, 0.8) {
            assert!(!attackers.is_empty() && attackers.len() <= 2);
            assert!(!attackers.contains(&victim));
            assert!(victim.0 < 64);
            assert!(attackers.iter().all(|a| a.0 < 64));
            assert_eq!(fir, 0.8);
            if attackers.len() == 2 {
                assert_ne!(attackers[0], attackers[1]);
            }
        }
    }

    #[test]
    fn attack_catalog_has_both_single_and_double_attackers() {
        let catalog = attack_catalog(16, 16, 18, 0.8);
        assert_eq!(catalog.len(), 18);
        assert!(catalog.iter().any(|(a, _, _)| a.len() == 1));
        assert!(catalog.iter().any(|(a, _, _)| a.len() == 2));
    }

    #[test]
    fn specs_for_benchmark_mixes_classes() {
        let specs = specs_for_benchmark(
            BenignWorkload::Synthetic(SyntheticPattern::Shuffle, 0.02),
            8,
            8,
            6,
            2,
            0.8,
        );
        assert_eq!(specs.len(), 8);
        assert_eq!(specs.iter().filter(|s| s.is_attack()).count(), 6);
        assert_eq!(specs.iter().filter(|s| !s.is_attack()).count(), 2);
    }

    #[test]
    fn catalog_works_on_tiny_meshes() {
        for (attackers, victim, _) in attack_catalog(2, 2, 6, 0.5) {
            assert!(!attackers.contains(&victim));
            assert!(attackers.iter().all(|a| a.0 < 4));
        }
    }

    #[test]
    fn distributed_catalog_produces_valid_placements() {
        let catalog = distributed_catalog(8, 8, 12, 4, 0.8);
        assert_eq!(catalog.len(), 12);
        for (attackers, victim, fir) in catalog {
            assert_eq!(attackers.len(), 4);
            assert!(!attackers.contains(&victim));
            assert!(victim.0 < 64);
            assert!(attackers.iter().all(|a| a.0 < 64));
            let mut unique = attackers.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), attackers.len(), "sources must be distinct");
            assert_eq!(fir, 0.8);
        }
    }

    #[test]
    fn distributed_catalog_clamps_sources_on_tiny_meshes() {
        for (attackers, victim, _) in distributed_catalog(2, 2, 6, 8, 0.5) {
            assert_eq!(attackers.len(), 3, "2x2 holds at most 3 sources");
            assert!(!attackers.contains(&victim));
            assert!(attackers.iter().all(|a| a.0 < 4));
        }
    }

    #[test]
    fn scenario_spec_dispatches_attack_families() {
        let workload = BenignWorkload::Synthetic(SyntheticPattern::UniformRandom, 0.01);
        let attackers = vec![NodeId(3), NodeId(12)];
        for kind in [AttackKind::Fdos, AttackKind::Ddos, AttackKind::Stealth] {
            let spec = ScenarioSpec::attacked(workload, attackers.clone(), NodeId(0), 0.8)
                .with_attack(kind);
            assert!(spec.is_attack());
            let scenario = spec.build(NocConfig::mesh(4, 4), 7);
            assert_eq!(scenario.attacks().len(), 1);
            assert_eq!(scenario.attacks()[0].kind(), kind);
            assert_eq!(scenario.attacker_nodes(), vec![NodeId(3), NodeId(12)]);
        }
    }
}
