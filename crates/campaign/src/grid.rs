//! Cartesian grid expansion: a [`CampaignSpec`] becomes a concrete,
//! deterministically ordered and seeded run matrix.
//!
//! The expansion order is part of the engine's contract: run indices (and
//! therefore derived per-run seeds) depend only on the spec, never on thread
//! scheduling, which is what makes parallel and serial campaign execution
//! bit-identical.

use crate::spec::{AttackAxis, CampaignSpec, SpecError};
use noc_monitor::dataset::{attack_catalog, distributed_catalog};
use noc_monitor::ScenarioSpec;
use noc_sim::{Topology, TopologyError, TopologyKind};
use serde::{Deserialize, Serialize};

/// One fully resolved run of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Position in the expanded matrix (also the seed-derivation input).
    pub index: usize,
    /// The campaign master seed this run replicates.
    pub campaign_seed: u64,
    /// The derived per-run seed (see [`derive_run_seed`]).
    pub run_seed: u64,
    /// Row count of the topology (the legacy mesh side — square topologies
    /// keep `mesh × mesh` nodes, and frame geometry derives from it).
    pub mesh: usize,
    /// Canonical topology axis name (`"mesh8"`, `"torus4"`, `"ring2x8"`).
    pub topology: String,
    /// Attack-family axis name (`"fdos"`, `"ddos2"`, `"stealth"`; `"none"`
    /// for attack-free runs).
    pub attack: String,
    /// Benchmark name of the benign workload.
    pub workload: String,
    /// The scenario to simulate (workload, attackers, victim, FIR).
    pub scenario: ScenarioSpec,
}

impl RunSpec {
    /// Whether this run contains an attack.
    pub fn is_attack(&self) -> bool {
        self.scenario.is_attack()
    }

    /// The topology this run simulates. An empty name comes from a
    /// hand-built run of the pre-topology era and keeps its legacy meaning:
    /// a `mesh × mesh` mesh.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if the name does not parse, or the
    /// legacy side is zero.
    pub fn topology(&self) -> Result<Topology, TopologyError> {
        if self.topology.is_empty() {
            Topology::new(TopologyKind::Mesh, self.mesh, self.mesh)
        } else {
            Topology::parse(&self.topology)
        }
    }
}

/// Derives the master seed of run `index` from the campaign seed.
///
/// splitmix64 over the campaign seed plus the golden-ratio-scaled index:
/// statistically independent streams per run, reproducible from the spec
/// alone, and independent of which worker thread executes the run.
pub fn derive_run_seed(campaign_seed: u64, index: usize) -> u64 {
    let mut z = campaign_seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expands a spec into its run matrix.
///
/// For every `(seed, topology, workload)` combination the matrix contains
/// `grid.benign_runs` attack-free runs followed, for every FIR value and
/// every attack family, by `grid.attack_placements` attacked runs whose
/// placements come from the shared deterministic [`attack_catalog`] (fdos,
/// stealth) or [`distributed_catalog`] (ddos). A legacy single-family
/// mesh-only spec therefore expands to exactly the sequence it always did.
///
/// # Errors
///
/// Returns a [`SpecError`] if the spec fails validation.
pub fn expand(spec: &CampaignSpec) -> Result<Vec<RunSpec>, SpecError> {
    spec.validate()?;
    let workloads = spec.workloads()?;
    let topologies = spec.resolved_topologies()?;
    let attacks = spec.resolved_attacks()?;
    let mut runs = Vec::new();
    for &campaign_seed in &spec.grid.seeds {
        for topology in &topologies {
            let (name, rows, cols) = (topology.name(), topology.rows(), topology.cols());
            for workload in &workloads {
                for _ in 0..spec.grid.benign_runs {
                    push_run(
                        &mut runs,
                        campaign_seed,
                        rows,
                        name.clone(),
                        "none".to_string(),
                        ScenarioSpec::benign(*workload),
                    );
                }
                for &fir in &spec.grid.fir {
                    if fir == 0.0 {
                        // FIR 0 is an attack-free point (Figure-1 style
                        // sweeps include it); one run, no placements.
                        push_run(
                            &mut runs,
                            campaign_seed,
                            rows,
                            name.clone(),
                            "none".to_string(),
                            ScenarioSpec::benign(*workload),
                        );
                        continue;
                    }
                    for axis in &attacks {
                        let placements = match axis {
                            AttackAxis::Ddos { sources } => distributed_catalog(
                                rows,
                                cols,
                                spec.grid.attack_placements,
                                *sources,
                                fir,
                            ),
                            AttackAxis::Fdos | AttackAxis::Stealth => {
                                attack_catalog(rows, cols, spec.grid.attack_placements, fir)
                            }
                        };
                        for (attackers, victim, fir) in placements {
                            push_run(
                                &mut runs,
                                campaign_seed,
                                rows,
                                name.clone(),
                                axis.name(),
                                ScenarioSpec::attacked(*workload, attackers, victim, fir)
                                    .with_attack(axis.kind()),
                            );
                        }
                    }
                }
            }
        }
    }
    Ok(runs)
}

/// Builds a run matrix directly from explicit scenarios (all on the same
/// `topology`), with the engine's index order and seed derivation.
///
/// This is the low-level entry point for harnesses that already know their
/// exact scenario list (e.g. the paper's fixed attacker placements) and only
/// want the engine's parallel execution and determinism guarantees.
pub fn runs_from_scenarios(
    campaign_seed: u64,
    topology: &Topology,
    scenarios: impl IntoIterator<Item = ScenarioSpec>,
) -> Vec<RunSpec> {
    let mut runs = Vec::new();
    for scenario in scenarios {
        let attack = if scenario.is_attack() {
            scenario.attack.name().to_string()
        } else {
            "none".to_string()
        };
        push_run(
            &mut runs,
            campaign_seed,
            topology.rows(),
            topology.name(),
            attack,
            scenario,
        );
    }
    runs
}

fn push_run(
    runs: &mut Vec<RunSpec>,
    campaign_seed: u64,
    mesh: usize,
    topology: String,
    attack: String,
    scenario: ScenarioSpec,
) {
    let index = runs.len();
    runs.push(RunSpec {
        index,
        campaign_seed,
        run_seed: derive_run_seed(campaign_seed, index),
        mesh,
        topology,
        attack,
        workload: scenario.workload.name(),
        scenario,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_matches_the_grid_arithmetic() {
        let mut spec = CampaignSpec::quick("count");
        spec.grid.mesh = vec![4, 8];
        spec.grid.fir = vec![0.4, 0.8];
        spec.grid.workloads = vec!["uniform".into(), "tornado".into()];
        spec.grid.attack_placements = 3;
        spec.grid.benign_runs = 2;
        spec.grid.seeds = vec![7, 8];
        let runs = expand(&spec).unwrap();
        // seeds × mesh × workloads × (benign + firs × placements)
        assert_eq!(runs.len(), 2 * 2 * 2 * (2 + 2 * 3));
        assert_eq!(
            runs.iter().filter(|r| !r.is_attack()).count(),
            2 * 2 * 2 * 2
        );
        // Indices are dense and in order.
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.index, i);
            assert_eq!(run.run_seed, derive_run_seed(run.campaign_seed, i));
        }
    }

    #[test]
    fn fir_zero_expands_to_a_single_benign_point() {
        let mut spec = CampaignSpec::quick("fir0");
        spec.grid.fir = vec![0.0, 0.5];
        spec.grid.attack_placements = 4;
        spec.grid.benign_runs = 0;
        let runs = expand(&spec).unwrap();
        assert_eq!(runs.len(), 1 + 4);
        assert_eq!(runs.iter().filter(|r| r.is_attack()).count(), 4);
    }

    #[test]
    fn expansion_is_deterministic() {
        let spec = CampaignSpec::quick("det");
        assert_eq!(expand(&spec).unwrap(), expand(&spec).unwrap());
    }

    #[test]
    fn derived_seeds_are_distinct_across_runs_and_seeds() {
        let mut seen = std::collections::HashSet::new();
        for campaign_seed in [0u64, 1, 0xDAC] {
            for index in 0..100 {
                assert!(seen.insert(derive_run_seed(campaign_seed, index)));
            }
        }
    }

    #[test]
    fn invalid_spec_fails_expansion() {
        // Setting both the deprecated mesh axis and the topology axis is
        // ambiguous and must be refused.
        let mut spec = CampaignSpec::quick("bad");
        spec.grid.mesh = vec![4];
        spec.grid.topology = vec!["torus4".into()];
        assert!(expand(&spec).is_err());
    }

    #[test]
    fn legacy_mesh_axis_expands_identically_to_its_topology_rewrite() {
        let mut legacy = CampaignSpec::quick("compat");
        legacy.grid.mesh = vec![4, 8];
        legacy.grid.fir = vec![0.4, 0.8];
        legacy.grid.attack_placements = 3;
        let mut rewrite = legacy.clone();
        rewrite.grid.mesh = vec![];
        rewrite.grid.topology = vec!["mesh4".into(), "mesh8".into()];
        assert_eq!(expand(&legacy).unwrap(), expand(&rewrite).unwrap());
    }

    #[test]
    fn topology_and_attack_axes_multiply_the_matrix() {
        let mut spec = CampaignSpec::quick("axes");
        spec.grid.topology = vec!["mesh4".into(), "torus4".into(), "ring2x8".into()];
        spec.grid.attack = vec!["fdos".into(), "ddos2".into(), "stealth".into()];
        spec.grid.fir = vec![0.8];
        spec.grid.attack_placements = 2;
        spec.grid.benign_runs = 1;
        let runs = expand(&spec).unwrap();
        // topologies × (benign + firs × attacks × placements)
        assert_eq!(runs.len(), 3 * (1 + 3 * 2));
        for run in &runs {
            assert!(["mesh4", "torus4", "ring2x8"].contains(&run.topology.as_str()));
            if run.is_attack() {
                assert!(["fdos", "ddos2", "stealth"].contains(&run.attack.as_str()));
            } else {
                assert_eq!(run.attack, "none");
            }
        }
        let ddos: Vec<_> = runs.iter().filter(|r| r.attack == "ddos2").collect();
        assert_eq!(ddos.len(), 3 * 2);
        for run in ddos {
            assert_eq!(run.scenario.attackers.len(), 2, "ddos2 places 2 sources");
            assert_eq!(run.scenario.attack, noc_traffic::AttackKind::Ddos);
        }
        assert!(runs
            .iter()
            .filter(|r| r.attack == "stealth")
            .all(|r| r.scenario.attack == noc_traffic::AttackKind::Stealth));
    }

    #[test]
    fn ring_runs_record_non_square_geometry() {
        let mut spec = CampaignSpec::quick("ring");
        spec.grid.topology = vec!["ring2x8".into()];
        let runs = expand(&spec).unwrap();
        assert!(!runs.is_empty());
        for run in &runs {
            assert_eq!(run.topology, "ring2x8");
            assert_eq!(run.mesh, 2, "mesh records the row count");
        }
    }
}
