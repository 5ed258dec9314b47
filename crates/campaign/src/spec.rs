//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] describes a whole batch of simulate→sample→detect→
//! localize experiments as a cartesian parameter grid: mesh sizes, flooding
//! injection rates, benign workloads, attack placements and replicate seeds.
//! Specs are plain data — they can be written as TOML (parsed by
//! [`crate::minitoml`]) or JSON, round-trip through `serde`, and expand into
//! a concrete run matrix via [`crate::grid::expand`].

use crate::minitoml;
use dl2fence::FenceConfig;
use noc_sim::{Topology, TopologyKind};
use noc_traffic::{AttackKind, BenignWorkload, ParsecWorkload, SyntheticPattern};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced while loading or validating a campaign spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign spec error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// Simulation parameters shared by every run of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct SimParams {
    /// Cycles simulated before the first sampling window.
    pub warmup_cycles: u64,
    /// Length of each sampling window in cycles.
    pub sample_period: u64,
    /// Sampling windows per run.
    pub samples_per_run: usize,
    /// Whether runs keep their labeled VCO/BOC samples (needed by the eval
    /// phase; costs memory on large campaigns).
    pub collect_samples: bool,
    /// Per-node injection queue capacity; `0` keeps the simulator default.
    pub injection_queue_capacity: usize,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            warmup_cycles: 200,
            sample_period: 400,
            samples_per_run: 2,
            collect_samples: false,
            injection_queue_capacity: 0,
        }
    }
}

/// The cartesian parameter grid of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct GridSpec {
    /// Topology axis names to sweep (`"mesh8"`, `"torus4"`, `"ring2x8"`,
    /// `"mesh4x8"` — see [`Topology::parse`]). Empty means `["mesh8"]`
    /// unless the deprecated `mesh` axis is set.
    pub topology: Vec<String>,
    /// **Deprecated** alias for `topology`: mesh sides to sweep (`8` means
    /// `"mesh8"`). Mutually exclusive with `topology`; spec files using it
    /// are rewritten to the `topology` axis at load time.
    pub mesh: Vec<usize>,
    /// Attack-family axis: `"fdos"` (flooding), `"ddos<k>"` (distributed,
    /// `k` round-robin sources, e.g. `"ddos2"`) and `"stealth"`
    /// (duty-cycled ramp-up). Empty means `["fdos"]`.
    pub attack: Vec<String>,
    /// Flooding injection rates of the attack runs.
    pub fir: Vec<f64>,
    /// Benign workload names (see [`parse_workload`]); aliases `"stp"`,
    /// `"parsec"` and `"all"` expand to the paper's benchmark groups.
    pub workloads: Vec<String>,
    /// Attack placements per (seed, mesh, workload, FIR) combination.
    pub attack_placements: usize,
    /// Attack-free runs per (seed, mesh, workload) combination.
    pub benign_runs: usize,
    /// Campaign master seeds; each replicates the whole grid.
    pub seeds: Vec<u64>,
    /// Benign injection rate used by synthetic workloads.
    pub injection_rate: f64,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec {
            topology: Vec::new(),
            mesh: Vec::new(),
            attack: Vec::new(),
            fir: vec![0.8],
            workloads: vec!["uniform".to_string()],
            attack_placements: 2,
            benign_runs: 1,
            seeds: vec![0xDAC],
            injection_rate: 0.02,
        }
    }
}

/// How the per-run results are grouped in the final report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ReportSpec {
    /// Grouping keys, applied in order. Valid keys: `workload`, `fir`,
    /// `mesh`, `topology`, `attack`, `seed`, `attackers`, `class`.
    pub group_by: Vec<String>,
}

impl Default for ReportSpec {
    fn default() -> Self {
        ReportSpec {
            group_by: vec!["workload".to_string(), "fir".to_string()],
        }
    }
}

/// The optional train/evaluate phase appended to a campaign (used by the
/// paper's table-style experiments). Requires `sim.collect_samples`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct EvalSpec {
    /// Whether the phase runs at all.
    pub enabled: bool,
    /// Fraction of samples used for training; the rest is the test set.
    pub train_fraction: f64,
    /// Detector training epochs.
    pub detector_epochs: usize,
    /// Localizer training epochs.
    pub localizer_epochs: usize,
    /// Feature driving detection: `"vco"` or `"boc"`.
    pub detection_feature: String,
    /// Feature driving localization: `"vco"` or `"boc"`.
    pub localization_feature: String,
}

impl Default for EvalSpec {
    fn default() -> Self {
        EvalSpec {
            enabled: false,
            train_fraction: 0.6,
            detector_epochs: 40,
            localizer_epochs: 40,
            detection_feature: "vco".to_string(),
            localization_feature: "boc".to_string(),
        }
    }
}

impl EvalSpec {
    /// The DL2Fence configuration this phase trains on a `rows × cols`
    /// frame geometry: the spec's feature pair and epoch counts, seeded
    /// with `seed` (the eval phase passes its geometry's first campaign
    /// seed). Every other field keeps [`FenceConfig::new`]'s paper default.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when either feature name is neither `vco`
    /// nor `boc`.
    pub fn fence_config(
        &self,
        rows: usize,
        cols: usize,
        seed: u64,
    ) -> Result<FenceConfig, SpecError> {
        Ok(FenceConfig {
            detection_feature: parse_feature(&self.detection_feature)?,
            localization_feature: parse_feature(&self.localization_feature)?,
            ..FenceConfig::new(rows, cols)
                .with_seed(seed)
                .with_epochs(self.detector_epochs, self.localizer_epochs)
        })
    }
}

/// A complete declarative campaign: grid, simulation parameters, report
/// grouping and the optional evaluation phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct CampaignSpec {
    /// Human-readable campaign name (appears in reports).
    pub name: String,
    /// Simulation parameters.
    pub sim: SimParams,
    /// The parameter grid.
    pub grid: GridSpec,
    /// Report grouping.
    pub report: ReportSpec,
    /// Optional train/evaluate phase.
    pub eval: EvalSpec,
}

impl Default for CampaignSpec {
    /// The defaults behind every optional spec section. The empty name is a
    /// deserialization fallback source only — `validate` rejects it.
    fn default() -> Self {
        CampaignSpec {
            name: String::new(),
            sim: SimParams::default(),
            grid: GridSpec::default(),
            report: ReportSpec::default(),
            eval: EvalSpec::default(),
        }
    }
}

impl CampaignSpec {
    /// A small ready-to-run campaign used by examples and tests.
    pub fn quick(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Parses a TOML campaign spec.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on malformed TOML, an unknown workload name,
    /// or an invalid parameter combination.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        let value = minitoml::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
        let mut spec: CampaignSpec =
            Deserialize::from_value(&value).map_err(|e| SpecError::new(e.to_string()))?;
        spec.normalize();
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a JSON campaign spec.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on malformed JSON, an unknown workload name,
    /// or an invalid parameter combination.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let mut spec: CampaignSpec =
            serde_json::from_str(text).map_err(|e| SpecError::new(e.to_string()))?;
        spec.normalize();
        spec.validate()?;
        Ok(spec)
    }

    /// Rewrites the deprecated `grid.mesh` axis into the equivalent
    /// `grid.topology` axis (`8` → `"mesh8"`), emitting a one-line
    /// deprecation note. Called on every spec loaded from a file, so a
    /// legacy spec and its `topology` rewrite become the same in-memory
    /// value — and therefore share a [`crate::stream::spec_fingerprint`]
    /// and produce byte-identical reports. A no-op when `grid.mesh` is
    /// empty or `grid.topology` is already set (the latter is rejected by
    /// [`Self::validate`]).
    pub fn normalize(&mut self) {
        if !self.grid.mesh.is_empty() && self.grid.topology.is_empty() {
            self.grid.topology = self.grid.mesh.iter().map(|m| format!("mesh{m}")).collect();
            self.grid.mesh.clear();
            eprintln!(
                "note: `grid.mesh` is deprecated; use `grid.topology = [{}]`",
                self.grid
                    .topology
                    .iter()
                    .map(|t| format!("{t:?}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
    }

    /// The fully resolved topology axis: `grid.topology` parsed into
    /// [`Topology`] instances, with the deprecated `grid.mesh` alias
    /// honoured and both-empty defaulting to a single 8×8 mesh.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if both axes are set, a name does not parse,
    /// or a topology is smaller than 2×2.
    pub fn resolved_topologies(&self) -> Result<Vec<Topology>, SpecError> {
        if !self.grid.mesh.is_empty() && !self.grid.topology.is_empty() {
            return Err(SpecError::new(
                "grid.mesh and grid.topology are mutually exclusive; grid.mesh is a \
                 deprecated alias — move its sides into grid.topology as \"mesh<N>\"",
            ));
        }
        let names: Vec<String> = if !self.grid.topology.is_empty() {
            self.grid.topology.clone()
        } else if !self.grid.mesh.is_empty() {
            self.grid.mesh.iter().map(|m| format!("mesh{m}")).collect()
        } else {
            vec!["mesh8".to_string()]
        };
        let mut out = Vec::with_capacity(names.len());
        for name in &names {
            let topology = Topology::parse(name).map_err(|e| SpecError::new(e.to_string()))?;
            if topology.rows() < 2 || topology.cols() < 2 {
                return Err(SpecError::new(format!(
                    "topology `{name}` is too small for a campaign (min 2x2)"
                )));
            }
            out.push(topology);
        }
        Ok(out)
    }

    /// The fully resolved attack-family axis; empty means `["fdos"]`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first unknown attack family.
    pub fn resolved_attacks(&self) -> Result<Vec<AttackAxis>, SpecError> {
        if self.grid.attack.is_empty() {
            return Ok(vec![AttackAxis::Fdos]);
        }
        self.grid.attack.iter().map(|n| parse_attack(n)).collect()
    }

    /// Loads a spec from a `.toml` or `.json` file, chosen by extension.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if the file cannot be read or parsed.
    pub fn from_path(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path.display())))?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Self::from_json(&text),
            _ => Self::from_toml(&text),
        }
    }

    /// The fully resolved benign workloads of the grid (aliases expanded).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first unknown workload.
    pub fn workloads(&self) -> Result<Vec<BenignWorkload>, SpecError> {
        let mut out = Vec::new();
        for name in &self.grid.workloads {
            match name.to_ascii_lowercase().as_str() {
                "stp" => out.extend(
                    SyntheticPattern::ALL
                        .into_iter()
                        .map(|p| BenignWorkload::Synthetic(p, self.grid.injection_rate)),
                ),
                "parsec" => out.extend(ParsecWorkload::ALL.into_iter().map(BenignWorkload::Parsec)),
                "all" => {
                    out.extend(
                        SyntheticPattern::ALL
                            .into_iter()
                            .map(|p| BenignWorkload::Synthetic(p, self.grid.injection_rate)),
                    );
                    out.extend(ParsecWorkload::ALL.into_iter().map(BenignWorkload::Parsec));
                }
                _ => out.push(parse_workload(name, self.grid.injection_rate)?),
            }
        }
        Ok(out)
    }

    /// Checks the invariants the engine relies on.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing the first violated invariant.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError::new("campaign name must not be empty"));
        }
        let topologies = self.resolved_topologies()?;
        for attack in self.resolved_attacks()? {
            let AttackAxis::Ddos { sources } = attack else {
                continue;
            };
            if let Some(t) = topologies.iter().find(|t| sources + 1 > t.node_count()) {
                return Err(SpecError::new(format!(
                    "attack family `{}` needs {} nodes (its sources plus a victim) but \
                     topology `{}` has only {}",
                    attack.name(),
                    sources + 1,
                    t.name(),
                    t.node_count()
                )));
            }
        }
        if self.grid.seeds.is_empty() {
            return Err(SpecError::new("grid.seeds must list at least one seed"));
        }
        if let Some(f) = self.grid.fir.iter().find(|&&f| !(0.0..=1.0).contains(&f)) {
            return Err(SpecError::new(format!("FIR {f} outside [0, 1]")));
        }
        if self.grid.attack_placements == 0 && self.grid.benign_runs == 0 {
            return Err(SpecError::new(
                "grid needs attack_placements > 0 or benign_runs > 0",
            ));
        }
        if !(0.0..=1.0).contains(&self.grid.injection_rate) {
            return Err(SpecError::new(format!(
                "injection_rate {} outside [0, 1]",
                self.grid.injection_rate
            )));
        }
        if self.sim.samples_per_run == 0 || self.sim.sample_period == 0 {
            return Err(SpecError::new(
                "sim.samples_per_run and sim.sample_period must be positive",
            ));
        }
        if self.eval.enabled {
            for topology in &topologies {
                require_mesh(topology)?;
            }
            if !self.sim.collect_samples {
                return Err(SpecError::new(
                    "eval.enabled requires sim.collect_samples = true",
                ));
            }
            if !(0.05..=0.95).contains(&self.eval.train_fraction) {
                return Err(SpecError::new(format!(
                    "eval.train_fraction {} outside [0.05, 0.95] (both partitions must be non-empty)",
                    self.eval.train_fraction
                )));
            }
            parse_feature(&self.eval.detection_feature)?;
            parse_feature(&self.eval.localization_feature)?;
        }
        self.workloads()?;
        validate_group_by(&self.report.group_by)?;
        Ok(())
    }
}

/// Refuses a topology DL2Fence cannot localize on.
///
/// The localization tail (direction masks, VCE, Table-Like Method) rests on
/// XY routing, which only meshes use, so the eval phase and the serve soak
/// train only on meshes.
///
/// # Errors
///
/// Returns a [`SpecError`] naming `topology` unless it is a mesh.
pub fn require_mesh(topology: &Topology) -> Result<(), SpecError> {
    if topology.kind() == TopologyKind::Mesh {
        return Ok(());
    }
    Err(SpecError::new(format!(
        "topology `{}` cannot train a localizer: DL2Fence localization assumes \
         XY-routed meshes",
        topology.name()
    )))
}

/// Checks that every report grouping key is one the engine can render —
/// shared by spec validation and [`crate::CampaignReport::from_runs`].
///
/// # Errors
///
/// Returns a [`SpecError`] naming the first unknown key.
pub fn validate_group_by(keys: &[String]) -> Result<(), SpecError> {
    for key in keys {
        if !matches!(
            key.as_str(),
            "workload" | "fir" | "mesh" | "topology" | "attack" | "seed" | "attackers" | "class"
        ) {
            return Err(SpecError::new(format!(
                "unknown report.group_by key `{key}` (expected \
                 workload/fir/mesh/topology/attack/seed/attackers/class)"
            )));
        }
    }
    Ok(())
}

/// One resolved attack-family axis value of the campaign grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackAxis {
    /// Flooding DoS: the catalog's single-/dual-attacker placements at the
    /// grid FIR.
    Fdos,
    /// Coordinated distributed DoS: `sources` attackers taking round-robin
    /// turns, sharing the grid FIR as an aggregate rate.
    Ddos {
        /// Number of coordinated sources per placement.
        sources: usize,
    },
    /// Duty-cycled ramp-up flooding that stays under the per-window FIR
    /// threshold.
    Stealth,
}

impl AttackAxis {
    /// The canonical spec-axis name (`"fdos"`, `"ddos2"`, `"stealth"`).
    pub fn name(&self) -> String {
        match self {
            AttackAxis::Fdos => "fdos".to_string(),
            AttackAxis::Ddos { sources } => format!("ddos{sources}"),
            AttackAxis::Stealth => "stealth".to_string(),
        }
    }

    /// The traffic-layer attack family this axis value selects.
    pub fn kind(&self) -> AttackKind {
        match self {
            AttackAxis::Fdos => AttackKind::Fdos,
            AttackAxis::Ddos { .. } => AttackKind::Ddos,
            AttackAxis::Stealth => AttackKind::Stealth,
        }
    }
}

/// Parses an attack-family axis name: `"fdos"`, `"stealth"`, or
/// `"ddos<k>"` with `k >= 2` coordinated sources (`"ddos"` alone means
/// `"ddos2"`).
///
/// # Errors
///
/// Returns a [`SpecError`] listing the valid families when `name` is
/// unknown or the source count is below 2.
pub fn parse_attack(name: &str) -> Result<AttackAxis, SpecError> {
    let canonical = name.trim().to_ascii_lowercase();
    match canonical.as_str() {
        "fdos" => return Ok(AttackAxis::Fdos),
        "stealth" => return Ok(AttackAxis::Stealth),
        _ => {}
    }
    if let Some(rest) = canonical.strip_prefix("ddos") {
        let sources: usize = if rest.is_empty() {
            2
        } else {
            rest.parse().map_err(|_| {
                SpecError::new(format!(
                    "unknown attack family `{name}` (expected fdos, ddos<k>, stealth)"
                ))
            })?
        };
        if sources < 2 {
            return Err(SpecError::new(format!(
                "distributed attack `{name}` needs at least 2 sources"
            )));
        }
        return Ok(AttackAxis::Ddos { sources });
    }
    Err(SpecError::new(format!(
        "unknown attack family `{name}` (expected fdos, ddos<k>, stealth)"
    )))
}

/// Resolves a workload name (`"uniform"`, `"tornado"`, `"shuffle"`,
/// `"neighbor"`, `"bit-rotation"`, `"bit-complement"`, `"blackscholes"`,
/// `"bodytrack"`, `"x264"`, `"idle"`) into a [`BenignWorkload`].
///
/// # Errors
///
/// Returns a [`SpecError`] listing the valid names when `name` is unknown.
pub fn parse_workload(name: &str, injection_rate: f64) -> Result<BenignWorkload, SpecError> {
    let canonical: String = name
        .to_ascii_lowercase()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect();
    let workload = match canonical.as_str() {
        "uniform" | "uniformrandom" => {
            BenignWorkload::Synthetic(SyntheticPattern::UniformRandom, injection_rate)
        }
        "tornado" => BenignWorkload::Synthetic(SyntheticPattern::Tornado, injection_rate),
        "shuffle" => BenignWorkload::Synthetic(SyntheticPattern::Shuffle, injection_rate),
        "neighbor" | "neighbour" => {
            BenignWorkload::Synthetic(SyntheticPattern::Neighbor, injection_rate)
        }
        "bitrotation" | "rotation" => {
            BenignWorkload::Synthetic(SyntheticPattern::BitRotation, injection_rate)
        }
        "bitcomplement" | "complement" => {
            BenignWorkload::Synthetic(SyntheticPattern::BitComplement, injection_rate)
        }
        "blackscholes" => BenignWorkload::Parsec(ParsecWorkload::Blackscholes),
        "bodytrack" => BenignWorkload::Parsec(ParsecWorkload::Bodytrack),
        "x264" => BenignWorkload::Parsec(ParsecWorkload::X264),
        "idle" => BenignWorkload::Idle,
        _ => {
            return Err(SpecError::new(format!(
                "unknown workload `{name}` (expected uniform, tornado, shuffle, neighbor, \
                 bit-rotation, bit-complement, blackscholes, bodytrack, x264, idle, \
                 or the aliases stp/parsec/all)"
            )))
        }
    };
    Ok(workload)
}

/// Resolves a feature name (`"vco"` / `"boc"`) for the eval phase.
///
/// # Errors
///
/// Returns a [`SpecError`] when `name` is neither feature.
pub fn parse_feature(name: &str) -> Result<noc_monitor::FeatureKind, SpecError> {
    match name.to_ascii_lowercase().as_str() {
        "vco" => Ok(noc_monitor::FeatureKind::Vco),
        "boc" => Ok(noc_monitor::FeatureKind::Boc),
        _ => Err(SpecError::new(format!(
            "unknown feature `{name}` (expected `vco` or `boc`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
        name = "demo"
        [sim]
        warmup_cycles = 100
        sample_period = 200
        samples_per_run = 2
        [grid]
        mesh = [4, 8]
        fir = [0.4, 0.8]
        workloads = ["uniform", "x264"]
        attack_placements = 2
        benign_runs = 1
        seeds = [1, 2]
        [report]
        group_by = ["workload", "fir"]
    "#;

    #[test]
    fn toml_spec_parses_and_validates() {
        let spec = CampaignSpec::from_toml(SPEC).unwrap();
        assert_eq!(spec.name, "demo");
        // Legacy mesh sides normalize into the topology axis at load time.
        assert_eq!(spec.grid.topology, vec!["mesh4", "mesh8"]);
        assert!(spec.grid.mesh.is_empty());
        assert_eq!(spec.grid.seeds, vec![1, 2]);
        assert_eq!(spec.sim.sample_period, 200);
        assert!(!spec.eval.enabled);
        assert_eq!(spec.workloads().unwrap().len(), 2);
    }

    #[test]
    fn json_round_trip_preserves_the_spec() {
        let spec = CampaignSpec::from_toml(SPEC).unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn omitted_optional_fields_fall_back_to_spec_defaults() {
        // Regression: `#[serde(default)]` must pull from the struct-level
        // defaults (injection_rate 0.02), not the field type's zero value —
        // otherwise benign synthetic workloads silently inject nothing.
        let spec = CampaignSpec::from_toml(
            "name = \"defaults\"\n[grid]\nmesh = [8]\nfir = [0.8]\nworkloads = [\"uniform\"]\n",
        )
        .unwrap();
        assert_eq!(spec.grid.injection_rate, GridSpec::default().injection_rate);
        assert_eq!(spec.grid.seeds, GridSpec::default().seeds);
        assert_eq!(spec.sim, SimParams::default());
        assert_eq!(spec.eval, EvalSpec::default());
        assert!(spec.grid.injection_rate > 0.0);
        match spec.workloads().unwrap()[0] {
            noc_traffic::BenignWorkload::Synthetic(_, rate) => assert_eq!(rate, 0.02),
            ref other => panic!("expected synthetic workload, got {other:?}"),
        }
    }

    #[test]
    fn aliases_expand_to_benchmark_groups() {
        let mut spec = CampaignSpec::quick("alias");
        spec.grid.workloads = vec!["stp".into(), "parsec".into()];
        assert_eq!(spec.workloads().unwrap().len(), 9);
        spec.grid.workloads = vec!["all".into()];
        assert_eq!(spec.workloads().unwrap().len(), 9);
    }

    #[test]
    fn topology_and_attack_axes_resolve() {
        let spec = CampaignSpec::from_toml(
            "name = \"axes\"\n[grid]\ntopology = [\"torus4\", \"ring2x8\", \"mesh4x8\"]\n\
             attack = [\"fdos\", \"ddos2\", \"stealth\"]\n",
        )
        .unwrap();
        let topologies = spec.resolved_topologies().unwrap();
        assert_eq!(
            topologies.iter().map(|t| t.name()).collect::<Vec<_>>(),
            vec!["torus4", "ring2x8", "mesh4x8"]
        );
        assert_eq!(
            spec.resolved_attacks().unwrap(),
            vec![
                AttackAxis::Fdos,
                AttackAxis::Ddos { sources: 2 },
                AttackAxis::Stealth
            ]
        );
    }

    #[test]
    fn empty_axes_default_to_mesh8_fdos() {
        let spec = CampaignSpec::quick("defaults");
        let topologies = spec.resolved_topologies().unwrap();
        assert_eq!(topologies.len(), 1);
        assert_eq!(topologies[0].name(), "mesh8");
        assert_eq!(spec.resolved_attacks().unwrap(), vec![AttackAxis::Fdos]);
    }

    #[test]
    fn both_mesh_and_topology_are_refused() {
        let err = CampaignSpec::from_toml(
            "name = \"both\"\n[grid]\nmesh = [4]\ntopology = [\"torus4\"]\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn attack_axis_names_parse_and_round_trip() {
        assert_eq!(parse_attack("fdos").unwrap(), AttackAxis::Fdos);
        assert_eq!(parse_attack("stealth").unwrap(), AttackAxis::Stealth);
        assert_eq!(
            parse_attack("ddos4").unwrap(),
            AttackAxis::Ddos { sources: 4 }
        );
        assert_eq!(
            parse_attack("ddos").unwrap(),
            AttackAxis::Ddos { sources: 2 }
        );
        for axis in [
            AttackAxis::Fdos,
            AttackAxis::Ddos { sources: 3 },
            AttackAxis::Stealth,
        ] {
            assert_eq!(parse_attack(&axis.name()).unwrap(), axis);
        }
        assert!(parse_attack("ddos1").is_err());
        assert!(parse_attack("teardrop").is_err());
    }

    #[test]
    fn ddos_with_more_sources_than_a_topology_holds_is_refused() {
        let mut spec = CampaignSpec::quick("crowded");
        spec.grid.topology = vec!["mesh4".into(), "mesh2".into()];
        spec.grid.attack = vec!["fdos".into(), "ddos9".into()];
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.starts_with("campaign spec error"), "{err}");
        assert!(err.contains("`ddos9`") && err.contains("`mesh2`"), "{err}");
        assert!(crate::expand(&spec).is_err());
        // Three sources plus a victim fill a 2x2 mesh exactly.
        spec.grid.attack = vec!["ddos3".into()];
        let runs = crate::expand(&spec).unwrap();
        assert!(runs
            .iter()
            .filter(|r| r.attack == "ddos3")
            .all(|r| r.scenario.attackers.len() == 3));
    }

    #[test]
    fn eval_on_a_non_mesh_topology_is_refused() {
        for name in ["torus4", "ring2x8"] {
            let mut spec = CampaignSpec::quick("wrapped");
            spec.grid.topology = vec!["mesh4".into(), name.into()];
            spec.eval.enabled = true;
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.starts_with("campaign spec error"), "{err}");
            assert!(err.contains(&format!("`{name}`")), "{err}");
            assert!(err.contains("XY-routed meshes"), "{err}");
            // Without the eval phase the same grid only simulates.
            spec.eval.enabled = false;
            spec.validate().unwrap();
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut spec = CampaignSpec::quick("bad");
        spec.grid.fir = vec![1.5];
        assert!(spec.validate().is_err());

        let mut spec = CampaignSpec::quick("bad");
        spec.grid.topology = vec!["hypercube4".into()];
        assert!(spec.validate().is_err());

        let mut spec = CampaignSpec::quick("bad");
        spec.grid.topology = vec!["mesh1".into()];
        assert!(spec.validate().is_err(), "sub-2x2 topologies are rejected");

        let mut spec = CampaignSpec::quick("bad");
        spec.grid.attack = vec!["smurf".into()];
        assert!(spec.validate().is_err());

        let mut spec = CampaignSpec::quick("bad");
        spec.grid.workloads = vec!["warcraft".into()];
        assert!(spec.validate().is_err());

        let mut spec = CampaignSpec::quick("bad");
        spec.eval.enabled = true; // collect_samples is false
        assert!(spec.validate().is_err());

        let mut spec = CampaignSpec::quick("bad");
        spec.report.group_by = vec!["phase_of_moon".into()];
        assert!(spec.validate().is_err());

        assert!(CampaignSpec::from_toml("name = 3").is_err());
    }

    #[test]
    fn workload_names_cover_the_paper_benchmarks() {
        for name in [
            "uniform",
            "tornado",
            "shuffle",
            "neighbor",
            "bit-rotation",
            "bit-complement",
            "blackscholes",
            "bodytrack",
            "x264",
        ] {
            assert!(parse_workload(name, 0.02).is_ok(), "{name} should parse");
        }
        assert!(parse_workload("quake", 0.02).is_err());
    }
}
