//! The three workloads: what each simulates, trains and serves, all derived
//! from the `--seed` argument.

use crate::stats::mix;
use dl2fence::FenceConfig;
use dl2fence_campaign::spec::parse_feature;
use dl2fence_campaign::CampaignSpec;
use dl2fence_serve::ServeConfig;

/// Which end-to-end operation a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeated streaming campaigns (`campaign::run_streaming`).
    Campaign,
    /// Rounds and capacity blocks through a live `DetectionService`.
    Serve,
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// The campaign (for `Serve`: the corpus campaign run during set-up).
    pub spec: CampaignSpec,
    /// Model trained by the traced core pass and, on `Serve`, served.
    pub model: FenceConfig,
    /// Train/test split fraction of the traced core pass.
    pub train_fraction: f64,
}

/// Tenants streaming into the service: the default `max_tenants`.
pub const TENANTS: usize = 8;

/// The service tuning every workload serves with: one pipeline worker (so
/// the benchmark's main thread plus one worker fit two vCPUs without
/// oversubscription) and the default ring/batch sizes.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 16,
        max_tenants: TENANTS,
        workers: 1,
        batch_windows: 8,
    }
}

pub const NAMES: [&str; 3] = ["sim16", "train8", "serve16"];

/// Builds variant `variant` of workload `name` for `seed`; `None` for an
/// unknown name. Variants differ only in their campaign seed.
pub fn build(name: &str, seed: u64, variant: u64) -> Option<Workload> {
    let campaign_seed = mix(seed, variant) >> 1;
    let (kind, toml, epochs) = match name {
        // 16x16 simulation: two benign patterns, light and flooding FIRs.
        "sim16" => (
            Kind::Campaign,
            format!(
                r#"
                name = "perfbench-sim16"
                [sim]
                warmup_cycles = 200
                sample_period = 400
                samples_per_run = 2
                collect_samples = true
                [grid]
                topology = ["mesh16"]
                fir = [0.2, 0.8]
                workloads = ["uniform", "tornado"]
                attack_placements = 4
                benign_runs = 2
                seeds = [{campaign_seed}]
                injection_rate = 0.02
                [report]
                group_by = ["workload", "fir"]
                "#
            ),
            (4, 2),
        ),
        // Table-1-shaped 8x8 campaign with the train/evaluate phase on:
        // STP and PARSEC-like workloads, FIR 0.8, VCO detection + BOC
        // localization.
        "train8" => (
            Kind::Campaign,
            format!(
                r#"
                name = "perfbench-train8"
                [sim]
                warmup_cycles = 200
                sample_period = 400
                samples_per_run = 2
                collect_samples = true
                [grid]
                topology = ["mesh8"]
                fir = [0.8]
                workloads = ["uniform", "tornado", "blackscholes", "x264"]
                attack_placements = 3
                benign_runs = 2
                seeds = [{campaign_seed}]
                injection_rate = 0.02
                [report]
                group_by = ["workload", "class"]
                [eval]
                enabled = true
                train_fraction = 0.6
                detector_epochs = 16
                localizer_epochs = 12
                detection_feature = "vco"
                localization_feature = "boc"
                "#
            ),
            (16, 12),
        ),
        // 16x16 online detection: the corpus the served model is trained on
        // and the windows the tenants stream.
        "serve16" => (
            Kind::Serve,
            format!(
                r#"
                name = "perfbench-serve16"
                [sim]
                warmup_cycles = 200
                sample_period = 400
                samples_per_run = 3
                collect_samples = true
                [grid]
                topology = ["mesh16"]
                fir = [0.8]
                workloads = ["uniform"]
                attack_placements = 6
                benign_runs = 3
                seeds = [{campaign_seed}]
                injection_rate = 0.02
                [report]
                group_by = ["workload", "class"]
                "#
            ),
            (60, 4),
        ),
        _ => return None,
    };
    let spec = CampaignSpec::from_toml(&toml).expect("built-in workload specs parse");
    let side = spec
        .resolved_topologies()
        .expect("built-in workload topologies parse")[0]
        .rows();
    let mut model = FenceConfig::new(side, side)
        .with_seed(campaign_seed)
        .with_epochs(epochs.0, epochs.1);
    model.detection_feature = parse_feature(&spec.eval.detection_feature).expect("vco");
    model.localization_feature = parse_feature(&spec.eval.localization_feature).expect("boc");
    Some(Workload {
        name: NAMES.into_iter().find(|n| *n == name)?,
        kind,
        train_fraction: spec.eval.train_fraction,
        spec,
        model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_and_seeds_its_spec() {
        for name in NAMES {
            let a = build(name, 1, 0).unwrap();
            let b = build(name, 2, 0).unwrap();
            let c = build(name, 1, 1).unwrap();
            assert_eq!(a.name, name);
            assert_eq!(a.spec, build(name, 1, 0).unwrap().spec);
            assert_ne!(a.spec.grid.seeds, b.spec.grid.seeds, "{name}");
            assert_ne!(a.spec.grid.seeds, c.spec.grid.seeds, "{name}");
            assert!(dl2fence_campaign::expand(&a.spec).unwrap().len() >= 6);
        }
        assert!(build("nope", 1, 0).is_none());
    }
}
