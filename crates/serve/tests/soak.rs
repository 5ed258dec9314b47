//! The campaign-driven soak: table-style traffic through a live service,
//! asserting SLOs, accounting and bit-identical offline parity. The same
//! harness backs the `serve-soak-smoke` CI job via the CLI.

use dl2fence_campaign::CampaignSpec;
use dl2fence_serve::{run_soak, ServeConfig, SoakOptions};

/// The soak spec; `topology` sets `grid.topology`, otherwise the legacy
/// `grid.mesh = [4]` alias names the served shape.
fn soak_spec(topology: Option<&str>) -> CampaignSpec {
    let mut spec = CampaignSpec::quick("serve-soak-test");
    match topology {
        Some(name) => spec.grid.topology = vec![name.into()],
        None => spec.grid.mesh = vec![4],
    }
    spec.sim.warmup_cycles = 100;
    spec.sim.sample_period = 200;
    spec.sim.samples_per_run = 2;
    spec.eval.detector_epochs = 6;
    spec.eval.localizer_epochs = 4;
    spec
}

fn options() -> SoakOptions {
    SoakOptions {
        spec: soak_spec(None),
        config: ServeConfig {
            queue_capacity: 2,
            max_tenants: 4,
            workers: 2,
            batch_windows: 3,
        },
        tenants: 3,
        swap_mid_stream: true,
        // Generous: the SLO mechanism is under test, not this machine.
        max_p99_e2e_us: 60_000_000,
        sim_workers: 2,
    }
}

#[test]
fn f32_soak_passes_every_invariant() {
    let opts = SoakOptions {
        spec: soak_spec(Some("mesh4")),
        ..options()
    };
    let report = run_soak(&opts).expect("soak must run");
    assert!(report.passed(), "{}", report.render());
    assert_eq!(report.forced_rejections, 1);
    assert_eq!(report.verdicts_audited, report.windows_streamed);
    assert_eq!(report.swap_version, Some(1));
    assert_eq!(report.status.model_version, 1);
    let e2e = report.status.e2e.as_ref().expect("e2e populated");
    assert_eq!(e2e.count, report.windows_streamed as u64);
    assert_eq!(report.status.rejected_for("queue_full"), 1);
}

#[test]
fn a_non_mesh_topology_is_refused() {
    let opts = SoakOptions {
        spec: soak_spec(Some("torus4")),
        ..options()
    };
    let err = run_soak(&opts).expect_err("a torus cannot be served");
    assert!(err.contains("`torus4`"), "{err}");
    assert!(err.contains("XY-routed meshes"), "{err}");
}

#[test]
fn an_impossible_slo_is_reported_not_swallowed() {
    let mut opts = options();
    opts.swap_mid_stream = false;
    opts.max_p99_e2e_us = 0; // nothing real completes in 0µs
    let report = run_soak(&opts).expect("soak must run");
    assert!(!report.passed());
    assert!(
        report.failures.iter().any(|f| f.contains("SLO")),
        "{:?}",
        report.failures
    );
}
