//! Regenerates **Table 1**: detection and localization metrics when both
//! tasks use the Virtual Channel Occupancy (VCO) feature, across the six
//! synthetic traffic patterns and the three PARSEC-like workloads.
//!
//! The `stp` and `parsec` specs each run as one campaign with the VCO/VCO
//! feature pair: the simulate→sample grid executes on the worker-pool
//! engine across every available core, and the campaign's eval phase
//! trains and scores the models.
//!
//! Run with `-- specs/paper` for the paper-scale 16×16 mesh.

use dl2fence_bench::{load_spec, print_table};

fn main() {
    let [stp, parsec] = ["stp", "parsec"].map(|name| {
        let mut spec = load_spec(name);
        spec.eval.detection_feature = "vco".into();
        spec.eval.localization_feature = "vco".into();
        spec
    });
    let topology = &stp.resolved_topologies().expect("loaded spec is valid")[0];
    println!(
        "Table 1 — VCO for detection and localization ({}x{} STP mesh, FIR {})",
        topology.rows(),
        topology.cols(),
        stp.grid.fir[0]
    );
    print_table("Table 1: VCO | VCO", &stp, &parsec);
    println!(
        "Paper reference (16x16): STP detection avg acc 0.98, localization avg acc 0.53;\n\
         PARSEC detection avg acc 0.93, localization avg acc 0.98.\n\
         Expected shape: VCO detects well everywhere but localizes poorly on\n\
         traffic-heavy STP and well on sparse PARSEC-like workloads."
    );
}
