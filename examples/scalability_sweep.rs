//! Scalability study: how the hardware overhead of DL2Fence's two global CNN
//! accelerators and the simulator's runtime cost evolve with mesh size —
//! the argument behind Figure 5 and the paper's scalability claim.
//!
//! ```bash
//! cargo run --release --example scalability_sweep
//! ```

use hw_overhead::{AreaModel, RouterParams};
use noc_sim::{NocConfig, NodeId};
use noc_traffic::{AttackKind, AttackScenario, DosAttack, SyntheticPattern};
use std::time::Instant;

fn main() {
    let model = AreaModel::new(RouterParams::default());
    println!(
        "{:>7} {:>14} {:>12} {:>16} {:>16}",
        "mesh", "NoC gates", "overhead", "sim cycles/s", "pkt latency"
    );
    for n in [4usize, 8, 16, 32] {
        // Simulate a short attacked window to measure simulator throughput
        // and the latency regime at this scale.
        let cycles = 1_000u64;
        let mut scenario = AttackScenario::builder(NocConfig::mesh(n, n))
            .benign(SyntheticPattern::UniformRandom, 0.02)
            .attack(DosAttack::new(
                AttackKind::Fdos,
                vec![NodeId(n * n - 1)],
                NodeId(0),
                0.8,
            ))
            .seed(5)
            .build();
        let start = Instant::now();
        scenario.run(cycles);
        let elapsed = start.elapsed().as_secs_f64();
        println!(
            "{:>4}x{:<2} {:>14.0} {:>11.2}% {:>16.0} {:>16.2}",
            n,
            n,
            model.noc_gates(n),
            model.dl2fence_overhead(n) * 100.0,
            cycles as f64 / elapsed,
            scenario.network().stats().packet_latency.mean()
        );
    }
    println!();
    println!(
        "DL2Fence's accelerators are global, so their area is constant while the NoC\n\
         grows quadratically: the overhead falls by {:.1}% from 8x8 to 16x16\n\
         (paper: 76.3%).",
        model.overhead_reduction(8, 16) * 100.0
    );
}
