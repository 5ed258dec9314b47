//! Extension experiment: energy / average power versus Flooding Injection
//! Rate, quantifying the paper's motivation that flooding DoS causes "a
//! surge in power consumption" alongside the latency impact of Figure 1.

use noc_sim::{EnergyModel, NocConfig, NodeId};
use noc_traffic::{AttackScenario, FloodingAttack, SyntheticPattern};

fn main() {
    let mesh = 8;
    let cycles = 5_000u64;
    let model = EnergyModel::new();
    println!(
        "Power vs FIR ({}x{} mesh, uniform-random benign workload, {} cycles/point)",
        mesh, mesh, cycles
    );
    println!(
        "{:>5} {:>14} {:>12} {:>12} {:>12} {:>12}",
        "FIR", "buffer ops", "buffer nJ", "link nJ", "total nJ", "avg mW"
    );
    for i in 0..=10 {
        let fir = i as f64 / 10.0;
        let mut builder = AttackScenario::builder(NocConfig::mesh(mesh, mesh))
            .benign(SyntheticPattern::UniformRandom, 0.02)
            .seed(0xCAFE);
        if fir > 0.0 {
            builder = builder.attack(FloodingAttack::new(
                vec![NodeId(mesh * mesh - 1)],
                NodeId(0),
                fir,
            ));
        }
        let mut scenario = builder.build();
        scenario.run(cycles);
        let stats = scenario.network().stats();
        let report = model.estimate(stats, mesh * mesh);
        println!(
            "{:>5.1} {:>14} {:>12.1} {:>12.1} {:>12.1} {:>12.3}",
            fir,
            stats.buffer_operations,
            report.buffer_nj,
            report.link_nj,
            report.total_nj,
            report.average_mw
        );
    }
    println!();
    println!("Expected shape: dynamic energy grows monotonically with FIR on top of a constant static floor.");
}
