//! Demonstrates the refined flooding DoS model: how the Flooding Injection
//! Rate (FIR) degrades a PARSEC-like workload's latency while normal
//! communication keeps flowing — the behaviour behind Figure 1.
//!
//! ```bash
//! cargo run --release --example attack_scenario
//! ```

use dl2fence_campaign::{runs_from_scenarios, Executor, SimParams};
use noc_monitor::ScenarioSpec;
use noc_sim::{NodeId, Topology};
use noc_traffic::{BenignWorkload, ParsecWorkload};

fn main() {
    let mesh = 8;
    let attacker = NodeId(mesh * mesh - 1);
    let workload = BenignWorkload::Parsec(ParsecWorkload::Bodytrack);
    let scenarios = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        .map(|fir| ScenarioSpec::attacked(workload, vec![attacker], NodeId(0), fir));
    let runs = runs_from_scenarios(11, &Topology::mesh(mesh, mesh), scenarios);
    // One 4 000-cycle window per FIR point, no samples kept.
    let sim = SimParams {
        warmup_cycles: 0,
        sample_period: 4_000,
        samples_per_run: 1,
        collect_samples: false,
        injection_queue_capacity: 512,
    };
    println!(
        "Flooding attack (node {} -> node 0) overlaid on a PARSEC-like Bodytrack workload",
        attacker.0
    );
    println!(
        "{:>5} {:>14} {:>14} {:>12} {:>12} {:>9}",
        "FIR", "pkt latency", "flit latency", "delivered", "created", "crashed"
    );
    for run in Executor::with_available_parallelism().execute_runs(&sim, &runs) {
        let m = &run.metrics;
        println!(
            "{:>5.1} {:>14.2} {:>14.2} {:>12} {:>12} {:>9}",
            run.spec.scenario.fir,
            m.packet_latency,
            m.flit_latency,
            m.packets_received,
            m.packets_created,
            if m.saturated { "yes" } else { "no" }
        );
    }
    println!();
    println!(
        "Benign traffic is never halted — it is only slowed down. 'crashed' marks runs\n\
         whose attacker injection queue saturated (the paper's 'system crashed' point)."
    );
}
