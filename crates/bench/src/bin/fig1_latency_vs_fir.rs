//! Regenerates **Figure 1 (right)**: packet/flit queue and end-to-end
//! latencies as the Flooding Injection Rate (FIR) rises from 0 to 1, with
//! the saturation ("system crashed") point at FIR = 1.
//!
//! The eleven FIR points are independent simulations, so the sweep runs as a
//! campaign on the `dl2fence-campaign` worker-pool executor — one run per
//! point, all cores busy, deterministic output for any worker count.
//!
//! The mesh, workload, seed, sim parameters and FIR list come from the
//! `fir_sweep` spec; run with `-- specs/paper` for 20 000 cycles per point.

use dl2fence_bench::load_spec;
use dl2fence_campaign::{runs_from_scenarios, CampaignReport, Executor};
use noc_monitor::ScenarioSpec;
use noc_sim::NodeId;
use std::time::Instant;

fn main() {
    let spec = load_spec("fir_sweep");
    let mesh = spec.resolved_topologies().expect("loaded spec is valid")[0].rows();
    let workload = spec.workloads().expect("loaded spec is valid")[0];
    let attacker = NodeId(mesh * mesh - 1);
    let victim = NodeId(0);

    // One scenario per FIR point: the paper's corner-to-corner flooding
    // attack overlaid on the benign workload (FIR 0 = no attack).
    let scenarios = spec.grid.fir.iter().map(|&fir| {
        if fir == 0.0 {
            ScenarioSpec::benign(workload)
        } else {
            ScenarioSpec::attacked(workload, vec![attacker], victim, fir)
        }
    });
    let runs = runs_from_scenarios(spec.grid.seeds[0], mesh, scenarios);

    let executor = Executor::with_available_parallelism();
    println!(
        "Figure 1 — latency vs FIR ({}x{} mesh, PARSEC-like benign workload, {} cycles/point, {} workers)",
        mesh,
        mesh,
        spec.sim.sample_period,
        executor.workers()
    );
    let started = Instant::now();
    let results = executor.execute_runs(&spec.sim, &runs);
    let elapsed = started.elapsed();

    println!(
        "{:>5} {:>18} {:>15} {:>18} {:>13} {:>10}",
        "FIR", "pkt queue lat", "pkt latency", "flit queue lat", "flit latency", "crashed"
    );
    for r in &results {
        println!(
            "{:>5.1} {:>18.2} {:>15.2} {:>18.2} {:>13.2} {:>10}",
            r.spec.scenario.fir,
            r.metrics.packet_queue_latency,
            r.metrics.packet_latency,
            r.metrics.flit_queue_latency,
            r.metrics.flit_latency,
            if r.metrics.saturated { "yes" } else { "no" }
        );
    }
    let report = CampaignReport::from_runs("fig1_latency_vs_fir", vec!["fir".into()], &results)
        .expect("fir is a valid grouping key");
    println!(
        "\n{} runs in {:.2}s ({:.1} runs/s); grouped report: {} groups",
        report.total_runs,
        elapsed.as_secs_f64(),
        report.total_runs as f64 / elapsed.as_secs_f64().max(1e-9),
        report.groups.len()
    );
    println!(
        "Paper reference: latency rises monotonically with FIR (1.1x–60x over the\n\
         no-attack value between FIR 0.1 and 0.9) and the system crashes at FIR = 1."
    );
}
