//! Per-layer passes of the traced run: each replays one layer of the
//! workload through its public API with timers around it.

use dl2fence_campaign::{
    CampaignDir, CampaignReport, CampaignSpec, Executor, ReportAccumulator, RunSpec,
};
use dl2fence_telemetry::AggregateSink;
use noc_monitor::FrameSampler;
use noc_sim::{NocConfig, Topology};
use std::path::Path;
use std::time::{Duration, Instant};

/// FIR at or above which a run counts as flooding (saturating) traffic.
pub const FLOOD_FIR: f64 = 0.5;

/// Simulator and sampler totals over a replay of every run of a campaign.
#[derive(Debug, Default)]
pub struct NocLayer {
    pub flood_router_cycles: f64,
    pub flood: Duration,
    pub light_router_cycles: f64,
    pub light: Duration,
    pub flit_hops: u64,
    pub packet_latency_sum: u64,
    pub packet_latency_count: u64,
    /// Packets delivered per run, by run index.
    pub packets_received: Vec<u64>,
    pub sample: Duration,
    pub samples: u64,
}

/// Replays every run exactly as the campaign executor does (same
/// topology, scenario and seed), timing the simulator (`AttackScenario::run`,
/// which interleaves traffic injection per cycle) apart from the frame
/// sampler (`FrameSampler::sample_both`).
pub fn replay_noc(spec: &CampaignSpec, runs: &[RunSpec]) -> NocLayer {
    let sim = &spec.sim;
    let mut layer = NocLayer::default();
    for run in runs {
        let topology = Topology::parse(&run.topology).expect("expanded topologies parse");
        let mut noc = NocConfig::for_topology(&topology);
        if sim.injection_queue_capacity > 0 {
            noc = noc.with_injection_queue_capacity(sim.injection_queue_capacity);
        }
        let mut scenario = run.scenario.build(noc, run.run_seed);
        let mut simulated = Duration::ZERO;
        let start = Instant::now();
        scenario.run(sim.warmup_cycles);
        simulated += start.elapsed();
        scenario.network_mut().reset_boc();
        for _ in 0..sim.samples_per_run {
            let start = Instant::now();
            scenario.run(sim.sample_period);
            simulated += start.elapsed();
            if sim.collect_samples {
                let start = Instant::now();
                std::hint::black_box(FrameSampler::sample_both(scenario.network()));
                layer.sample += start.elapsed();
                layer.samples += 1;
            }
            scenario.network_mut().reset_boc();
        }
        let cycles = sim.warmup_cycles + sim.samples_per_run as u64 * sim.sample_period;
        let router_cycles = (topology.node_count() as u64 * cycles) as f64;
        if run.scenario.is_attack() && run.scenario.fir >= FLOOD_FIR {
            layer.flood_router_cycles += router_cycles;
            layer.flood += simulated;
        } else {
            layer.light_router_cycles += router_cycles;
            layer.light += simulated;
        }
        let stats = scenario.network().stats();
        layer.flit_hops += stats.link_traversals;
        layer.packet_latency_sum += stats.packet_latency.sum;
        layer.packet_latency_count += stats.packet_latency.count;
        layer.packets_received.push(stats.packets_received);
    }
    layer
}

/// Report building split into its two layers: folding the run log into a
/// [`ReportAccumulator`] and `finish` (which runs the eval phase when the
/// spec enables it).
pub struct ReportLayer {
    pub fold_s: f64,
    pub finish_s: f64,
    pub report: CampaignReport,
    pub record_bytes: u64,
}

/// Rebuilds the report of the finished campaign in `dir` on one worker.
pub fn rebuild_report(
    spec: &CampaignSpec,
    runs: &[RunSpec],
    dir: &Path,
) -> Result<ReportLayer, String> {
    let campaign = CampaignDir::open(dir).map_err(|e| e.to_string())?;
    let index = campaign.index_log(runs).map_err(|e| e.to_string())?;
    let record_bytes = std::fs::metadata(campaign.runs_path())
        .map_err(|e| e.to_string())?
        .len();
    let start = Instant::now();
    let mut acc = ReportAccumulator::for_spec(spec).map_err(|e| e.to_string())?;
    campaign
        .try_replay(&index, |run| acc.try_fold(&run))
        .map_err(|e| e.to_string())?;
    let fold_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = acc.finish(&Executor::new(1)).map_err(|e| e.to_string())?;
    Ok(ReportLayer {
        fold_s,
        finish_s: start.elapsed().as_secs_f64(),
        report,
        record_bytes,
    })
}

/// Mean of the histogram `name` in milliseconds (0 when never recorded).
pub fn mean_ms(sink: &AggregateSink, name: &str) -> f64 {
    sink.histogram(name)
        .map_or(0.0, |h| h.sum_us() as f64 / 1e3 / h.count().max(1) as f64)
}

/// Summed duration of the histogram `name` in seconds.
pub fn total_s(sink: &AggregateSink, name: &str) -> f64 {
    sink.histogram(name)
        .map_or(0.0, |h| h.sum_us() as f64 / 1e6)
}

/// Summed seconds of every `nn.*` histogram whose name starts with
/// `prefix`.
pub fn nn_total_s(sink: &AggregateSink, prefix: &str) -> f64 {
    sink.histograms()
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, h)| h.sum_us() as f64 / 1e6)
        .sum()
}
