//! CI throughput guard for the simulator's occupancy-driven stepping.
//!
//! `Network::step` visits only the routers and input ports that hold flits,
//! so a cycle on an idle network must cost a small fraction of a cycle
//! under load. This binary times both on the same 16×16 mesh, with the
//! min-of-N idiom (shed scheduler noise, keep the best run), and enforces
//! that an idle cycle costs at most [`MAX_IDLE_OVER_LOADED`]× a loaded
//! one. The bound is a ratio of two timings on one host, so it holds on any
//! machine. Beside the gate it prints the loaded mesh's cost per flit hop
//! (the fastest run's time over its `NetworkStats::link_traversals`), so
//! logs trend the simulator's own speed; that figure is not gated. On a 2-vCPU x86-64 VM, a traversal that sweeps every router,
//! port and VC each cycle measured 0.31–0.42×, and the occupancy-driven one
//! ~0.02× (a loaded cycle includes the traffic generators' work).
//!
//! ```bash
//! cargo run --release -p noc_traffic --bin sim_step_guard
//! ```
//!
//! Exits non-zero with a diagnostic when the bound is violated.

use noc_sim::{NocConfig, NodeId};
use noc_traffic::{AttackKind, AttackScenario, DosAttack, SyntheticPattern};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Mesh side: the paper's large-mesh configuration.
const MESH: usize = 16;
/// Benign uniform-random injection rate (packets per node per cycle).
const RATE: f64 = 0.02;
/// Flooding injection rate of the FDoS attacker.
const FIR: f64 = 0.8;
/// Cycles run before timing, so the loaded mesh is at its steady state.
const WARMUP: u64 = 1_000;
/// Cycles per timed run.
const CYCLES: u64 = 2_000;
/// Timed runs per scenario; the fastest one counts.
const RUNS: usize = 5;
/// Ceiling on the cost of an idle cycle over a loaded one.
const MAX_IDLE_OVER_LOADED: f64 = 0.25;

/// Builds the loaded scenario or the idle one (no traffic).
fn scenario(loaded: bool) -> AttackScenario {
    let builder = AttackScenario::builder(NocConfig::mesh(MESH, MESH)).seed(7);
    if !loaded {
        return builder.build();
    }
    let corner = NodeId(MESH * MESH - 1);
    builder
        .benign(SyntheticPattern::UniformRandom, RATE)
        .attack(DosAttack::new(
            AttackKind::Fdos,
            vec![corner],
            NodeId(0),
            FIR,
        ))
        .build()
}

/// The fastest of [`RUNS`] timed runs of [`CYCLES`] cycles: its time per
/// cycle and the flit hops (link traversals) it simulated.
fn min_step_time(loaded: bool) -> (Duration, u64) {
    let mut s = scenario(loaded);
    s.run(WARMUP);
    (0..RUNS)
        .map(|_| {
            let hops = s.network().stats().link_traversals;
            let start = Instant::now();
            s.run(CYCLES);
            let elapsed = start.elapsed() / CYCLES as u32;
            (elapsed, s.network().stats().link_traversals - hops)
        })
        .min_by_key(|&(elapsed, _)| elapsed)
        .expect("at least one timed run")
}

fn main() -> ExitCode {
    let (loaded, hops) = min_step_time(true);
    let (idle, _) = min_step_time(false);
    let ratio = idle.as_secs_f64() / loaded.as_secs_f64();
    let ns_per_hop = loaded.as_secs_f64() * 1e9 * CYCLES as f64 / hops.max(1) as f64;
    println!(
        "{MESH}x{MESH} mesh step, min-of-{RUNS} ({CYCLES} cycles/run):\n\
         uniform {RATE} + FDoS {FIR} : {:>9.3} µs/cycle  ({ns_per_hop:.1} ns/flit hop, {hops} hops)\n\
         idle                   : {:>9.3} µs/cycle  ({ratio:.3}x loaded)",
        loaded.as_secs_f64() * 1e6,
        idle.as_secs_f64() * 1e6,
    );
    if ratio > MAX_IDLE_OVER_LOADED {
        eprintln!(
            "FAIL: an idle cycle costs {ratio:.3}x a loaded one, above the \
             {MAX_IDLE_OVER_LOADED}x bound: stepping visits routers or ports that hold no flit"
        );
        return ExitCode::FAILURE;
    }
    println!("sim-step guard passed: idle {ratio:.3}x <= {MAX_IDLE_OVER_LOADED}x loaded");
    ExitCode::SUCCESS
}
