//! CI throughput guard for the simulator's occupancy-driven stepping.
//!
//! `Network::step` visits only the routers and input ports that hold flits,
//! and only the network interfaces with packets to send, and the benign
//! sources draw one geometric gap per packet rather than one coin per node
//! per cycle. So a cycle's cost follows the traffic, not the node count:
//! an idle cycle and a sparse one must each cost a small fraction of a
//! cycle under load. This binary times all three on the same 16×16 mesh,
//! with the min-of-N idiom (shed scheduler noise, keep the best run), and
//! enforces that an idle cycle costs at most [`MAX_IDLE_OVER_LOADED`]× a
//! loaded one and a sparse one (uniform [`SPARSE_RATE`], no attacker) at
//! most [`MAX_SPARSE_OVER_LOADED`]×. The bounds are ratios of timings on
//! one host, so they hold on any machine. Beside the gates it prints the
//! loaded mesh's cost per flit hop (the fastest run's time over its
//! `NetworkStats::link_traversals`), so logs trend the simulator's own
//! speed; that figure is not gated. On a 2-vCPU x86-64 VM, a traversal
//! that sweeps every router, port and VC each cycle measured 0.31–0.42×
//! idle, and the occupancy-driven one ~0.02× (a loaded cycle includes the
//! traffic generators' work). The sparse case read 0.16–0.18× with one
//! coin per node per cycle and an injection phase that visited every node.
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
/// The sparse case's uniform-random injection rate, PARSEC's compute-phase
/// order of magnitude.
const SPARSE_RATE: f64 = 0.001;
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
/// Ceiling on the cost of a sparse cycle over a loaded one.
const MAX_SPARSE_OVER_LOADED: f64 = 0.12;

/// The traffic of a timed scenario.
#[derive(Clone, Copy)]
enum Load {
    /// Uniform [`RATE`] plus an FDoS attacker at [`FIR`].
    Loaded,
    /// Uniform [`SPARSE_RATE`], no attacker.
    Sparse,
    /// No traffic.
    Idle,
}

/// Builds the timed scenario for `load`.
fn scenario(load: Load) -> AttackScenario {
    let builder = AttackScenario::builder(NocConfig::mesh(MESH, MESH)).seed(7);
    match load {
        Load::Idle => builder.build(),
        Load::Sparse => builder
            .benign(SyntheticPattern::UniformRandom, SPARSE_RATE)
            .build(),
        Load::Loaded => builder
            .benign(SyntheticPattern::UniformRandom, RATE)
            .attack(DosAttack::new(
                AttackKind::Fdos,
                vec![NodeId(MESH * MESH - 1)],
                NodeId(0),
                FIR,
            ))
            .build(),
    }
}

/// The fastest of [`RUNS`] timed runs of [`CYCLES`] cycles: its time per
/// cycle and the flit hops (link traversals) it simulated.
fn min_step_time(load: Load) -> (Duration, u64) {
    let mut s = scenario(load);
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
    let (loaded, hops) = min_step_time(Load::Loaded);
    let (sparse, _) = min_step_time(Load::Sparse);
    let (idle, _) = min_step_time(Load::Idle);
    let sparse_ratio = sparse.as_secs_f64() / loaded.as_secs_f64();
    let idle_ratio = idle.as_secs_f64() / loaded.as_secs_f64();
    let ns_per_hop = loaded.as_secs_f64() * 1e9 * CYCLES as f64 / hops.max(1) as f64;
    println!(
        "{MESH}x{MESH} mesh step, min-of-{RUNS} ({CYCLES} cycles/run):\n\
         uniform {RATE} + FDoS {FIR} : {:>9.3} µs/cycle  ({ns_per_hop:.1} ns/flit hop, {hops} hops)\n\
         uniform {SPARSE_RATE}          : {:>9.3} µs/cycle  ({sparse_ratio:.3}x loaded)\n\
         idle                   : {:>9.3} µs/cycle  ({idle_ratio:.3}x loaded)",
        loaded.as_secs_f64() * 1e6,
        sparse.as_secs_f64() * 1e6,
        idle.as_secs_f64() * 1e6,
    );
    let mut passed = true;
    if idle_ratio > MAX_IDLE_OVER_LOADED {
        eprintln!(
            "FAIL: an idle cycle costs {idle_ratio:.3}x a loaded one, above the \
             {MAX_IDLE_OVER_LOADED}x bound: stepping visits routers or ports that hold no flit"
        );
        passed = false;
    }
    if sparse_ratio > MAX_SPARSE_OVER_LOADED {
        eprintln!(
            "FAIL: a sparse cycle costs {sparse_ratio:.3}x a loaded one, above the \
             {MAX_SPARSE_OVER_LOADED}x bound: per-cycle work grows with the node count, not the traffic"
        );
        passed = false;
    }
    if !passed {
        return ExitCode::FAILURE;
    }
    println!(
        "sim-step guard passed: idle {idle_ratio:.3}x <= {MAX_IDLE_OVER_LOADED}x, \
         sparse {sparse_ratio:.3}x <= {MAX_SPARSE_OVER_LOADED}x loaded"
    );
    ExitCode::SUCCESS
}
