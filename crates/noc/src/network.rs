//! The cycle-level network simulation engine.

use crate::config::NocConfig;
use crate::flit::{Flit, Packet, PacketId, TrafficClass};
use crate::router::Router;
use crate::stats::NetworkStats;
use crate::topology::{Direction, NodeId, Topology};
use std::collections::VecDeque;

/// A packet currently being serialized into its source router's local port.
#[derive(Debug, Clone)]
struct PendingInjection {
    flits: VecDeque<Flit>,
    vc: usize,
}

/// Where one output of a router leads, resolved once from the topology.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The downstream router.
    to: usize,
    /// The lowest downstream VC a hop over this link may allocate: the
    /// upper half of the VCs on a wraparound (dateline) link with at least
    /// two VCs, otherwise 0.
    min_vc: usize,
}

/// Buffered-flit counts per router and per input port, updated at every
/// push and pop so switch traversal can skip what holds no flit.
#[derive(Debug, Clone)]
struct Occupancy {
    /// Flits buffered in each router, by node id.
    router: Vec<u32>,
    /// Flits buffered in each input port, indexed `[node][direction]`;
    /// always 0 for a port the router does not have.
    port: Vec<[u32; 5]>,
}

impl Occupancy {
    fn new(node_count: usize) -> Self {
        Occupancy {
            router: vec![0; node_count],
            port: vec![[0; 5]; node_count],
        }
    }

    /// Books one flit written into the input port `dir` of `node`.
    fn push(&mut self, node: usize, dir: Direction) {
        self.router[node] += 1;
        self.port[node][dir.index()] += 1;
    }

    /// Books one flit read out of the input port `dir` of `node`.
    fn pop(&mut self, node: usize, dir: Direction) {
        self.router[node] -= 1;
        self.port[node][dir.index()] -= 1;
    }
}

/// A fully simulated NoC (mesh, torus or ring — see [`Topology`]).
///
/// The engine advances in discrete cycles. Each [`Network::step`]:
///
/// 1. **Injection** — every node's network interface pushes flits of the
///    packet at the head of its injection queue into a free virtual channel
///    of the router's local input port (one flit per cycle per node).
/// 2. **Switch traversal** — every router moves at most one flit per input
///    port and one flit per output port, subject to the topology's minimal
///    routing, virtual channel allocation at the downstream router and
///    credit availability (a free downstream buffer slot). Flits never
///    advance more than one hop per cycle. On wraparound topologies, hops
///    across a wrap (dateline) link only allocate from the upper half of
///    the downstream VCs, breaking the cyclic channel dependency the ring
///    would otherwise create; mesh links are unrestricted, so mesh
///    behaviour is unchanged.
///
///    Routers are visited in node order, and inside a router the input
///    ports and their VCs in a rotation that advances with the cycle
///    (`cycle % 5`, `cycle % vcs`) for fairness. Only routers and input
///    ports that hold flits are visited: the network counts the flits
///    buffered per router and per port. The skip is exact, because a VC
///    with no flit has nothing to route, allocate or move, so visiting it
///    changes no state; and a flit written during this cycle (injected, or
///    forwarded by a router visited earlier) cannot move before the next
///    one, so a port that only holds such flits has nothing to do either.
/// 3. **Ejection** — flits whose route terminates here are consumed and
///    accounted in [`NetworkStats`].
///
/// # Examples
///
/// ```
/// use noc_sim::{Network, NocConfig, NodeId};
///
/// let mut net = Network::new(NocConfig::mesh(4, 4));
/// net.enqueue_packet(NodeId(0), NodeId(15), 0);
/// net.run(300);
/// assert_eq!(net.stats().packets_received, 1);
/// assert!(net.stats().packet_latency.mean() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    config: NocConfig,
    routers: Vec<Router>,
    /// Output links of every router, indexed `[node][direction]`; `None`
    /// where the topology has no neighbour that way (and for `Local`).
    links: Vec<[Option<Link>; 5]>,
    occupancy: Occupancy,
    injection_queues: Vec<VecDeque<Packet>>,
    pending: Vec<Option<PendingInjection>>,
    stats: NetworkStats,
    cycle: u64,
    next_packet_id: u64,
}

impl Network {
    /// Builds a network from a configuration.
    pub fn new(config: NocConfig) -> Self {
        let topology = &config.topology;
        let routers = topology
            .nodes()
            .map(|id| Router::new(id, &config))
            .collect();
        let vcs = config.vcs_per_port;
        let links = topology
            .nodes()
            .map(|id| {
                Direction::ALL.map(|dir| {
                    topology.neighbor(id, dir).map(|to| Link {
                        to: to.0,
                        min_vc: if vcs >= 2 && topology.is_wrap_link(id, dir) {
                            vcs / 2
                        } else {
                            0
                        },
                    })
                })
            })
            .collect();
        let n = config.node_count();
        Network {
            routers,
            links,
            occupancy: Occupancy::new(n),
            injection_queues: vec![VecDeque::new(); n],
            pending: vec![None; n],
            stats: NetworkStats::new(n),
            cycle: 0,
            next_packet_id: 0,
            config,
        }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The network's topology.
    pub fn topology(&self) -> &Topology {
        &self.config.topology
    }

    /// The current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// The router of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the topology.
    pub fn router(&self, id: NodeId) -> &Router {
        &self.routers[id.0]
    }

    /// Iterates over all routers in node-id order.
    pub fn routers(&self) -> impl Iterator<Item = &Router> {
        self.routers.iter()
    }

    /// Number of packets waiting in the injection queue of node `id`
    /// (including the packet currently being serialized).
    pub fn injection_queue_len(&self, id: NodeId) -> usize {
        self.injection_queues[id.0].len() + usize::from(self.pending[id.0].is_some())
    }

    /// Whether any node's injection queue has reached the configured
    /// capacity — the saturation condition used to declare the "system
    /// crashed" point of the FIR sweep (Figure 1).
    pub fn is_saturated(&self) -> bool {
        self.injection_queues
            .iter()
            .any(|q| q.len() >= self.config.injection_queue_capacity)
    }

    /// Enqueues a benign packet for injection at `src`, destined to `dst`.
    /// Returns the new packet's id.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the topology.
    pub fn enqueue_packet(&mut self, src: NodeId, dst: NodeId, created_at: u64) -> PacketId {
        self.enqueue_with_class(src, dst, created_at, TrafficClass::Benign)
    }

    /// Enqueues a packet with an explicit traffic class (used by the
    /// flooding DoS model to label ground truth).
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the topology or the configured
    /// packet length is zero.
    pub fn enqueue_with_class(
        &mut self,
        src: NodeId,
        dst: NodeId,
        created_at: u64,
        class: TrafficClass,
    ) -> PacketId {
        assert!(
            self.config.topology.contains(src),
            "source {src} outside topology"
        );
        assert!(
            self.config.topology.contains(dst),
            "destination {dst} outside topology"
        );
        let length_flits = self.config.flits_per_packet;
        assert!(length_flits > 0, "packets must contain at least one flit");
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        let packet = Packet {
            id,
            src,
            dst,
            created_at,
            class,
            length_flits,
        };
        self.injection_queues[src.0].push_back(packet);
        self.stats.packets_created += 1;
        id
    }

    /// Like [`Network::enqueue_with_class`] but refuses the packet (returning
    /// `false`) when the source injection queue is at capacity.
    pub fn try_enqueue_with_class(
        &mut self,
        src: NodeId,
        dst: NodeId,
        created_at: u64,
        class: TrafficClass,
    ) -> bool {
        if self.injection_queues[src.0].len() >= self.config.injection_queue_capacity {
            self.stats.packets_dropped += 1;
            return false;
        }
        self.enqueue_with_class(src, dst, created_at, class);
        true
    }

    /// Advances the simulation by one cycle.
    pub fn step(&mut self) {
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        self.inject_phase();
        self.traversal_phase();
    }

    /// Advances the simulation by `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Resets the BOC counters of every router (end of a sampling window).
    pub fn reset_boc(&mut self) {
        for r in &mut self.routers {
            r.reset_boc();
        }
    }

    // ------------------------------------------------------------------
    // Injection
    // ------------------------------------------------------------------

    fn inject_phase(&mut self) {
        for node in 0..self.config.node_count() {
            // Start serializing a new packet if the NI is idle.
            if self.pending[node].is_none() {
                if let Some(packet) = self.injection_queues[node].pop_front() {
                    let port = self.routers[node]
                        .input_port_mut(Direction::Local)
                        .expect("every router has a local port");
                    if let Some(vc) = port.free_vc() {
                        port.vc_mut(vc).allocated = true;
                        // The VC is free, hence empty, so the head flit is
                        // pushed below in this same cycle: every flit carries
                        // the packet's head-injection cycle.
                        let mut flits: VecDeque<Flit> = packet.to_flits().into();
                        for f in &mut flits {
                            f.injected_at = self.cycle;
                        }
                        self.stats.packets_injected += 1;
                        self.stats
                            .packet_queue_latency
                            .record(self.cycle.saturating_sub(packet.created_at));
                        self.pending[node] = Some(PendingInjection { flits, vc });
                    } else {
                        // No free VC at the local port: put the packet back.
                        self.injection_queues[node].push_front(packet);
                    }
                }
            }
            // Push one flit of the in-progress packet (link bandwidth: one
            // flit per cycle from the NI into the router).
            let mut finished = false;
            if let Some(pending) = self.pending[node].as_mut() {
                let port = self.routers[node]
                    .input_port_mut(Direction::Local)
                    .expect("every router has a local port");
                let vc = port.vc_mut(pending.vc);
                if !vc.is_full() {
                    if let Some(flit) = pending.flits.pop_front() {
                        self.stats.flits_injected += 1;
                        self.stats
                            .flit_queue_latency
                            .record(self.cycle.saturating_sub(flit.created_at));
                        vc.push(flit, self.cycle);
                        port.record_buffer_ops(1);
                        self.stats.buffer_operations += 1;
                        self.occupancy.push(node, Direction::Local);
                    }
                    finished = pending.flits.is_empty();
                }
            }
            if finished {
                self.pending[node] = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Switch traversal and ejection
    // ------------------------------------------------------------------

    fn traversal_phase(&mut self) {
        let vcs = self.config.vcs_per_port;
        // Rotate port and VC priority with the cycle for fairness.
        let port_offset = (self.cycle as usize) % 5;
        let vc_offset = (self.cycle as usize) % vcs;
        for node in 0..self.routers.len() {
            if self.occupancy.router[node] == 0 {
                continue;
            }
            // One flit per output port per cycle.
            let mut output_used = [false; 5];
            for p in 0..5 {
                let dir = Direction::from_index((p + port_offset) % 5);
                if self.occupancy.port[node][dir.index()] == 0 {
                    continue;
                }
                // One flit per input port per cycle.
                for v in 0..vcs {
                    if self.try_advance(node, dir, (v + vc_offset) % vcs, &mut output_used) {
                        break;
                    }
                }
            }
        }
    }

    /// Attempts to advance the head-of-line flit of one VC of router `node`
    /// by one hop, or to eject it. `output_used` flags the router's outputs
    /// that already carried a flit this cycle. Returns `true` if a flit
    /// moved (or was ejected).
    fn try_advance(
        &mut self,
        node: usize,
        dir: Direction,
        vc_idx: usize,
        output_used: &mut [bool; 5],
    ) -> bool {
        let cycle = self.cycle;
        // Split the routers around `node` so the downstream router can be
        // borrowed while this VC is.
        let (before, rest) = self.routers.split_at_mut(node);
        let (router, after) = rest.split_first_mut().expect("node inside the topology");
        let port = router
            .input_port_mut(dir)
            .expect("only ports holding flits are visited");
        let vc = port.vc_mut(vc_idx);

        // Inspect the head-of-line flit.
        let flit = match vc.front() {
            Some(b) if b.arrived_at < cycle => b.flit,
            _ => return false,
        };

        // Route computation for head flits.
        let topology = &self.config.topology;
        let out_dir = *vc
            .route_out
            .get_or_insert_with(|| topology.next_hop(NodeId(node), flit.dst));

        // Output port contention: one flit per output per cycle.
        if output_used[out_dir.index()] {
            return false;
        }

        if out_dir == Direction::Local {
            // Ejection.
            let buffered = vc.pop().expect("front checked above");
            if buffered.flit.kind.is_tail() {
                vc.release();
            }
            port.record_buffer_ops(1);
            self.stats.buffer_operations += 1;
            self.occupancy.pop(node, dir);
            output_used[out_dir.index()] = true;
            self.account_ejection(buffered.flit);
            return true;
        }

        // Downstream router and input port.
        let link = self.links[node][out_dir.index()]
            .expect("minimal routing never points off the topology");
        let downstream = if link.to < node {
            &mut before[link.to]
        } else {
            &mut after[link.to - node - 1]
        };
        let down_dir = out_dir.opposite();
        let down_port = downstream
            .input_port_mut(down_dir)
            .expect("downstream router must have an input port facing the upstream router");

        // Virtual-channel allocation at the downstream input port, from
        // `link.min_vc` up (the dateline restriction on wrap links).
        let down_vc = match vc.downstream_vc {
            Some(v) => v,
            None => {
                if !flit.kind.is_head() {
                    // Body/tail flits must follow the head's allocation; if it
                    // is missing the packet's VC was released prematurely.
                    return false;
                }
                match down_port.free_vc_from(link.min_vc) {
                    Some(v) => {
                        // Reserve it immediately so no other router grabs it
                        // during this cycle.
                        down_port.vc_mut(v).allocated = true;
                        vc.downstream_vc = Some(v);
                        v
                    }
                    None => return false,
                }
            }
        };

        // Credit check: downstream buffer must have a free slot.
        let down = down_port.vc_mut(down_vc);
        if down.is_full() {
            return false;
        }

        // Move the flit.
        let buffered = vc.pop().expect("front checked above");
        if buffered.flit.kind.is_tail() {
            vc.release();
        }
        port.record_buffer_ops(1);
        down.push(buffered.flit, cycle);
        down_port.record_buffer_ops(1);
        self.occupancy.pop(node, dir);
        self.occupancy.push(link.to, down_dir);
        self.stats.buffer_operations += 2;
        self.stats.link_traversals += 1;
        output_used[out_dir.index()] = true;
        true
    }

    fn account_ejection(&mut self, flit: Flit) {
        self.stats.flits_received += 1;
        self.stats
            .flit_latency
            .record(self.cycle.saturating_sub(flit.created_at));
        if flit.kind.is_tail() {
            self.stats.packets_received += 1;
            self.stats.received_per_node[flit.dst.0] += 1;
            self.stats
                .packet_latency
                .record(self.cycle.saturating_sub(flit.created_at));
            self.stats
                .packet_network_latency
                .record(self.cycle.saturating_sub(flit.injected_at));
            if flit.class == TrafficClass::Malicious {
                self.stats.malicious_packets_received += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full-sweep traversal the occupancy-driven one replaced, kept as
    /// the oracle: it visits every router, every port and every VC each
    /// cycle and resolves links and VCs through the topology and the
    /// router's `Option` ports. Its only change is that it keeps the
    /// occupancy counts, so a network stepped through it stays consistent.
    impl Network {
        fn step_full_sweep(&mut self) {
            self.cycle += 1;
            self.stats.cycles = self.cycle;
            self.inject_phase();
            self.full_sweep_traversal_phase();
        }

        fn full_sweep_traversal_phase(&mut self) {
            let node_count = self.config.node_count();
            let vcs = self.config.vcs_per_port;
            // Per-router, per-direction "output already used this cycle" flags.
            let mut output_used = vec![[false; 5]; node_count];

            for node in 0..node_count {
                // Rotate port and VC priority with the cycle for fairness.
                let port_offset = (self.cycle as usize) % 5;
                for p in 0..5 {
                    let dir = Direction::from_index((p + port_offset) % 5);
                    if self.routers[node].input_port(dir).is_none() {
                        continue;
                    }
                    let vc_offset = (self.cycle as usize) % vcs;
                    // One flit per input port per cycle.
                    let mut port_sent = false;
                    for v in 0..vcs {
                        if port_sent {
                            break;
                        }
                        let vc_idx = (v + vc_offset) % vcs;
                        port_sent =
                            self.full_sweep_try_advance(node, dir, vc_idx, &mut output_used);
                    }
                }
            }
        }

        fn full_sweep_try_advance(
            &mut self,
            node: usize,
            dir: Direction,
            vc_idx: usize,
            output_used: &mut [[bool; 5]],
        ) -> bool {
            let cycle = self.cycle;

            // Inspect the head-of-line flit.
            let (flit, needs_route) = {
                let port = match self.routers[node].input_port(dir) {
                    Some(p) => p,
                    None => return false,
                };
                let vc = port.vc(vc_idx);
                match vc.front() {
                    Some(b) if b.arrived_at < cycle => (b.flit, vc.route_out.is_none()),
                    _ => return false,
                }
            };

            // Route computation for head flits.
            let out_dir = if needs_route {
                let d = self.config.topology.next_hop(NodeId(node), flit.dst);
                let port = self.routers[node].input_port_mut(dir).unwrap();
                port.vc_mut(vc_idx).route_out = Some(d);
                d
            } else {
                self.routers[node]
                    .input_port(dir)
                    .unwrap()
                    .vc(vc_idx)
                    .route_out
                    .unwrap()
            };

            // Output port contention: one flit per output per cycle.
            if output_used[node][out_dir.index()] {
                return false;
            }

            if out_dir == Direction::Local {
                // Ejection.
                let port = self.routers[node].input_port_mut(dir).unwrap();
                let buffered = port.vc_mut(vc_idx).pop().expect("front checked above");
                port.record_buffer_ops(1);
                self.stats.buffer_operations += 1;
                if buffered.flit.kind.is_tail() {
                    port.vc_mut(vc_idx).release();
                }
                self.occupancy.pop(node, dir);
                output_used[node][out_dir.index()] = true;
                self.account_ejection(buffered.flit);
                return true;
            }

            // Downstream router and input direction.
            let downstream = match self.config.topology.neighbor(NodeId(node), out_dir) {
                Some(d) => d.0,
                None => unreachable!("minimal routing never points off the topology"),
            };
            let down_dir = out_dir.opposite();
            let vcs = self.config.vcs_per_port;
            let min_vc = if vcs >= 2 && self.config.topology.is_wrap_link(NodeId(node), out_dir) {
                vcs / 2
            } else {
                0
            };

            // Virtual-channel allocation at the downstream input port.
            let assigned_vc = {
                let vc_state = self.routers[node].input_port(dir).unwrap().vc(vc_idx);
                vc_state.downstream_vc
            };
            let down_vc = match assigned_vc {
                Some(v) => v,
                None => {
                    if !flit.kind.is_head() {
                        return false;
                    }
                    let down_port = self.routers[downstream]
                        .input_port(down_dir)
                        .expect("downstream router must have an input port facing upstream");
                    match down_port.free_vc_from(min_vc) {
                        Some(v) => {
                            self.routers[downstream]
                                .input_port_mut(down_dir)
                                .unwrap()
                                .vc_mut(v)
                                .allocated = true;
                            self.routers[node]
                                .input_port_mut(dir)
                                .unwrap()
                                .vc_mut(vc_idx)
                                .downstream_vc = Some(v);
                            v
                        }
                        None => return false,
                    }
                }
            };

            // Credit check: downstream buffer must have a free slot.
            if self.routers[downstream]
                .input_port(down_dir)
                .unwrap()
                .vc(down_vc)
                .is_full()
            {
                return false;
            }

            // Move the flit.
            let buffered = {
                let port = self.routers[node].input_port_mut(dir).unwrap();
                let b = port.vc_mut(vc_idx).pop().expect("front checked above");
                port.record_buffer_ops(1);
                if b.flit.kind.is_tail() {
                    port.vc_mut(vc_idx).release();
                }
                b
            };
            {
                let port = self.routers[downstream].input_port_mut(down_dir).unwrap();
                port.vc_mut(down_vc).push(buffered.flit, cycle);
                port.record_buffer_ops(1);
            }
            self.occupancy.pop(node, dir);
            self.occupancy.push(downstream, down_dir);
            self.stats.buffer_operations += 2;
            self.stats.link_traversals += 1;
            output_used[node][out_dir.index()] = true;
            true
        }
    }

    /// Seeded traffic fed identically to both networks of the oracle
    /// property: Bernoulli benign packets at `rate` per node per cycle to
    /// uniformly random destinations, plus one flooding attacker that, like
    /// an FDoS `DosAttack`, enqueues a malicious packet to its victim with
    /// probability `fir` every cycle.
    struct OracleTraffic {
        state: u64,
        nodes: usize,
        rate: f64,
        fir: f64,
        attacker: usize,
        victim: usize,
    }

    impl OracleTraffic {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn chance(&mut self, p: f64) -> bool {
            ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
        }

        /// The packets created this cycle, as `(src, dst, class)`.
        fn packets(&mut self) -> Vec<(usize, usize, TrafficClass)> {
            let mut out = Vec::new();
            for src in 0..self.nodes {
                if self.chance(self.rate) {
                    let dst = (self.next_u64() % self.nodes as u64) as usize;
                    if dst != src {
                        out.push((src, dst, TrafficClass::Benign));
                    }
                }
            }
            if self.chance(self.fir) {
                out.push((self.attacker, self.victim, TrafficClass::Malicious));
            }
            out
        }
    }

    /// Cycles each oracle case simulates: long enough for a flood at FIR
    /// 0.8 to saturate a 6×6 mesh.
    const ORACLE_CYCLES: u64 = 300;

    proptest! {
        #[test]
        fn occupancy_traversal_matches_full_sweep(
            kind in 0usize..3,
            rows in 1usize..7,
            cols in 2usize..7,
            vcs in 1usize..6,
            depth in 1usize..5,
            flits in 1usize..6,
            rate in 0.0f64..0.1,
            fir in 0.0f64..1.0,
            seed in 0u64..u64::MAX,
        ) {
            // Rows 1..=6 and cols 2..=6 (a torus needs two of each).
            let topology = match kind {
                0 => Topology::mesh(rows, cols),
                1 => Topology::torus(rows.max(2), cols),
                _ => Topology::ring(rows, cols),
            };
            let config = NocConfig::for_topology(&topology)
                .with_vcs(vcs)
                .with_buffer_depth(depth)
                .with_flits_per_packet(flits);
            let mut fast = Network::new(config);
            let mut oracle = fast.clone();
            let nodes = topology.node_count();
            let attacker = (seed % nodes as u64) as usize;
            let mut traffic = OracleTraffic {
                state: seed,
                nodes,
                rate,
                fir,
                attacker,
                victim: (attacker + 1 + (seed >> 32) as usize % (nodes - 1)) % nodes,
            };
            for cycle in 0..ORACLE_CYCLES {
                for (src, dst, class) in traffic.packets() {
                    fast.enqueue_with_class(NodeId(src), NodeId(dst), cycle, class);
                    oracle.enqueue_with_class(NodeId(src), NodeId(dst), cycle, class);
                }
                fast.step();
                oracle.step_full_sweep();
                prop_assert_eq!(fast.stats(), oracle.stats());
                for (node, (a, b)) in fast.routers().zip(oracle.routers()).enumerate() {
                    for dir in Direction::ALL {
                        prop_assert_eq!(a.vco(dir), b.vco(dir));
                        prop_assert_eq!(a.boc(dir), b.boc(dir));
                        let buffered = a.input_port(dir).map_or(0, |p| p.buffered_flits());
                        prop_assert_eq!(fast.occupancy.port[node][dir.index()] as usize, buffered);
                    }
                    prop_assert_eq!(fast.occupancy.router[node] as usize, a.buffered_flits());
                }
                if cycle % 100 == 99 {
                    // End of a sampling window.
                    fast.reset_boc();
                    oracle.reset_boc();
                }
            }
        }
    }

    #[test]
    fn packet_network_latency_runs_from_head_injection() {
        // A lone 5-flit packet over 3 hops: its head enters the fabric in
        // cycle 1, and the tail is ejected `network latency` cycles later.
        let mut net = Network::new(NocConfig::mesh(4, 4));
        net.enqueue_packet(NodeId(0), NodeId(3), 0);
        net.run(100);
        let s = net.stats();
        assert_eq!(s.packet_network_latency.count, 1);
        assert_eq!(s.packet_queue_latency.sum, 1);
        assert_eq!(
            s.packet_latency.sum,
            s.packet_queue_latency.sum + s.packet_network_latency.sum
        );
    }

    #[test]
    fn single_packet_is_delivered() {
        let mut net = Network::new(NocConfig::mesh(4, 4));
        net.enqueue_packet(NodeId(0), NodeId(15), 0);
        net.run(200);
        assert_eq!(net.stats().packets_created, 1);
        assert_eq!(net.stats().packets_received, 1);
        assert_eq!(
            net.stats().flits_received,
            net.config().flits_per_packet as u64
        );
        assert_eq!(net.stats().received_per_node[15], 1);
    }

    #[test]
    fn packet_to_self_is_delivered() {
        let mut net = Network::new(NocConfig::mesh(2, 2));
        net.enqueue_packet(NodeId(3), NodeId(3), 0);
        net.run(50);
        assert_eq!(net.stats().packets_received, 1);
    }

    #[test]
    fn latency_grows_with_distance() {
        let mut near = Network::new(NocConfig::mesh(8, 8));
        near.enqueue_packet(NodeId(0), NodeId(1), 0);
        near.run(200);
        let mut far = Network::new(NocConfig::mesh(8, 8));
        far.enqueue_packet(NodeId(0), NodeId(63), 0);
        far.run(200);
        assert!(
            far.stats().packet_latency.mean() > near.stats().packet_latency.mean(),
            "far {} should exceed near {}",
            far.stats().packet_latency.mean(),
            near.stats().packet_latency.mean()
        );
    }

    #[test]
    fn all_packets_delivered_under_light_load() {
        let mut net = Network::new(NocConfig::mesh(4, 4));
        // One packet from every node to the opposite node, staggered.
        for n in 0..16 {
            net.enqueue_packet(NodeId(n), NodeId(15 - n), 0);
        }
        net.run(500);
        assert_eq!(net.stats().packets_received, 16);
        assert_eq!(net.stats().packets_created, 16);
    }

    #[test]
    fn flit_conservation_no_loss_no_duplication() {
        let mut net = Network::new(NocConfig::mesh(4, 4));
        for n in 0..16 {
            net.enqueue_packet(NodeId(n), NodeId((n * 7 + 3) % 16), 0);
        }
        net.run(1000);
        let s = net.stats();
        assert_eq!(s.flits_injected, s.flits_received);
        assert_eq!(s.packets_injected, s.packets_received);
        // Nothing left in any router buffer.
        let leftover: usize = net.routers().map(|r| r.buffered_flits()).sum();
        assert_eq!(leftover, 0);
    }

    #[test]
    fn hotspot_congestion_raises_vco_on_path() {
        // Flood node 0 from node 3 (same row, westward traffic) on a 4x4 mesh
        // and check that East input ports along the row become occupied.
        let mut net = Network::new(NocConfig::mesh(4, 4));
        for c in 0..400u64 {
            net.enqueue_packet(NodeId(3), NodeId(0), c);
            net.step();
        }
        let vco_on_path = net.router(NodeId(1)).vco(Direction::East).unwrap();
        let vco_off_path = net.router(NodeId(13)).vco(Direction::East).unwrap();
        assert!(
            vco_on_path > vco_off_path,
            "on-path VCO {vco_on_path} should exceed off-path {vco_off_path}"
        );
        let boc_on_path = net.router(NodeId(1)).boc(Direction::East).unwrap();
        let boc_off_path = net.router(NodeId(13)).boc(Direction::East).unwrap();
        assert!(boc_on_path > boc_off_path);
    }

    #[test]
    fn boc_reset_clears_counters() {
        let mut net = Network::new(NocConfig::mesh(4, 4));
        for c in 0..100u64 {
            net.enqueue_packet(NodeId(3), NodeId(0), c);
            net.step();
        }
        assert!(net.router(NodeId(1)).boc(Direction::East).unwrap() > 0);
        net.reset_boc();
        assert_eq!(net.router(NodeId(1)).boc(Direction::East).unwrap(), 0);
    }

    #[test]
    fn saturation_detected_when_queue_grows() {
        let cfg = NocConfig::mesh(2, 2).with_injection_queue_capacity(8);
        let mut net = Network::new(cfg);
        // Enqueue far more packets than the network can drain.
        for c in 0..64u64 {
            net.enqueue_packet(NodeId(0), NodeId(3), c);
        }
        assert!(net.is_saturated());
        net.run(2000);
        assert!(!net.is_saturated(), "queues should eventually drain");
    }

    #[test]
    fn try_enqueue_respects_capacity() {
        let cfg = NocConfig::mesh(2, 2).with_injection_queue_capacity(2);
        let mut net = Network::new(cfg);
        assert!(net.try_enqueue_with_class(NodeId(0), NodeId(3), 0, TrafficClass::Benign));
        assert!(net.try_enqueue_with_class(NodeId(0), NodeId(3), 0, TrafficClass::Benign));
        assert!(!net.try_enqueue_with_class(NodeId(0), NodeId(3), 0, TrafficClass::Benign));
        assert_eq!(net.stats().packets_dropped, 1);
    }

    #[test]
    fn malicious_packets_are_counted_separately() {
        let mut net = Network::new(NocConfig::mesh(4, 4));
        net.enqueue_with_class(NodeId(0), NodeId(5), 0, TrafficClass::Malicious);
        net.enqueue_packet(NodeId(2), NodeId(6), 0);
        net.run(300);
        assert_eq!(net.stats().packets_received, 2);
        assert_eq!(net.stats().malicious_packets_received, 1);
    }

    #[test]
    fn queue_latency_reflects_waiting_time() {
        let mut net = Network::new(NocConfig::mesh(4, 4));
        // Many packets from the same node must serialize through one NI.
        for _ in 0..10 {
            net.enqueue_packet(NodeId(0), NodeId(3), 0);
        }
        net.run(500);
        let s = net.stats();
        assert_eq!(s.packets_received, 10);
        assert!(s.packet_queue_latency.max > s.packet_queue_latency.min);
        assert!(s.packet_latency.mean() >= s.packet_network_latency.mean());
    }

    #[test]
    fn torus_wrap_route_is_shorter_than_mesh() {
        // 0 -> 3 on a 4x4 torus is one wrap hop; all flits must arrive.
        let mut net = Network::new(NocConfig::torus(4, 4));
        net.enqueue_packet(NodeId(0), NodeId(3), 0);
        net.run(100);
        assert_eq!(net.stats().packets_received, 1);
        // The wrap link delivered it: only one link traversal per flit.
        assert_eq!(
            net.stats().link_traversals,
            net.config().flits_per_packet as u64
        );
    }

    #[test]
    fn torus_all_to_opposite_delivers_everything() {
        let mut net = Network::new(NocConfig::torus(4, 4));
        for n in 0..16 {
            net.enqueue_packet(NodeId(n), NodeId(15 - n), 0);
        }
        net.run(1000);
        assert_eq!(net.stats().packets_received, 16);
        let leftover: usize = net.routers().map(|r| r.buffered_flits()).sum();
        assert_eq!(leftover, 0);
    }

    #[test]
    fn ring_delivers_both_ways_around() {
        let mut net = Network::new(NocConfig::ring(4, 4));
        net.enqueue_packet(NodeId(0), NodeId(2), 0); // forward
        net.enqueue_packet(NodeId(0), NodeId(14), 0); // backward over the wrap
        net.run(300);
        assert_eq!(net.stats().packets_received, 2);
    }

    #[test]
    fn torus_sustained_cross_traffic_drains() {
        // Saturating wrap links from several sources exercises the dateline
        // VC restriction; everything must still drain (no deadlock).
        let mut net = Network::new(NocConfig::torus(4, 4));
        for c in 0..200u64 {
            net.enqueue_packet(NodeId(0), NodeId(3), c);
            net.enqueue_packet(NodeId(3), NodeId(0), c);
            net.enqueue_packet(NodeId(12), NodeId(15), c);
            net.step();
        }
        net.run(4000);
        let s = net.stats();
        assert_eq!(s.packets_injected, s.packets_received);
        let leftover: usize = net.routers().map(|r| r.buffered_flits()).sum();
        assert_eq!(leftover, 0);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn enqueue_outside_topology_panics() {
        let mut net = Network::new(NocConfig::mesh(2, 2));
        net.enqueue_packet(NodeId(9), NodeId(0), 0);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flit_packets_panic() {
        // The builder refuses zero flits, but the field is public and
        // deserializable, so the network checks it again.
        let mut config = NocConfig::mesh(2, 2);
        config.flits_per_packet = 0;
        Network::new(config).enqueue_packet(NodeId(1), NodeId(0), 0);
    }
}
