//! The cycle-level network simulation engine.

use crate::config::NocConfig;
use crate::flit::{Packet, PacketId, TrafficClass};
use crate::stats::NetworkStats;
use crate::topology::{Direction, NodeId, Topology};
use crate::vc::{port_id, rotated_bits, Slot, VcArena};
use std::collections::VecDeque;

/// A packet being serialized into its source router's local port: the NI
/// builds each flit when it sends it.
#[derive(Debug, Clone)]
struct PendingInjection {
    packet: Packet,
    /// Index of the next flit to send.
    next: usize,
    /// Cycle at which the head flit entered the router fabric.
    injected_at: u64,
    /// The local-port VC the packet holds.
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

/// A fully simulated NoC (mesh, torus or ring — see [`Topology`]).
///
/// The engine advances in discrete cycles. Each [`Network::step`]:
///
/// 1. **Injection** — every node's network interface pushes flits of the
///    packet at the head of its injection queue into a free virtual channel
///    of the router's local input port (one flit per cycle per node). Only
///    the nodes with a queued or serializing packet are visited, in node
///    order: a bit set marks them, set by every enqueue and cleared once a
///    node's queue and in-progress packet are both empty. The skip is exact,
///    because an idle network interface has nothing to send.
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
///    (`cycle % 5`, `cycle % vcs`) for fairness. Only the routers, input
///    ports and VCs that hold flits are visited: the network keeps bit
///    masks of them. The skip is exact, because a VC with no flit has
///    nothing to route, allocate or move, so visiting it changes no state;
///    and a flit written during this cycle (injected, or forwarded by a
///    router visited earlier) cannot move before the next one, so a port
///    that only holds such flits has nothing to do either.
/// 3. **Ejection** — flits whose route terminates here are consumed and
///    accounted in [`NetworkStats`].
///
/// # Memory layout
///
/// Router state lives in one flat arena rather than in per-router objects:
/// input port `node * 5 + dir`, VC `port * vcs + v`, and a ring of
/// `buffer_depth` flit slots per VC at `vc * buffer_depth`. VC state (ring
/// head and length, route, downstream VC, ownership), per-port BOC, the
/// per-port masks of VCs holding flits and the per-router masks of ports
/// holding flits are flat arrays too.
/// A buffered flit keeps only what the engine reads (kind, destination,
/// class and three cycle stamps) in 32 bytes, and the network interface
/// builds each flit from its [`Packet`] when it sends it. The per-port
/// features are read through [`Network::vco`], [`Network::boc`] and
/// [`Network::buffered_flits`].
///
/// # Examples
///
/// ```
/// use noc_sim::{Direction, Network, NocConfig, NodeId};
///
/// let mut net = Network::new(NocConfig::mesh(4, 4));
/// net.enqueue_packet(NodeId(0), NodeId(15), 0);
/// net.run(300);
/// assert_eq!(net.stats().packets_received, 1);
/// assert!(net.stats().packet_latency.mean() > 0.0);
/// // Node 0 is the south-west corner: it has no West input port.
/// assert_eq!(net.vco(NodeId(0), Direction::West), None);
/// assert_eq!(net.vco(NodeId(0), Direction::East), Some(0.0));
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    config: NocConfig,
    arena: VcArena,
    /// Output links by port index (`node * 5 + dir`); `None` where the
    /// topology has no neighbour that way (and for `Local`). A router has
    /// the input port `dir` exactly when it has the output link `dir`.
    links: Vec<Option<Link>>,
    injection_queues: Vec<VecDeque<Packet>>,
    pending: Vec<Option<PendingInjection>>,
    /// One bit per node (word `node / 64`, bit `node % 64`), set while the
    /// node has a queued packet or one being serialized.
    injecting: Vec<u64>,
    stats: NetworkStats,
    cycle: u64,
    next_packet_id: u64,
}

impl Network {
    /// Builds a network from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `vcs_per_port` is zero or above 64 (one bit per VC in a
    /// port's mask), if `buffer_depth` is zero or above `u16::MAX` (the
    /// 16-bit ring indices), or if the topology has more than `u32::MAX`
    /// nodes.
    pub fn new(config: NocConfig) -> Self {
        let topology = &config.topology;
        let vcs = config.vcs_per_port;
        let arena = VcArena::new(config.node_count(), vcs, config.buffer_depth);
        let links = topology
            .nodes()
            .flat_map(|id| {
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
            arena,
            links,
            injection_queues: vec![VecDeque::new(); n],
            pending: vec![None; n],
            injecting: vec![0; n.div_ceil(64)],
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

    /// Instantaneous Virtual Channel Occupancy of input port `dir` of
    /// `node`: the fraction of its VCs that a packet owns or that hold
    /// flits, in `[0, 1]`. This is the feature DL2Fence samples for
    /// detection. `None` if the router has no such port: mesh edge and
    /// corner routers lack the outward-facing ports, ring routers have only
    /// East, West and Local.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology.
    pub fn vco(&self, node: NodeId, dir: Direction) -> Option<f32> {
        self.port(node, dir).map(|port| self.arena.vco(port))
    }

    /// Cumulative Buffer Operation Count (reads + writes) of input port
    /// `dir` of `node` since the last [`Network::reset_boc`], or `None` if
    /// the router has no such port. This is the feature DL2Fence samples
    /// for localization.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology.
    pub fn boc(&self, node: NodeId, dir: Direction) -> Option<u64> {
        self.port(node, dir).map(|port| self.arena.boc(port))
    }

    /// Total flits currently buffered in the router of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology.
    pub fn buffered_flits(&self, node: NodeId) -> usize {
        Direction::ALL
            .into_iter()
            .map(|dir| self.arena.port_flits(port_id(node.0, dir)))
            .sum()
    }

    /// The arena index of input port `dir` of `node`, if the router has it.
    fn port(&self, node: NodeId, dir: Direction) -> Option<usize> {
        let port = port_id(node.0, dir);
        (dir == Direction::Local || self.links[port].is_some()).then_some(port)
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
        self.injecting[src.0 / 64] |= 1 << (src.0 % 64);
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

    /// Resets the BOC counters of every input port (end of a sampling
    /// window).
    pub fn reset_boc(&mut self) {
        self.arena.reset_boc();
    }

    // ------------------------------------------------------------------
    // Injection
    // ------------------------------------------------------------------

    fn inject_phase(&mut self) {
        for word in 0..self.injecting.len() {
            let mut bits = self.injecting[word];
            while bits != 0 {
                let node = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.inject_node(node);
                if self.pending[node].is_none() && self.injection_queues[node].is_empty() {
                    self.injecting[word] &= !(1 << (node % 64));
                }
            }
        }
    }

    /// One cycle of the network interface of `node`.
    fn inject_node(&mut self, node: usize) {
        let port = port_id(node, Direction::Local);
        // Start serializing a new packet if the NI is idle.
        if self.pending[node].is_none() {
            if let Some(packet) = self.injection_queues[node].pop_front() {
                if let Some(vc) = self.arena.free_vc_from(port, 0) {
                    self.arena.vc_mut(port, vc).allocated = true;
                    // The VC is free, hence empty, so the head flit is
                    // pushed below in this same cycle: every flit carries
                    // the packet's head-injection cycle.
                    self.stats.packets_injected += 1;
                    self.stats
                        .packet_queue_latency
                        .record(self.cycle.saturating_sub(packet.created_at));
                    self.pending[node] = Some(PendingInjection {
                        packet,
                        next: 0,
                        injected_at: self.cycle,
                        vc,
                    });
                } else {
                    // No free VC at the local port: put the packet back.
                    self.injection_queues[node].push_front(packet);
                }
            }
        }
        // Push one flit of the in-progress packet (link bandwidth: one
        // flit per cycle from the NI into the router).
        let Some(pending) = self.pending[node].as_mut() else {
            return;
        };
        if self.arena.is_full(port, pending.vc) {
            return;
        }
        let flit = pending.packet.flit(pending.next, pending.injected_at);
        pending.next += 1;
        self.stats.flits_injected += 1;
        self.stats
            .flit_queue_latency
            .record(self.cycle.saturating_sub(flit.created_at));
        self.arena
            .push(port, pending.vc, Slot::new(&flit, self.cycle));
        self.stats.buffer_operations += 1;
        if pending.next == pending.packet.flit_count() {
            self.pending[node] = None;
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
        for node in 0..self.config.node_count() {
            // Only the ports and VCs that hold flits, in rotation order. A
            // router's own ports gain no flit while it is visited (no link
            // leads back to its own router), so masks read on arrival at a
            // router or port stay exact while it is visited.
            let busy_ports = self.arena.busy_ports(node);
            if busy_ports == 0 {
                continue;
            }
            // One flit per output port per cycle.
            let mut output_used = [false; 5];
            for dir in rotated_bits(busy_ports, port_offset, 5) {
                let port = node * 5 + dir;
                // One flit per input port per cycle.
                for v in rotated_bits(self.arena.busy_vcs(port), vc_offset, vcs) {
                    if self.try_advance(node, port, v, &mut output_used) {
                        break;
                    }
                }
            }
        }
    }

    /// Attempts to advance the head-of-line flit of VC `v` of input port
    /// `port` of router `node` by one hop, or to eject it. `output_used`
    /// flags the router's outputs that already carried a flit this cycle.
    /// Returns `true` if a flit moved (or was ejected).
    fn try_advance(
        &mut self,
        node: usize,
        port: usize,
        v: usize,
        output_used: &mut [bool; 5],
    ) -> bool {
        let cycle = self.cycle;
        // Inspect the head-of-line flit.
        let flit = match self.arena.front(port, v) {
            Some(&slot) if slot.arrived_at < cycle => slot,
            _ => return false,
        };

        // Route computation for head flits.
        let topology = &self.config.topology;
        let dst = NodeId(flit.dst as usize);
        let out_dir = *self
            .arena
            .vc_mut(port, v)
            .route_out
            .get_or_insert_with(|| topology.next_hop(NodeId(node), dst));

        // Output port contention: one flit per output per cycle.
        if output_used[out_dir.index()] {
            return false;
        }

        if out_dir == Direction::Local {
            // Ejection.
            self.arena.pop(port, v);
            self.stats.buffer_operations += 1;
            output_used[out_dir.index()] = true;
            self.account_ejection(&flit);
            return true;
        }

        // Downstream input port.
        let link = self.links[port_id(node, out_dir)]
            .expect("minimal routing never points off the topology");
        let down_port = port_id(link.to, out_dir.opposite());

        // Virtual-channel allocation at the downstream input port, from
        // `link.min_vc` up (the dateline restriction on wrap links).
        let down_vc = match self.arena.vc_mut(port, v).downstream_vc {
            Some(d) => d as usize,
            None => {
                if !flit.kind.is_head() {
                    // Body/tail flits must follow the head's allocation; if it
                    // is missing the packet's VC was released prematurely.
                    return false;
                }
                match self.arena.free_vc_from(down_port, link.min_vc) {
                    Some(d) => {
                        // Reserve it immediately so no other router grabs it
                        // during this cycle.
                        self.arena.vc_mut(down_port, d).allocated = true;
                        // `VcArena::new` bounds every VC index to `u8`.
                        self.arena.vc_mut(port, v).downstream_vc = Some(d as u8);
                        d
                    }
                    None => return false,
                }
            }
        };

        // Credit check: downstream buffer must have a free slot.
        if self.arena.is_full(down_port, down_vc) {
            return false;
        }

        // Move the flit.
        let moved = self.arena.pop(port, v);
        self.arena.push(
            down_port,
            down_vc,
            Slot {
                arrived_at: cycle,
                ..moved
            },
        );
        self.stats.buffer_operations += 2;
        self.stats.link_traversals += 1;
        output_used[out_dir.index()] = true;
        true
    }

    fn account_ejection(&mut self, flit: &Slot) {
        self.stats.flits_received += 1;
        self.stats
            .flit_latency
            .record(self.cycle.saturating_sub(flit.created_at));
        if flit.kind.is_tail() {
            self.stats.packets_received += 1;
            self.stats.received_per_node[flit.dst as usize] += 1;
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

    /// The simulator as it was before the flat arena, kept as the oracle:
    /// routers of `Option` input ports, each a `Vec` of VCs with a
    /// `VecDeque` of whole flits, a `VecDeque` of prebuilt flits per
    /// injecting packet, and a full sweep over every router, port and VC
    /// each cycle that resolves links and dateline VCs through the
    /// topology.
    mod reference {
        use crate::flit::TrafficClass;
        use crate::{Direction, Flit, NetworkStats, NocConfig, NodeId, Packet, PacketId};
        use std::collections::VecDeque;

        #[derive(Debug, Clone)]
        struct Vc {
            /// Buffered flits with their arrival cycles.
            buffer: VecDeque<(Flit, u64)>,
            route_out: Option<Direction>,
            downstream_vc: Option<usize>,
            allocated: bool,
        }

        impl Vc {
            fn is_free(&self) -> bool {
                !self.allocated && self.buffer.is_empty()
            }
        }

        #[derive(Debug, Clone)]
        struct Port {
            vcs: Vec<Vc>,
            boc: u64,
        }

        #[derive(Debug, Clone)]
        pub struct Reference {
            config: NocConfig,
            routers: Vec<[Option<Port>; 5]>,
            queues: Vec<VecDeque<Packet>>,
            /// The unsent flits and local VC of each node's injecting packet.
            pending: Vec<Option<(VecDeque<Flit>, usize)>>,
            pub stats: NetworkStats,
            cycle: u64,
            next_packet_id: u64,
        }

        impl Reference {
            pub fn new(config: NocConfig) -> Self {
                let vc = Vc {
                    buffer: VecDeque::new(),
                    route_out: None,
                    downstream_vc: None,
                    allocated: false,
                };
                let port = Port {
                    vcs: vec![vc; config.vcs_per_port],
                    boc: 0,
                };
                let n = config.node_count();
                Reference {
                    routers: config
                        .topology
                        .nodes()
                        .map(|id| {
                            Direction::ALL.map(|dir| {
                                config
                                    .topology
                                    .has_input_port(id, dir)
                                    .then(|| port.clone())
                            })
                        })
                        .collect(),
                    queues: vec![VecDeque::new(); n],
                    pending: vec![None; n],
                    stats: NetworkStats::new(n),
                    cycle: 0,
                    next_packet_id: 0,
                    config,
                }
            }

            pub fn enqueue(
                &mut self,
                src: usize,
                dst: usize,
                created_at: u64,
                class: TrafficClass,
            ) {
                self.queues[src].push_back(Packet {
                    id: PacketId(self.next_packet_id),
                    src: NodeId(src),
                    dst: NodeId(dst),
                    created_at,
                    class,
                    length_flits: self.config.flits_per_packet,
                });
                self.next_packet_id += 1;
                self.stats.packets_created += 1;
            }

            fn port(&mut self, node: usize, dir: Direction) -> &mut Port {
                self.routers[node][dir.index()]
                    .as_mut()
                    .expect("port exists")
            }

            pub fn vco(&self, node: usize, dir: Direction) -> Option<f32> {
                self.routers[node][dir.index()].as_ref().map(|p| {
                    let occupied = p.vcs.iter().filter(|v| !v.is_free()).count();
                    occupied as f32 / p.vcs.len() as f32
                })
            }

            pub fn boc(&self, node: usize, dir: Direction) -> Option<u64> {
                self.routers[node][dir.index()].as_ref().map(|p| p.boc)
            }

            pub fn buffered_flits(&self, node: usize, dir: Direction) -> usize {
                self.routers[node][dir.index()]
                    .as_ref()
                    .map_or(0, |p| p.vcs.iter().map(|v| v.buffer.len()).sum())
            }

            pub fn reset_boc(&mut self) {
                for port in self.routers.iter_mut().flatten().flatten() {
                    port.boc = 0;
                }
            }

            pub fn step(&mut self) {
                self.cycle += 1;
                self.stats.cycles = self.cycle;
                self.inject();
                let vcs = self.config.vcs_per_port;
                for node in 0..self.routers.len() {
                    let mut output_used = [false; 5];
                    for p in 0..5 {
                        let dir = Direction::from_index((p + self.cycle as usize) % 5);
                        if self.routers[node][dir.index()].is_none() {
                            continue;
                        }
                        for v in 0..vcs {
                            let vc = (v + self.cycle as usize) % vcs;
                            if self.try_advance(node, dir, vc, &mut output_used) {
                                break;
                            }
                        }
                    }
                }
            }

            fn inject(&mut self) {
                let depth = self.config.buffer_depth;
                for node in 0..self.routers.len() {
                    if self.pending[node].is_none() {
                        if let Some(packet) = self.queues[node].pop_front() {
                            let local = self.port(node, Direction::Local);
                            match local.vcs.iter().position(Vc::is_free) {
                                Some(vc) => {
                                    local.vcs[vc].allocated = true;
                                    let flits = (0..packet.flit_count())
                                        .map(|i| packet.flit(i, self.cycle))
                                        .collect();
                                    self.stats.packets_injected += 1;
                                    self.stats
                                        .packet_queue_latency
                                        .record(self.cycle - packet.created_at);
                                    self.pending[node] = Some((flits, vc));
                                }
                                None => self.queues[node].push_front(packet),
                            }
                        }
                    }
                    let Some((mut flits, vc)) = self.pending[node].take() else {
                        continue;
                    };
                    let cycle = self.cycle;
                    let local = self.port(node, Direction::Local);
                    if local.vcs[vc].buffer.len() < depth {
                        let flit = flits.pop_front().unwrap();
                        local.vcs[vc].buffer.push_back((flit, cycle));
                        local.boc += 1;
                        self.stats.flits_injected += 1;
                        self.stats
                            .flit_queue_latency
                            .record(cycle - flit.created_at);
                        self.stats.buffer_operations += 1;
                    }
                    if !flits.is_empty() {
                        self.pending[node] = Some((flits, vc));
                    }
                }
            }

            fn try_advance(
                &mut self,
                node: usize,
                dir: Direction,
                vc: usize,
                output_used: &mut [bool; 5],
            ) -> bool {
                let cycle = self.cycle;
                let topology = self.config.topology;
                let vcs = self.config.vcs_per_port;
                let depth = self.config.buffer_depth;
                let state = &mut self.port(node, dir).vcs[vc];
                let flit = match state.buffer.front() {
                    Some(&(f, arrived_at)) if arrived_at < cycle => f,
                    _ => return false,
                };
                let out_dir = *state
                    .route_out
                    .get_or_insert_with(|| topology.next_hop(NodeId(node), flit.dst));
                if output_used[out_dir.index()] {
                    return false;
                }
                let downstream = if out_dir == Direction::Local {
                    None
                } else {
                    let to = topology.neighbor(NodeId(node), out_dir).unwrap().0;
                    let down_dir = out_dir.opposite();
                    let min_vc = if vcs >= 2 && topology.is_wrap_link(NodeId(node), out_dir) {
                        vcs / 2
                    } else {
                        0
                    };
                    let down_vc = match self.port(node, dir).vcs[vc].downstream_vc {
                        Some(d) => d,
                        None if !flit.kind.is_head() => return false,
                        None => {
                            let down = self.port(to, down_dir);
                            let Some(d) = (min_vc..vcs).find(|&d| down.vcs[d].is_free()) else {
                                return false;
                            };
                            down.vcs[d].allocated = true;
                            self.port(node, dir).vcs[vc].downstream_vc = Some(d);
                            d
                        }
                    };
                    if self.port(to, down_dir).vcs[down_vc].buffer.len() >= depth {
                        return false;
                    }
                    Some((to, down_dir, down_vc))
                };
                let port = self.port(node, dir);
                port.boc += 1;
                let state = &mut port.vcs[vc];
                state.buffer.pop_front();
                if flit.kind.is_tail() {
                    state.route_out = None;
                    state.downstream_vc = None;
                    state.allocated = false;
                }
                output_used[out_dir.index()] = true;
                match downstream {
                    Some((to, down_dir, down_vc)) => {
                        let down = self.port(to, down_dir);
                        down.vcs[down_vc].buffer.push_back((flit, cycle));
                        down.boc += 1;
                        self.stats.buffer_operations += 2;
                        self.stats.link_traversals += 1;
                    }
                    None => {
                        self.stats.buffer_operations += 1;
                        self.eject(flit);
                    }
                }
                true
            }

            fn eject(&mut self, flit: Flit) {
                let s = &mut self.stats;
                s.flits_received += 1;
                s.flit_latency.record(self.cycle - flit.created_at);
                if flit.kind.is_tail() {
                    s.packets_received += 1;
                    s.received_per_node[flit.dst.0] += 1;
                    s.packet_latency.record(self.cycle - flit.created_at);
                    s.packet_network_latency
                        .record(self.cycle - flit.injected_at);
                    if flit.class == TrafficClass::Malicious {
                        s.malicious_packets_received += 1;
                    }
                }
            }
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
        /// The arena engine, which visits only the routers and ports that
        /// hold flits, matches the reference full sweep over the
        /// pre-arena layout: every stat, and every port's VCO, BOC and
        /// buffered flits, on every cycle.
        #[test]
        fn occupancy_traversal_matches_full_sweep(
            kind in 0usize..3,
            rows in 1usize..7,
            cols in 2usize..7,
            vcs_pick in 0usize..7,
            depth in 1usize..5,
            flits in 1usize..6,
            rate in 0.0f64..0.1,
            fir in 0.0f64..1.0,
            seed in 0u64..u64::MAX,
        ) {
            // Up to 64 VCs: the full width of a port's VC mask.
            let vcs = [1, 2, 3, 4, 5, 8, 64][vcs_pick];
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
            let mut fast = Network::new(config.clone());
            let mut oracle = reference::Reference::new(config);
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
                    oracle.enqueue(src, dst, cycle, class);
                }
                fast.step();
                oracle.step();
                prop_assert_eq!(fast.stats(), &oracle.stats);
                for node in 0..nodes {
                    let mut router_flits = 0;
                    for dir in Direction::ALL {
                        prop_assert_eq!(fast.vco(NodeId(node), dir), oracle.vco(node, dir));
                        prop_assert_eq!(fast.boc(NodeId(node), dir), oracle.boc(node, dir));
                        let buffered = oracle.buffered_flits(node, dir);
                        prop_assert_eq!(fast.arena.port_flits(port_id(node, dir)), buffered);
                        router_flits += buffered;
                    }
                    prop_assert_eq!(fast.buffered_flits(NodeId(node)), router_flits);
                    // Injection visits exactly the nodes with packets to send.
                    let injecting = fast.injecting[node / 64] >> (node % 64) & 1 == 1;
                    prop_assert_eq!(injecting, fast.injection_queue_len(NodeId(node)) > 0);
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
    #[should_panic(expected = "vcs_per_port 65 exceeds")]
    fn vc_count_beyond_the_arena_index_is_rejected() {
        let mut config = NocConfig::mesh(2, 2);
        config.vcs_per_port = 65;
        Network::new(config);
    }

    #[test]
    #[should_panic(expected = "buffer_depth 65536 exceeds")]
    fn buffer_depth_beyond_the_arena_index_is_rejected() {
        let mut config = NocConfig::mesh(2, 2);
        config.buffer_depth = 1 << 16;
        Network::new(config);
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
        let leftover: usize = net.topology().nodes().map(|n| net.buffered_flits(n)).sum();
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
        let vco_on_path = net.vco(NodeId(1), Direction::East).unwrap();
        let vco_off_path = net.vco(NodeId(13), Direction::East).unwrap();
        assert!(
            vco_on_path > vco_off_path,
            "on-path VCO {vco_on_path} should exceed off-path {vco_off_path}"
        );
        let boc_on_path = net.boc(NodeId(1), Direction::East).unwrap();
        let boc_off_path = net.boc(NodeId(13), Direction::East).unwrap();
        assert!(boc_on_path > boc_off_path);
    }

    #[test]
    fn boc_reset_clears_counters() {
        let mut net = Network::new(NocConfig::mesh(4, 4));
        for c in 0..100u64 {
            net.enqueue_packet(NodeId(3), NodeId(0), c);
            net.step();
        }
        assert!(net.boc(NodeId(1), Direction::East).unwrap() > 0);
        net.reset_boc();
        assert_eq!(net.boc(NodeId(1), Direction::East).unwrap(), 0);
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
        let leftover: usize = net.topology().nodes().map(|n| net.buffered_flits(n)).sum();
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
        let leftover: usize = net.topology().nodes().map(|n| net.buffered_flits(n)).sum();
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
