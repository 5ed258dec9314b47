//! # noc-sim — a flit-level Network-on-Chip simulator
//!
//! This crate is the substrate the DL2Fence reproduction runs on. It plays
//! the role Garnet (inside gem5) plays in the paper: a cycle-level model of
//! a NoC — a 2-D mesh, a 2-D torus with wraparound links, or a
//! routerless-style ring (see [`Topology`]) — with
//!
//! * wormhole switching with **virtual channels** (VCs),
//! * **credit-based flow control** (a flit only advances when the downstream
//!   buffer has a free slot),
//! * deterministic **minimal routing** in [`Topology::next_hop`] (XY
//!   dimension-order on the mesh; shortest-way-around dimension-order on
//!   torus/ring, with wrap hops confined to the upper VC class to stay
//!   deadlock-free),
//! * per-input-port **buffer operation counters** (BOC) and instantaneous
//!   **virtual-channel occupancy** (VCO) — the two features DL2Fence samples,
//!   read with [`Network::boc`] and [`Network::vco`],
//! * packet/flit latency accounting split into queueing and network
//!   components (used to reproduce Figure 1).
//!
//! There are no router objects: [`Network`] keeps every input port, VC
//! and flit buffer in one flat arena (port `node * 5 + dir`, VC
//! `port * vcs + v`, a ring of 32-byte flit slots per VC), with bit masks
//! of the ports and VCs that hold flits, and builds each [`Flit`] from its
//! [`Packet`] ([`Packet::flit`]) as the network interface sends it.
//!
//! The node numbering convention follows the paper's Table-Like Method:
//! node `id = y * cols + x`, the **East** neighbour is `id + 1`, **West** is
//! `id − 1`, **North** is `id + cols` and **South** is `id − cols`. A
//! router's *East input port* therefore receives flits sent by its East
//! neighbour.
//!
//! ## Quick example
//!
//! ```
//! use noc_sim::{Network, NocConfig, NodeId};
//!
//! let config = NocConfig::mesh(4, 4);
//! let mut net = Network::new(config);
//! net.enqueue_packet(NodeId(0), NodeId(15), 0);
//! for _ in 0..200 { net.step(); }
//! assert_eq!(net.stats().packets_received, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod flit;
pub mod network;
pub mod power;
pub mod stats;
pub mod topology;
mod vc;

pub use config::NocConfig;
pub use flit::{Flit, FlitKind, Packet, PacketId};
pub use network::Network;
pub use power::{EnergyModel, EnergyReport};
pub use stats::{LatencyStats, NetworkStats};
pub use topology::{Coord, Direction, NodeId, Topology, TopologyError, TopologyKind};

// Which input ports a router has is `Topology::has_input_port`, read
// through `Network`; these tests keep their historical `router::tests`
// paths.
#[cfg(test)]
mod router {
    mod tests {
        use crate::{Direction, Network, NocConfig, NodeId};

        /// The input ports node `id` of `net` has, in `Direction::ALL` order.
        fn ports(net: &Network, id: usize) -> Vec<Direction> {
            Direction::ALL
                .into_iter()
                .filter(|&d| net.vco(NodeId(id), d).is_some())
                .collect()
        }

        #[test]
        fn corner_router_has_three_ports() {
            // Node 0: East + North + Local.
            let net = Network::new(NocConfig::mesh(4, 4));
            assert_eq!(
                ports(&net, 0),
                [Direction::East, Direction::North, Direction::Local]
            );
        }

        #[test]
        fn interior_router_has_five_ports() {
            let net = Network::new(NocConfig::mesh(4, 4));
            assert_eq!(ports(&net, 5).len(), 5);
        }

        #[test]
        fn torus_corner_router_has_five_ports() {
            let net = Network::new(NocConfig::torus(4, 4));
            assert_eq!(ports(&net, 0).len(), 5);
        }

        #[test]
        fn ring_router_has_three_ports() {
            let net = Network::new(NocConfig::ring(4, 4));
            assert_eq!(
                ports(&net, 7),
                [Direction::East, Direction::West, Direction::Local]
            );
        }

        #[test]
        fn vco_of_missing_port_is_none() {
            let net = Network::new(NocConfig::mesh(4, 4));
            assert_eq!(net.vco(NodeId(0), Direction::West), None);
            assert_eq!(net.boc(NodeId(0), Direction::West), None);
            assert_eq!(net.vco(NodeId(0), Direction::East), Some(0.0));
            assert_eq!(net.boc(NodeId(0), Direction::East), Some(0));
        }

        #[test]
        fn boc_reset_clears_all_ports() {
            // A packet 5 -> 6 -> 7 writes and reads node 5's Local port and
            // node 6's West port.
            let mut net = Network::new(NocConfig::mesh(4, 4));
            net.enqueue_packet(NodeId(5), NodeId(7), 0);
            net.run(50);
            assert_eq!(net.stats().packets_received, 1);
            let flits = net.config().flits_per_packet as u64;
            assert_eq!(net.boc(NodeId(5), Direction::Local), Some(2 * flits));
            assert_eq!(net.boc(NodeId(6), Direction::West), Some(2 * flits));
            net.reset_boc();
            for id in net.topology().nodes() {
                for dir in Direction::ALL {
                    assert!(matches!(net.boc(id, dir), Some(0) | None));
                }
            }
        }

        #[test]
        fn port_directions_lists_existing_ports_only() {
            // SE corner: West, North, Local.
            let net = Network::new(NocConfig::mesh(4, 4));
            assert_eq!(
                ports(&net, 3),
                [Direction::North, Direction::West, Direction::Local]
            );
        }
    }
}

// XY routing lives in `Topology::next_hop`; its tests keep their historical
// `routing::tests` paths.
#[cfg(test)]
mod routing {
    mod tests {
        use crate::{Direction, NodeId, Topology};
        use proptest::prelude::*;

        /// The input port at which traffic from `src` arrives at each hop of
        /// its route to `dst`: the opposite of the upstream output direction.
        fn arrival_ports(mesh: &Topology, src: NodeId, dst: NodeId) -> Vec<(NodeId, Direction)> {
            let path = mesh.route_path(src, dst).unwrap();
            path.windows(2)
                .map(|w| (w[1], mesh.next_hop(w[0], dst).opposite()))
                .collect()
        }

        #[test]
        fn next_hop_at_destination_is_local() {
            let mesh = Topology::mesh(4, 4);
            assert_eq!(mesh.next_hop(NodeId(7), NodeId(7)), Direction::Local);
        }

        #[test]
        fn x_is_corrected_before_y() {
            // 4x4 mesh: 0=(0,0), 10=(2,2).
            let mesh = Topology::mesh(4, 4);
            assert_eq!(mesh.next_hop(NodeId(0), NodeId(10)), Direction::East);
            assert_eq!(mesh.next_hop(NodeId(2), NodeId(10)), Direction::North);
        }

        #[test]
        fn route_path_is_l_shaped() {
            let path = Topology::mesh(4, 4).route_path(NodeId(0), NodeId(10));
            assert_eq!(
                path.unwrap(),
                vec![NodeId(0), NodeId(1), NodeId(2), NodeId(6), NodeId(10)]
            );
        }

        #[test]
        fn route_path_same_node_is_singleton() {
            let path = Topology::mesh(4, 4).route_path(NodeId(5), NodeId(5));
            assert_eq!(path.unwrap(), vec![NodeId(5)]);
        }

        #[test]
        fn route_length_is_manhattan_plus_one() {
            let mesh = Topology::mesh(8, 8);
            let (src, dst) = (NodeId(3), NodeId(60));
            let d = mesh.coord(src).unwrap().manhattan(mesh.coord(dst).unwrap());
            assert_eq!(mesh.route_path(src, dst).unwrap().len(), d + 1);
        }

        #[test]
        fn eastward_flood_arrives_on_west_ports() {
            // Attacker at node 0 flooding node 3 on a 4x4 mesh sends eastwards,
            // so victims see the traffic on their West input ports.
            let ports = arrival_ports(&Topology::mesh(4, 4), NodeId(0), NodeId(3));
            assert_eq!(ports.len(), 3);
            assert!(ports.iter().all(|&(_, d)| d == Direction::West));
        }

        #[test]
        fn westward_flood_arrives_on_east_ports() {
            let ports = arrival_ports(&Topology::mesh(4, 4), NodeId(3), NodeId(0));
            assert!(ports.iter().all(|&(_, d)| d == Direction::East));
        }

        #[test]
        fn northward_leg_arrives_on_south_ports() {
            // 0 -> 12 is straight north.
            let ports = arrival_ports(&Topology::mesh(4, 4), NodeId(0), NodeId(12));
            assert!(ports.iter().all(|&(_, d)| d == Direction::South));
        }

        proptest! {
            #[test]
            fn route_always_reaches_destination(
                src in 0usize..256, dst in 0usize..256
            ) {
                let mesh = Topology::mesh(16, 16);
                let path = mesh.route_path(NodeId(src), NodeId(dst)).unwrap();
                prop_assert_eq!(*path.first().unwrap(), NodeId(src));
                prop_assert_eq!(*path.last().unwrap(), NodeId(dst));
                // Every consecutive pair is adjacent.
                for w in path.windows(2) {
                    let a = mesh.coord(w[0]).unwrap();
                    let b = mesh.coord(w[1]).unwrap();
                    prop_assert_eq!(a.manhattan(b), 1);
                }
            }

            #[test]
            fn route_is_minimal(src in 0usize..64, dst in 0usize..64) {
                let mesh = Topology::mesh(8, 8);
                let path = mesh.route_path(NodeId(src), NodeId(dst)).unwrap();
                let d = mesh.coord(NodeId(src)).unwrap().manhattan(mesh.coord(NodeId(dst)).unwrap());
                prop_assert_eq!(path.len(), d + 1);
            }

            #[test]
            fn next_hop_never_points_off_mesh(src in 0usize..64, dst in 0usize..64) {
                let mesh = Topology::mesh(8, 8);
                let dir = mesh.next_hop(NodeId(src), NodeId(dst));
                if dir != Direction::Local {
                    prop_assert!(mesh.neighbor(NodeId(src), dir).is_some());
                }
            }
        }
    }
}
