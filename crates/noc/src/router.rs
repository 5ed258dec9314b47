//! The router model.

use crate::config::NocConfig;
use crate::topology::{Direction, NodeId};
use crate::vc::InputPort;

/// A single router with up to five input ports (E, N, W, S, Local).
///
/// Routers only instantiate the ports their topology gives them a link for:
/// mesh edge and corner routers omit the outward-facing ports, exactly as
/// the paper notes ("routers on the edges lack external NoC input ports"),
/// which is why DL2Fence's directional feature frames are `R × (R−1)`
/// matrices rather than `R × R`. Torus routers have all five ports; ring
/// routers only East, West and Local.
#[derive(Debug, Clone)]
pub struct Router {
    id: NodeId,
    ports: [Option<InputPort>; 5],
}

impl Router {
    /// Builds the router for node `id` of the configured topology,
    /// instantiating only the input ports that have a neighbour (plus the
    /// local port).
    pub fn new(id: NodeId, config: &NocConfig) -> Self {
        let mut ports: [Option<InputPort>; 5] = [None, None, None, None, None];
        for dir in Direction::ALL {
            if config.topology.has_input_port(id, dir) {
                ports[dir.index()] = Some(InputPort::new(
                    dir,
                    config.vcs_per_port,
                    config.buffer_depth,
                ));
            }
        }
        Router { id, ports }
    }

    /// The node this router belongs to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The input port facing `dir`, if the router has one.
    pub fn input_port(&self, dir: Direction) -> Option<&InputPort> {
        self.ports[dir.index()].as_ref()
    }

    /// Mutable access to the input port facing `dir`.
    pub fn input_port_mut(&mut self, dir: Direction) -> Option<&mut InputPort> {
        self.ports[dir.index()].as_mut()
    }

    /// Iterates over the directions of the ports this router actually has.
    pub fn port_directions(&self) -> impl Iterator<Item = Direction> + '_ {
        Direction::ALL
            .into_iter()
            .filter(|d| self.ports[d.index()].is_some())
    }

    /// Instantaneous Virtual Channel Occupancy of the port facing `dir`, or
    /// `None` if the router has no such port.
    pub fn vco(&self, dir: Direction) -> Option<f32> {
        self.input_port(dir).map(|p| p.vco())
    }

    /// Cumulative Buffer Operation Count of the port facing `dir`, or `None`
    /// if the router has no such port.
    pub fn boc(&self, dir: Direction) -> Option<u64> {
        self.input_port(dir).map(|p| p.boc())
    }

    /// Resets the BOC counters of every port (end of a sampling window).
    pub fn reset_boc(&mut self) {
        for p in self.ports.iter_mut().flatten() {
            p.reset_boc();
        }
    }

    /// Total flits currently buffered in this router.
    pub fn buffered_flits(&self) -> usize {
        self.ports
            .iter()
            .flatten()
            .map(|p| p.buffered_flits())
            .sum()
    }

    /// Number of input ports this router has (2 for corners, 3 for edges, 4
    /// for interior routers — plus the local port).
    pub fn port_count(&self) -> usize {
        self.ports.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_router_has_three_ports() {
        let cfg = NocConfig::mesh(4, 4);
        // Node 0: East + North + Local.
        let r = Router::new(NodeId(0), &cfg);
        assert_eq!(r.port_count(), 3);
        assert!(r.input_port(Direction::East).is_some());
        assert!(r.input_port(Direction::North).is_some());
        assert!(r.input_port(Direction::Local).is_some());
        assert!(r.input_port(Direction::West).is_none());
        assert!(r.input_port(Direction::South).is_none());
    }

    #[test]
    fn interior_router_has_five_ports() {
        let cfg = NocConfig::mesh(4, 4);
        let r = Router::new(NodeId(5), &cfg);
        assert_eq!(r.port_count(), 5);
    }

    #[test]
    fn torus_corner_router_has_five_ports() {
        let cfg = NocConfig::torus(4, 4);
        let r = Router::new(NodeId(0), &cfg);
        assert_eq!(r.port_count(), 5);
    }

    #[test]
    fn ring_router_has_three_ports() {
        let cfg = NocConfig::ring(4, 4);
        let r = Router::new(NodeId(7), &cfg);
        assert_eq!(r.port_count(), 3);
        assert!(r.input_port(Direction::East).is_some());
        assert!(r.input_port(Direction::West).is_some());
        assert!(r.input_port(Direction::North).is_none());
        assert!(r.input_port(Direction::South).is_none());
    }

    #[test]
    fn vco_of_missing_port_is_none() {
        let cfg = NocConfig::mesh(4, 4);
        let r = Router::new(NodeId(0), &cfg);
        assert_eq!(r.vco(Direction::West), None);
        assert_eq!(r.vco(Direction::East), Some(0.0));
    }

    #[test]
    fn boc_reset_clears_all_ports() {
        let cfg = NocConfig::mesh(4, 4);
        let mut r = Router::new(NodeId(5), &cfg);
        r.input_port_mut(Direction::East)
            .unwrap()
            .record_buffer_ops(10);
        r.input_port_mut(Direction::Local)
            .unwrap()
            .record_buffer_ops(2);
        assert_eq!(r.boc(Direction::East), Some(10));
        r.reset_boc();
        assert_eq!(r.boc(Direction::East), Some(0));
        assert_eq!(r.boc(Direction::Local), Some(0));
    }

    #[test]
    fn port_directions_lists_existing_ports_only() {
        let cfg = NocConfig::mesh(4, 4);
        let r = Router::new(NodeId(3), &cfg); // SE corner: West, North, Local
        let dirs: Vec<Direction> = r.port_directions().collect();
        assert!(dirs.contains(&Direction::West));
        assert!(dirs.contains(&Direction::North));
        assert!(dirs.contains(&Direction::Local));
        assert_eq!(dirs.len(), 3);
    }
}
