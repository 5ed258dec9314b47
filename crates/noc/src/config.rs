//! Simulator configuration.

use crate::topology::Topology;

/// Configuration of a NoC simulation.
///
/// The defaults mirror the paper's Garnet setup: a single virtual network
/// with a small number of VCs per input port, 5-flit packets and single-cycle
/// links.
///
/// # Examples
///
/// ```
/// use noc_sim::NocConfig;
///
/// let cfg = NocConfig::mesh(16, 16).with_vcs(4).with_buffer_depth(4);
/// assert_eq!(cfg.node_count(), 256);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// The topology (family and `rows × cols` geometry) of the NoC.
    pub topology: Topology,
    /// Virtual channels per input port.
    pub vcs_per_port: usize,
    /// Buffer depth (flits) of each virtual channel.
    pub buffer_depth: usize,
    /// Flits per packet (head + body + tail).
    pub flits_per_packet: usize,
    /// Maximum packets waiting in a node's injection queue before the node is
    /// considered saturated (used for crash detection in the FIR sweep).
    pub injection_queue_capacity: usize,
}

impl NocConfig {
    /// Creates a configuration for an explicit topology instance with default
    /// router parameters (4 VCs, depth-4 buffers, 5-flit packets).
    pub fn for_topology(topology: &Topology) -> Self {
        NocConfig {
            topology: *topology,
            vcs_per_port: 4,
            buffer_depth: 4,
            flits_per_packet: 5,
            injection_queue_capacity: 1024,
        }
    }

    /// Creates a configuration for a `rows × cols` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero (see [`Topology::mesh`]).
    pub fn mesh(rows: usize, cols: usize) -> Self {
        NocConfig::for_topology(&Topology::mesh(rows, cols))
    }

    /// Creates a configuration for a `rows × cols` torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2 (see [`Topology::torus`]).
    pub fn torus(rows: usize, cols: usize) -> Self {
        NocConfig::for_topology(&Topology::torus(rows, cols))
    }

    /// Creates a configuration for a ring over `rows × cols` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the ring would have fewer than 2 nodes (see
    /// [`Topology::ring`]).
    pub fn ring(rows: usize, cols: usize) -> Self {
        NocConfig::for_topology(&Topology::ring(rows, cols))
    }

    /// Sets the number of virtual channels per input port.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is zero.
    pub fn with_vcs(mut self, vcs: usize) -> Self {
        assert!(vcs > 0, "at least one virtual channel is required");
        self.vcs_per_port = vcs;
        self
    }

    /// Sets the per-VC buffer depth in flits.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_buffer_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "buffer depth must be non-zero");
        self.buffer_depth = depth;
        self
    }

    /// Sets the number of flits per packet.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    pub fn with_flits_per_packet(mut self, flits: usize) -> Self {
        assert!(flits > 0, "packets must contain at least one flit");
        self.flits_per_packet = flits;
        self
    }

    /// Sets the injection queue capacity used for saturation/crash detection.
    pub fn with_injection_queue_capacity(mut self, capacity: usize) -> Self {
        self.injection_queue_capacity = capacity;
        self
    }

    /// Number of nodes in the topology.
    pub fn node_count(&self) -> usize {
        self.topology.node_count()
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig::mesh(8, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_8x8() {
        let cfg = NocConfig::default();
        assert_eq!(cfg.topology, Topology::mesh(8, 8));
        assert_eq!(cfg.node_count(), 64);
    }

    #[test]
    fn builder_methods_apply() {
        let cfg = NocConfig::mesh(16, 16)
            .with_vcs(2)
            .with_buffer_depth(8)
            .with_flits_per_packet(3)
            .with_injection_queue_capacity(64);
        assert_eq!(cfg.vcs_per_port, 2);
        assert_eq!(cfg.buffer_depth, 8);
        assert_eq!(cfg.flits_per_packet, 3);
        assert_eq!(cfg.injection_queue_capacity, 64);
    }

    #[test]
    fn topology_ctors_set_kind() {
        assert_eq!(NocConfig::mesh(4, 4).topology, Topology::mesh(4, 4));
        assert_eq!(NocConfig::torus(4, 4).topology, Topology::torus(4, 4));
        assert_eq!(NocConfig::ring(4, 4).topology, Topology::ring(4, 4));
        let t = Topology::torus(2, 8);
        assert_eq!(NocConfig::for_topology(&t).topology, t);
    }

    #[test]
    #[should_panic(expected = "invalid dimensions 0x4 for a mesh topology")]
    fn zero_rows_panics() {
        NocConfig::mesh(0, 4);
    }

    #[test]
    #[should_panic(expected = "invalid dimensions 1x4 for a torus topology")]
    fn degenerate_torus_panics() {
        NocConfig::torus(1, 4);
    }

    #[test]
    #[should_panic(expected = "virtual channel")]
    fn zero_vcs_panics() {
        NocConfig::mesh(2, 2).with_vcs(0);
    }
}
