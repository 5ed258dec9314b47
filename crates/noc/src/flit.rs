//! Packets and flits.

use crate::topology::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A globally unique packet identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlitKind {
    /// First flit: carries routing information and allocates VCs.
    Head,
    /// Middle flit.
    Body,
    /// Last flit: releases the VC and completes the packet.
    Tail,
    /// Single-flit packet (acts as head and tail simultaneously).
    HeadTail,
}

impl FlitKind {
    /// Whether this flit performs head duties (route computation, VC
    /// allocation).
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit performs tail duties (VC release, packet
    /// completion).
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// Whether a packet belongs to benign traffic or to a flooding attacker.
///
/// The class never influences routing or arbitration (the attack is
/// protocol-legal); it exists purely so experiments can label ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Normal workload traffic.
    #[default]
    Benign,
    /// Flooding DoS traffic injected by a malicious node.
    Malicious,
}

/// A packet to be injected into the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Cycle at which the packet was created (entered the injection queue).
    pub created_at: u64,
    /// Benign or malicious.
    pub class: TrafficClass,
    /// Number of flits the packet serializes into.
    pub length_flits: usize,
}

/// A single flow-control unit traversing the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: PacketId,
    /// Head/body/tail marker.
    pub kind: FlitKind,
    /// Sequence number of the flit within its packet (0 = head).
    pub sequence: usize,
    /// Source node of the packet.
    pub src: NodeId,
    /// Destination node of the packet.
    pub dst: NodeId,
    /// Cycle at which the packet was created.
    pub created_at: u64,
    /// Cycle at which the packet's head flit entered the router fabric,
    /// stamped on every flit when the packet starts injecting. The
    /// network times the packet's network latency from the tail's copy.
    pub injected_at: u64,
    /// Traffic class inherited from the packet.
    pub class: TrafficClass,
}

impl Packet {
    /// Number of flits the packet serializes into: `length_flits`, and at
    /// least one.
    pub fn flit_count(&self) -> usize {
        self.length_flits.max(1)
    }

    /// Flit `i` of the packet, stamped with the head-injection cycle
    /// `injected_at`. This is the one definition of a packet's flits: a
    /// single-flit packet is one [`FlitKind::HeadTail`] flit; longer packets
    /// are `Head`, `Body`*, `Tail`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`Packet::flit_count`].
    pub fn flit(&self, i: usize, injected_at: u64) -> Flit {
        let n = self.flit_count();
        assert!(i < n, "flit {i} of a {n}-flit packet");
        let kind = if n == 1 {
            FlitKind::HeadTail
        } else if i == 0 {
            FlitKind::Head
        } else if i == n - 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        Flit {
            packet: self.id,
            kind,
            sequence: i,
            src: self.src,
            dst: self.dst,
            created_at: self.created_at,
            injected_at,
            class: self.class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(len: usize) -> Packet {
        Packet {
            id: PacketId(1),
            src: NodeId(0),
            dst: NodeId(5),
            created_at: 10,
            class: TrafficClass::Benign,
            length_flits: len,
        }
    }

    fn flits(p: &Packet) -> Vec<Flit> {
        (0..p.flit_count()).map(|i| p.flit(i, 7)).collect()
    }

    #[test]
    fn multi_flit_packet_structure() {
        let flits = flits(&packet(5));
        assert_eq!(flits.len(), 5);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[4].kind, FlitKind::Tail);
        assert!(flits[1..4].iter().all(|f| f.kind == FlitKind::Body));
        assert!(flits.iter().enumerate().all(|(i, f)| f.sequence == i));
    }

    #[test]
    fn single_flit_packet_is_head_tail() {
        let flits = flits(&packet(1));
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head());
        assert!(flits[0].kind.is_tail());
    }

    #[test]
    fn zero_length_packet_still_yields_one_flit() {
        let p = packet(0);
        assert_eq!(p.flit_count(), 1);
        assert_eq!(p.flit(0, 0).kind, FlitKind::HeadTail);
    }

    #[test]
    #[should_panic(expected = "flit 2 of a 2-flit packet")]
    fn flit_index_past_the_tail_panics() {
        packet(2).flit(2, 0);
    }

    #[test]
    fn head_and_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
        assert!(!FlitKind::Body.is_tail());
    }

    #[test]
    fn flits_inherit_packet_metadata() {
        let p = Packet {
            class: TrafficClass::Malicious,
            ..packet(3)
        };
        for f in flits(&p) {
            assert_eq!(f.packet, p.id);
            assert_eq!(f.src, p.src);
            assert_eq!(f.dst, p.dst);
            assert_eq!(f.created_at, p.created_at);
            assert_eq!(f.injected_at, 7);
            assert_eq!(f.class, TrafficClass::Malicious);
        }
    }
}
