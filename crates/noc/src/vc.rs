//! The flat virtual-channel arena: the input ports, virtual channels and
//! flit buffers of every router of a network, in per-network arrays.
//!
//! Ports, VCs and buffer slots are plain indices: port `node * 5 + dir`
//! (`dir` is [`Direction::index`]), VC `port * vcs + v`, and buffer slot
//! `vc * depth + i`, a ring per VC. Every port index exists; a port the
//! router does not have holds no flit and its BOC stays 0. Two bit masks
//! say where the flits are: per router, the ports that hold flits, and per
//! port, the VCs that hold flits.

use crate::flit::{Flit, FlitKind, TrafficClass};
use crate::topology::Direction;

/// Most VCs a port can have: one bit each in a port's `u64` VC mask.
const MAX_VCS: usize = 64;

/// A buffered flit: only what the engine reads, in 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    pub created_at: u64,
    /// Cycle at which the packet's head entered the router fabric.
    pub injected_at: u64,
    /// Cycle at which the flit was written into this buffer; it moves on
    /// in a later cycle at the earliest.
    pub arrived_at: u64,
    pub dst: u32,
    pub kind: FlitKind,
    pub class: TrafficClass,
}

impl Slot {
    /// The slot of `flit` written into a buffer in cycle `arrived_at`.
    pub fn new(flit: &Flit, arrived_at: u64) -> Self {
        Slot {
            created_at: flit.created_at,
            injected_at: flit.injected_at,
            arrived_at,
            // `VcArena::new` bounds the node count to `u32`.
            dst: flit.dst.0 as u32,
            kind: flit.kind,
            class: flit.class,
        }
    }
}

/// One VC: its ring of buffered flits and the routing state of the packet
/// that owns it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VcState {
    /// Ring position of the head-of-line flit.
    head: u16,
    /// Flits buffered.
    len: u16,
    /// Output direction, decided when the packet's head reached the front.
    pub route_out: Option<Direction>,
    /// The VC allocated to the packet at the downstream input port.
    pub downstream_vc: Option<u8>,
    /// Whether a packet owns this VC.
    pub allocated: bool,
}

impl VcState {
    /// Free for allocation: no packet owns it and it holds no flit.
    fn is_free(&self) -> bool {
        !self.allocated && self.len == 0
    }
}

/// The input ports, VCs and flit buffers of every router of a network.
#[derive(Debug, Clone)]
pub(crate) struct VcArena {
    vcs: usize,
    depth: usize,
    /// By VC.
    state: Vec<VcState>,
    /// `depth` ring slots per VC.
    slots: Vec<Slot>,
    /// Buffer reads + writes since the last reset, by port.
    boc: Vec<u64>,
    /// VCs holding flits, bit `v` for VC `v`, by port.
    busy_vcs: Vec<u64>,
    /// Ports holding flits, bit `dir` for port `dir`, by router.
    busy_ports: Vec<u8>,
}

/// The port index of input port `dir` of `node`.
pub(crate) fn port_id(node: usize, dir: Direction) -> usize {
    node * 5 + dir.index()
}

impl VcArena {
    /// Builds the empty arena of `nodes` routers with `vcs` VCs of `depth`
    /// flits per input port.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is zero or above [`MAX_VCS`], if `depth` is zero or
    /// does not fit the 16-bit ring indices, or if the node count does not
    /// fit the 32-bit destinations.
    pub fn new(nodes: usize, vcs: usize, depth: usize) -> Self {
        assert!(vcs > 0, "an input port needs at least one VC");
        assert!(depth > 0, "VC buffer capacity must be non-zero");
        assert!(
            vcs <= MAX_VCS,
            "vcs_per_port {vcs} exceeds the VC arena's limit of {MAX_VCS}"
        );
        assert!(
            u16::try_from(depth).is_ok(),
            "buffer_depth {depth} exceeds the VC arena's limit of {}",
            u16::MAX
        );
        assert!(
            u32::try_from(nodes).is_ok(),
            "{nodes} nodes exceed the VC arena's 32-bit destinations"
        );
        let ports = nodes * 5;
        let empty = Slot {
            created_at: 0,
            injected_at: 0,
            arrived_at: 0,
            dst: 0,
            kind: FlitKind::Body,
            class: TrafficClass::Benign,
        };
        VcArena {
            vcs,
            depth,
            state: vec![VcState::default(); ports * vcs],
            slots: vec![empty; ports * vcs * depth],
            boc: vec![0; ports],
            busy_vcs: vec![0; ports],
            busy_ports: vec![0; nodes],
        }
    }

    /// The ports of router `node` that hold flits, bit `dir` for port `dir`.
    pub fn busy_ports(&self, node: usize) -> u64 {
        self.busy_ports[node] as u64
    }

    /// The VCs of port `port` that hold flits, bit `v` for VC `v`.
    pub fn busy_vcs(&self, port: usize) -> u64 {
        self.busy_vcs[port]
    }

    /// Flits buffered in port `port`.
    pub fn port_flits(&self, port: usize) -> usize {
        let vcs = &self.state[port * self.vcs..(port + 1) * self.vcs];
        vcs.iter().map(|s| s.len as usize).sum()
    }

    /// The state of VC `v` of port `port`.
    pub fn vc_mut(&mut self, port: usize, v: usize) -> &mut VcState {
        &mut self.state[port * self.vcs + v]
    }

    /// The head-of-line flit of VC `v` of port `port`, if any.
    pub fn front(&self, port: usize, v: usize) -> Option<&Slot> {
        let vc = port * self.vcs + v;
        let s = &self.state[vc];
        (s.len > 0).then(|| &self.slots[vc * self.depth + s.head as usize])
    }

    /// Whether VC `v` of port `port` has no free slot (no credit upstream).
    pub fn is_full(&self, port: usize, v: usize) -> bool {
        self.state[port * self.vcs + v].len as usize == self.depth
    }

    /// The lowest free VC of port `port` with index `start` or higher. The
    /// network confines wraparound (dateline) hops to the upper VCs this way.
    pub fn free_vc_from(&self, port: usize, start: usize) -> Option<usize> {
        let vcs = &self.state[port * self.vcs..(port + 1) * self.vcs];
        (start..self.vcs).find(|&v| vcs[v].is_free())
    }

    /// Writes `slot` at the tail of VC `v` of port `port`: one buffer
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if the VC is full — callers must check credits first; a
    /// violation is a flow-control bug.
    pub fn push(&mut self, port: usize, v: usize, slot: Slot) {
        let vc = port * self.vcs + v;
        let s = &mut self.state[vc];
        assert!(
            (s.len as usize) < self.depth,
            "credit violation: pushing into a full VC buffer"
        );
        let i = s.head as usize + s.len as usize;
        self.slots[vc * self.depth + if i >= self.depth { i - self.depth } else { i }] = slot;
        s.len += 1;
        self.boc[port] += 1;
        self.busy_vcs[port] |= 1 << v;
        self.busy_ports[port / 5] |= 1 << (port % 5);
    }

    /// Removes and returns the head-of-line flit of VC `v` of port `port`:
    /// one buffer operation. A tail flit releases the VC.
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty.
    pub fn pop(&mut self, port: usize, v: usize) -> Slot {
        let vc = port * self.vcs + v;
        let s = &mut self.state[vc];
        assert!(s.len > 0, "popping an empty VC buffer");
        let slot = self.slots[vc * self.depth + s.head as usize];
        s.head = if s.head as usize + 1 == self.depth {
            0
        } else {
            s.head + 1
        };
        s.len -= 1;
        if slot.kind.is_tail() {
            s.route_out = None;
            s.downstream_vc = None;
            s.allocated = false;
        }
        if s.len == 0 {
            self.busy_vcs[port] &= !(1 << v);
            if self.busy_vcs[port] == 0 {
                self.busy_ports[port / 5] &= !(1 << (port % 5));
            }
        }
        self.boc[port] += 1;
        slot
    }

    /// Virtual Channel Occupancy of port `port`: the fraction of its VCs
    /// that are not free, in `[0, 1]`.
    pub fn vco(&self, port: usize) -> f32 {
        let vcs = &self.state[port * self.vcs..(port + 1) * self.vcs];
        let occupied = vcs.iter().filter(|s| !s.is_free()).count();
        occupied as f32 / self.vcs as f32
    }

    /// The Buffer Operation Count of port `port` since the last reset.
    pub fn boc(&self, port: usize) -> u64 {
        self.boc[port]
    }

    /// Resets every port's BOC (end of a sampling window).
    pub fn reset_boc(&mut self) {
        self.boc.fill(0);
    }
}

/// The set bits of the `width`-bit `mask`, as bit indices, in the rotated
/// order `offset, offset + 1, …, width − 1, 0, …, offset − 1`: the order in
/// which `(i + offset) % width` visits them for `i` in `0..width`.
#[inline]
pub(crate) fn rotated_bits(mask: u64, offset: usize, width: usize) -> impl Iterator<Item = usize> {
    debug_assert!(offset < width && width <= 64);
    let mut rest = if offset == 0 {
        mask
    } else {
        let low = mask & ((1 << offset) - 1);
        (mask >> offset) | (low << (width - offset))
    };
    std::iter::from_fn(move || {
        if rest == 0 {
            return None;
        }
        let bit = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        let i = bit + offset;
        Some(if i >= width { i - width } else { i })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    /// Two routers, as in a 1×2 mesh.
    fn arena(vcs: usize, depth: usize) -> VcArena {
        VcArena::new(2, vcs, depth)
    }

    const EAST: usize = 0; // port_id(0, Direction::East)

    fn slot(created_at: u64, kind: FlitKind) -> Slot {
        Slot {
            created_at,
            injected_at: 0,
            arrived_at: 0,
            dst: 1,
            kind,
            class: TrafficClass::Benign,
        }
    }

    #[test]
    fn slots_are_32_bytes() {
        assert_eq!(size_of::<Slot>(), 32);
        assert_eq!(size_of::<VcState>(), 8);
    }

    #[test]
    fn vc_fifo_order_preserved() {
        let mut a = arena(1, 3);
        // Interleave pushes and pops so both ends wrap around the ring.
        let mut next_pop = 0;
        for (seq, pops_after) in [0u64, 1, 2, 3, 4, 5, 6, 7]
            .into_iter()
            .zip([0, 1, 0, 1, 2, 0, 1, 3])
        {
            a.push(EAST, 0, slot(seq, FlitKind::Body));
            for _ in 0..pops_after {
                assert_eq!(a.pop(EAST, 0).created_at, next_pop);
                next_pop += 1;
            }
        }
        assert_eq!(next_pop, 8);
        assert!(a.front(EAST, 0).is_none());
    }

    #[test]
    fn vc_full_and_empty_flags() {
        let mut a = arena(1, 2);
        assert!(a.front(EAST, 0).is_none());
        assert!(!a.is_full(EAST, 0));
        a.push(EAST, 0, slot(0, FlitKind::Body));
        a.push(EAST, 0, slot(1, FlitKind::Body));
        assert!(a.is_full(EAST, 0));
        assert_eq!(a.front(EAST, 0).map(|s| s.created_at), Some(0));
    }

    #[test]
    #[should_panic(expected = "credit violation")]
    fn overfilling_vc_panics() {
        let mut a = arena(1, 1);
        a.push(EAST, 0, slot(0, FlitKind::Body));
        a.push(EAST, 0, slot(1, FlitKind::Body));
    }

    #[test]
    fn occupied_tracks_allocation_and_buffer() {
        let mut a = arena(1, 2);
        assert_eq!(a.vco(EAST), 0.0);
        a.vc_mut(EAST, 0).allocated = true;
        assert_eq!(a.vco(EAST), 1.0);
        a.vc_mut(EAST, 0).downstream_vc = Some(0);
        a.vc_mut(EAST, 0).route_out = Some(Direction::East);
        a.push(EAST, 0, slot(0, FlitKind::Tail));
        a.pop(EAST, 0);
        // The tail released the VC.
        assert_eq!(a.vco(EAST), 0.0);
        let vc = *a.vc_mut(EAST, 0);
        assert_eq!((vc.route_out, vc.downstream_vc), (None, None));
        a.push(EAST, 0, slot(0, FlitKind::Head));
        assert_eq!(a.vco(EAST), 1.0);
    }

    #[test]
    fn port_vco_reflects_occupied_fraction() {
        let mut a = arena(4, 2);
        assert_eq!(a.vco(EAST), 0.0);
        a.vc_mut(EAST, 0).allocated = true;
        a.push(EAST, 1, slot(0, FlitKind::Body));
        assert!((a.vco(EAST) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn port_free_vc_skips_allocated() {
        let mut a = arena(2, 2);
        a.vc_mut(EAST, 0).allocated = true;
        assert_eq!(a.free_vc_from(EAST, 0), Some(1));
        a.vc_mut(EAST, 1).allocated = true;
        assert_eq!(a.free_vc_from(EAST, 0), None);
    }

    #[test]
    fn free_vc_from_respects_lower_bound() {
        let mut a = arena(4, 2);
        assert_eq!(a.free_vc_from(EAST, 0), Some(0));
        assert_eq!(a.free_vc_from(EAST, 2), Some(2));
        assert_eq!(a.free_vc_from(EAST, 4), None);
        a.vc_mut(EAST, 2).allocated = true;
        assert_eq!(a.free_vc_from(EAST, 2), Some(3));
        // A VC that still holds flits is not free either.
        a.push(EAST, 3, slot(0, FlitKind::Body));
        assert_eq!(a.free_vc_from(EAST, 2), None);
    }

    #[test]
    fn boc_accumulates_and_resets() {
        let mut a = arena(2, 2);
        a.push(EAST, 0, slot(0, FlitKind::Body));
        a.push(EAST, 1, slot(0, FlitKind::Body));
        a.pop(EAST, 0);
        assert_eq!(a.boc(EAST), 3);
        a.reset_boc();
        assert_eq!(a.boc(EAST), 0);
    }

    #[test]
    fn buffered_flits_counts_across_vcs() {
        let mut a = arena(2, 4);
        let west = port_id(1, Direction::West);
        a.push(EAST, 0, slot(0, FlitKind::Body));
        a.push(EAST, 1, slot(1, FlitKind::Body));
        a.push(EAST, 1, slot(2, FlitKind::Body));
        a.push(west, 0, slot(3, FlitKind::Body));
        assert_eq!(a.port_flits(EAST), 3);
        assert_eq!(a.port_flits(west), 1);
        assert_eq!(a.busy_vcs(EAST), 0b11);
        assert_eq!(a.busy_ports(0), 1 << Direction::East.index());
        assert_eq!(a.busy_ports(1), 1 << Direction::West.index());
        a.pop(EAST, 1);
        assert_eq!(a.port_flits(EAST), 2);
        assert_eq!(a.busy_vcs(EAST), 0b11);
        a.pop(EAST, 1);
        assert_eq!(a.busy_vcs(EAST), 0b01);
        a.pop(EAST, 0);
        assert_eq!(a.busy_vcs(EAST), 0);
        assert_eq!(a.busy_ports(0), 0);
        assert_eq!(a.busy_ports(1), 1 << Direction::West.index());
    }

    #[test]
    fn rotated_bits_follow_the_rotation_order() {
        for width in [1, 2, 5, 7, 64] {
            for offset in 0..width {
                for mask in [0u64, 1, 0b1011, 0x8000_0000_0000_0001, u64::MAX] {
                    let mask = if width == 64 {
                        mask
                    } else {
                        mask & ((1 << width) - 1)
                    };
                    let expected: Vec<usize> = (0..width)
                        .map(|i| (i + offset) % width)
                        .filter(|&b| mask >> b & 1 == 1)
                        .collect();
                    let got: Vec<usize> = rotated_bits(mask, offset, width).collect();
                    assert_eq!(
                        got, expected,
                        "mask {mask:#x} offset {offset} width {width}"
                    );
                }
            }
        }
    }
}
