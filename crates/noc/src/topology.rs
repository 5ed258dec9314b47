//! NoC geometry: node identifiers, coordinates, port directions and the
//! [`Topology`] value that owns neighbour maps and minimal routing.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A node (tile/router) identifier: `id = y * cols + x`.
///
/// This is the numbering the paper's Table-Like Method assumes: the East
/// neighbour of node `n` is `n + 1`, the North neighbour is `n + cols`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// A mesh coordinate. `x` grows towards the East, `y` grows towards the
/// North.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Coord {
    /// Column (0 = westmost).
    pub x: usize,
    /// Row (0 = southmost).
    pub y: usize,
}

impl Coord {
    /// Creates a coordinate.
    pub fn new(x: usize, y: usize) -> Self {
        Coord { x, y }
    }

    /// Converts a node id into a coordinate on a mesh with `cols` columns.
    pub fn from_id(id: NodeId, cols: usize) -> Self {
        Coord {
            x: id.0 % cols,
            y: id.0 / cols,
        }
    }

    /// Converts the coordinate back into a node id on a mesh with `cols`
    /// columns.
    pub fn to_id(self, cols: usize) -> NodeId {
        NodeId(self.y * cols + self.x)
    }

    /// Manhattan (hop) distance to another coordinate.
    pub fn manhattan(self, other: Coord) -> usize {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A port direction on a mesh router.
///
/// `Local` is the network-interface port connecting the router to its tile.
/// The four cardinal directions name *where the neighbour is*: a flit that
/// arrives on the **East input port** was sent by the East neighbour
/// (`id + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Towards/from the neighbour at `id + 1`.
    East,
    /// Towards/from the neighbour at `id + cols`.
    North,
    /// Towards/from the neighbour at `id - 1`.
    West,
    /// Towards/from the neighbour at `id - cols`.
    South,
    /// The local tile / network interface.
    Local,
}

impl Direction {
    /// The four cardinal directions in the paper's `E, N, W, S` order.
    pub const CARDINAL: [Direction; 4] = [
        Direction::East,
        Direction::North,
        Direction::West,
        Direction::South,
    ];

    /// All five port directions.
    pub const ALL: [Direction; 5] = [
        Direction::East,
        Direction::North,
        Direction::West,
        Direction::South,
        Direction::Local,
    ];

    /// The opposite cardinal direction. `Local` is its own opposite.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::Local => Direction::Local,
        }
    }

    /// A stable small index for array-indexed port storage
    /// (E=0, N=1, W=2, S=3, Local=4).
    pub fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::North => 1,
            Direction::West => 2,
            Direction::South => 3,
            Direction::Local => 4,
        }
    }

    /// The inverse of [`Direction::index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx > 4`.
    pub fn from_index(idx: usize) -> Direction {
        Direction::ALL[idx]
    }

    /// Single-letter label used in frame names (`E`, `N`, `W`, `S`, `L`).
    pub fn letter(self) -> char {
        match self {
            Direction::East => 'E',
            Direction::North => 'N',
            Direction::West => 'W',
            Direction::South => 'S',
            Direction::Local => 'L',
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// Error returned by the fallible [`Topology`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A node id that does not exist in the topology.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes the topology actually has.
        node_count: usize,
    },
    /// A topology name that [`Topology::parse`] could not understand.
    UnknownName(String),
    /// Dimensions that are invalid for the requested topology family
    /// (zero-sized, or wraparound over fewer than two nodes per dimension).
    InvalidDims {
        /// The topology family.
        kind: TopologyKind,
        /// Requested rows.
        rows: usize,
        /// Requested columns.
        cols: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NodeOutOfRange { node, node_count } => {
                write!(f, "{node} outside the {node_count}-node topology")
            }
            TopologyError::UnknownName(s) => {
                write!(
                    f,
                    "unknown topology {s:?} (expected e.g. \"mesh4\", \"torus4\", \"ring4\")"
                )
            }
            TopologyError::InvalidDims { kind, rows, cols } => {
                write!(
                    f,
                    "invalid dimensions {rows}x{cols} for a {} topology",
                    kind.name()
                )
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The topology family of a NoC instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// 2-D mesh — edge routers lack the outward-facing ports.
    Mesh,
    /// 2-D torus — every row and column closes into a ring through
    /// wraparound links, so all routers have all five ports.
    Torus,
    /// Routerless-style bidirectional ring over the row-major node order —
    /// routers only have East/West/Local ports.
    Ring,
}

impl TopologyKind {
    /// The lowercase family name used in spec axes (`"mesh"`, `"torus"`,
    /// `"ring"`).
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
            TopologyKind::Ring => "ring",
        }
    }
}

/// A NoC topology: a family plus its `rows × cols` geometry, with node
/// enumeration, coordinates, neighbour/port maps and deadlock-free minimal
/// routing.
///
/// This is the one description of NoC geometry shared by the simulator, the
/// traffic layer and the monitor. The fields are private and every
/// constructor goes through [`Topology::new`], so every value has passed the
/// dimension check. Out-of-range nodes surface as `Option`/[`Result`]
/// values.
///
/// # Examples
///
/// ```
/// use noc_sim::{Direction, NodeId, Topology};
///
/// let torus = Topology::parse("torus4").unwrap();
/// // Wraparound: the East neighbour of the east edge is the west edge.
/// assert_eq!(torus.neighbor(NodeId(3), Direction::East), Some(NodeId(0)));
/// // Minimal routing takes the wrap link when it is shorter.
/// assert_eq!(torus.route_path(NodeId(0), NodeId(3)).unwrap(),
///            vec![NodeId(0), NodeId(3)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    kind: TopologyKind,
    rows: usize,
    cols: usize,
}

impl Topology {
    /// Creates a `rows × cols` topology of the given family.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidDims`] unless a mesh is at least 1x1,
    /// a torus at least 2x2 (smaller wraparound links would degenerate into
    /// self-loops) and a ring at least 2 nodes.
    pub fn new(kind: TopologyKind, rows: usize, cols: usize) -> Result<Self, TopologyError> {
        let valid = match kind {
            TopologyKind::Mesh => rows > 0 && cols > 0,
            TopologyKind::Torus => rows >= 2 && cols >= 2,
            TopologyKind::Ring => rows > 0 && cols > 0 && rows * cols >= 2,
        };
        if valid {
            Ok(Topology { kind, rows, cols })
        } else {
            Err(TopologyError::InvalidDims { kind, rows, cols })
        }
    }

    fn new_or_panic(kind: TopologyKind, rows: usize, cols: usize) -> Self {
        Topology::new(kind, rows, cols).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a mesh topology.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero (see [`Topology::new`]).
    pub fn mesh(rows: usize, cols: usize) -> Self {
        Topology::new_or_panic(TopologyKind::Mesh, rows, cols)
    }

    /// Creates a torus topology.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2 (see [`Topology::new`]).
    pub fn torus(rows: usize, cols: usize) -> Self {
        Topology::new_or_panic(TopologyKind::Torus, rows, cols)
    }

    /// Creates a ring topology over `rows * cols` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the ring would have fewer than two nodes (see
    /// [`Topology::new`]).
    pub fn ring(rows: usize, cols: usize) -> Self {
        Topology::new_or_panic(TopologyKind::Ring, rows, cols)
    }

    /// Parses a spec-axis topology name: a family prefix followed by a
    /// square side (`"mesh4"`, `"torus8"`, `"ring4"`) or explicit
    /// `rows x cols` dims (`"mesh4x8"`).
    pub fn parse(name: &str) -> Result<Self, TopologyError> {
        let unknown = || TopologyError::UnknownName(name.to_string());
        let trimmed = name.trim();
        let kinds = [
            ("torus", TopologyKind::Torus),
            ("mesh", TopologyKind::Mesh),
            ("ring", TopologyKind::Ring),
        ];
        let (kind, rest) = kinds
            .into_iter()
            .find_map(|(prefix, kind)| Some((kind, trimmed.strip_prefix(prefix)?)))
            .ok_or_else(unknown)?;
        let (rows, cols) = match rest.split_once('x') {
            Some((r, c)) => (r.parse(), c.parse()),
            None => (rest.parse(), rest.parse()),
        };
        match (rows, cols) {
            (Ok(rows), Ok(cols)) => Topology::new(kind, rows, cols),
            _ => Err(unknown()),
        }
    }

    /// The spec-axis name of this topology (`"mesh4"`, `"torus4x8"`, ...).
    /// Round-trips through [`Topology::parse`].
    pub fn name(&self) -> String {
        let (rows, cols) = (self.rows, self.cols);
        if rows == cols {
            format!("{}{rows}", self.kind.name())
        } else {
            format!("{}{rows}x{cols}", self.kind.name())
        }
    }

    /// The topology family.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Frame rows (the monitor's sampling geometry).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Frame columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Returns `true` if `id` is a valid node of this topology.
    pub fn contains(&self, id: NodeId) -> bool {
        id.0 < self.node_count()
    }

    /// The coordinate of a node, or `None` if the node is out of range.
    pub fn coord(&self, id: NodeId) -> Option<Coord> {
        if self.contains(id) {
            Some(Coord::from_id(id, self.cols))
        } else {
            None
        }
    }

    /// The neighbour of `id` in direction `dir`, or `None` when there is no
    /// link that way (mesh edge, non-ring direction, `Local`, or an
    /// out-of-range node).
    pub fn neighbor(&self, id: NodeId, dir: Direction) -> Option<NodeId> {
        let c = self.coord(id)?;
        let (rows, cols) = (self.rows, self.cols);
        let n = match self.kind {
            TopologyKind::Mesh => match dir {
                Direction::East if c.x + 1 < cols => Coord::new(c.x + 1, c.y),
                Direction::West if c.x > 0 => Coord::new(c.x - 1, c.y),
                Direction::North if c.y + 1 < rows => Coord::new(c.x, c.y + 1),
                Direction::South if c.y > 0 => Coord::new(c.x, c.y - 1),
                _ => return None,
            },
            TopologyKind::Torus => match dir {
                Direction::East => Coord::new((c.x + 1) % cols, c.y),
                Direction::West => Coord::new((c.x + cols - 1) % cols, c.y),
                Direction::North => Coord::new(c.x, (c.y + 1) % rows),
                Direction::South => Coord::new(c.x, (c.y + rows - 1) % rows),
                Direction::Local => return None,
            },
            TopologyKind::Ring => {
                let n = self.node_count();
                return match dir {
                    Direction::East => Some(NodeId((id.0 + 1) % n)),
                    Direction::West => Some(NodeId((id.0 + n - 1) % n)),
                    _ => None,
                };
            }
        };
        Some(n.to_id(cols))
    }

    /// Whether the router at `id` has an input port from direction `dir`.
    pub fn has_input_port(&self, id: NodeId, dir: Direction) -> bool {
        dir == Direction::Local || self.neighbor(id, dir).is_some()
    }

    /// Whether stepping from `id` in direction `dir` traverses a wraparound
    /// link. Always `false` on a mesh. Wrap hops are the dateline the
    /// simulator's VC allocation keys on to break cyclic channel
    /// dependencies.
    pub fn is_wrap_link(&self, id: NodeId, dir: Direction) -> bool {
        if !self.contains(id) {
            return false;
        }
        match self.kind {
            TopologyKind::Mesh => false,
            TopologyKind::Torus => {
                let c = Coord::from_id(id, self.cols);
                match dir {
                    Direction::East => c.x + 1 == self.cols,
                    Direction::West => c.x == 0,
                    Direction::North => c.y + 1 == self.rows,
                    Direction::South => c.y == 0,
                    Direction::Local => false,
                }
            }
            TopologyKind::Ring => match dir {
                Direction::East => id.0 + 1 == self.node_count(),
                Direction::West => id.0 == 0,
                _ => false,
            },
        }
    }

    /// The output direction a router at `current` chooses for a flit
    /// destined to `dst` under this topology's deterministic minimal
    /// routing. Returns [`Direction::Local`] when `current == dst`.
    ///
    /// * Mesh: XY dimension-order routing — correct the X (east/west)
    ///   offset, then the Y (north/south) offset. Benign traffic and
    ///   flooding attackers both follow it, so an attack path is the
    ///   deterministic L-shaped route the paper's Victim Completing
    ///   Enhancement and Table-Like Method rely on.
    /// * Torus: dimension-order routing that picks the shorter way around
    ///   each ring (ties break East/North).
    /// * Ring: the shorter way around the ring (ties break East).
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_sim::{Direction, NodeId, Topology};
    ///
    /// let mesh = Topology::mesh(4, 4);
    /// // Node 0 -> node 5 goes East first.
    /// assert_eq!(mesh.next_hop(NodeId(0), NodeId(5)), Direction::East);
    /// // Once X is aligned (node 1 -> node 5), it goes North.
    /// assert_eq!(mesh.next_hop(NodeId(1), NodeId(5)), Direction::North);
    /// ```
    pub fn next_hop(&self, current: NodeId, dst: NodeId) -> Direction {
        let (rows, cols) = (self.rows, self.cols);
        let c = Coord::from_id(current, cols);
        let d = Coord::from_id(dst, cols);
        match self.kind {
            TopologyKind::Mesh => {
                if c.x < d.x {
                    Direction::East
                } else if c.x > d.x {
                    Direction::West
                } else if c.y < d.y {
                    Direction::North
                } else if c.y > d.y {
                    Direction::South
                } else {
                    Direction::Local
                }
            }
            TopologyKind::Torus => {
                if c.x != d.x {
                    let east = (d.x + cols - c.x) % cols;
                    let west = (c.x + cols - d.x) % cols;
                    if east <= west {
                        Direction::East
                    } else {
                        Direction::West
                    }
                } else if c.y != d.y {
                    let north = (d.y + rows - c.y) % rows;
                    let south = (c.y + rows - d.y) % rows;
                    if north <= south {
                        Direction::North
                    } else {
                        Direction::South
                    }
                } else {
                    Direction::Local
                }
            }
            TopologyKind::Ring => {
                let n = self.node_count();
                let fwd = (dst.0 + n - current.0) % n;
                let back = (current.0 + n - dst.0) % n;
                if fwd == 0 {
                    Direction::Local
                } else if fwd <= back {
                    Direction::East
                } else {
                    Direction::West
                }
            }
        }
    }

    /// The minimal hop distance between two nodes, or `None` if either is
    /// out of range.
    pub fn min_distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let ca = self.coord(a)?;
        let cb = self.coord(b)?;
        Some(match self.kind {
            TopologyKind::Mesh => ca.manhattan(cb),
            TopologyKind::Torus => {
                let dx = ca.x.abs_diff(cb.x);
                let dy = ca.y.abs_diff(cb.y);
                dx.min(self.cols - dx) + dy.min(self.rows - dy)
            }
            TopologyKind::Ring => {
                let d = a.0.abs_diff(b.0);
                d.min(self.node_count() - d)
            }
        })
    }

    /// The full minimal route from `src` to `dst` (inclusive of both
    /// endpoints) under [`Topology::next_hop`], or an error when either
    /// endpoint is out of range.
    ///
    /// On a mesh this is the XY route: the set of nodes the paper calls
    /// *routing-path victims* when `src` is an attacker and `dst` the target
    /// victim.
    pub fn route_path(&self, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>, TopologyError> {
        for node in [src, dst] {
            if !self.contains(node) {
                return Err(TopologyError::NodeOutOfRange {
                    node,
                    node_count: self.node_count(),
                });
            }
        }
        let mut path = vec![src];
        let mut current = src;
        while current != dst {
            let dir = self.next_hop(current, dst);
            current = self
                .neighbor(current, dir)
                .expect("minimal routing never points off the topology");
            path.push(current);
        }
        Ok(path)
    }

    /// Iterates over all node ids in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_coord_round_trip() {
        let mesh = Topology::mesh(4, 4);
        for id in mesh.nodes() {
            assert_eq!(mesh.coord(id).unwrap().to_id(4), id);
        }
    }

    #[test]
    fn neighbor_arithmetic_matches_paper_convention() {
        let mesh = Topology::mesh(16, 16);
        // Interior node: East = +1, West = -1, North = +16, South = -16.
        let id = NodeId(100);
        assert_eq!(mesh.neighbor(id, Direction::East), Some(NodeId(101)));
        assert_eq!(mesh.neighbor(id, Direction::West), Some(NodeId(99)));
        assert_eq!(mesh.neighbor(id, Direction::North), Some(NodeId(116)));
        assert_eq!(mesh.neighbor(id, Direction::South), Some(NodeId(84)));
    }

    #[test]
    fn corner_nodes_have_two_neighbors() {
        let mesh = Topology::mesh(4, 4);
        let corners = [NodeId(0), NodeId(3), NodeId(12), NodeId(15)];
        for c in corners {
            let n = Direction::CARDINAL
                .iter()
                .filter(|&&d| mesh.neighbor(c, d).is_some())
                .count();
            assert_eq!(n, 2, "corner {c} should have exactly 2 neighbours");
        }
    }

    #[test]
    fn edge_nodes_have_three_neighbors() {
        let mesh = Topology::mesh(4, 4);
        let edges = [NodeId(1), NodeId(2), NodeId(4), NodeId(7), NodeId(13)];
        for e in edges {
            let n = Direction::CARDINAL
                .iter()
                .filter(|&&d| mesh.neighbor(e, d).is_some())
                .count();
            assert_eq!(n, 3, "edge {e} should have exactly 3 neighbours");
        }
    }

    #[test]
    fn interior_nodes_have_four_neighbors() {
        let mesh = Topology::mesh(4, 4);
        for id in [NodeId(5), NodeId(6), NodeId(9), NodeId(10)] {
            let n = Direction::CARDINAL
                .iter()
                .filter(|&&d| mesh.neighbor(id, d).is_some())
                .count();
            assert_eq!(n, 4);
        }
    }

    #[test]
    fn opposite_directions() {
        assert_eq!(Direction::East.opposite(), Direction::West);
        assert_eq!(Direction::North.opposite(), Direction::South);
        assert_eq!(Direction::Local.opposite(), Direction::Local);
        for d in Direction::CARDINAL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn direction_index_round_trip() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_index(d.index()), d);
        }
    }

    #[test]
    fn manhattan_distance() {
        let a = Coord::new(0, 0);
        let b = Coord::new(3, 2);
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(b.manhattan(a), 5);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn has_input_port_respects_edges() {
        let mesh = Topology::mesh(4, 4);
        // Node 0 is the SW corner: no West, no South inputs.
        assert!(!mesh.has_input_port(NodeId(0), Direction::West));
        assert!(!mesh.has_input_port(NodeId(0), Direction::South));
        assert!(mesh.has_input_port(NodeId(0), Direction::East));
        assert!(mesh.has_input_port(NodeId(0), Direction::North));
        assert!(mesh.has_input_port(NodeId(0), Direction::Local));
    }

    #[test]
    fn topology_parse_round_trips() {
        for name in ["mesh4", "mesh8", "torus4", "ring4", "mesh4x8", "torus2x16"] {
            let t = Topology::parse(name).unwrap();
            assert_eq!(t.name(), name, "parse/name round trip for {name}");
            assert_eq!(Topology::parse(&t.name()).unwrap(), t);
        }
    }

    #[test]
    fn topology_parse_rejects_garbage() {
        for name in [
            "",
            "mesh",
            "mesh0",
            "torus1",
            "ring1x1",
            "hypercube4",
            "mesh4x",
            "4mesh",
        ] {
            assert!(Topology::parse(name).is_err(), "{name:?} should not parse");
        }
    }

    #[test]
    fn new_holds_the_dimension_rule() {
        for (kind, rows, cols) in [
            (TopologyKind::Mesh, 0, 4),
            (TopologyKind::Torus, 1, 4),
            (TopologyKind::Ring, 1, 1),
        ] {
            assert_eq!(
                Topology::new(kind, rows, cols),
                Err(TopologyError::InvalidDims { kind, rows, cols })
            );
        }
        assert!(Topology::new(TopologyKind::Mesh, 1, 1).is_ok());
        assert!(Topology::new(TopologyKind::Torus, 2, 2).is_ok());
        assert!(Topology::new(TopologyKind::Ring, 1, 2).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid dimensions 2x0 for a mesh topology")]
    fn shorthand_constructors_panic_with_the_error_text() {
        Topology::mesh(2, 0);
    }

    #[test]
    fn torus_wraps_all_four_edges() {
        let t = Topology::torus(4, 4);
        // SW corner: West wraps to the east edge, South wraps to the north.
        assert_eq!(t.neighbor(NodeId(0), Direction::West), Some(NodeId(3)));
        assert_eq!(t.neighbor(NodeId(0), Direction::South), Some(NodeId(12)));
        assert_eq!(t.neighbor(NodeId(3), Direction::East), Some(NodeId(0)));
        assert_eq!(t.neighbor(NodeId(15), Direction::North), Some(NodeId(3)));
        // Every torus router has all five ports.
        for id in t.nodes() {
            for dir in Direction::ALL {
                assert!(t.has_input_port(id, dir));
            }
        }
    }

    #[test]
    fn torus_wrap_links_only_at_edges() {
        let t = Topology::torus(4, 4);
        assert!(t.is_wrap_link(NodeId(0), Direction::West));
        assert!(t.is_wrap_link(NodeId(0), Direction::South));
        assert!(!t.is_wrap_link(NodeId(0), Direction::East));
        assert!(t.is_wrap_link(NodeId(3), Direction::East));
        assert!(!t.is_wrap_link(NodeId(5), Direction::East));
        assert!(!t.is_wrap_link(NodeId(5), Direction::West));
    }

    #[test]
    fn ring_has_only_east_west_ports() {
        let r = Topology::ring(4, 4);
        for id in r.nodes() {
            assert!(r.has_input_port(id, Direction::East));
            assert!(r.has_input_port(id, Direction::West));
            assert!(r.has_input_port(id, Direction::Local));
            assert!(!r.has_input_port(id, Direction::North));
            assert!(!r.has_input_port(id, Direction::South));
        }
        assert_eq!(r.neighbor(NodeId(15), Direction::East), Some(NodeId(0)));
        assert_eq!(r.neighbor(NodeId(0), Direction::West), Some(NodeId(15)));
        assert!(r.is_wrap_link(NodeId(15), Direction::East));
        assert!(r.is_wrap_link(NodeId(0), Direction::West));
        assert!(!r.is_wrap_link(NodeId(7), Direction::East));
    }

    #[test]
    fn torus_takes_shorter_wrap() {
        let t = Topology::torus(4, 4);
        // 0 -> 3 is 3 hops east but 1 hop west around the wrap.
        assert_eq!(t.next_hop(NodeId(0), NodeId(3)), Direction::West);
        assert_eq!(
            t.route_path(NodeId(0), NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(3)]
        );
        assert_eq!(t.min_distance(NodeId(0), NodeId(3)), Some(1));
        // Opposite corners: 2 hops on the torus vs 6 on the mesh.
        assert_eq!(t.min_distance(NodeId(0), NodeId(15)), Some(2));
        // Equidistant ties break East then North.
        assert_eq!(t.next_hop(NodeId(0), NodeId(2)), Direction::East);
        assert_eq!(t.next_hop(NodeId(0), NodeId(8)), Direction::North);
    }

    #[test]
    fn out_of_range_nodes_are_errors_not_panics() {
        let t = Topology::mesh(2, 2);
        assert_eq!(t.coord(NodeId(4)), None);
        assert_eq!(t.neighbor(NodeId(4), Direction::East), None);
        assert_eq!(t.min_distance(NodeId(0), NodeId(4)), None);
        assert!(matches!(
            t.route_path(NodeId(0), NodeId(4)),
            Err(TopologyError::NodeOutOfRange {
                node: NodeId(4),
                node_count: 4
            })
        ));
    }

    mod routing_invariants {
        use super::*;
        use proptest::prelude::*;

        fn assert_valid_minimal_route(topo: &Topology, src: NodeId, dst: NodeId) {
            let path = topo.route_path(src, dst).unwrap();
            assert_eq!(*path.first().unwrap(), src);
            assert_eq!(*path.last().unwrap(), dst);
            // Every consecutive pair is joined by a real link.
            for w in path.windows(2) {
                let adjacent = Direction::CARDINAL
                    .into_iter()
                    .any(|d| topo.neighbor(w[0], d) == Some(w[1]));
                assert!(adjacent, "{} -> {} is not a link of {}", w[0], w[1], topo);
            }
            // The route respects the minimal (wraparound-aware) distance.
            assert_eq!(path.len(), topo.min_distance(src, dst).unwrap() + 1);
        }

        proptest! {
            #[test]
            fn torus_routes_are_valid_adjacent_and_minimal(
                src in 0usize..64, dst in 0usize..64
            ) {
                let t = Topology::torus(8, 8);
                assert_valid_minimal_route(&t, NodeId(src), NodeId(dst));
            }

            #[test]
            fn ring_routes_are_valid_adjacent_and_minimal(
                src in 0usize..16, dst in 0usize..16
            ) {
                let r = Topology::ring(4, 4);
                assert_valid_minimal_route(&r, NodeId(src), NodeId(dst));
            }

            #[test]
            fn rectangular_torus_routes_hold(
                src in 0usize..32, dst in 0usize..32
            ) {
                let t = Topology::torus(4, 8);
                assert_valid_minimal_route(&t, NodeId(src), NodeId(dst));
            }

            #[test]
            fn mesh_paths_bit_identical_to_seed(
                src in 0usize..64, dst in 0usize..64
            ) {
                // The seed's XY routing, kept verbatim as the oracle: X first,
                // then Y, stepping by the paper's `±1` / `±cols` arithmetic.
                let cols = 8;
                let seed_next_hop = |current: usize, dst: usize| {
                    let (cx, cy, dx, dy) = (current % cols, current / cols, dst % cols, dst / cols);
                    if cx < dx {
                        Direction::East
                    } else if cx > dx {
                        Direction::West
                    } else if cy < dy {
                        Direction::North
                    } else if cy > dy {
                        Direction::South
                    } else {
                        Direction::Local
                    }
                };
                let mut seed_path = vec![NodeId(src)];
                let mut current = src;
                while current != dst {
                    current = match seed_next_hop(current, dst) {
                        Direction::East => current + 1,
                        Direction::West => current - 1,
                        Direction::North => current + cols,
                        Direction::South => current - cols,
                        Direction::Local => unreachable!(),
                    };
                    seed_path.push(NodeId(current));
                }
                let topo = Topology::mesh(8, 8);
                prop_assert_eq!(seed_path, topo.route_path(NodeId(src), NodeId(dst)).unwrap());
                prop_assert_eq!(seed_next_hop(src, dst), topo.next_hop(NodeId(src), NodeId(dst)));
            }
        }
    }
}
