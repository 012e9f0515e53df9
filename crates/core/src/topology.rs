//! Pluggable topologies: the engine-facing abstraction that lets the
//! session layer, fault planner, fallback validator, and health monitor
//! work against *any* network shape instead of a hard-coded torus.
//!
//! A [`Topology`] enumerates nodes and links, tags every link with a
//! [`WireClass`], builds a flat routing table ([`TopoRouteLut`]), prices
//! itself from the FPGA price list ([`crate::resources`]), and
//! answers fault-validation questions such as *does removing this link
//! partition the graph?* ([`Topology::connected_without`]). A torus
//! configuration ([`NocConfig`]) is a topology as it stands; the first
//! non-torus backend is the Sparse Hamming Graph ([`ShgTopology`], after
//! Iff et al., "Sparse Hamming Graph: A Customizable Network-on-Chip
//! Topology", arXiv 2211.13980).
//!
//! [`TopologySpec`] is the uniform textual surface (`hoplite:8`,
//! `ft:8:2:1`, `shg:8:2`, `mesh:4:4`) shared by the CLI, scenario-trace
//! headers, and sweep grids.
//!
//! ```
//! use fasttrack_core::topology::{Topology, TopologySpec};
//! use fasttrack_core::config::NocConfig;
//!
//! let topo = NocConfig::hoplite(4).unwrap();
//! assert_eq!(topo.num_nodes(), 16);
//! // Every node of the plain torus has exactly two outgoing links.
//! assert!((0..16).all(|v| topo.out_links(v).len() == 2));
//! // The spec grammar round-trips.
//! let spec: TopologySpec = "shg:8:2".parse().unwrap();
//! assert_eq!(spec.to_string(), "shg:8:2");
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

use crate::config::{ConfigError, FtPolicy, NocConfig, NocKind};
use crate::fallback::{FallbackConfig, FallbackError};
use crate::fault::{Fault, FaultError};
use crate::geom::Coord;
use crate::mesh::{MeshConfig, MeshConfigError, MeshTopology};
use crate::noc::LINK_INPUTS;
use crate::port::{InPort, OutPort};
use crate::resources::{self, ResourceCost};
use crate::router::RouterClass;
use crate::routing::compute_prefs;

/// The FPGA wire class a link is mapped onto — the paper's core
/// distinction between plentiful short wires and scarce long wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireClass {
    /// A single-hop link on ordinary routing fabric.
    Short,
    /// A multi-hop link on long/express wires (covers `span` router
    /// positions in one cycle).
    Express,
}

/// One directed link of a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDesc {
    /// Node the link leaves from.
    pub src: usize,
    /// Node the link arrives at.
    pub dst: usize,
    /// Output slot at `src`: the engine's register index for this
    /// output (unique per node, not necessarily dense).
    pub slot: usize,
    /// The port class the engine uses for this slot in events, faults,
    /// and statistics.
    pub port: OutPort,
    /// Wire class of the link.
    pub class: WireClass,
    /// Router positions covered in one traversal (1 for short links).
    pub span: u16,
    /// Cycles one traversal takes (1 plus any pipeline registers).
    pub cycles: u16,
}

/// Topology-derived sizing for a [`crate::monitor::HealthMonitor`] —
/// the replacement for the old `SessionBackend::monitor_n() -> u16`
/// torus side length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorShape {
    /// Total nodes in the fabric.
    pub nodes: usize,
    /// Monitored link classes per node (the hotspot EWMA table is
    /// `nodes * links_per_node` flat link keys wide). All current
    /// topologies report their links through the four non-`Exit`
    /// [`OutPort`] classes, so this is at most [`OutPort::ALL`]` - 1`.
    pub links_per_node: usize,
    /// Grid side length when the topology is a square grid — used by
    /// the livelock detector's dimension-ordered distance reference.
    /// `None` disables the DOR-distance multiple and falls back to the
    /// absolute hop floor.
    pub grid_side: Option<u16>,
    /// Parallel channels multiplexed over the monitored links.
    pub channels: usize,
}

impl MonitorShape {
    /// The shape of an `n × n` single-channel torus (or any square grid
    /// monitored at [`OutPort`]-class granularity).
    pub(crate) fn torus(n: u16) -> Self {
        MonitorShape {
            nodes: usize::from(n) * usize::from(n),
            links_per_node: 4,
            grid_side: Some(n),
            channels: 1,
        }
    }

    /// The same shape with `channels` parallel channels (normalized to
    /// at least 1).
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels.max(1);
        self
    }

    /// Total monitored link keys.
    pub(crate) fn num_links(&self) -> usize {
        self.nodes * self.links_per_node
    }
}

/// A flat next-slot routing table: `slot[at * nodes + dst]` is the
/// preferred productive output slot at `at` for a packet headed to
/// `dst` (`SELF_SLOT` on the diagonal). The table is a plain `Vec<u8>`
/// read — the same hot-path shape as the torus `RouteLut` — so trait
/// indirection never reaches the per-cycle loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoRouteLut {
    nodes: usize,
    slots: Vec<u8>,
}

/// Diagonal marker in [`TopoRouteLut`]: the packet is already home.
const SELF_SLOT: u8 = u8::MAX;

impl TopoRouteLut {
    /// Builds the table by asking `topo` for every `(at, dst)` pair.
    pub fn build(topo: &dyn Topology) -> TopoRouteLut {
        let nodes = topo.num_nodes();
        let mut slots = vec![SELF_SLOT; nodes * nodes];
        for at in 0..nodes {
            for dst in 0..nodes {
                if at != dst {
                    let slot = topo.route_slot(at, dst);
                    debug_assert!(slot < SELF_SLOT as usize);
                    slots[at * nodes + dst] = slot as u8;
                }
            }
        }
        TopoRouteLut { nodes, slots }
    }

    /// Preferred slot at `at` for destination `dst`; `None` when
    /// `at == dst`.
    #[inline]
    pub fn slot(&self, at: usize, dst: usize) -> Option<usize> {
        match self.slots[at * self.nodes + dst] {
            SELF_SLOT => None,
            s => Some(s as usize),
        }
    }
}

/// A pluggable network topology: everything the session layer, fault
/// planner, fallback validator, and health monitor need to know about
/// a fabric, with no torus assumptions.
///
/// # Contract
///
/// Implementations must uphold (DESIGN.md §16):
///
/// 1. **Ids** — nodes are `0..num_nodes()`; output slots are unique
///    per node and are the engine's register index for that output, so
///    a slot is looked up by [`LinkDesc::slot`], never by position.
/// 2. **Strong connectivity** — with no faults, every node reaches
///    every other ([`Topology::connected_without`] of `&[]` is true).
/// 3. **Productive routing** — [`Topology::route_slot`] must return a
///    slot of an existing link that strictly decreases some distance
///    measure to `dst`, so that following the LUT alone (no
///    deflections) terminates.
/// 4. **Stable enumeration** — link order is deterministic; seeded
///    fault draws ([`crate::fault::FaultPlan::storm`]) depend on it.
///
/// ```
/// use fasttrack_core::topology::{ShgConfig, ShgTopology, Topology, TopoRouteLut};
///
/// let topo = ShgTopology::new(ShgConfig::new(8, 2).unwrap());
/// // A lone packet from node 0 to node 60 follows the route LUT home.
/// let path = topo.zero_load_path(0, 60);
/// assert_eq!(path.last().unwrap().dst, 60);
/// assert_eq!(TopoRouteLut::build(&topo).slot(0, 60), Some(path[0].slot));
/// ```
pub trait Topology {
    /// The fabric's name, [`TopologySpec::display_name`] of its spec
    /// (e.g. `FT(64,2,1)`, `SHG(64,2)`).
    fn name(&self) -> String {
        self.spec().display_name()
    }

    /// The parseable spec this topology round-trips through.
    fn spec(&self) -> TopologySpec;

    /// Total nodes.
    fn num_nodes(&self) -> usize;

    /// Monitor sizing derived from the structure.
    fn monitor_shape(&self) -> MonitorShape;

    /// The directed links leaving `node`, in slot order.
    fn out_links(&self, node: usize) -> Vec<LinkDesc>;

    /// The preferred productive output slot at `at` for a packet headed
    /// to `dst`. Must not be called with `at == dst`.
    fn route_slot(&self, at: usize, dst: usize) -> usize;

    /// The links a lone packet crosses from `src` to `dst`, in order:
    /// the engine's path with no contention anywhere (empty for a
    /// self-send). The default follows [`Topology::route_slot`] from
    /// router to router.
    fn zero_load_path(&self, src: usize, dst: usize) -> Vec<LinkDesc> {
        let mut path = Vec::new();
        let mut at = src;
        while at != dst {
            let slot = self.route_slot(at, dst);
            let link = self
                .out_links(at)
                .into_iter()
                .find(|l| l.slot == slot)
                .expect("route_slot names a link leaving `at`");
            at = link.dst;
            path.push(link);
        }
        path
    }

    /// Every link of the topology, in `(node, slot)` order.
    fn links(&self) -> Vec<LinkDesc> {
        (0..self.num_nodes())
            .flat_map(|v| self.out_links(v))
            .collect()
    }

    /// Downstream neighbors of `node`, in slot order.
    fn neighbors(&self, node: usize) -> Vec<usize> {
        self.out_links(node).iter().map(|l| l.dst).collect()
    }

    /// Builds the flat route table (see [`TopoRouteLut`]).
    fn build_route_lut(&self) -> TopoRouteLut
    where
        Self: Sized,
    {
        TopoRouteLut::build(self)
    }

    /// The wire class of `(node, slot)`, or `None` if the slot does not
    /// exist there.
    fn wire_class(&self, node: usize, slot: usize) -> Option<WireClass> {
        self.out_links(node)
            .into_iter()
            .find(|l| l.slot == slot)
            .map(|l| l.class)
    }

    /// The fabric's FPGA price ([`crate::resources`]). The default
    /// reads the fan-ins off [`Topology::out_links`] for an engine that
    /// deflects onto any free output, as the SHG's does: every link
    /// input and the PE reach every link output, and every link input
    /// ejects through its own ejector, so no exit mux is priced.
    fn resource_cost(&self) -> ResourceCost {
        let mut inputs = vec![0u32; self.num_nodes()];
        self.links().iter().for_each(|l| inputs[l.dst] += 1);
        (0..self.num_nodes())
            .map(|v| {
                let links = self.out_links(v);
                let express = |l: &&LinkDesc| l.class == WireClass::Express;
                let drives = |east| {
                    links
                        .iter()
                        .filter(express)
                        .any(|l| l.port.is_east() == east)
                };
                let muxes = links.iter().map(|_| inputs[v] + 1);
                let registers = inputs[v] as usize + 1 + links.len();
                resources::router(muxes, registers, [true, false].map(drives))
            })
            .sum()
    }

    /// LUT stages a packet crosses inside one router in one cycle, the
    /// depth the FPGA clock model times a short link through (Fig 4).
    /// The default is a bufferless router, which decides and switches
    /// in one stage.
    fn lut_stages(&self) -> u32 {
        1
    }

    /// True when the directed graph stays strongly connected after
    /// removing every link whose `(src, port)` pair appears in `dead` —
    /// the "does removing this link partition the graph?" hook the
    /// fault validator asks before admitting a dead-link fault.
    fn connected_without(&self, dead: &[(usize, OutPort)]) -> bool {
        let nodes = self.num_nodes();
        if nodes == 0 {
            return true;
        }
        let mut fwd = vec![Vec::new(); nodes];
        let mut rev = vec![Vec::new(); nodes];
        for link in self.links() {
            if !dead.contains(&(link.src, link.port)) {
                fwd[link.src].push(link.dst);
                rev[link.dst].push(link.src);
            }
        }
        let reaches_all = |adj: &[Vec<usize>]| {
            let mut seen = vec![false; nodes];
            let mut queue = VecDeque::from([0usize]);
            seen[0] = true;
            let mut count = 1;
            while let Some(v) = queue.pop_front() {
                for &w in &adj[v] {
                    if !seen[w] {
                        seen[w] = true;
                        count += 1;
                        queue.push_back(w);
                    }
                }
            }
            count == nodes
        };
        reaches_all(&fwd) && reaches_all(&rev)
    }

    /// The output slots at `node` that a fault on port class `out`
    /// masks (empty when no such link exists there). One port class may
    /// cover several physical links — on the SHG, `EastEx` masks every
    /// express stride of the X dimension at once.
    fn fault_slots(&self, node: usize, out: OutPort) -> Vec<usize> {
        self.out_links(node)
            .iter()
            .filter(|l| l.port == out)
            .map(|l| l.slot)
            .collect()
    }

    /// Every express-class link as `(node, port)` pairs in enumeration
    /// order — the pool seeded fault storms draw from.
    fn express_ports(&self) -> Vec<(usize, OutPort)> {
        let mut pool = Vec::new();
        for node in 0..self.num_nodes() {
            let mut seen = [false; 5];
            for link in self.out_links(node) {
                if link.class == WireClass::Express && !seen[link.port.index()] {
                    seen[link.port.index()] = true;
                    pool.push((node, link.port));
                }
            }
        }
        pool
    }

    /// Validates one fault against this topology: the one admission
    /// rule [`crate::fault::FaultPlan::validate`] applies fault by
    /// fault. The default checks node bounds, window shapes, link
    /// existence, and — for permanent and windowed dead links — that
    /// the surviving graph stays strongly connected (via
    /// [`Topology::connected_without`]). Fabrics with structural rules
    /// (the torus's shared-ring escape path, the mesh's single XY path)
    /// override this.
    fn validate_fault(&self, fault: &Fault) -> Result<(), FaultError> {
        let nodes = self.num_nodes();
        let node = fault.node();
        if node >= nodes {
            return Err(FaultError::BadNode { node, nodes });
        }
        let check_link = |out: OutPort, partition_check: bool| {
            if out == OutPort::Exit {
                return Err(FaultError::NotALink { node });
            }
            if self.fault_slots(node, out).is_empty() {
                return Err(FaultError::NoExpressLink { node, out });
            }
            if partition_check && !self.connected_without(&[(node, out)]) {
                return Err(FaultError::PartitionsTorus { node, out });
            }
            Ok(())
        };
        match *fault {
            Fault::DeadLink { out, .. } => check_link(out, true),
            Fault::DownLink {
                out, from, until, ..
            } => {
                window(from, until)?;
                check_link(out, true)
            }
            Fault::TransientLink {
                out, from, until, ..
            } => {
                window(from, until)?;
                check_link(out, false)
            }
            Fault::FailStopRouter { .. } => Ok(()),
            Fault::StalledInjector { from, until, .. } => window(from, until),
        }
    }

    /// Validates a fallback configuration against this topology. The
    /// default accepts only the empty (inert) configuration: fallback
    /// chains are defined over the torus express/shared lane pairing,
    /// and topologies without that structure must refuse them rather
    /// than silently ignore them.
    fn validate_fallback(&self, fallback: &FallbackConfig) -> Result<(), FallbackError> {
        if fallback.is_empty() {
            Ok(())
        } else {
            Err(FallbackError::UnsupportedTopology)
        }
    }
}

/// A fault window `from..until`, refused when empty.
fn window(from: u64, until: u64) -> Result<(), FaultError> {
    if from >= until {
        Err(FaultError::EmptyWindow { from, until })
    } else {
        Ok(())
    }
}

/// The link a lone packet leaves `at` by on the torus `cfg`, having
/// arrived on `input` and headed to `dst`: the first choice of the
/// engine's routing function, or `None` when that choice is the exit.
fn torus_next_link(cfg: &NocConfig, at: usize, input: InPort, dst: usize) -> Option<LinkDesc> {
    let n = cfg.n();
    let here = Coord::from_node_id(at, n);
    let class = RouterClass::of(cfg, here);
    let out = compute_prefs(cfg, class, input, here, Coord::from_node_id(dst, n)).primary();
    cfg.out_links(at).into_iter().find(|l| l.port == out)
}

/// The torus family — Hoplite and FastTrack — is a [`Topology`] as
/// its configuration stands. Link enumeration and fault validation read
/// the same [`RouterClass`] geometry the engines use, so the trait view
/// and the engine agree on which links exist.
impl Topology for NocConfig {
    fn spec(&self) -> TopologySpec {
        TopologySpec::Torus(self.clone())
    }

    fn num_nodes(&self) -> usize {
        NocConfig::num_nodes(self)
    }

    fn monitor_shape(&self) -> MonitorShape {
        MonitorShape::torus(self.n())
    }

    /// A router's links in [`OutPort::index`] order, slotted by that
    /// index (the engine's output register index).
    fn out_links(&self, node: usize) -> Vec<LinkDesc> {
        let n = self.n();
        let d = self.d().max(1);
        let pipeline = self.link_pipeline();
        let at = Coord::from_node_id(node, n);
        let outs = RouterClass::of(self, at).available_outputs();
        outs.iter()
            .filter(|&port| port != OutPort::Exit)
            .map(|port| {
                let (span, class, cycles) = if port.is_express() {
                    (d, WireClass::Express, pipeline.express_cycles())
                } else {
                    (1, WireClass::Short, pipeline.short_cycles())
                };
                let dst = if port.is_east() {
                    at.east(span, n)
                } else {
                    at.south(span, n)
                };
                LinkDesc {
                    src: node,
                    dst: dst.to_node_id(n),
                    slot: port.index(),
                    port,
                    class,
                    span,
                    cycles,
                }
            })
            .collect()
    }

    /// The PE's first choice: where the engine injects a packet at `at`.
    fn route_slot(&self, at: usize, dst: usize) -> usize {
        torus_next_link(self, at, InPort::Pe, dst)
            .expect("a packet not yet home injects onto a link")
            .slot
    }

    /// The engine's own walk: a lone packet wins its first choice at
    /// every router and enters the next one on the input its output
    /// feeds.
    fn zero_load_path(&self, src: usize, dst: usize) -> Vec<LinkDesc> {
        let mut path = Vec::new();
        let (mut at, mut input) = (src, InPort::Pe);
        while let Some(link) = torus_next_link(self, at, input, dst) {
            // The walk is a function of its (router, input) state, so a
            // walk longer than the state count repeats one: an orbit.
            assert!(
                path.len() < InPort::ALL.len() * self.num_nodes(),
                "{}: a lone packet from {src} to {dst} never arrives",
                self.name()
            );
            (at, input) = (link.dst, LINK_INPUTS[link.port.index()]);
            path.push(link);
        }
        path
    }

    /// Every router priced by its class, the fan-ins read from
    /// `crate::router::allowed_outputs` ([`resources::router_cost`]).
    fn resource_cost(&self) -> ResourceCost {
        let class = |id| RouterClass::of(self, Coord::from_node_id(id, self.n()));
        let price = |id| resources::router_cost(class(id), self.ft_policy());
        (0..self.num_nodes()).map(price).sum()
    }

    /// The torus rules are structural, with no graph search: the shared
    /// ring is the bufferless router's deflection escape path, so only
    /// an express link may die (for good or for a window), and it must
    /// exist at its router.
    fn validate_fault(&self, fault: &Fault) -> Result<(), FaultError> {
        let nodes = self.num_nodes();
        let node = fault.node();
        if node >= nodes {
            return Err(FaultError::BadNode { node, nodes });
        }
        let outs = RouterClass::of(self, Coord::from_node_id(node, self.n())).available_outputs();
        let link = |out: OutPort| {
            if outs.contains(out) {
                Ok(())
            } else {
                Err(FaultError::NoExpressLink { node, out })
            }
        };
        match *fault {
            Fault::DeadLink { out, .. } | Fault::DownLink { out, .. } => {
                match out {
                    OutPort::Exit => return Err(FaultError::NotALink { node }),
                    OutPort::EastSh | OutPort::SouthSh => {
                        return Err(FaultError::PartitionsTorus { node, out })
                    }
                    OutPort::EastEx | OutPort::SouthEx => {}
                }
                if let Fault::DownLink { from, until, .. } = *fault {
                    window(from, until)?;
                }
                link(out)
            }
            Fault::TransientLink {
                out, from, until, ..
            } => {
                if out == OutPort::Exit {
                    return Err(FaultError::NotALink { node });
                }
                window(from, until)?;
                link(out)
            }
            Fault::FailStopRouter { .. } => Ok(()),
            Fault::StalledInjector { from, until, .. } => window(from, until),
        }
    }

    fn validate_fallback(&self, fallback: &FallbackConfig) -> Result<(), FallbackError> {
        fallback.validate()
    }
}

/// Why a Sparse Hamming Graph configuration was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShgConfigError {
    /// The per-dimension side must be at least 2.
    SideTooSmall {
        /// The offending side length.
        q: u16,
    },
    /// At least one stride per dimension is required.
    DegreeTooSmall,
    /// The longest stride `2^(delta-1)` must stay below the side, or
    /// the topmost links would wrap onto shorter ones.
    StrideTooLong {
        /// Side length.
        q: u16,
        /// Strides per dimension.
        delta: u16,
    },
}

impl fmt::Display for ShgConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ShgConfigError::SideTooSmall { q } => {
                write!(f, "SHG side {q} too small (need q >= 2)")
            }
            ShgConfigError::DegreeTooSmall => {
                f.write_str("SHG needs at least 1 stride (delta >= 1)")
            }
            ShgConfigError::StrideTooLong { q, delta } => write!(
                f,
                "SHG stride 2^{} wraps a side of {q} (need 2^(delta-1) < q)",
                delta - 1
            ),
        }
    }
}

impl std::error::Error for ShgConfigError {}

/// A Sparse Hamming Graph configuration: a `q × q` grid where each
/// dimension carries `delta` unidirectional power-of-two strides
/// `{1, 2, 4, ...}` (Iff et al., arXiv 2211.13980, with the stride set
/// specialized to powers of two so the deflection LUT is a greedy
/// radix decomposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShgConfig {
    q: u16,
    delta: u16,
}

impl ShgConfig {
    /// Validates and builds a configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ShgConfigError`] when `q < 2`, `delta < 1`, or the
    /// longest stride `2^(delta-1)` would wrap the side.
    pub fn new(q: u16, delta: u16) -> Result<Self, ShgConfigError> {
        if q < 2 {
            return Err(ShgConfigError::SideTooSmall { q });
        }
        if delta < 1 {
            return Err(ShgConfigError::DegreeTooSmall);
        }
        if delta > 15 || (1u32 << (delta - 1)) >= u32::from(q) {
            return Err(ShgConfigError::StrideTooLong { q, delta });
        }
        Ok(ShgConfig { q, delta })
    }

    /// Per-dimension side length.
    pub fn q(&self) -> u16 {
        self.q
    }

    /// Strides per dimension.
    pub(crate) fn delta(&self) -> u16 {
        self.delta
    }

    /// Total nodes (`q²`).
    pub(crate) fn num_nodes(&self) -> usize {
        usize::from(self.q) * usize::from(self.q)
    }
}

/// The Sparse Hamming Graph as a [`Topology`].
///
/// Node `(x, y)` maps to [`Coord`] on the `q × q` grid, so packets,
/// events, and detectors reuse the torus coordinate plumbing verbatim.
/// Output slots `0..delta` are the X-dimension strides (smallest
/// first), `delta..2*delta` the Y-dimension strides. Stride-1 links are
/// [`WireClass::Short`] and report through the `EastSh`/`SouthSh` port
/// classes; longer strides are [`WireClass::Express`] on
/// `EastEx`/`SouthEx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShgTopology {
    cfg: ShgConfig,
}

impl ShgTopology {
    /// Wraps a validated configuration.
    pub fn new(cfg: ShgConfig) -> Self {
        ShgTopology { cfg }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &ShgConfig {
        &self.cfg
    }

    /// Maps an output slot to its `(x_dim, stride)` pair.
    fn slot_geometry(&self, slot: usize) -> (bool, u16) {
        let delta = usize::from(self.cfg.delta);
        debug_assert!(slot < 2 * delta);
        let (x_dim, k) = if slot < delta {
            (true, slot)
        } else {
            (false, slot - delta)
        };
        (x_dim, 1 << k)
    }
}

impl Topology for ShgTopology {
    fn spec(&self) -> TopologySpec {
        TopologySpec::Shg(self.cfg)
    }

    fn num_nodes(&self) -> usize {
        self.cfg.num_nodes()
    }

    fn monitor_shape(&self) -> MonitorShape {
        MonitorShape {
            nodes: self.cfg.num_nodes(),
            links_per_node: 4,
            grid_side: Some(self.cfg.q),
            channels: 1,
        }
    }

    fn out_links(&self, node: usize) -> Vec<LinkDesc> {
        let q = self.cfg.q;
        let at = Coord::from_node_id(node, q);
        let delta = usize::from(self.cfg.delta);
        let mut links = Vec::with_capacity(2 * delta);
        for slot in 0..2 * delta {
            let (x_dim, stride) = self.slot_geometry(slot);
            let dst = if x_dim {
                at.east(stride, q)
            } else {
                at.south(stride, q)
            };
            let express = stride > 1;
            let port = match (x_dim, express) {
                (true, false) => OutPort::EastSh,
                (true, true) => OutPort::EastEx,
                (false, false) => OutPort::SouthSh,
                (false, true) => OutPort::SouthEx,
            };
            links.push(LinkDesc {
                src: node,
                dst: dst.to_node_id(q),
                slot,
                port,
                class: if express {
                    WireClass::Express
                } else {
                    WireClass::Short
                },
                span: stride,
                cycles: 1,
            });
        }
        links
    }

    fn route_slot(&self, at: usize, dst: usize) -> usize {
        let q = self.cfg.q;
        let (a, b) = (Coord::from_node_id(at, q), Coord::from_node_id(dst, q));
        let delta = usize::from(self.cfg.delta);
        // Greedy radix decomposition, X before Y: take the largest
        // stride that does not overshoot the remaining ring distance.
        let greedy = |dist: u16| -> usize {
            debug_assert!(dist > 0);
            (0..delta)
                .rev()
                .find(|&k| (1u16 << k) <= dist)
                .expect("stride 1 always fits")
        };
        let dx = a.dx_to(b, q);
        if dx > 0 {
            greedy(dx)
        } else {
            delta + greedy(a.dy_to(b, q))
        }
    }

    /// The engine's preference rows, which break ties toward the
    /// lowest slot rather than the greedy one.
    fn zero_load_path(&self, src: usize, dst: usize) -> Vec<LinkDesc> {
        crate::shg::zero_load_path(self, src, dst)
    }
}

/// A uniformly parsed topology selector: the single grammar the CLI,
/// scenario-trace headers, and sweep grids share.
///
/// * `hoplite:<n>` / `ft:<n>:<d>:<r>` / `ftlite:<n>:<d>:<r>` — the
///   torus family ([`NocConfig`])
/// * `shg:<q>:<delta>` — Sparse Hamming Graph ([`ShgTopology`])
/// * `mesh:<n>[:<depth>]` — buffered XY mesh (`MeshTopology`; depth
///   defaults to 4)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// The torus family (Hoplite / FastTrack / FT-lite).
    Torus(NocConfig),
    /// Sparse Hamming Graph.
    Shg(ShgConfig),
    /// Buffered XY mesh, validated by [`MeshConfig::new`] when parsed.
    Mesh {
        /// Side length of the `n × n` mesh.
        n: u16,
        /// Router input-buffer depth in flits.
        depth: usize,
    },
}

impl TopologySpec {
    /// The fabric's name: the one spelling every label, table, CSV
    /// `config` field and report line prints, one arm per kind.
    ///
    /// `Hoplite 8x8`, `FT(64,2,1)` (the Full lane policy),
    /// `FTlite(64,2,1)` (the Inject policy), `SHG(64,2)` and
    /// `Mesh 8x8 (depth 4)`. Distinct specs get distinct names; a bank
    /// of replicas is named by [`TopologySpec::bank_name`].
    pub fn display_name(&self) -> String {
        match self {
            TopologySpec::Torus(cfg) => match cfg.kind() {
                NocKind::Hoplite => format!("Hoplite {0}x{0}", cfg.n()),
                NocKind::FastTrack { d, r, policy } => {
                    let family = match policy {
                        FtPolicy::Full => "FT",
                        FtPolicy::Inject => "FTlite",
                    };
                    format!("{family}({},{d},{r})", cfg.num_nodes())
                }
            },
            TopologySpec::Shg(cfg) => format!("SHG({},{})", cfg.num_nodes(), cfg.delta()),
            TopologySpec::Mesh { n, depth } => format!("Mesh {n}x{n} (depth {depth})"),
        }
    }

    /// The name of `channels` parallel copies of this fabric:
    /// [`TopologySpec::display_name`] at one channel, `<name>-<k>x`
    /// above it (`Hoplite 8x8-3x`, `FT(64,2,2)-2x`).
    pub fn bank_name(&self, channels: usize) -> String {
        let name = self.display_name();
        if channels > 1 {
            format!("{name}-{channels}x")
        } else {
            name
        }
    }

    /// Total nodes.
    pub fn num_nodes(&self) -> usize {
        match self {
            TopologySpec::Torus(cfg) => cfg.num_nodes(),
            TopologySpec::Shg(cfg) => cfg.num_nodes(),
            TopologySpec::Mesh { n, .. } => usize::from(*n) * usize::from(*n),
        }
    }

    /// Side of the square grid every built-in topology is (`hoplite:8`,
    /// `shg:8:2` and `mesh:8:4` all have side 8).
    pub fn side(&self) -> u16 {
        match self {
            TopologySpec::Torus(cfg) => cfg.n(),
            TopologySpec::Shg(cfg) => cfg.q(),
            TopologySpec::Mesh { n, .. } => *n,
        }
    }

    /// Monitor sizing for the selected topology.
    pub fn monitor_shape(&self) -> MonitorShape {
        match self {
            TopologySpec::Torus(cfg) => MonitorShape::torus(cfg.n()),
            TopologySpec::Shg(cfg) => ShgTopology::new(*cfg).monitor_shape(),
            TopologySpec::Mesh { n, .. } => MonitorShape::torus(*n),
        }
    }
}

/// Builds a `dyn` [`Topology`] view of a spec — the one place a
/// topology kind maps to its implementation (torus, SHG, buffered mesh),
/// used for fault and storm drawing, fallback validation, and the
/// iso-resource cost model. [`crate::sim::SpecBackend`] maps it to its
/// engine.
pub fn topology_of(spec: &TopologySpec) -> Box<dyn Topology> {
    match spec {
        TopologySpec::Torus(cfg) => Box::new(cfg.clone()),
        TopologySpec::Shg(cfg) => Box::new(ShgTopology::new(*cfg)),
        TopologySpec::Mesh { n, depth } => Box::new(MeshTopology::new(
            MeshConfig::new(*n, *depth).expect("specs are validated"),
        )),
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::Torus(cfg) => match cfg.kind() {
                NocKind::Hoplite => write!(f, "hoplite:{}", cfg.n()),
                NocKind::FastTrack { d, r, policy } => {
                    let kind = match policy {
                        FtPolicy::Full => "ft",
                        FtPolicy::Inject => "ftlite",
                    };
                    write!(f, "{kind}:{}:{d}:{r}", cfg.n())
                }
            },
            TopologySpec::Shg(cfg) => write!(f, "shg:{}:{}", cfg.q(), cfg.delta()),
            TopologySpec::Mesh { n, depth } => write!(f, "mesh:{n}:{depth}"),
        }
    }
}

/// Why a [`TopologySpec`] string was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpecError {
    /// The leading keyword is unknown.
    UnknownKind(String),
    /// Wrong number of `:`-separated fields for the kind.
    BadArity {
        /// The spec kind.
        kind: &'static str,
        /// Expected field count (after the kind).
        expected: &'static str,
        /// Found field count.
        found: usize,
    },
    /// A numeric field failed to parse.
    BadNumber(String),
    /// The grid side is above the cap the spec grammar sets (1 024).
    SideTooLarge(u16),
    /// The torus configuration failed validation.
    Torus(ConfigError),
    /// The SHG configuration failed validation.
    Shg(ShgConfigError),
    /// The mesh configuration failed validation.
    Mesh(MeshConfigError),
}

impl fmt::Display for TopologySpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpecError::UnknownKind(k) => write!(
                f,
                "unknown topology kind {k:?} (expected hoplite, ft, ftlite, shg, or mesh)"
            ),
            TopologySpecError::BadArity {
                kind,
                expected,
                found,
            } => write!(f, "{kind} spec needs {expected} field(s), found {found}"),
            TopologySpecError::BadNumber(s) => write!(f, "invalid number {s:?}"),
            TopologySpecError::SideTooLarge(side) => {
                write!(f, "side {side} is above the {MAX_SIDE}-per-side cap")
            }
            TopologySpecError::Torus(e) => write!(f, "invalid torus spec: {e}"),
            TopologySpecError::Shg(e) => write!(f, "invalid shg spec: {e}"),
            TopologySpecError::Mesh(e) => write!(f, "invalid mesh spec: {e}"),
        }
    }
}

impl std::error::Error for TopologySpecError {}

impl From<ConfigError> for TopologySpecError {
    fn from(e: ConfigError) -> Self {
        TopologySpecError::Torus(e)
    }
}

impl From<ShgConfigError> for TopologySpecError {
    fn from(e: ShgConfigError) -> Self {
        TopologySpecError::Shg(e)
    }
}

impl From<MeshConfigError> for TopologySpecError {
    fn from(e: MeshConfigError) -> Self {
        TopologySpecError::Mesh(e)
    }
}

/// The largest grid side (`n`, or SHG's `q`) a spec string may name.
/// Every engine allocates per router, and a side is squared: 1 024 is
/// about a million routers (`hoplite:1000` builds in ~400 MB), while the
/// 65 535 a `u16` admits asks the allocator for tens of gigabytes and
/// aborts the process. Specs reach here from the command line and from
/// scenario-trace headers, so the cap sits in the one grammar both use.
pub(crate) const MAX_SIDE: u16 = 1024;

impl FromStr for TopologySpec {
    type Err = TopologySpecError;

    fn from_str(spec: &str) -> Result<Self, TopologySpecError> {
        let fields: Vec<&str> = spec.split(':').collect();
        let num = |s: &str| -> Result<u16, TopologySpecError> {
            s.parse()
                .map_err(|_| TopologySpecError::BadNumber(s.to_string()))
        };
        let side = |s: &str| match num(s)? {
            side if side > MAX_SIDE => Err(TopologySpecError::SideTooLarge(side)),
            side => Ok(side),
        };
        let arity = |kind: &'static str, expected: &'static str| TopologySpecError::BadArity {
            kind,
            expected,
            found: fields.len() - 1,
        };
        match fields[0] {
            "hoplite" => {
                if fields.len() != 2 {
                    return Err(arity("hoplite", "1"));
                }
                Ok(TopologySpec::Torus(NocConfig::hoplite(side(fields[1])?)?))
            }
            "ft" | "ftlite" => {
                if fields.len() != 4 {
                    return Err(arity("ft", "3"));
                }
                let policy = if fields[0] == "ft" {
                    FtPolicy::Full
                } else {
                    FtPolicy::Inject
                };
                Ok(TopologySpec::Torus(NocConfig::fasttrack(
                    side(fields[1])?,
                    num(fields[2])?,
                    num(fields[3])?,
                    policy,
                )?))
            }
            "shg" => {
                if fields.len() != 3 {
                    return Err(arity("shg", "2"));
                }
                Ok(TopologySpec::Shg(ShgConfig::new(
                    side(fields[1])?,
                    num(fields[2])?,
                )?))
            }
            "mesh" => {
                if !(2..=3).contains(&fields.len()) {
                    return Err(arity("mesh", "1 or 2"));
                }
                let n = side(fields[1])?;
                let depth = match fields.get(2) {
                    Some(depth) => usize::from(num(depth)?),
                    None => 4,
                };
                let cfg = MeshConfig::new(n, depth)?;
                Ok(TopologySpec::Mesh {
                    n: cfg.n(),
                    depth: cfg.buffer_depth(),
                })
            }
            other => Err(TopologySpecError::UnknownKind(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, StormSpec};

    fn ft(n: u16, d: u16, r: u16) -> NocConfig {
        NocConfig::fasttrack(n, d, r, FtPolicy::Full).unwrap()
    }

    #[test]
    fn torus_links_match_router_geometry() {
        let topo = ft(8, 2, 1);
        // R == 1: every router has both express links -> 4 out-links.
        assert!((0..64).all(|v| topo.out_links(v).len() == 4));
        let hoplite = NocConfig::hoplite(4).unwrap();
        assert!((0..16).all(|v| hoplite.out_links(v).len() == 2));
        // Depopulated (R == 2): only every other diagonal position has
        // express outputs, so the total express pool shrinks.
        let dep = ft(8, 2, 2);
        let full_express = topo.express_ports().len();
        let dep_express = dep.express_ports().len();
        assert!(dep_express < full_express, "{dep_express} < {full_express}");
    }

    /// The torus admission table: every fault kind on every output
    /// class of every router of a depopulated fabric, with a live and an
    /// empty window. Only an express link may die, and the answer never
    /// needs a graph search.
    #[test]
    fn torus_fault_validation_matches_native() {
        use FaultError::*;
        let cfg = ft(8, 2, 2);
        let express = cfg.express_ports();
        assert!(
            express.len() < 2 * cfg.num_nodes(),
            "some routers lack an express port"
        );
        for node in 0..cfg.num_nodes() {
            for out in OutPort::ALL {
                for (from, until) in [(10, 20), (20, 20)] {
                    let empty = (from >= until).then_some(EmptyWindow { from, until });
                    let present = if out.is_express() && !express.contains(&(node, out)) {
                        Err(NoExpressLink { node, out })
                    } else {
                        Ok(())
                    };
                    let dies = |windowed: bool| match out {
                        OutPort::Exit => Err(NotALink { node }),
                        OutPort::EastSh | OutPort::SouthSh => Err(PartitionsTorus { node, out }),
                        _ => empty.filter(|_| windowed).map_or(present, Err),
                    };
                    let transient = match out {
                        OutPort::Exit => Err(NotALink { node }),
                        _ => empty.map_or(present, Err),
                    };
                    let table = [
                        (Fault::DeadLink { node, out }, dies(false)),
                        (
                            Fault::DownLink {
                                node,
                                out,
                                from,
                                until,
                            },
                            dies(true),
                        ),
                        (
                            Fault::TransientLink {
                                node,
                                out,
                                from,
                                until,
                                corrupt: false,
                            },
                            transient,
                        ),
                        (Fault::FailStopRouter { node, at: from }, Ok(())),
                        (
                            Fault::StalledInjector { node, from, until },
                            empty.map_or(Ok(()), Err),
                        ),
                    ];
                    for (fault, want) in table {
                        assert_eq!(cfg.validate_fault(&fault), want, "{fault}");
                    }
                }
            }
        }
        assert_eq!(
            cfg.validate_fault(&Fault::FailStopRouter { node: 64, at: 0 }),
            Err(BadNode {
                node: 64,
                nodes: 64
            })
        );
    }

    #[test]
    fn torus_is_strongly_connected_and_partitions_detected() {
        let topo = NocConfig::hoplite(2).unwrap();
        assert!(topo.connected_without(&[]));
        // Killing every outgoing link of node 0 partitions the graph.
        assert!(!topo.connected_without(&[(0, OutPort::EastSh), (0, OutPort::SouthSh)]));
    }

    /// On every pair of the six kernel fabrics the LUT holds the first
    /// link of the engine's zero-load walk, and following the LUT alone
    /// from router to router (contract 3) reaches the destination.
    #[test]
    fn torus_route_lut_walks_home() {
        for topo in crate::kernel::tests::configs() {
            let lut = topo.build_route_lut();
            let nodes = topo.num_nodes();
            for src in 0..nodes {
                for dst in 0..nodes {
                    let first = topo.zero_load_path(src, dst).first().map(|l| l.slot);
                    assert_eq!(lut.slot(src, dst), first, "{}: {src} -> {dst}", topo.name());
                    let mut at = src;
                    for _ in 0..2 * nodes {
                        let Some(slot) = lut.slot(at, dst) else {
                            break;
                        };
                        let links = topo.out_links(at);
                        at = links.iter().find(|l| l.slot == slot).unwrap().dst;
                    }
                    assert_eq!(at, dst, "{}: LUT walk {src} -> {dst}", topo.name());
                }
            }
        }
    }

    #[test]
    fn shg_config_validates() {
        assert!(ShgConfig::new(8, 2).is_ok());
        assert_eq!(
            ShgConfig::new(1, 1),
            Err(ShgConfigError::SideTooSmall { q: 1 })
        );
        assert_eq!(ShgConfig::new(8, 0), Err(ShgConfigError::DegreeTooSmall));
        assert_eq!(
            ShgConfig::new(8, 4),
            Err(ShgConfigError::StrideTooLong { q: 8, delta: 4 })
        );
    }

    #[test]
    fn shg_links_and_classes() {
        let topo = ShgTopology::new(ShgConfig::new(8, 2).unwrap());
        assert_eq!(topo.num_nodes(), 64);
        let links = topo.out_links(0);
        assert_eq!(links.len(), 4);
        // Slot 0: x stride 1 (short), slot 1: x stride 2 (express),
        // then the y dimension likewise.
        assert_eq!(links[0].port, OutPort::EastSh);
        assert_eq!(links[0].dst, 1);
        assert_eq!(links[1].port, OutPort::EastEx);
        assert_eq!(links[1].dst, 2);
        assert_eq!(links[1].span, 2);
        assert_eq!(links[2].port, OutPort::SouthSh);
        assert_eq!(links[2].dst, 8);
        assert_eq!(links[3].port, OutPort::SouthEx);
        assert_eq!(links[3].dst, 16);
        assert_eq!(links[1].class, WireClass::Express);
        assert_eq!(links[2].class, WireClass::Short);
    }

    #[test]
    fn shg_is_strongly_connected_even_without_express() {
        let topo = ShgTopology::new(ShgConfig::new(8, 2).unwrap());
        assert!(topo.connected_without(&[]));
        // Express-class faults never partition: stride-1 rings remain.
        assert!(topo.connected_without(&[(0, OutPort::EastEx), (0, OutPort::SouthEx)]));
        // Even a dead stride-1 link leaves a detour through other rows,
        // so (unlike the torus) the SHG validator admits Sh faults.
        assert!(topo.connected_without(&[(0, OutPort::EastSh)]));
        assert_eq!(
            topo.validate_fault(&Fault::DeadLink {
                node: 0,
                out: OutPort::EastSh,
            }),
            Ok(())
        );
    }

    #[test]
    fn shg_route_lut_walks_home() {
        let topo = ShgTopology::new(ShgConfig::new(8, 3).unwrap());
        let lut = topo.build_route_lut();
        for (from, to) in [(0usize, 63usize), (5, 0), (17, 44), (63, 1)] {
            let mut at = from;
            let mut hops = 0;
            while at != to {
                let slot = lut.slot(at, to).unwrap();
                at = topo
                    .out_links(at)
                    .iter()
                    .find(|l| l.slot == slot)
                    .unwrap()
                    .dst;
                hops += 1;
                assert!(hops <= 32, "greedy route {from}->{to} must terminate");
            }
            // Greedy radix routing needs at most delta hops per
            // dimension on a power-of-two decomposition.
            assert!(hops <= 8, "{from}->{to} took {hops} hops");
        }
    }

    #[test]
    fn shg_fault_hooks() {
        let topo = ShgTopology::new(ShgConfig::new(8, 2).unwrap());
        // EastEx exists (delta 2) and masks exactly the stride-2 slot.
        assert_eq!(topo.fault_slots(0, OutPort::EastEx), vec![1]);
        assert_eq!(
            topo.validate_fault(&Fault::DeadLink {
                node: 0,
                out: OutPort::EastEx,
            }),
            Ok(())
        );
        // delta == 1 has no express class at all.
        let ring = ShgTopology::new(ShgConfig::new(4, 1).unwrap());
        assert_eq!(
            ring.validate_fault(&Fault::DeadLink {
                node: 0,
                out: OutPort::EastEx,
            }),
            Err(FaultError::NoExpressLink {
                node: 0,
                out: OutPort::EastEx,
            })
        );
        assert!(ring.express_ports().is_empty());
        // Bad node and empty windows use the shared checks.
        assert_eq!(
            topo.validate_fault(&Fault::FailStopRouter { node: 64, at: 0 }),
            Err(FaultError::BadNode {
                node: 64,
                nodes: 64
            })
        );
    }

    #[test]
    fn shg_storms_are_deterministic() {
        let topo = ShgTopology::new(ShgConfig::new(8, 2).unwrap());
        let spec = StormSpec::default();
        let a = FaultPlan::storm(&topo, 11, &spec);
        let b = FaultPlan::storm(&topo, 11, &spec);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.validate(&topo).is_ok());
        assert_ne!(a, FaultPlan::storm(&topo, 12, &spec));
    }

    #[test]
    fn fallback_defaults_to_inert_only() {
        let topo = ShgTopology::new(ShgConfig::new(8, 2).unwrap());
        assert!(topo.validate_fallback(&FallbackConfig::none()).is_ok());
        assert!(matches!(
            topo.validate_fallback(&FallbackConfig::standard()),
            Err(FallbackError::UnsupportedTopology)
        ));
        // The torus delegates to the torus-native validator.
        let torus = ft(8, 2, 1);
        assert!(torus.validate_fallback(&FallbackConfig::standard()).is_ok());
    }

    #[test]
    fn resource_costs_scale_with_degree() {
        let hoplite = NocConfig::hoplite(8).unwrap().resource_cost().at(256);
        let ftfull = ft(8, 2, 1).resource_cost().at(256);
        let shg = ShgTopology::new(ShgConfig::new(8, 2).unwrap()).resource_cost();
        assert_eq!(hoplite, (33_664, 83_008));
        assert_eq!(ftfull, (104_064, 150_016));
        // Out-degree 4 like FT(64,2,1), but every input reaches every
        // output: 5:1 link muxes where the torus has 3:1 and 4:1, and
        // per-input ejectors where the torus has an exit mux.
        assert_eq!(shg.at(256).0, 136_832);
        assert!(shg.at(256).0 > ftfull.0 && ftfull.0 > hoplite.0);
        assert!(shg.at(256).1 > hoplite.1);
        // Width-linear: the per-bit part scales, the control part stays.
        let (luts_1, ffs_1) = shg.at(1);
        assert_eq!(
            shg.at(256),
            (
                luts_1 + 255 * shg.luts_per_bit,
                ffs_1 + 255 * shg.ffs_per_bit
            )
        );
    }

    #[test]
    fn monitor_shapes() {
        let shape = MonitorShape::torus(8);
        assert_eq!(shape.nodes, 64);
        assert_eq!(shape.links_per_node, 4);
        assert_eq!(shape.grid_side, Some(8));
        assert_eq!(shape.channels, 1);
        assert_eq!(shape.with_channels(0).channels, 1);
        assert_eq!(shape.num_links(), 256);
    }

    #[test]
    fn spec_grammar_round_trips() {
        for s in [
            "hoplite:8",
            "ft:8:2:1",
            "ftlite:8:2:2",
            "shg:8:2",
            "mesh:4:4",
        ] {
            let spec: TopologySpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s, "round-trip of {s}");
            assert!(spec.num_nodes() > 0);
            assert!(!spec.display_name().is_empty());
            assert!(spec.monitor_shape().nodes == spec.num_nodes());
        }
        // Depth defaults to 4.
        assert_eq!(
            "mesh:4".parse::<TopologySpec>().unwrap(),
            TopologySpec::Mesh { n: 4, depth: 4 }
        );
    }

    /// One spelling per fabric, and per channel count of a bank: the
    /// name each spec prints, and no two specs sharing one.
    #[test]
    fn every_spec_has_one_distinct_name() {
        let names = [
            ("hoplite:8", "Hoplite 8x8"),
            ("hoplite:4", "Hoplite 4x4"),
            ("ft:8:2:1", "FT(64,2,1)"),
            ("ftlite:8:2:1", "FTlite(64,2,1)"),
            ("ft:8:2:2", "FT(64,2,2)"),
            ("shg:8:2", "SHG(64,2)"),
            ("mesh:8:4", "Mesh 8x8 (depth 4)"),
            ("mesh:8:2", "Mesh 8x8 (depth 2)"),
        ];
        for (spec, name) in names {
            let spec: TopologySpec = spec.parse().unwrap();
            assert_eq!(spec.display_name(), name);
            assert_eq!(topology_of(&spec).name(), name);
            assert_eq!(spec.bank_name(1), name);
        }
        let mut distinct: Vec<&str> = names.iter().map(|n| n.1).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), names.len());
        let bank = |s: &str, k| s.parse::<TopologySpec>().unwrap().bank_name(k);
        assert_eq!(bank("hoplite:8", 3), "Hoplite 8x8-3x");
        assert_eq!(bank("ft:8:2:2", 2), "FT(64,2,2)-2x");
    }

    #[test]
    fn spec_grammar_rejects_malformed() {
        assert!(matches!(
            "ring:8".parse::<TopologySpec>(),
            Err(TopologySpecError::UnknownKind(_))
        ));
        assert!(matches!(
            "shg:8".parse::<TopologySpec>(),
            Err(TopologySpecError::BadArity { .. })
        ));
        assert!(matches!(
            "shg:8:9".parse::<TopologySpec>(),
            Err(TopologySpecError::Shg(_))
        ));
        assert!(matches!(
            "hoplite:x".parse::<TopologySpec>(),
            Err(TopologySpecError::BadNumber(_))
        ));
        assert!(matches!(
            "mesh:1".parse::<TopologySpec>(),
            Err(TopologySpecError::Mesh(_))
        ));
        assert!(matches!(
            "mesh:4:0".parse::<TopologySpec>(),
            Err(TopologySpecError::Mesh(_))
        ));
        assert!(matches!(
            "ft:8:9:1".parse::<TopologySpec>(),
            Err(TopologySpecError::Torus(_))
        ));
        let e = "ring:8".parse::<TopologySpec>().unwrap_err();
        assert!(e.to_string().contains("unknown topology kind"));
    }

    /// A side is squared into per-router allocations, so every kind
    /// refuses one above the cap before building anything.
    #[test]
    fn spec_grammar_caps_the_side() {
        for s in ["hoplite:1024", "ft:1024:4:2", "shg:1024:2", "mesh:1024:4"] {
            assert_eq!(s.parse::<TopologySpec>().unwrap().to_string(), s);
        }
        for s in [
            "hoplite:1025",
            "hoplite:65535",
            "ft:65535:4:1",
            "ftlite:2000:4:2",
            "shg:65535:2",
            "mesh:65535:4",
            "mesh:1025",
        ] {
            let e = s.parse::<TopologySpec>().unwrap_err();
            assert!(
                matches!(e, TopologySpecError::SideTooLarge(_)),
                "{s}: {e:?}"
            );
            assert!(e.to_string().contains("1024-per-side cap"), "{s}: {e}");
        }
    }

    #[test]
    fn torus_spec_views_agree() {
        let topo = ft(8, 2, 1);
        assert_eq!(topo.spec(), TopologySpec::Torus(topo.clone()));
        assert_eq!(topo.spec().to_string(), "ft:8:2:1");
        assert_eq!(Topology::name(&topo), "FT(64,2,1)");
        assert_eq!(topo.monitor_shape(), MonitorShape::torus(8));
        assert_eq!(topo.neighbors(0).len(), 4);
        assert_eq!(topo.links().len(), 64 * 4);
        assert_eq!(topo.wire_class(0, 0), Some(WireClass::Express));
        assert_eq!(topo.wire_class(0, 9), None);
    }
}
