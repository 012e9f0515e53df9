//! Deterministic fault injection and graceful degradation.
//!
//! A [`FaultPlan`] describes broken fabric resources — permanently dead
//! express links, transient link drop/corruption windows, fail-stop
//! routers, and stalled injectors. Plans are plain data: they can be
//! built by hand or derived from a seed with [`FaultPlan::random`]
//! (SplitMix64-based, so the same seed always yields the same schedule,
//! exactly like sweep point seeds).
//!
//! The engine degrades gracefully where the topology allows it:
//!
//! * **Dead express links** are masked out of the router's available
//!   output set, so packets deflect onto the plain Hoplite ring instead
//!   of being lost. Each such decision is counted in
//!   [`crate::stats::SimStats::rerouted`] and emitted as
//!   [`crate::trace::SimEvent::FaultReroute`].
//! * **Dead shared-ring links** are rejected by [`FaultPlan::validate`]:
//!   the unidirectional torus ring is the deflection escape path, and
//!   removing any segment of it partitions the network for bufferless
//!   routing.
//! * **Transient link faults** and **fail-stop routers** lose packets.
//!   Every loss decrements the in-flight count and increments
//!   [`crate::stats::SimStats::dropped`], so exact conservation holds:
//!   `delivered + in_flight + dropped == injected`.
//! * **Stalled injectors** suppress PE injection for a window; queued
//!   packets wait (counted as injection stalls), nothing is lost.

use std::fmt;

use crate::port::{OutPort, OutSet};
use crate::sweep::splitmix64;
use crate::topology::Topology;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A permanently dead express link: the link leaving `node` through
    /// `out` never carries a packet again. Routing masks the port, so
    /// traffic deflects onto the plain ring. Packets may still be lost
    /// in two exactly-counted ways: a dead link can break Hall's
    /// condition at a fully occupied router (the unassigned loser is
    /// dropped), and under [`crate::config::FtPolicy::Inject`] — whose
    /// crossbar has no express-to-shared turn — a lane-locked express
    /// packet whose productive output is dead is dropped as stranded
    /// rather than orbiting the express ring forever.
    DeadLink {
        /// Node the link leaves from.
        node: usize,
        /// The dead output (on the torus an express port; see
        /// [`FaultError::PartitionsTorus`]).
        out: OutPort,
    },
    /// A transient link fault active for cycles `from..until`: packets
    /// crossing the link in that window are lost in flight (`corrupt ==
    /// false`) or corrupted and discarded at the sender's link interface
    /// (`corrupt == true`). Either way the packet is counted in
    /// [`crate::stats::SimStats::dropped`].
    TransientLink {
        /// Node the link leaves from.
        node: usize,
        /// The faulted output (any real link; not `Exit`).
        out: OutPort,
        /// First faulty cycle (inclusive).
        from: u64,
        /// First healthy cycle again (exclusive end of the window).
        until: u64,
        /// Model corruption-and-discard rather than a clean drop.
        corrupt: bool,
    },
    /// The router at `node` fail-stops at cycle `at`: from then on every
    /// packet arriving there (transit or delivery) is dropped and its PE
    /// neither injects nor delivers.
    FailStopRouter {
        /// The failing node.
        node: usize,
        /// First cycle at which the router is dead.
        at: u64,
    },
    /// The PE at `node` cannot inject during cycles `from..until`.
    /// Queued packets wait out the window; nothing is lost.
    StalledInjector {
        /// The stalled node.
        node: usize,
        /// First stalled cycle (inclusive).
        from: u64,
        /// First cycle injection works again (exclusive).
        until: u64,
    },
    /// A *dynamic* express-link outage: the link leaving `node` through
    /// `out` is dead for cycles `from..until` and **recovers** after.
    /// While down it behaves exactly like [`Fault::DeadLink`] (masked
    /// from routing, same express-only validation); once the window
    /// closes the link carries traffic again. Window boundaries are the
    /// epochs at which the engine re-patches its per-router fault words,
    /// so the hot path stays a table read.
    DownLink {
        /// Node the link leaves from.
        node: usize,
        /// The downed output (on the torus an express port).
        out: OutPort,
        /// First dead cycle (inclusive).
        from: u64,
        /// First healthy cycle again (exclusive end of the window).
        until: u64,
    },
}

impl Fault {
    /// The node the fault is anchored at.
    pub fn node(&self) -> usize {
        match *self {
            Fault::DeadLink { node, .. }
            | Fault::TransientLink { node, .. }
            | Fault::FailStopRouter { node, .. }
            | Fault::StalledInjector { node, .. }
            | Fault::DownLink { node, .. } => node,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::DeadLink { node, out } => write!(f, "dead link {out} at node {node}"),
            Fault::TransientLink {
                node,
                out,
                from,
                until,
                corrupt,
            } => {
                let what = if corrupt { "corrupting" } else { "dropping" };
                write!(
                    f,
                    "{what} link {out} at node {node}, cycles {from}..{until}"
                )
            }
            Fault::FailStopRouter { node, at } => {
                write!(f, "fail-stop router at node {node} from cycle {at}")
            }
            Fault::StalledInjector { node, from, until } => {
                write!(f, "stalled injector at node {node}, cycles {from}..{until}")
            }
            Fault::DownLink {
                node,
                out,
                from,
                until,
            } => {
                write!(
                    f,
                    "down link {out} at node {node}, cycles {from}..{until} (recovers)"
                )
            }
        }
    }
}

/// Why a [`FaultPlan`] was rejected by [`FaultPlan::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// A fault names a node outside the system.
    BadNode {
        /// The offending node id.
        node: usize,
        /// Nodes in the system.
        nodes: usize,
    },
    /// A dead link would sever the only route between some
    /// source/destination pairs. On the torus the shared ring is the
    /// deflection escape path of the bufferless router, so only express
    /// links may die permanently; on the single-path XY mesh every link
    /// is irreplaceable.
    PartitionsTorus {
        /// The offending node id.
        node: usize,
        /// The output that may not die.
        out: OutPort,
    },
    /// The fault names an express link at a router that has none (plain
    /// Hoplite, depopulated position, or `D == 1`).
    NoExpressLink {
        /// The offending node id.
        node: usize,
        /// The express output that does not exist there.
        out: OutPort,
    },
    /// A fault window is empty (`from >= until`).
    EmptyWindow {
        /// Window start.
        from: u64,
        /// Window end.
        until: u64,
    },
    /// `Exit` is delivery to the local PE, not a physical link.
    NotALink {
        /// The offending node id.
        node: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultError::BadNode { node, nodes } => {
                write!(
                    f,
                    "fault names node {node}, but the system has {nodes} nodes"
                )
            }
            FaultError::PartitionsTorus { node, out } => write!(
                f,
                "dead link {out} at node {node} would partition the network: this \
                 fabric has no other route for some of the traffic that crosses it"
            ),
            FaultError::NoExpressLink { node, out } => {
                write!(f, "node {node} has no express link {out} to fault")
            }
            FaultError::EmptyWindow { from, until } => {
                write!(f, "fault window {from}..{until} is empty")
            }
            FaultError::NotALink { node } => {
                write!(
                    f,
                    "Exit at node {node} is PE delivery, not a faultable link"
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Knobs for [`FaultPlan::random`]: how many faults of each kind to
/// draw, and the cycle window transient faults are placed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Permanently dead express links to draw (capped at the number of
    /// express links the topology actually has).
    pub dead_links: usize,
    /// Transient link drop/corruption windows to draw.
    pub transient_links: usize,
    /// Fail-stop routers to draw (each node fails at most once).
    pub fail_stop_routers: usize,
    /// Stalled injector windows to draw (each node stalls at most once).
    pub stalled_injectors: usize,
    /// Dynamic down-then-recover express-link windows to draw
    /// ([`Fault::DownLink`]).
    pub down_links: usize,
    /// Cycle window `[start, end)` that transient windows, stall
    /// windows, down-link windows, and fail-stop times are drawn from.
    pub window: (u64, u64),
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            dead_links: 0,
            transient_links: 0,
            fail_stop_routers: 0,
            stalled_injectors: 0,
            down_links: 0,
            window: (0, 1000),
        }
    }
}

/// Knobs for [`FaultPlan::storm`]: a randomized fault storm in which
/// express links die and heal on a schedule, modelling link failure as
/// an operating mode rather than a one-off event.
///
/// Kill events are drawn uniformly over the storm duration at the
/// configured rate; each downed link heals after a delay drawn from
/// `heal_after`. Overlapping windows on one link simply extend the
/// outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormSpec {
    /// Expected link-kill events per 1000 cycles across the whole
    /// fabric.
    pub kills_per_kcycle: u32,
    /// Healing delay range `[min, max)` in cycles after each kill.
    pub heal_after: (u64, u64),
    /// Kill events are placed in cycles `[0, duration)`.
    pub duration: u64,
}

impl Default for StormSpec {
    fn default() -> Self {
        StormSpec {
            kills_per_kcycle: 4,
            heal_after: (200, 600),
            duration: 4_000,
        }
    }
}

impl StormSpec {
    /// Total kill events this spec schedules (saturating: the product
    /// of a `u64` duration and a `u32` rate need not fit in a `u64`).
    pub fn kill_events(&self) -> u64 {
        let events = u128::from(self.duration) * u128::from(self.kills_per_kcycle) / 1000;
        u64::try_from(events).unwrap_or(u64::MAX)
    }
}

/// A reproducible set of faults to inject into one simulation.
///
/// An empty plan is the fault-free fabric: engines built with an empty
/// plan behave bit-identically to engines built without one (asserted by
/// the property tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty (fault-free) plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault, builder style.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Adds a fault.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// The faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Checks the plan against `topo`, fault by fault, through its
    /// [`Topology::validate_fault`]: node ids in range, windows
    /// non-empty, links present, and no dead link the fabric cannot
    /// route without (see [`FaultError::PartitionsTorus`]).
    pub fn validate(&self, topo: &dyn Topology) -> Result<(), FaultError> {
        for fault in &self.faults {
            topo.validate_fault(fault)?;
        }
        Ok(())
    }

    /// Draws a valid plan for `topo` from a seed. The same `(topo,
    /// seed, spec)` triple always produces the same plan; distinct seeds
    /// decorrelate via SplitMix64 exactly like sweep point seeds. Dead
    /// and down links come from [`Topology::express_ports`], so a fabric
    /// without express links draws none.
    pub fn random(topo: &dyn Topology, seed: u64, spec: &FaultSpec) -> FaultPlan {
        let mut stream = SeedStream::new(seed);
        let nodes = topo.num_nodes();
        let (w0, w1) = spec.window;
        let (w0, w1) = if w0 < w1 { (w0, w1) } else { (w0, w0 + 1) };
        let mut plan = FaultPlan::new();

        // Dead links: sample without replacement from the express links
        // that actually exist (the pool storms draw from too).
        let express = topo.express_ports();
        let mut undrawn = express.clone();
        for _ in 0..spec.dead_links.min(undrawn.len()) {
            let i = (stream.next() % undrawn.len() as u64) as usize;
            let (node, out) = undrawn.swap_remove(i);
            plan.push(Fault::DeadLink { node, out });
        }

        // Transient links: any real link, window drawn inside the spec
        // window. Candidates go shared before express whatever the
        // fabric's slot order, so a torus plan stays what it was.
        for _ in 0..spec.transient_links {
            let node = (stream.next() % nodes as u64) as usize;
            let links = topo.out_links(node);
            let candidates: Vec<OutPort> = [
                OutPort::EastSh,
                OutPort::SouthSh,
                OutPort::EastEx,
                OutPort::SouthEx,
            ]
            .into_iter()
            .filter(|&o| links.iter().any(|l| l.port == o))
            .collect();
            let out = candidates[(stream.next() % candidates.len() as u64) as usize];
            let from = w0 + stream.next() % (w1 - w0);
            let until = from + 1 + stream.next() % (w1 - from);
            let corrupt = stream.next() & 1 == 1;
            plan.push(Fault::TransientLink {
                node,
                out,
                from,
                until,
                corrupt,
            });
        }

        // Fail-stop routers: distinct nodes.
        let mut alive: Vec<usize> = (0..nodes).collect();
        for _ in 0..spec.fail_stop_routers.min(nodes) {
            let i = (stream.next() % alive.len() as u64) as usize;
            let node = alive.swap_remove(i);
            let at = w0 + stream.next() % (w1 - w0);
            plan.push(Fault::FailStopRouter { node, at });
        }

        // Stalled injectors: distinct nodes.
        let mut idle: Vec<usize> = (0..nodes).collect();
        for _ in 0..spec.stalled_injectors.min(nodes) {
            let i = (stream.next() % idle.len() as u64) as usize;
            let node = idle.swap_remove(i);
            let from = w0 + stream.next() % (w1 - w0);
            let until = from + 1 + stream.next() % (w1 - from);
            plan.push(Fault::StalledInjector { node, from, until });
        }

        // Down-then-recover express links: any express link, window
        // drawn inside the spec window (with replacement — overlapping
        // outages on one link extend each other).
        if !express.is_empty() {
            for _ in 0..spec.down_links {
                let (node, out) = express[(stream.next() % express.len() as u64) as usize];
                let from = w0 + stream.next() % (w1 - w0);
                let until = from + 1 + stream.next() % (w1 - from);
                plan.push(Fault::DownLink {
                    node,
                    out,
                    from,
                    until,
                });
            }
        }

        debug_assert!(plan.validate(topo).is_ok());
        plan
    }

    /// Draws a fault storm for `topo` from a seed: express-class links
    /// (the pool [`Topology::express_ports`] supplies) die at
    /// `spec.kills_per_kcycle` and heal after a delay from
    /// `spec.heal_after`, as a plan of [`Fault::DownLink`] windows. The
    /// same `(topo, seed, spec)` triple always produces the same storm.
    /// On a topology with no express links the storm is empty.
    pub fn storm(topo: &dyn Topology, seed: u64, spec: &StormSpec) -> FaultPlan {
        let mut stream = SeedStream::new(seed);
        let mut plan = FaultPlan::new();
        let express = topo.express_ports();
        if express.is_empty() || spec.duration == 0 {
            return plan;
        }
        let (h0, h1) = spec.heal_after;
        let (h0, h1) = (h0.max(1), h1.max(h0.max(1) + 1));
        for _ in 0..spec.kill_events() {
            let (node, out) = express[(stream.next() % express.len() as u64) as usize];
            let from = stream.next() % spec.duration;
            let until = from + h0 + stream.next() % (h1 - h0);
            plan.push(Fault::DownLink {
                node,
                out,
                from,
                until,
            });
        }
        debug_assert!(plan.validate(topo).is_ok());
        plan
    }

    /// [`FaultPlan::storm`] under its old name, kept only for the
    /// repo benchmark's storm job (`benchmark/src/plan.rs`), its one
    /// remaining caller.
    #[doc(hidden)]
    pub fn storm_topo(topo: &dyn Topology, seed: u64, spec: &StormSpec) -> FaultPlan {
        FaultPlan::storm(topo, seed, spec)
    }

    /// Compiles the plan into the epoch schedule the engines patch their
    /// per-router fault words from, positioned at cycle 0. The caller
    /// must have run [`FaultPlan::validate`] first.
    pub(crate) fn compile(&self, nodes: usize) -> FaultState {
        let mut state = FaultState {
            words: vec![NodeFaults::default(); nodes],
            static_dead: vec![OutSet::empty(); nodes],
            windows: Vec::new(),
            edges: Vec::new(),
            applied: 0,
            open: Vec::new(),
        };
        for fault in &self.faults {
            let (site, corrupt, from, until) = match *fault {
                Fault::DeadLink { node, out } => {
                    state.static_dead[node].insert(out);
                    (Site::Dead(out), false, 0, u64::MAX)
                }
                Fault::TransientLink {
                    out,
                    from,
                    until,
                    corrupt,
                    ..
                } => (Site::Lossy(out), corrupt, from, until),
                Fault::FailStopRouter { at, .. } => (Site::Router, false, at, u64::MAX),
                Fault::StalledInjector { from, until, .. } => (Site::Injector, false, from, until),
                Fault::DownLink {
                    out, from, until, ..
                } => (Site::Dead(out), false, from, until),
            };
            // An empty window is never open (and a fail-stop at
            // `u64::MAX` never happens).
            if from >= until {
                continue;
            }
            let i = u32::try_from(state.windows.len()).expect("a plan holds < 2^32 faults");
            state.windows.push(Window {
                node: fault.node(),
                site,
                corrupt,
                list: 0,
            });
            state.edges.push((from, i, true));
            if until != u64::MAX {
                state.edges.push((until, i, false));
            }
        }
        // One open list per site some window touches.
        let mut sites: Vec<(usize, Site)> =
            state.windows.iter().map(|w| (w.node, w.site)).collect();
        sites.sort_unstable();
        sites.dedup();
        for w in &mut state.windows {
            w.list = sites
                .binary_search(&(w.node, w.site))
                .expect("every site is listed");
        }
        state.open = vec![Vec::new(); sites.len()];
        // Stable: within one cycle the edges stay in plan order.
        state.edges.sort_by_key(|&(cycle, ..)| cycle);
        state.patch_epoch(0);
        state
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.faults.is_empty() {
            return f.write_str("no faults");
        }
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// A deterministic stream of draws derived from one seed: the canonical
/// SplitMix64 generator (add the golden-gamma, then mix).
struct SeedStream {
    state: u64,
}

impl SeedStream {
    fn new(seed: u64) -> Self {
        SeedStream { state: seed }
    }

    fn next(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }
}

/// A compiled fault plan: every router's faults in the current epoch,
/// one word each, and the schedule that patches them.
///
/// Every fault is a window on one site — a router, its injector, or one
/// of its outputs — open from its first faulty cycle until its first
/// healthy one (a dead link or a fail-stop never closes). A window edge
/// is an epoch boundary, and crossing one applies only the windows that
/// open or close there: a run pays once per edge, however many windows
/// the plan holds, and between edges the engines only read words.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// Per node: its faults in the current epoch.
    pub(crate) words: Vec<NodeFaults>,
    /// Per node: the outputs dead for good (what fault-aware route
    /// tables mask out, leaving the windows to the words).
    static_dead: Vec<OutSet>,
    /// Every non-empty fault window, in plan order.
    windows: Vec<Window>,
    /// `(cycle, window, opens)` per window edge, by cycle and then plan
    /// order.
    edges: Vec<(u64, u32, bool)>,
    /// Edges applied so far.
    applied: usize,
    /// Per site some window has ([`Window::list`]): its open windows, in
    /// plan order.
    open: Vec<Vec<u32>>,
}

/// One router's faults in one epoch ([`FaultState::words`]); the
/// default is a healthy router.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NodeFaults {
    /// The router has fail-stopped.
    pub(crate) failed: bool,
    /// The PE may not inject.
    pub(crate) stalled: bool,
    /// Outputs whose link is dead.
    pub(crate) dead: OutSet,
    /// Outputs whose link loses every packet crossing it (a transient
    /// window is open).
    pub(crate) lossy: OutSet,
    /// Lossy outputs whose first open window in plan order corrupts
    /// rather than drops.
    pub(crate) corrupt: OutSet,
}

impl NodeFaults {
    /// `Some(corrupt)` when the link leaving through `out` loses what
    /// crosses it this epoch.
    #[inline]
    pub(crate) fn link_fault(self, out: OutPort) -> Option<bool> {
        self.lossy.contains(out).then(|| self.corrupt.contains(out))
    }
}

/// What one fault window breaks at its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Site {
    /// The router fail-stops.
    Router,
    /// The PE stops injecting.
    Injector,
    /// The link leaving through the output is dead.
    Dead(OutPort),
    /// The link leaving through the output loses packets.
    Lossy(OutPort),
}

#[derive(Debug, Clone, Copy)]
struct Window {
    node: usize,
    site: Site,
    /// A [`Site::Lossy`] window corrupts rather than drops.
    corrupt: bool,
    /// Its `(node, site)`'s index in [`FaultState::open`].
    list: usize,
}

impl FaultState {
    /// The faults of `node` this epoch.
    #[inline]
    pub(crate) fn node_faults(&self, node: usize) -> NodeFaults {
        self.words[node]
    }

    /// The static (never-healing) dead-port masks — what fault-aware
    /// route-table builders mask out, leaving only windowed faults to
    /// the words.
    pub(crate) fn static_dead(&self) -> &[OutSet] {
        &self.static_dead
    }

    /// Applies every window edge up to `cycle`, so the words describe
    /// the epoch containing it. Cycles must not go backwards. With no
    /// edge due this is one comparison.
    #[inline]
    pub(crate) fn patch_epoch(&mut self, cycle: u64) {
        while let Some(&(at, window, opens)) = self.edges.get(self.applied) {
            if at > cycle {
                break;
            }
            self.apply(window, opens);
            self.applied += 1;
        }
    }

    /// Opens or closes window `i`, then rewrites the bit of its node's
    /// word that its site owns.
    fn apply(&mut self, i: u32, opens: bool) {
        let Window {
            node, site, list, ..
        } = self.windows[i as usize];
        let open = &mut self.open[list];
        let at = open.partition_point(|&j| j < i);
        if opens {
            open.insert(at, i);
        } else {
            debug_assert_eq!(
                open.get(at),
                Some(&i),
                "a window closes once, after opening"
            );
            open.remove(at);
        }
        let first = open.first().map(|&j| self.windows[j as usize].corrupt);
        let word = &mut self.words[node];
        let set = |ports: &mut OutSet, out, on: bool| {
            if on {
                ports.insert(out);
            } else {
                ports.remove(out);
            }
        };
        match site {
            Site::Router => word.failed = first.is_some(),
            Site::Injector => word.stalled = first.is_some(),
            Site::Dead(out) => set(&mut word.dead, out, first.is_some()),
            Site::Lossy(out) => {
                set(&mut word.lossy, out, first.is_some());
                set(&mut word.corrupt, out, first == Some(true));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FtPolicy, NocConfig};
    use crate::geom::Coord;

    fn ft(n: u16, d: u16, r: u16) -> NocConfig {
        NocConfig::fasttrack(n, d, r, FtPolicy::Full).unwrap()
    }

    #[test]
    fn empty_plan_validates_everywhere() {
        assert_eq!(FaultPlan::new().validate(&ft(8, 2, 2)), Ok(()));
        assert_eq!(
            FaultPlan::new().validate(&NocConfig::hoplite(4).unwrap()),
            Ok(())
        );
    }

    #[test]
    fn dead_shared_link_partitions_torus() {
        let plan = FaultPlan::new().with(Fault::DeadLink {
            node: 0,
            out: OutPort::EastSh,
        });
        assert_eq!(
            plan.validate(&ft(8, 2, 1)),
            Err(FaultError::PartitionsTorus {
                node: 0,
                out: OutPort::EastSh
            })
        );
        let msg = FaultError::PartitionsTorus {
            node: 0,
            out: OutPort::EastSh,
        }
        .to_string();
        assert!(msg.contains("partition"), "{msg}");
    }

    #[test]
    fn dead_express_link_requires_express_router() {
        let ok = FaultPlan::new().with(Fault::DeadLink {
            node: 0,
            out: OutPort::EastEx,
        });
        assert_eq!(ok.validate(&ft(8, 2, 1)), Ok(()));
        // Hoplite has no express links at all.
        assert_eq!(
            ok.validate(&NocConfig::hoplite(8).unwrap()),
            Err(FaultError::NoExpressLink {
                node: 0,
                out: OutPort::EastEx
            })
        );
    }

    #[test]
    fn node_bounds_and_windows_checked() {
        let cfg = ft(8, 2, 2);
        let oob = FaultPlan::new().with(Fault::FailStopRouter { node: 64, at: 0 });
        assert_eq!(
            oob.validate(&cfg),
            Err(FaultError::BadNode {
                node: 64,
                nodes: 64
            })
        );
        let empty = FaultPlan::new().with(Fault::StalledInjector {
            node: 3,
            from: 10,
            until: 10,
        });
        assert_eq!(
            empty.validate(&cfg),
            Err(FaultError::EmptyWindow {
                from: 10,
                until: 10
            })
        );
        let exit = FaultPlan::new().with(Fault::TransientLink {
            node: 3,
            out: OutPort::Exit,
            from: 0,
            until: 5,
            corrupt: false,
        });
        assert_eq!(exit.validate(&cfg), Err(FaultError::NotALink { node: 3 }));
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let cfg = ft(8, 2, 2);
        let spec = FaultSpec {
            dead_links: 2,
            transient_links: 3,
            fail_stop_routers: 1,
            stalled_injectors: 2,
            down_links: 0,
            window: (0, 500),
        };
        let a = FaultPlan::random(&cfg, 42, &spec);
        let b = FaultPlan::random(&cfg, 42, &spec);
        assert_eq!(a, b, "same seed must give the same schedule");
        assert_eq!(a.len(), 8);
        let c = FaultPlan::random(&cfg, 43, &spec);
        assert_ne!(a, c, "different seeds must diverge");
        assert_eq!(a.validate(&cfg), Ok(()));
        assert_eq!(c.validate(&cfg), Ok(()));
    }

    #[test]
    fn random_dead_links_capped_by_topology() {
        // Hoplite has zero express links: dead_links silently caps to 0.
        let cfg = NocConfig::hoplite(4).unwrap();
        let spec = FaultSpec {
            dead_links: 5,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::random(&cfg, 1, &spec);
        assert!(plan.is_empty());
    }

    /// `node`'s faults at `cycle`, read straight off the plan: a
    /// transient link takes the `corrupt` flag of its first window in
    /// plan order that covers the cycle.
    fn scan(plan: &FaultPlan, node: usize, cycle: u64) -> NodeFaults {
        let mut word = NodeFaults::default();
        let covers = |from, until| from <= cycle && cycle < until;
        for fault in plan.faults().iter().filter(|f| f.node() == node) {
            match *fault {
                Fault::DeadLink { out, .. } => word.dead.insert(out),
                Fault::DownLink {
                    out, from, until, ..
                } if covers(from, until) => word.dead.insert(out),
                Fault::FailStopRouter { at, .. } => word.failed |= cycle >= at,
                Fault::StalledInjector { from, until, .. } => word.stalled |= covers(from, until),
                Fault::TransientLink {
                    out,
                    from,
                    until,
                    corrupt,
                    ..
                } if covers(from, until) && !word.lossy.contains(out) => {
                    word.lossy.insert(out);
                    if corrupt {
                        word.corrupt.insert(out);
                    }
                }
                _ => {}
            }
        }
        word
    }

    /// Stepping through the cycles with a patch at each, every router's
    /// word equals a direct scan of the plan — random plans of all five
    /// kinds, plus overlapping transients with both `corrupt` flags on
    /// one link and a router told to fail twice — and every window is
    /// applied once when it opens and once when it closes.
    #[test]
    fn compiled_state_answers_queries() {
        let cfg = ft(4, 2, 1);
        let nodes = cfg.num_nodes();
        let spec = FaultSpec {
            dead_links: 2,
            transient_links: 12,
            fail_stop_routers: 3,
            stalled_injectors: 4,
            down_links: 10,
            window: (0, 60),
        };
        let horizon = 70;
        for seed in 0..40 {
            let mut plan = FaultPlan::random(&cfg, seed, &spec);
            for (from, until, corrupt) in [(5, 30, true), (10, 20, false), (25, 40, false)] {
                plan.push(Fault::TransientLink {
                    node: 3,
                    out: OutPort::EastSh,
                    from,
                    until,
                    corrupt,
                });
            }
            plan.push(Fault::FailStopRouter { node: 5, at: 50 });
            plan.push(Fault::FailStopRouter { node: 5, at: 45 });
            let mut fs = plan.compile(nodes);
            for cycle in 0..horizon {
                fs.patch_epoch(cycle);
                for node in 0..nodes {
                    let what = format!("seed {seed} node {node} cycle {cycle}");
                    assert_eq!(fs.node_faults(node), scan(&plan, node, cycle), "{what}");
                }
                // Every edge due is applied, once: a window sits in its
                // site's open list exactly while it is open, once, and a
                // retired one is gone.
                let due = |i, opens| {
                    fs.edges
                        .iter()
                        .any(|&e| e.0 <= cycle && (e.1, e.2) == (i, opens))
                };
                assert_eq!(fs.applied, fs.edges.iter().filter(|e| e.0 <= cycle).count());
                for (i, window) in (0..).zip(&fs.windows) {
                    let open = due(i, true) && !due(i, false);
                    let held = fs.open[window.list].iter().filter(|&&j| j == i).count();
                    assert_eq!(held, open as usize, "seed {seed} window {i} cycle {cycle}");
                }
            }
        }
    }

    /// After every step the engine's early exit sees a router fail at its
    /// exact cycle: the words describe the cycle about to run.
    #[test]
    fn failed_injectors_are_seen_at_their_boundary() {
        use crate::queue::InjectQueues;
        let mut plan = FaultPlan::new();
        let mut queues = InjectQueues::new(16);
        for (node, at) in [(1, 3), (6, 3), (9, 7)] {
            plan.push(Fault::FailStopRouter { node, at });
            plan.push(Fault::StalledInjector {
                node,
                from: 0,
                until: 100,
            });
            queues.push(node, Coord::new(0, 0), 0, 0);
        }
        let mut noc = crate::noc::Noc::with_faults(ft(4, 2, 1), &plan).unwrap();
        let mut deliveries = Vec::new();
        for _ in 0..10 {
            let all_failed = noc.cycle() >= 7;
            assert_eq!(noc.only_failed_injectors_pending(&queues), all_failed);
            noc.step(&mut queues, &mut deliveries, None);
        }
    }

    #[test]
    fn down_link_validation_mirrors_dead_link() {
        let cfg = ft(8, 2, 1);
        let ok = FaultPlan::new().with(Fault::DownLink {
            node: 0,
            out: OutPort::EastEx,
            from: 10,
            until: 50,
        });
        assert_eq!(ok.validate(&cfg), Ok(()));
        let shared = FaultPlan::new().with(Fault::DownLink {
            node: 0,
            out: OutPort::EastSh,
            from: 10,
            until: 50,
        });
        assert_eq!(
            shared.validate(&cfg),
            Err(FaultError::PartitionsTorus {
                node: 0,
                out: OutPort::EastSh
            })
        );
        let empty = FaultPlan::new().with(Fault::DownLink {
            node: 0,
            out: OutPort::EastEx,
            from: 10,
            until: 10,
        });
        assert_eq!(
            empty.validate(&cfg),
            Err(FaultError::EmptyWindow {
                from: 10,
                until: 10
            })
        );
        assert!(matches!(
            FaultPlan::new()
                .with(Fault::DownLink {
                    node: 0,
                    out: OutPort::EastEx,
                    from: 0,
                    until: 9,
                })
                .validate(&NocConfig::hoplite(8).unwrap()),
            Err(FaultError::NoExpressLink { .. })
        ));
    }

    #[test]
    fn down_link_windows_patch_epochs() {
        let plan = FaultPlan::new()
            .with(Fault::DeadLink {
                node: 1,
                out: OutPort::SouthEx,
            })
            .with(Fault::DownLink {
                node: 0,
                out: OutPort::EastEx,
                from: 10,
                until: 20,
            })
            .with(Fault::DownLink {
                node: 0,
                out: OutPort::SouthEx,
                from: 15,
                until: 30,
            });
        let mut fs = plan.compile(4);
        // Cycle 0: only the static dead link.
        assert!(!fs.words[0].dead.contains(OutPort::EastEx));
        assert!(fs.words[1].dead.contains(OutPort::SouthEx));
        // Walk the cycles in order, as the engine does.
        let expect = |fs: &FaultState, east: bool, south: bool| {
            assert_eq!(fs.words[0].dead.contains(OutPort::EastEx), east);
            assert_eq!(fs.words[0].dead.contains(OutPort::SouthEx), south);
            assert!(
                fs.words[1].dead.contains(OutPort::SouthEx),
                "static survives"
            );
        };
        for cycle in 0..40 {
            fs.patch_epoch(cycle);
            expect(&fs, (10..20).contains(&cycle), (15..30).contains(&cycle));
        }
    }

    #[test]
    fn storm_is_seed_deterministic_and_valid() {
        let cfg = ft(8, 2, 2);
        let spec = StormSpec::default();
        let a = FaultPlan::storm(&cfg, 7, &spec);
        let b = FaultPlan::storm(&cfg, 7, &spec);
        assert_eq!(a, b);
        assert_eq!(a.len() as u64, spec.kill_events());
        assert_eq!(a.len(), 16);
        let huge = StormSpec {
            kills_per_kcycle: u32::MAX,
            duration: u64::MAX,
            ..spec
        };
        assert_eq!(huge.kill_events(), u64::MAX, "saturates, never wraps");
        assert_eq!(a.validate(&cfg), Ok(()));
        let c = FaultPlan::storm(&cfg, 8, &spec);
        assert_ne!(a, c);
        // All storm faults are recovery windows.
        assert!(a
            .faults()
            .iter()
            .all(|f| matches!(f, Fault::DownLink { .. })));
        // Hoplite has no express links: the storm is empty.
        let empty = FaultPlan::storm(&NocConfig::hoplite(8).unwrap(), 7, &spec);
        assert!(empty.is_empty());
    }

    #[test]
    fn plan_display_lists_faults() {
        let plan = FaultPlan::new().with(Fault::FailStopRouter { node: 7, at: 100 });
        assert_eq!(
            plan.to_string(),
            "fail-stop router at node 7 from cycle 100"
        );
        assert_eq!(FaultPlan::new().to_string(), "no faults");
    }
}
