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

use crate::config::NocConfig;
use crate::geom::Coord;
use crate::port::{OutPort, OutSet};
use crate::router::RouterClass;
use crate::sweep::splitmix64;
use crate::topology::{Topology, TorusTopology};

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
        /// The dead output (must be an express port; see
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
    /// epochs at which the engine re-patches its per-node dead-output
    /// table, so the hot path stays a table read.
    DownLink {
        /// Node the link leaves from.
        node: usize,
        /// The downed output (must be an express port).
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
                "dead link {out} at node {node} would partition the network: it is the \
                 only route for some traffic (on the torus the shared ring is the \
                 deflection escape path; only express links may die permanently)"
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

    /// Checks the plan against a torus configuration: node ids in range,
    /// windows non-empty, dead links express-only and present at their
    /// router (the reachability pre-check — see
    /// [`FaultError::PartitionsTorus`]).
    pub fn validate(&self, cfg: &NocConfig) -> Result<(), FaultError> {
        let nodes = cfg.num_nodes();
        for fault in &self.faults {
            let node = fault.node();
            if node >= nodes {
                return Err(FaultError::BadNode { node, nodes });
            }
            match *fault {
                Fault::DeadLink { out, .. } => {
                    match out {
                        OutPort::Exit => return Err(FaultError::NotALink { node }),
                        OutPort::EastSh | OutPort::SouthSh => {
                            return Err(FaultError::PartitionsTorus { node, out })
                        }
                        OutPort::EastEx | OutPort::SouthEx => {}
                    }
                    if !router_outputs(cfg, node).contains(out) {
                        return Err(FaultError::NoExpressLink { node, out });
                    }
                }
                Fault::TransientLink {
                    out, from, until, ..
                } => {
                    if out == OutPort::Exit {
                        return Err(FaultError::NotALink { node });
                    }
                    if from >= until {
                        return Err(FaultError::EmptyWindow { from, until });
                    }
                    if out.is_express() && !router_outputs(cfg, node).contains(out) {
                        return Err(FaultError::NoExpressLink { node, out });
                    }
                }
                Fault::FailStopRouter { .. } => {}
                Fault::StalledInjector { from, until, .. } => {
                    if from >= until {
                        return Err(FaultError::EmptyWindow { from, until });
                    }
                }
                Fault::DownLink {
                    out, from, until, ..
                } => {
                    match out {
                        OutPort::Exit => return Err(FaultError::NotALink { node }),
                        OutPort::EastSh | OutPort::SouthSh => {
                            return Err(FaultError::PartitionsTorus { node, out })
                        }
                        OutPort::EastEx | OutPort::SouthEx => {}
                    }
                    if from >= until {
                        return Err(FaultError::EmptyWindow { from, until });
                    }
                    if !router_outputs(cfg, node).contains(out) {
                        return Err(FaultError::NoExpressLink { node, out });
                    }
                }
            }
        }
        Ok(())
    }

    /// Draws a valid plan for `cfg` from a seed. The same `(cfg, seed,
    /// spec)` triple always produces the same plan; distinct seeds
    /// decorrelate via SplitMix64 exactly like sweep point seeds.
    pub fn random(cfg: &NocConfig, seed: u64, spec: &FaultSpec) -> FaultPlan {
        let mut stream = SeedStream::new(seed);
        let nodes = cfg.num_nodes();
        let (w0, w1) = spec.window;
        let (w0, w1) = if w0 < w1 { (w0, w1) } else { (w0, w0 + 1) };
        let mut plan = FaultPlan::new();

        // Dead links: sample without replacement from the express links
        // that actually exist (the pool storms draw from too).
        let express = TorusTopology::new(cfg.clone()).express_ports();
        let mut undrawn = express.clone();
        for _ in 0..spec.dead_links.min(undrawn.len()) {
            let i = (stream.next() % undrawn.len() as u64) as usize;
            let (node, out) = undrawn.swap_remove(i);
            plan.push(Fault::DeadLink { node, out });
        }

        // Transient links: any real link, window drawn inside the spec
        // window (shared links always exist; express only where present).
        for _ in 0..spec.transient_links {
            let node = (stream.next() % nodes as u64) as usize;
            let outs = router_outputs(cfg, node);
            let candidates: Vec<OutPort> = [
                OutPort::EastSh,
                OutPort::SouthSh,
                OutPort::EastEx,
                OutPort::SouthEx,
            ]
            .into_iter()
            .filter(|&o| outs.contains(o))
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

        debug_assert!(plan.validate(cfg).is_ok());
        plan
    }

    /// Draws a fault storm for `cfg` from a seed: express links die at
    /// `spec.kills_per_kcycle` and heal after a delay from
    /// `spec.heal_after`, as a plan of [`Fault::DownLink`] windows. The
    /// same `(cfg, seed, spec)` triple always produces the same storm.
    /// On a topology with no express links the storm is empty.
    pub fn storm(cfg: &NocConfig, seed: u64, spec: &StormSpec) -> FaultPlan {
        FaultPlan::storm_topo(&TorusTopology::new(cfg.clone()), seed, spec)
    }

    /// Compiles the plan into the per-node lookup tables the engine
    /// consults each cycle. The caller must have run
    /// [`FaultPlan::validate`] first.
    pub(crate) fn compile(&self, nodes: usize) -> FaultState {
        let mut state = FaultState {
            dead: vec![OutSet::empty(); nodes],
            base_dead: vec![OutSet::empty(); nodes],
            fail_at: vec![u64::MAX; nodes],
            stalls: vec![Vec::new(); nodes],
            transients: Vec::new(),
            windows: Vec::new(),
            epochs: Vec::new(),
            epoch_cursor: 0,
        };
        for fault in &self.faults {
            match *fault {
                Fault::DeadLink { node, out } => state.base_dead[node].insert(out),
                Fault::TransientLink {
                    node,
                    out,
                    from,
                    until,
                    corrupt,
                } => state.transients.push(Transient {
                    node,
                    out,
                    from,
                    until,
                    corrupt,
                }),
                Fault::FailStopRouter { node, at } => {
                    state.fail_at[node] = state.fail_at[node].min(at);
                }
                Fault::StalledInjector { node, from, until } => {
                    state.stalls[node].push((from, until));
                }
                Fault::DownLink {
                    node,
                    out,
                    from,
                    until,
                } => {
                    state.windows.push(DownWindow {
                        node,
                        out,
                        from,
                        until,
                    });
                    state.epochs.push(from);
                    state.epochs.push(until);
                }
            }
        }
        state.epochs.sort_unstable();
        state.epochs.dedup();
        state.rebuild(0);
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

/// The outputs that physically exist at `node` (shared ring, plus
/// express links where the topology places them).
fn router_outputs(cfg: &NocConfig, node: usize) -> OutSet {
    let at = Coord::from_node_id(node, cfg.n());
    RouterClass::of(cfg, at).available_outputs()
}

/// A deterministic stream of draws derived from one seed: the canonical
/// SplitMix64 generator (add the golden-gamma, then mix).
pub(crate) struct SeedStream {
    state: u64,
}

impl SeedStream {
    pub(crate) fn new(seed: u64) -> Self {
        SeedStream { state: seed }
    }

    pub(crate) fn next(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }
}

/// Compiled per-node fault tables, consulted by the engine's hot loop.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// Per-node set of outputs dead in the *current epoch*: the static
    /// dead links plus every [`Fault::DownLink`] window active now.
    /// Re-patched at epoch boundaries by [`FaultState::patch_epoch`];
    /// the per-cycle hot path is a plain table read.
    pub(crate) dead: Vec<OutSet>,
    /// Per-node set of permanently dead outputs (epoch-independent).
    base_dead: Vec<OutSet>,
    /// Per-node fail-stop cycle (`u64::MAX` = never fails).
    pub(crate) fail_at: Vec<u64>,
    /// Per-node injector stall windows `[from, until)`.
    pub(crate) stalls: Vec<Vec<(u64, u64)>>,
    /// Transient link faults (few; scanned linearly).
    transients: Vec<Transient>,
    /// Dynamic down-then-recover windows (cold; consulted only when an
    /// epoch boundary is crossed).
    windows: Vec<DownWindow>,
    /// Sorted distinct window boundaries — the patch schedule.
    epochs: Vec<u64>,
    /// Index of the next boundary not yet applied.
    epoch_cursor: usize,
}

/// One router's fault view for one cycle (see
/// [`FaultState::node_faults`]); the default is a healthy router.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeFaults {
    /// The router has fail-stopped.
    pub(crate) failed: bool,
    /// Outputs whose link is dead in the current epoch.
    pub(crate) dead: OutSet,
    /// The PE may not inject this cycle.
    pub(crate) stalled: bool,
}

#[derive(Debug, Clone, Copy)]
struct Transient {
    node: usize,
    out: OutPort,
    from: u64,
    until: u64,
    corrupt: bool,
}

#[derive(Debug, Clone, Copy)]
struct DownWindow {
    node: usize,
    out: OutPort,
    from: u64,
    until: u64,
}

impl FaultState {
    /// True when the router at `node` has fail-stopped by `cycle`.
    pub(crate) fn failed(&self, node: usize, cycle: u64) -> bool {
        cycle >= self.fail_at[node]
    }

    /// The static (never-healing) dead-port masks — what fault-aware
    /// route-table builders mask out, leaving only windowed faults to
    /// the runtime dead table.
    pub(crate) fn static_dead(&self) -> &[OutSet] {
        &self.base_dead
    }

    /// Recomputes the dead-output table for the epoch containing
    /// `cycle` and repositions the boundary cursor.
    fn rebuild(&mut self, cycle: u64) {
        self.dead.copy_from_slice(&self.base_dead);
        for w in &self.windows {
            if cycle >= w.from && cycle < w.until {
                self.dead[w.node].insert(w.out);
            }
        }
        self.epoch_cursor = self.epochs.partition_point(|&b| b <= cycle);
    }

    /// Re-patches the dead table when `cycle` has crossed the next
    /// window boundary. Called once per cycle; the common case is one
    /// branch on the cursor.
    pub(crate) fn patch_epoch(&mut self, cycle: u64) {
        if self.epoch_cursor < self.epochs.len() && cycle >= self.epochs[self.epoch_cursor] {
            self.rebuild(cycle);
        }
    }

    /// Everything the torus step asks about `node` at `cycle`, read once
    /// per visited router.
    pub(crate) fn node_faults(&self, node: usize, cycle: u64) -> NodeFaults {
        NodeFaults {
            failed: self.failed(node, cycle),
            dead: self.dead[node],
            stalled: self.injector_stalled(node, cycle),
        }
    }

    /// True when the PE at `node` may not inject at `cycle`.
    pub(crate) fn injector_stalled(&self, node: usize, cycle: u64) -> bool {
        self.stalls[node]
            .iter()
            .any(|&(from, until)| cycle >= from && cycle < until)
    }

    /// If the link leaving `node` through `out` is faulty at `cycle`,
    /// returns `Some(corrupt)`.
    pub(crate) fn link_fault(&self, node: usize, out: OutPort, cycle: u64) -> Option<bool> {
        self.transients
            .iter()
            .find(|t| t.node == node && t.out == out && cycle >= t.from && cycle < t.until)
            .map(|t| t.corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FtPolicy;

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

    #[test]
    fn compiled_state_answers_queries() {
        let plan = FaultPlan::new()
            .with(Fault::DeadLink {
                node: 0,
                out: OutPort::EastEx,
            })
            .with(Fault::TransientLink {
                node: 1,
                out: OutPort::EastSh,
                from: 10,
                until: 20,
                corrupt: true,
            })
            .with(Fault::FailStopRouter { node: 2, at: 50 })
            .with(Fault::StalledInjector {
                node: 3,
                from: 5,
                until: 8,
            });
        let fs = plan.compile(4);
        assert!(fs.dead[0].contains(OutPort::EastEx));
        assert!(!fs.dead[1].contains(OutPort::EastEx));
        assert_eq!(fs.link_fault(1, OutPort::EastSh, 9), None);
        assert_eq!(fs.link_fault(1, OutPort::EastSh, 10), Some(true));
        assert_eq!(fs.link_fault(1, OutPort::EastSh, 19), Some(true));
        assert_eq!(fs.link_fault(1, OutPort::EastSh, 20), None);
        assert!(!fs.failed(2, 49));
        assert!(fs.failed(2, 50));
        assert!(!fs.injector_stalled(3, 4));
        assert!(fs.injector_stalled(3, 5));
        assert!(!fs.injector_stalled(3, 8));
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
        assert!(!fs.dead[0].contains(OutPort::EastEx));
        assert!(fs.dead[1].contains(OutPort::SouthEx));
        // Walk the cycles in order, as the engine does.
        let expect = |fs: &FaultState, east: bool, south: bool| {
            assert_eq!(fs.dead[0].contains(OutPort::EastEx), east);
            assert_eq!(fs.dead[0].contains(OutPort::SouthEx), south);
            assert!(fs.dead[1].contains(OutPort::SouthEx), "static survives");
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
