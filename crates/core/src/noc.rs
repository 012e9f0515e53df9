//! The cycle-accurate NoC engine.
//!
//! A [`Noc`] is a synchronous machine: every router reads its registered
//! input ports, the routing function (`crate::routing`) and allocator
//! (`crate::alloc`) decide output assignments, and packets are written
//! into the input registers of the downstream routers for the next cycle.
//! Express links cover `D` router positions in a single cycle — that is
//! the entire point of FastTrack (the FPGA wire model in
//! `fasttrack-fpga` verifies the clock still closes).

use std::collections::VecDeque;
use std::sync::Arc;

use crate::alloc::{Decision, Injection, MAX_IN_FLIGHT};
use crate::config::NocConfig;
use crate::fallback::CompiledFallback;
use crate::fault::{FaultError, FaultPlan, FaultState, NodeFaults};
use crate::geom::Coord;
use crate::kernel::{DecisionTable, PacketPool, RouteLut, RouteMode, EMPTY_SLOT};
use crate::packet::{Delivery, Packet};
use crate::port::{InPort, OutPort, OutSet};
use crate::queue::{ActiveCursor, InjectQueues};
use crate::router::RouterClass;
use crate::routing::{compute_prefs, demoted_prefs, RoutePrefs};
use crate::stats::SimStats;
use crate::trace::{EventSink, NullSink, SimEvent};

/// Per-node gating flags used when several NoC channels share one PE
/// (multi-channel Hoplite): each PE performs at most one injection and
/// one delivery per cycle across all channels.
#[derive(Debug, Clone)]
pub struct StepGates {
    /// `true` while the node may still deliver a packet this cycle.
    pub exit_allowed: Vec<bool>,
    /// `true` while the node may still inject a packet this cycle.
    pub inject_allowed: Vec<bool>,
}

impl StepGates {
    /// Fresh gates (everything allowed) for `nodes` PEs.
    pub(crate) fn new(nodes: usize) -> Self {
        StepGates {
            exit_allowed: vec![true; nodes],
            inject_allowed: vec![true; nodes],
        }
    }

    /// Re-opens all gates (call at the start of each cycle).
    pub(crate) fn reset(&mut self) {
        self.exit_allowed.fill(true);
        self.inject_allowed.fill(true);
    }
}

/// One frame of input registers (the current cycle's, or a timing-wheel
/// entry) plus its occupancy bitmask. The step walks set bits instead of
/// routers, so every write goes through [`Frame::put`] to keep the two
/// in lockstep.
#[derive(Debug, Clone)]
struct Frame {
    /// One flat contiguous array, slot `node * MAX_IN_FLIGHT + port` with
    /// port indices matching [`InPort::index`] (0..4 are in-flight
    /// ports). Each register holds a [`PacketPool`] slot index or
    /// [`EMPTY_SLOT`]: 16 bytes per router.
    slots: Vec<u32>,
    /// Bit `node % 64` of `occ[node / 64]` is set exactly when one of
    /// `node`'s four registers holds a packet.
    occ: Vec<u64>,
}

impl Frame {
    fn new(nodes: usize) -> Self {
        Frame {
            slots: vec![EMPTY_SLOT; nodes * MAX_IN_FLIGHT],
            occ: vec![0; nodes.div_ceil(64)],
        }
    }

    /// Writes pool slot `idx` into `node`'s input register `port`.
    fn put(&mut self, node: usize, port: InPort, idx: u32) {
        let reg = &mut self.slots[node * MAX_IN_FLIGHT + port.index()];
        debug_assert!(*reg == EMPTY_SLOT, "two packets on one link register");
        *reg = idx;
        self.occ[node / 64] |= 1 << (node % 64);
    }

    /// The invariant `put` and the step's walk maintain — checked after
    /// every step in debug builds, because a clear bit over an occupied
    /// register would make the step skip a router that holds a packet.
    fn occ_matches_slots(&self) -> bool {
        self.slots
            .chunks_exact(MAX_IN_FLIGHT)
            .enumerate()
            .all(|(node, regs)| {
                let occupied = regs.iter().any(|&r| r != EMPTY_SLOT);
                occupied == (self.occ[node / 64] >> (node % 64) & 1 == 1)
            })
    }
}

/// The four link outputs, in [`OutPort::index`] order (everything but
/// `Exit`), and the input register each one lands in downstream.
const LINK_OUTPUTS: [OutPort; 4] = [
    OutPort::EastEx,
    OutPort::EastSh,
    OutPort::SouthEx,
    OutPort::SouthSh,
];
pub(crate) const LINK_INPUTS: [InPort; 4] = [
    InPort::WestEx,
    InPort::WestSh,
    InPort::NorthEx,
    InPort::NorthSh,
];

/// A single NoC channel (Hoplite or FastTrack, per its configuration).
#[derive(Debug, Clone)]
pub struct Noc {
    cfg: NocConfig,
    classes: Vec<RouterClass>,
    available: Vec<OutSet>,
    /// Precomputed router coordinates, indexed by node id (avoids a
    /// divide per node per cycle in the hot loop).
    coords: Vec<Coord>,
    /// Where each link lands: `downstream[node][out.index()]` is the
    /// node id at the far end of `node`'s output link `out` (express
    /// entries of a router without that port are never read). The link
    /// write is one table read, with no torus arithmetic.
    downstream: Vec<[u32; 4]>,
    /// Input registers for the current cycle.
    regs: Frame,
    /// Timing wheel of future input states: `wheel[t]` holds packets
    /// arriving `t + 1` cycles from now (depth = the longest pipelined
    /// link delay; depth 1 when links carry a single register).
    wheel: VecDeque<Frame>,
    /// Struct-of-arrays storage for every packet referenced by `regs`
    /// and the wheel frames.
    pool: PacketPool,
    /// Precomputed route preferences (shared between clones) and, keyed
    /// by their ids, what healthy routers decide — memoised as the run
    /// meets each input combination. `None` when the engine runs in
    /// [`RouteMode::Direct`].
    tables: Option<DecisionTable>,
    in_flight: usize,
    cycle: u64,
    stats: SimStats,
    /// Compiled fault tables; `None` on a healthy fabric, which keeps
    /// the no-fault path structurally identical to the pre-fault engine.
    faults: Option<FaultState>,
    /// Compiled fallback chains (see [`crate::fallback`]). The default
    /// is inert: every fallback branch is skipped and the engine is
    /// bit-identical to the pre-fallback drop behavior.
    fallback: CompiledFallback,
    /// `true` only inside a multi-channel bank: `AlternateChannel`
    /// steps evict the loser for sibling adoption instead of dropping.
    evict_enabled: bool,
    /// Packets evicted this cycle for channel switching, drained by the
    /// owning [`crate::multichannel::MultiNoc`] after the step.
    evicted: Vec<(usize, Packet)>,
}

impl Noc {
    /// Builds an idle NoC for the given configuration, with the route
    /// LUT enabled (see `Noc::with_route_mode`).
    pub fn new(cfg: NocConfig) -> Self {
        Noc::with_route_mode(cfg, RouteMode::Lut)
    }

    /// Builds an idle NoC resolving routes per `mode`. [`RouteMode::Lut`]
    /// precomputes the route tables here so the cycle loop only does
    /// lookups; [`RouteMode::Direct`] keeps the branchy per-cycle
    /// computation (the reference path for differential tests).
    pub(crate) fn with_route_mode(cfg: NocConfig, mode: RouteMode) -> Self {
        let nodes = cfg.num_nodes();
        let n = cfg.n();
        let mut classes = Vec::with_capacity(nodes);
        let mut available = Vec::with_capacity(nodes);
        let mut coords = Vec::with_capacity(nodes);
        let mut downstream = Vec::with_capacity(nodes);
        let d = cfg.d().max(1);
        for id in 0..nodes {
            let at = Coord::from_node_id(id, n);
            let class = RouterClass::of(&cfg, at);
            classes.push(class);
            available.push(class.available_outputs());
            coords.push(at);
            downstream.push(LINK_OUTPUTS.map(|out| {
                let span = if out.is_express() { d } else { 1 };
                let target = if out.is_east() {
                    at.east(span, n)
                } else {
                    at.south(span, n)
                };
                u32::try_from(target.to_node_id(n)).expect("node ids fit a register index")
            }));
        }
        let depth = cfg.link_pipeline().max_cycles() as usize;
        let mut noc = Noc {
            cfg,
            classes,
            available,
            coords,
            downstream,
            regs: Frame::new(nodes),
            wheel: (0..depth).map(|_| Frame::new(nodes)).collect(),
            pool: PacketPool::with_capacity(nodes),
            tables: None,
            in_flight: 0,
            cycle: 0,
            stats: SimStats::default(),
            faults: None,
            fallback: CompiledFallback::default(),
            evict_enabled: false,
            evicted: Vec::new(),
        };
        if mode == RouteMode::Lut {
            let _span = crate::profile::scoped("session.build.route_lut");
            noc.install_lut(RouteLut::build(&noc.cfg));
        }
        noc
    }

    /// Switches the route-resolution mode. Entering [`RouteMode::Lut`]
    /// builds the table if this engine does not already hold one.
    pub(crate) fn set_route_mode(&mut self, mode: RouteMode) {
        match mode {
            RouteMode::Direct => self.tables = None,
            RouteMode::Lut => {
                if self.tables.is_none() {
                    self.install_lut(RouteLut::build(&self.cfg));
                }
            }
        }
    }

    /// Shared handle on the route table, if one is installed.
    pub(crate) fn lut_handle(&self) -> Option<Arc<RouteLut>> {
        self.tables.as_ref().map(|t| t.lut().clone())
    }

    /// Installs a prebuilt route table (multi-channel banks share one).
    pub(crate) fn install_lut(&mut self, lut: Arc<RouteLut>) {
        let exit = self.cfg.exit_policy();
        self.tables = Some(DecisionTable::new(lut, exit, self.fallback.demote));
    }

    /// Installs compiled fallback chains. The default compiled form is
    /// inert and keeps this engine bit-identical to one built without
    /// fallback routing.
    pub(crate) fn set_fallback(&mut self, fallback: CompiledFallback) {
        let demote_changed = fallback.demote != self.fallback.demote;
        self.fallback = fallback;
        // The tables memoise what a stranded packet does.
        if let Some(lut) = self.lut_handle().filter(|_| demote_changed) {
            self.install_lut(lut);
        }
    }

    /// Arms `AlternateChannel` evictions. Only a multi-channel bank
    /// calls this — a lone channel has no alternate, so the step stays
    /// inert and the exhausted chain falls through to the drop.
    pub(crate) fn enable_eviction(&mut self) {
        self.evict_enabled = true;
    }

    /// Drains the packets evicted for channel switching this cycle.
    pub(crate) fn take_evicted(&mut self) -> Vec<(usize, Packet)> {
        std::mem::take(&mut self.evicted)
    }

    /// Adopts a packet evicted from a sibling channel, placing it into
    /// a free shared input register at `node` for the coming cycle (hop
    /// and latency counters carry over — the switch costs one cycle,
    /// not a fresh injection). Returns `false` when both shared inputs
    /// are already occupied.
    pub(crate) fn adopt(&mut self, node: usize, pkt: Packet) -> bool {
        for port in [InPort::WestSh, InPort::NorthSh] {
            if self.regs.slots[node * MAX_IN_FLIGHT + port.index()] == EMPTY_SLOT {
                if self.pool.free_slots() > 0 {
                    self.stats.pool_reuse += 1;
                }
                let idx = self.pool.insert(pkt);
                self.regs.put(node, port, idx);
                self.in_flight += 1;
                return true;
            }
        }
        false
    }

    /// Builds an idle NoC with the given fault plan injected. The plan
    /// is validated first (reachability pre-check: dead links must be
    /// express-only, nodes in range, windows non-empty). An empty plan
    /// yields an engine bit-identical to [`Noc::new`].
    pub fn with_faults(cfg: NocConfig, plan: &FaultPlan) -> Result<Self, FaultError> {
        {
            let _span = crate::profile::scoped("session.build.fault_validate");
            plan.validate(&cfg)?;
        }
        let mut noc = Noc::new(cfg);
        if !plan.is_empty() {
            let _span = crate::profile::scoped("session.build.fault_compile");
            noc.faults = Some(plan.compile(noc.cfg.num_nodes()));
        }
        Ok(noc)
    }

    /// True when every still-queued packet sits at a PE whose router has
    /// fail-stopped: no further progress is possible, so drivers can end
    /// the run instead of spinning to the cycle cap. Always `false` on a
    /// fault-free fabric.
    pub(crate) fn only_failed_injectors_pending(&self, queues: &InjectQueues) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.only_failed_injectors_pending(queues))
    }

    /// The configuration this NoC was built from.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Packets currently on NoC links.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Clears the accumulated statistics (e.g. after warmup). In-flight
    /// packets keep their own hop counters.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    /// Advances the NoC by one cycle.
    ///
    /// * Pulls injections from `queues` (PE port priority: lowest).
    /// * Pushes deliveries into `deliveries`.
    /// * When `gates` is given, honors and updates the per-PE
    ///   single-injection / single-delivery flags (multi-channel mode).
    pub fn step(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        gates: Option<&mut StepGates>,
    ) {
        self.step_with_sink(queues, deliveries, gates, &mut NullSink);
    }

    /// [`Noc::step`] with an [`EventSink`] observing every routing
    /// decision, injection, deflection, express hop, ejection, and
    /// injection stall. The method is monomorphized per sink type;
    /// with [`NullSink`] (whose `ENABLED` is `false`) all emission code
    /// is statically removed and this is exactly `step`.
    pub(crate) fn step_with_sink<S: EventSink>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        gates: Option<&mut StepGates>,
        sink: &mut S,
    ) {
        // One branch per cycle picks the body: an unobserved fabric
        // without a fault plan runs the one that reads no fault word.
        // An observed run pays for its sink's emits anyway, and keeping
        // one body per sink type bounds the code the split adds.
        if S::ENABLED || self.faults.is_some() {
            self.step_body::<S, true>(queues, deliveries, gates, sink);
        } else {
            self.step_body::<S, false>(queues, deliveries, gates, sink);
        }
    }

    /// The cycle itself, compiled per case: with `FAULTED` false every
    /// router is healthy, so its fault word is the constant default and
    /// every fault branch folds away.
    fn step_body<S: EventSink, const FAULTED: bool>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        mut gates: Option<&mut StepGates>,
        sink: &mut S,
    ) {
        let exit_policy = self.cfg.exit_policy();
        let d = self.cfg.d().max(1);
        debug_assert_eq!(queues.nodes(), self.cfg.num_nodes(), "one queue per router");

        // Only a router with an occupied input register or a waiting PE
        // can do anything observable; everyone else is skipped. Ascending
        // node order is the dense `0..nodes` order, so events, deliveries
        // and gate arbitration come out exactly as if every router ran.
        let mut active = ActiveCursor::default();
        while let Some(node) = active.next(&self.regs.occ, queues) {
            self.stats.router_visits += 1;
            let at = self.coords[node];
            let class = self.classes[node];
            let base = node * MAX_IN_FLIGHT;
            let faults = match &self.faults {
                Some(f) if FAULTED => f.node_faults(node),
                _ => NodeFaults::default(),
            };
            let NodeFaults {
                failed,
                dead,
                stalled,
                ..
            } = faults;

            // A fail-stopped router swallows every arriving packet and
            // neither routes, injects, nor delivers.
            if failed {
                for slot in 0..MAX_IN_FLIGHT {
                    let idx = self.regs.slots[base + slot];
                    if idx != EMPTY_SLOT {
                        self.regs.slots[base + slot] = EMPTY_SLOT;
                        let pkt = self.pool.remove(idx);
                        self.in_flight -= 1;
                        self.stats.dropped += 1;
                        if S::ENABLED {
                            sink.emit(&SimEvent::FaultDrop {
                                cycle: self.cycle,
                                node,
                                packet: pkt.id,
                                link: None,
                                corrupted: false,
                            });
                        }
                    }
                }
                continue;
            }

            // The outputs live this visit: the class's own, less this
            // epoch's dead express links (packets that wanted them
            // deflect onto the plain ring) and, in a bank, the exit a
            // sibling channel used this cycle.
            let mut outputs = self.available[node].difference(dead);
            if gates.as_ref().is_some_and(|g| !g.exit_allowed[node]) {
                outputs.remove(OutPort::Exit);
            }

            // The occupied in-flight inputs. The register index *is* the
            // priority order (see InPort::index). Reading them empties
            // the registers, so the frame is clear once the walk ends.
            let mut held = [EMPTY_SLOT; MAX_IN_FLIGHT];
            held.copy_from_slice(&self.regs.slots[base..base + MAX_IN_FLIGHT]);
            self.regs.slots[base..base + MAX_IN_FLIGHT].fill(EMPTY_SLOT);

            // What the router does, as one word whatever its outputs. In
            // LUT mode it is a table read: the id of each input's list,
            // then the decision memoised under the class, the live
            // outputs and those ids; only the pool's destination column
            // is read. Direct mode routes each packet and decides afresh.
            let decision = match &mut self.tables {
                Some(tables) => {
                    let mut ids = [0; MAX_IN_FLIGHT];
                    for slot in 0..MAX_IN_FLIGHT {
                        if held[slot] != EMPTY_SLOT {
                            let dst = self.pool.dst(held[slot]);
                            ids[slot] = tables.lut().id(class, InPort::ALL[slot], at, dst);
                        }
                    }
                    tables.visit(class, outputs, &ids)
                }
                None => {
                    let mut inputs = [RoutePrefs::empty(); MAX_IN_FLIGHT];
                    let mut demoted = inputs;
                    for slot in 0..MAX_IN_FLIGHT {
                        if held[slot] != EMPTY_SLOT {
                            let (port, dst) = (InPort::ALL[slot], self.pool.dst(held[slot]));
                            inputs[slot] = compute_prefs(&self.cfg, class, port, at, dst);
                            demoted[slot] = demoted_prefs(&self.cfg, class, port, at, dst);
                        }
                    }
                    let demote = self.fallback.demote[class.code()];
                    Decision::of_visit(inputs, &demoted, outputs, dead, exit_policy, demote)
                }
            };

            // The Inject policy's stranded express packets go first, in
            // input order: each is dropped here, or demoted onto the
            // shared ring and placed below with the rest.
            if decision.any_stranded_express() {
                for slot in (0..MAX_IN_FLIGHT).filter(|&s| decision.stranded_express(s)) {
                    let idx = held[slot];
                    let avoided = decision.avoided(slot);
                    if decision.out(slot).is_some() {
                        self.stats.rerouted += 1;
                        self.stats.fallback_demotions += 1;
                        if S::ENABLED {
                            sink.emit(&SimEvent::FaultReroute {
                                cycle: self.cycle,
                                node,
                                packet: self.pool.get(idx).id,
                                avoided: avoided.expect("a stranded packet avoided a dead link"),
                            });
                        }
                    } else {
                        let pkt = self.pool.remove(idx);
                        self.in_flight -= 1;
                        self.stats.dropped += 1;
                        if S::ENABLED {
                            sink.emit(&SimEvent::FaultDrop {
                                cycle: self.cycle,
                                node,
                                packet: pkt.id,
                                link: avoided,
                                corrupted: false,
                            });
                        }
                        held[slot] = EMPTY_SLOT;
                    }
                }
            }

            for (slot, &idx) in held.iter().enumerate() {
                if idx == EMPTY_SLOT {
                    continue;
                }
                let Some(out) = decision.out(slot) else {
                    // Stranded by dead links, which can shrink the output
                    // set below Hall's condition (the FULL router is
                    // exactly tight at four inputs): a bufferless router
                    // has nowhere to park the packet. Fallback chain,
                    // step 2: in a multi-channel bank the loser switches
                    // to a sibling channel; otherwise the chain is
                    // exhausted and the packet is lost (counted in
                    // `dropped`; conservation holds either way — an
                    // evicted packet stays in flight at the bank level).
                    debug_assert!(!dead.is_empty(), "healthy routers never strand inputs");
                    let pkt = self.pool.remove(idx);
                    self.in_flight -= 1;
                    if self.evict_enabled && self.fallback.alternate[class.code()] {
                        self.stats.rerouted += 1;
                        self.stats.fallback_channel_switches += 1;
                        if S::ENABLED {
                            sink.emit(&SimEvent::FaultReroute {
                                cycle: self.cycle,
                                node,
                                packet: pkt.id,
                                avoided: decision
                                    .avoided(slot)
                                    .or_else(|| dead.iter().next())
                                    .expect("stranding requires dead links"),
                            });
                        }
                        self.evicted.push((node, pkt));
                        continue;
                    }
                    self.stats.dropped += 1;
                    if S::ENABLED {
                        sink.emit(&SimEvent::FaultDrop {
                            cycle: self.cycle,
                            node,
                            packet: pkt.id,
                            link: dead.iter().next(),
                            corrupted: false,
                        });
                    }
                    continue;
                };
                self.stats.route_decisions += 1;
                if S::ENABLED {
                    let pkt = self.pool.get(idx);
                    sink.emit(&SimEvent::RouteDecision {
                        cycle: self.cycle,
                        node,
                        packet: pkt.id,
                        in_port: Some(InPort::ALL[slot]),
                        out,
                        src: pkt.src,
                        dst: pkt.dst,
                        hops: pkt.total_hops(),
                    });
                }

                // Statistics classification. Per-packet counters are
                // bumped in the pool, where they live.
                if decision.deflected(slot) {
                    self.pool.get_mut(idx).deflections += 1;
                    self.stats.ports.deflections[slot] += 1;
                    if S::ENABLED {
                        sink.emit(&SimEvent::Deflect {
                            cycle: self.cycle,
                            node,
                            packet: self.pool.get(idx).id,
                            out,
                        });
                    }
                } else if decision.demoted(slot) {
                    self.stats.ports.demotions[slot] += 1;
                }
                // A demoted packet rides its shared twin's list, which
                // no dead link touches: its reroute was counted above.
                if let Some(avoided) = decision.avoided(slot) {
                    if !decision.stranded_express(slot) {
                        self.stats.rerouted += 1;
                        if S::ENABLED {
                            sink.emit(&SimEvent::FaultReroute {
                                cycle: self.cycle,
                                node,
                                packet: self.pool.get(idx).id,
                                avoided,
                            });
                        }
                    }
                }

                match out {
                    OutPort::Exit => {
                        let pkt = self.pool.remove(idx);
                        debug_assert_eq!(pkt.dst, at);
                        self.in_flight -= 1;
                        self.stats.delivered += 1;
                        let delivery = Delivery {
                            packet: pkt,
                            cycle: self.cycle + 1,
                        };
                        self.stats.total_latency.record(delivery.total_latency());
                        deliveries.push(delivery);
                        if S::ENABLED {
                            sink.emit(&SimEvent::Eject {
                                cycle: self.cycle,
                                node,
                                delivery,
                            });
                        }
                        if let Some(g) = gates.as_deref_mut() {
                            g.exit_allowed[node] = false;
                        }
                    }
                    _ => {
                        if S::ENABLED && out.is_express() {
                            sink.emit(&SimEvent::ExpressHop {
                                cycle: self.cycle,
                                node,
                                packet: self.pool.get(idx).id,
                                span: d,
                            });
                        }
                        self.forward(idx, node, out, faults, sink)
                    }
                }
            }

            // PE injection: lowest priority, never deflects.
            let inject_ok = gates.as_ref().is_none_or(|g| g.inject_allowed[node]);
            if inject_ok && stalled {
                // A stalled injector holds its queue; a waiting head
                // shows as a `QueueStall` event.
                if S::ENABLED && queues.head_dst(node).is_some() {
                    sink.emit(&queues.stall_event(self.cycle, node));
                }
            } else if inject_ok {
                if let Some(dst) = queues.head_dst(node) {
                    // The PE takes the first live port of its list whose
                    // slot the in-flight packets left free: one more
                    // table read in LUT mode. A shut exit gate also
                    // holds back an Exit injection (a self-send).
                    let free = decision.free();
                    let Injection { out, avoided } = match &mut self.tables {
                        Some(tables) => {
                            let id = tables.lut().id(class, InPort::Pe, at, dst);
                            tables.inject(class, outputs, id, free)
                        }
                        None => {
                            let pe = compute_prefs(&self.cfg, class, InPort::Pe, at, dst);
                            Injection::of(&pe, outputs, dead, free, exit_policy)
                        }
                    };
                    match out {
                        Some(out) => {
                            let pending = queues.pop(node).unwrap();
                            let mut pkt = Packet::new(
                                pending.id,
                                at,
                                pending.dst,
                                pending.enqueued_at,
                                pending.tag,
                            );
                            pkt.injected_at = self.cycle;
                            self.stats.injected += 1;
                            self.stats.route_decisions += 1;
                            if S::ENABLED {
                                sink.emit(&SimEvent::Inject {
                                    cycle: self.cycle,
                                    node,
                                    packet: pkt.id,
                                    dst: pkt.dst,
                                    out,
                                    queue_wait: self.cycle.saturating_sub(pkt.enqueued_at),
                                });
                            }
                            if let Some(g) = gates.as_deref_mut() {
                                g.inject_allowed[node] = false;
                            }
                            if let Some(avoided) = avoided {
                                self.stats.rerouted += 1;
                                if S::ENABLED {
                                    sink.emit(&SimEvent::FaultReroute {
                                        cycle: self.cycle,
                                        node,
                                        packet: pkt.id,
                                        avoided,
                                    });
                                }
                            }
                            match out {
                                OutPort::Exit => {
                                    // Self-send: delivered without
                                    // traversing any link.
                                    self.stats.delivered += 1;
                                    let delivery = Delivery {
                                        packet: pkt,
                                        cycle: self.cycle + 1,
                                    };
                                    self.stats.total_latency.record(delivery.total_latency());
                                    deliveries.push(delivery);
                                    if S::ENABLED {
                                        sink.emit(&SimEvent::Eject {
                                            cycle: self.cycle,
                                            node,
                                            delivery,
                                        });
                                    }
                                    if let Some(g) = gates.as_deref_mut() {
                                        g.exit_allowed[node] = false;
                                    }
                                }
                                _ => {
                                    self.in_flight += 1;
                                    if S::ENABLED && out.is_express() {
                                        sink.emit(&SimEvent::ExpressHop {
                                            cycle: self.cycle,
                                            node,
                                            packet: pkt.id,
                                            span: d,
                                        });
                                    }
                                    if self.pool.free_slots() > 0 {
                                        self.stats.pool_reuse += 1;
                                    }
                                    let idx = self.pool.insert(pkt);
                                    self.forward(idx, node, out, faults, sink);
                                }
                            }
                        }
                        None => {
                            if S::ENABLED {
                                sink.emit(&queues.stall_event(self.cycle, node));
                            }
                        }
                    }
                }
            }
        }

        // Rotate the timing wheel: the front frame becomes the next
        // cycle's input registers, and the frame just walked joins the
        // back. Every occupied register was emptied as its router read
        // it, so only the mask is left to clear.
        let mut front = self.wheel.pop_front().expect("wheel is never empty");
        std::mem::swap(&mut self.regs, &mut front);
        front.occ.fill(0);
        debug_assert!(
            front.slots.iter().all(|&r| r == EMPTY_SLOT),
            "the walk left a packet in its frame"
        );
        self.wheel.push_back(front);
        debug_assert!(
            self.occupancy_masks_exact(),
            "occupancy bitmask out of step with its registers"
        );
        if S::ENABLED {
            sink.end_cycle(self.cycle);
        }
        self.cycle += 1;
        // The fault words describe the cycle about to run, so
        // `only_failed_injectors_pending` sees a router fail on time.
        if let Some(f) = self.faults.as_mut() {
            f.patch_epoch(self.cycle);
        }
    }

    /// Writes the packet in pool slot `idx` into the input register at the
    /// far end of `node`'s output link `out`, updating hop counters.
    /// Pipelined links place the packet deeper into the timing wheel
    /// (one extra cycle per extra link register). A link `faults` (the
    /// visit's word) names lossy consumes the hop but loses the packet
    /// (counted in `dropped`; conservation: the in-flight count drops
    /// with it). Inlined into the visit, where a healthy body's default
    /// word folds the check away.
    #[inline(always)]
    fn forward<S: EventSink>(
        &mut self,
        idx: u32,
        node: usize,
        out: OutPort,
        faults: NodeFaults,
        sink: &mut S,
    ) {
        // `Exit` is not a link: it has no row in either table.
        let target = self.downstream[node][out.index()];
        let in_port = LINK_INPUTS[out.index()];
        let pipeline = self.cfg.link_pipeline();
        let pkt = self.pool.get_mut(idx);
        let delay = if out.is_express() {
            pkt.express_hops += 1;
            self.stats.link_usage.express_hops += 1;
            pipeline.express_cycles()
        } else {
            pkt.short_hops += 1;
            self.stats.link_usage.short_hops += 1;
            pipeline.short_cycles()
        };
        if let Some(corrupted) = faults.link_fault(out) {
            let pkt = self.pool.remove(idx);
            self.in_flight -= 1;
            self.stats.dropped += 1;
            if S::ENABLED {
                sink.emit(&SimEvent::FaultDrop {
                    cycle: self.cycle,
                    node,
                    packet: pkt.id,
                    link: Some(out),
                    corrupted,
                });
            }
            return;
        }
        self.wheel[delay as usize - 1].put(target as usize, in_port, idx);
    }

    /// True when every frame's occupancy bitmask agrees with its
    /// registers (see [`Frame::occ_matches_slots`]).
    pub(crate) fn occupancy_masks_exact(&self) -> bool {
        self.regs.occ_matches_slots() && self.wheel.iter().all(Frame::occ_matches_slots)
    }

    /// Snapshot of every packet currently on a link register, with its
    /// position and input port.
    #[cfg(test)]
    fn in_flight_packets(&self) -> Vec<(Coord, InPort, Packet)> {
        let mut out = Vec::with_capacity(self.in_flight);
        for (i, &reg) in self.regs.slots.iter().enumerate() {
            if reg != EMPTY_SLOT {
                let (node, slot) = (i / MAX_IN_FLIGHT, i % MAX_IN_FLIGHT);
                out.push((self.coords[node], InPort::ALL[slot], *self.pool.get(reg)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExitPolicy, FtPolicy, NocConfig};
    use crate::topology::Topology;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn drain(noc: &mut Noc, queues: &mut InjectQueues, max_cycles: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            noc.step(queues, &mut out, None);
            if queues.is_empty() && noc.in_flight() == 0 {
                break;
            }
        }
        out
    }

    #[test]
    fn single_packet_east_only() {
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut noc = Noc::new(cfg);
        let mut q = InjectQueues::new(16);
        // (0,0) -> (3,0): 3 east hops + injection cycle.
        q.push(0, Coord::new(3, 0), 0, 0);
        let dels = drain(&mut noc, &mut q, 100);
        assert_eq!(dels.len(), 1);
        let d = &dels[0];
        assert_eq!(d.packet.dst, Coord::new(3, 0));
        assert_eq!(d.packet.short_hops, 3);
        assert_eq!(d.packet.deflections, 0);
        // Inject at cycle 0 (arrives at router (1,0) for cycle 1), hops
        // at cycles 1, 2, exit decision at cycle 3 -> delivered cycle 4.
        assert_eq!(d.cycle, 4);
    }

    #[test]
    fn single_packet_xy_route() {
        let cfg = NocConfig::hoplite(8).unwrap();
        let mut noc = Noc::new(cfg);
        let mut q = InjectQueues::new(64);
        let src = Coord::new(1, 1).to_node_id(8);
        q.push(src, Coord::new(4, 5), 0, 0);
        let dels = drain(&mut noc, &mut q, 100);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].packet.short_hops, 3 + 4); // dx=3, dy=4
        assert_eq!(dels[0].packet.deflections, 0);
    }

    #[test]
    fn wraparound_routing() {
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut noc = Noc::new(cfg);
        let mut q = InjectQueues::new(16);
        let src = Coord::new(3, 3).to_node_id(4);
        q.push(src, Coord::new(0, 0), 0, 0);
        let dels = drain(&mut noc, &mut q, 100);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].packet.short_hops, 2); // wrap east 1, wrap south 1
    }

    #[test]
    fn express_packet_uses_fast_lane() {
        let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap();
        let mut noc = Noc::new(cfg);
        let mut q = InjectQueues::new(64);
        // (0,0) -> (4,0): dx=4, aligned; expect 2 express hops.
        q.push(0, Coord::new(4, 0), 0, 0);
        let dels = drain(&mut noc, &mut q, 100);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].packet.express_hops, 2);
        assert_eq!(dels[0].packet.short_hops, 0);
    }

    #[test]
    fn express_then_short_upgrade_path() {
        let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap();
        let mut noc = Noc::new(cfg);
        let mut q = InjectQueues::new(64);
        // (0,0) -> (5,0): dx=5 (odd). Injects short (dx=5 unaligned),
        // after one short hop dx=4 -> upgrades to express for 2 hops.
        q.push(0, Coord::new(5, 0), 0, 0);
        let dels = drain(&mut noc, &mut q, 100);
        assert_eq!(dels.len(), 1);
        let p = &dels[0].packet;
        assert_eq!(p.short_hops, 1);
        assert_eq!(p.express_hops, 2);
    }

    #[test]
    fn express_turn_full_path() {
        let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap();
        let mut noc = Noc::new(cfg);
        let mut q = InjectQueues::new(64);
        // (0,3) -> (3,7): the "start slow, upgrade" path of Figure 8.
        // dx=3 (odd): one short hop, then dx=2 upgrades to X express.
        // At the turn, dy=4 is aligned: W_ex -> S_ex, two express hops.
        let src = Coord::new(0, 3).to_node_id(8);
        q.push(src, Coord::new(3, 7), 0, 0);
        let dels = drain(&mut noc, &mut q, 100);
        assert_eq!(dels.len(), 1);
        let p = &dels[0].packet;
        assert_eq!(p.short_hops, 1, "unexpected path: {p:?}");
        assert_eq!(p.express_hops, 3, "unexpected path: {p:?}");
    }

    #[test]
    fn inject_policy_express_isolated_end_to_end() {
        let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Inject).unwrap();
        let mut noc = Noc::new(cfg);
        let mut q = InjectQueues::new(64);
        // Fully aligned path: all express.
        q.push(0, Coord::new(4, 4), 0, 0);
        let dels = drain(&mut noc, &mut q, 100);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].packet.express_hops, 4);
        assert_eq!(dels[0].packet.short_hops, 0);
    }

    #[test]
    fn self_send_delivers_without_hops() {
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut noc = Noc::new(cfg);
        let mut q = InjectQueues::new(16);
        q.push(5, Coord::new(1, 1), 0, 0); // node 5 == (1,1)
        let dels = drain(&mut noc, &mut q, 10);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].packet.total_hops(), 0);
    }

    #[test]
    fn contention_deflects_and_still_delivers() {
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut noc = Noc::new(cfg);
        let mut q = InjectQueues::new(16);
        // Everyone sends to (0,0): heavy S_sh/exit contention.
        for node in 1..16 {
            q.push(node, Coord::new(0, 0), 0, 0);
        }
        let dels = drain(&mut noc, &mut q, 10_000);
        assert_eq!(dels.len(), 15, "all packets must be delivered");
        assert_eq!(noc.in_flight(), 0);
        assert!(noc.stats().ports.total_deflections() > 0);
    }

    #[test]
    fn full_random_load_all_delivered() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        for cfg in [
            NocConfig::hoplite(8).unwrap(),
            NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap(),
            NocConfig::fasttrack(8, 2, 2, FtPolicy::Full).unwrap(),
            NocConfig::fasttrack(8, 2, 1, FtPolicy::Inject).unwrap(),
        ] {
            let name = cfg.name();
            let mut noc = Noc::new(cfg);
            let mut q = InjectQueues::new(64);
            let mut count = 0;
            for node in 0..64usize {
                for _ in 0..20 {
                    let dst = loop {
                        let d = Coord::new(rng.gen_range(0..8), rng.gen_range(0..8));
                        if d.to_node_id(8) != node {
                            break d;
                        }
                    };
                    q.push(node, dst, 0, 0);
                    count += 1;
                }
            }
            let dels = drain(&mut noc, &mut q, 100_000);
            assert_eq!(dels.len(), count, "{name}: livelock or loss");
            assert_eq!(noc.stats().delivered as usize, count);
        }
    }

    /// Drives `noc` at ~5 % load for 150 cycles, then drains it, checking
    /// after every step that each frame's occupancy bitmask is exact — a
    /// clear bit over an occupied register would skip a live router.
    /// Returns how many packets were pushed.
    fn run_checking_masks(noc: &mut Noc, seed: u64) -> u64 {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = noc.config().n();
        let nodes = noc.config().num_nodes();
        let mut q = InjectQueues::new(nodes);
        let mut dels = Vec::new();
        let mut pushed = 0;
        for cycle in 0..5_000u64 {
            if cycle < 150 {
                for node in 0..nodes {
                    if rng.gen::<f64>() < 0.05 {
                        let dst = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
                        q.push(node, dst, cycle, 0);
                        pushed += 1;
                    }
                }
            } else if noc.in_flight() == 0
                && (q.is_empty() || noc.only_failed_injectors_pending(&q))
            {
                break;
            }
            noc.step(&mut q, &mut dels, None);
            assert!(noc.occupancy_masks_exact(), "cycle {cycle}");
        }
        assert_eq!(noc.in_flight(), 0, "did not drain");
        let s = noc.stats();
        assert_eq!(s.delivered + s.dropped, s.injected);
        assert!(s.router_visits < noc.cycle * nodes as u64);
        pushed
    }

    #[test]
    fn occupancy_masks_stay_exact() {
        use crate::config::LinkPipeline;
        use crate::fault::Fault;
        let ft = |policy| NocConfig::fasttrack(8, 2, 1, policy).unwrap();
        for cfg in [
            NocConfig::hoplite(8).unwrap(),
            ft(FtPolicy::Full),
            ft(FtPolicy::Inject),
            // Wheel depth 3: forwards land in three different frames.
            ft(FtPolicy::Full).with_link_pipeline(LinkPipeline {
                short: 1,
                express: 2,
            }),
        ] {
            let mut noc = Noc::new(cfg);
            let pushed = run_checking_masks(&mut noc, 7);
            assert_eq!(noc.stats().delivered, pushed);
        }

        let plan = FaultPlan::new()
            .with(Fault::FailStopRouter { node: 9, at: 20 })
            .with(Fault::FailStopRouter { node: 40, at: 0 });
        let mut noc = Noc::with_faults(ft(FtPolicy::Full), &plan).unwrap();
        run_checking_masks(&mut noc, 7);
        assert!(noc.stats().dropped > 0, "fail-stop routers saw no traffic");
    }

    /// The downstream table against the torus arithmetic it replaced, for
    /// every node and link output of the kernel's six fabrics plus a
    /// depth-3 pipelined one (the table is per link, not per delay).
    #[test]
    fn downstream_table_matches_torus_arithmetic() {
        use crate::config::LinkPipeline;
        let mut cfgs = crate::kernel::tests::configs();
        cfgs.push(
            NocConfig::fasttrack(8, 2, 1, FtPolicy::Full)
                .unwrap()
                .with_link_pipeline(LinkPipeline {
                    short: 1,
                    express: 2,
                }),
        );
        for cfg in cfgs {
            let (n, d) = (cfg.n(), cfg.d().max(1));
            let noc = Noc::new(cfg);
            assert_eq!(noc.downstream.len(), noc.cfg.num_nodes());
            for (node, row) in noc.downstream.iter().enumerate() {
                let at = Coord::from_node_id(node, n);
                for (out, &target) in LINK_OUTPUTS.iter().zip(row) {
                    let expected = match out {
                        OutPort::EastSh => at.east(1, n),
                        OutPort::EastEx => at.east(d, n),
                        OutPort::SouthSh => at.south(1, n),
                        OutPort::SouthEx => at.south(d, n),
                        OutPort::Exit => unreachable!("exit is not a link"),
                    };
                    assert_eq!(
                        target as usize,
                        expected.to_node_id(n),
                        "{} {at} {out}",
                        noc.cfg.name()
                    );
                }
            }
        }
        // Row `i` of both link tables is output `i`, landing on the input
        // of the same lane and axis.
        for (i, (out, input)) in LINK_OUTPUTS.iter().zip(LINK_INPUTS).enumerate() {
            assert_eq!(out.index(), i);
            assert_eq!(out.is_express(), input.is_express());
            assert_eq!(
                out.is_east(),
                matches!(input, InPort::WestEx | InPort::WestSh)
            );
        }
    }

    /// The regime the decision table is built for: a saturated fabric
    /// meets a few hundred input combinations and then repeats them, so
    /// the allocator runs for under 1 % of the visits the table serves.
    #[test]
    fn saturated_visits_are_table_hits() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        let mut noc = Noc::new(NocConfig::fasttrack(8, 2, 2, FtPolicy::Full).unwrap());
        let mut q = InjectQueues::new(64);
        let mut dels = Vec::new();
        for cycle in 0..4_000 {
            for node in 0..64 {
                q.push(
                    node,
                    Coord::new(rng.gen_range(0..8), rng.gen_range(0..8)),
                    cycle,
                    0,
                );
            }
            noc.step(&mut q, &mut dels, None);
        }
        // Healthy and ungated: every visit went through the table.
        let visits = noc.stats().router_visits;
        assert_eq!(visits, 4_000 * 64);
        let fills = noc.tables.as_ref().unwrap().visits_filled().0 as u64;
        assert!(
            fills > 100 && fills * 100 < visits,
            "{fills} fills of {visits}"
        );
    }

    #[test]
    fn adopted_packet_is_visited() {
        let mut noc = Noc::new(NocConfig::hoplite(4).unwrap());
        let mut q = InjectQueues::new(16);
        let at = Coord::new(1, 1);
        let pkt = Packet::new(crate::packet::PacketId(0), at, Coord::new(3, 1), 0, 0);
        assert!(noc.adopt(at.to_node_id(4), pkt));
        assert!(noc.occupancy_masks_exact());
        let dels = drain(&mut noc, &mut q, 100);
        assert_eq!(dels.len(), 1, "an adopted packet must not be skipped");
        assert_eq!(dels[0].packet.short_hops, 2);
    }

    #[test]
    fn gates_limit_one_delivery_per_cycle() {
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut noc = Noc::new(cfg);
        let mut q = InjectQueues::new(16);
        for node in 1..6 {
            q.push(node, Coord::new(0, 0), 0, 0);
        }
        let mut gates = StepGates::new(16);
        let mut dels = Vec::new();
        for _ in 0..1000 {
            gates.reset();
            noc.step(&mut q, &mut dels, Some(&mut gates));
            if q.is_empty() && noc.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(dels.len(), 5);
        // No two deliveries at the same node in the same cycle.
        let mut seen = std::collections::HashSet::new();
        for d in &dels {
            assert!(seen.insert((d.packet.dst, d.cycle)));
        }
    }

    /// Hoplite or any valid `FT(n², d, r)` on a 4×4 or 8×8 torus, under
    /// either lane policy and exit policy.
    fn arb_config() -> impl Strategy<Value = NocConfig> {
        (2u16..=3, any::<u8>(), any::<bool>(), any::<bool>()).prop_map(
            |(n_exp, sel, full, dedicated)| {
                let n = 1u16 << n_exp;
                let policy = if full {
                    FtPolicy::Full
                } else {
                    FtPolicy::Inject
                };
                let mut variants = vec![None];
                for d in 1..=n / 2 {
                    for r in 1..=d {
                        if d % r == 0 && n.is_multiple_of(r) {
                            variants.push(Some((d, r)));
                        }
                    }
                }
                let cfg = match variants[sel as usize % variants.len()] {
                    None => NocConfig::hoplite(n).unwrap(),
                    Some((d, r)) => NocConfig::fasttrack(n, d, r, policy).unwrap(),
                };
                cfg.with_exit_policy(if dedicated {
                    ExitPolicy::Dedicated
                } else {
                    ExitPolicy::SharedWithSouth
                })
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The step visits exactly the routers that can act. A shadow
        /// count taken before each step — nodes with an occupied input
        /// register or a waiting PE — must equal `router_visits` as a
        /// running sum: nothing occupied is skipped, nothing idle is
        /// visited.
        #[test]
        fn router_visits_match_shadow_active_set(
            cfg in arb_config(),
            rate in 1u32..40,
            seed in any::<u64>(),
        ) {
            let n = cfg.n();
            let nodes = cfg.num_nodes();
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut noc = Noc::new(cfg);
            let mut queues = InjectQueues::new(nodes);
            let mut deliveries = Vec::new();
            let mut expected = 0u64;
            let mut cycles = 0u64;
            for cycle in 0..10_000u64 {
                if cycle < 80 {
                    for node in 0..nodes {
                        if rng.gen_range(0..100) < rate {
                            let dst = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
                            queues.push(node, dst, cycle, 0);
                        }
                    }
                } else if queues.is_empty() && noc.in_flight() == 0 {
                    break;
                }
                let mut active = vec![false; nodes];
                for (at, _, _) in noc.in_flight_packets() {
                    active[at.to_node_id(n)] = true;
                }
                for (node, slot) in active.iter_mut().enumerate() {
                    *slot |= queues.depth(node) > 0;
                }
                expected += active.iter().filter(|&&a| a).count() as u64;
                noc.step(&mut queues, &mut deliveries, None);
                cycles += 1;
                prop_assert_eq!(noc.stats().router_visits, expected, "after cycle {}", cycle);
            }
            prop_assert_eq!(noc.in_flight(), 0);
            prop_assert!(expected <= cycles * nodes as u64);
        }
    }
}
