//! A bufferless deflection-routed engine for the Sparse Hamming Graph
//! ([`crate::topology::ShgTopology`]).
//!
//! The router is synchronous and bufferless, like Hoplite: every link
//! has a single register, each cycle every arriving packet must leave
//! through some output (or be ejected), and contention resolves by
//! deflection rather than buffering. Differences from the torus engine:
//!
//! * **Routing is table-driven**: per destination offset, a
//!   preference row lists the output slots closest-first (see below),
//!   and the greedy radix slot ([`Topology::route_slot`], the same
//!   decomposition [`crate::topology::TopoRouteLut`] tabulates) is kept
//!   only to tell a fault reroute from a deflection. The per-cycle hot
//!   path is one short row read per packet.
//! * **Per-input ejectors**: every arrival destined here leaves the
//!   network this cycle, so the output-allocation problem stays
//!   feasible (arrivals never exceed the out-degree on a healthy
//!   fabric).
//! * **Deflection is distance-descent**: the engine compiles BFS hop
//!   distances on the *statically faulted* graph into those rows, and
//!   each packet takes the live, free output slot whose far end is
//!   closest to its destination (ties break toward the lowest slot,
//!   preserving X-before-Y ordering). A packet denied every
//!   productive slot takes any live free one. Losers never wait —
//!   there is nowhere to wait — but every deflection still makes the
//!   best progress available, which is what keeps a detour around a
//!   dead stride-1 link from livelocking on the stride ring.
//! * **Only active routers are visited**: the step walks
//!   `queue::ActiveCursor` over the routers with an occupied arrival
//!   register or a waiting PE, in ascending node order — what a scan of
//!   every router would do, minus the routers with nothing to do.
//!
//! Events reuse the torus [`SimEvent`] schema via the SHG's
//! [`OutPort`]-class mapping (stride-1 links report as `E_sh`/`S_sh`,
//! longer strides as `E_ex`/`S_ex`), so monitors, attribution, and
//! trace renderers work unchanged.
//!
//! Fault plans are validated through [`Topology::validate_plan`] and
//! compiled to the same per-node tables the torus engine reads; all
//! five fault kinds are supported, and exact conservation
//! (`delivered + in_flight + dropped == injected`) holds under every
//! plan, asserted by the integration tests.

use crate::fault::{FaultError, FaultPlan, FaultState, NodeFaults};
use crate::geom::Coord;
use crate::kernel::{PacketPool, EMPTY_SLOT};
use crate::packet::{Delivery, Packet};
use crate::port::{OutPort, OutSet};
use crate::queue::{ActiveCursor, InjectQueues};
use crate::sim::{SessionBackend, SimEngine};
use crate::stats::SimStats;
use crate::topology::{LinkDesc, MonitorShape, ShgConfig, ShgTopology, Topology};
use crate::trace::{EventSink, SimEvent};

#[cfg(test)]
mod reference;

/// Distance-table marker for "no path on the statically faulted graph".
const UNREACHABLE: u16 = u16::MAX;

/// Preference-row filler. Its bit is outside every slot mask (`delta`
/// is at most 15, so slots stop at 29): a padded entry never tests as
/// live and the row scan needs no length.
const PAD_SLOT: u8 = 31;

/// "No slot" in [`pick_slot`]'s answers — what `trailing_zeros` returns
/// for an empty mask.
const NO_SLOT: u32 = 32;

/// The Sparse Hamming Graph engine: a synchronous bufferless
/// deflection router bank over [`ShgTopology`].
#[derive(Debug, Clone)]
pub struct ShgNoc {
    topo: ShgTopology,
    nodes: usize,
    out_degree: usize,
    /// Router coordinates by node id.
    coords: Vec<Coord>,
    /// Output port class per slot (same for every node).
    slot_ports: Vec<OutPort>,
    /// Link span per slot (stride in router positions).
    slot_spans: Vec<u16>,
    /// One bit per output slot.
    all_slots: u32,
    /// `class_slots[dead.bits() & 0xF]`: the slots of every port class in
    /// the dead set (slots share a class once `delta >= 3`).
    class_slots: [u32; 16],
    /// `link_dst[src * out_degree + slot]`: the node that link lands on.
    link_dst: Vec<u32>,
    /// `link_reg[src * out_degree + slot]`: the arrival register that
    /// link writes. Registers are grouped by *destination* — node `n`
    /// reads `regs[n * out_degree..][..out_degree]` — in ascending
    /// global-link order inside each block, which is the arrival order.
    link_reg: Vec<u32>,
    /// This cycle's arrival registers: pool index or [`EMPTY_SLOT`].
    regs: Vec<u32>,
    /// Next cycle's arrival registers (written by this cycle's routing).
    next_regs: Vec<u32>,
    /// Bit `node % 64` of word `node / 64` is set exactly when one of
    /// `node`'s arrival registers in `regs` holds a packet.
    occ: Vec<u64>,
    /// The same for `next_regs`.
    next_occ: Vec<u64>,
    /// Greedy radix slot ([`Topology::route_slot`]) by destination
    /// offset; it depends on position only through the offset.
    greedy: Vec<u8>,
    /// Preference rows, `out_degree` bytes each: the slots whose far end
    /// can reach the destination, closest first (ties toward the lowest
    /// slot), padded with [`PAD_SLOT`]. Row `(node * row_stride +
    /// offset) * out_degree`, `offset` being `(dst - at) mod q` as a
    /// node id.
    rows: Vec<u8>,
    /// 0 while no link is statically dead — the fabric is then
    /// vertex-transitive, so one router's rows serve all — and `nodes`
    /// under a plan with a [`crate::fault::Fault::DeadLink`], which
    /// breaks the symmetry.
    row_stride: usize,
    pool: PacketPool,
    stats: SimStats,
    faults: Option<FaultState>,
    in_flight: usize,
    cycle: u64,
}

/// `(dst - at) mod q` per axis, as the node id of that offset.
#[inline]
fn offset_id(at: Coord, dst: Coord, q: u16) -> usize {
    usize::from(at.dy_to(dst, q)) * usize::from(q) + usize::from(at.dx_to(dst, q))
}

/// Reads one preference row: `wanted` is the closest slot in `live`,
/// `chosen` the closest that is also in `free` (a subset of `live`);
/// when every productive slot is dead or taken, `chosen` falls back to
/// the lowest free slot — a pure deflection. Either is [`NO_SLOT`] when
/// no slot qualifies.
#[inline]
fn pick_slot(row: &[u8], live: u32, free: u32) -> (u32, u32) {
    debug_assert_eq!(free & !live, 0, "free slots must be live");
    let mut wanted = NO_SLOT;
    for &slot in row {
        let bit = 1u32 << slot;
        if live & bit != 0 {
            if wanted == NO_SLOT {
                wanted = u32::from(slot);
            }
            if free & bit != 0 {
                return (u32::from(slot), wanted);
            }
        }
    }
    (free.trailing_zeros(), wanted)
}

/// Writes one preference row from each slot's distance-after-the-hop.
fn fill_row(row: &mut [u8], dist_via: impl Iterator<Item = u16>) {
    let mut keys = [0u32; PAD_SLOT as usize];
    let mut len = 0;
    for (slot, d) in dist_via.enumerate() {
        if d != UNREACHABLE {
            keys[len] = u32::from(d) << 8 | slot as u32;
            len += 1;
        }
    }
    keys[..len].sort_unstable();
    for (entry, key) in row.iter_mut().zip(&keys[..len]) {
        *entry = *key as u8;
    }
}

impl ShgNoc {
    /// Builds an idle fabric.
    pub(crate) fn new(cfg: ShgConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Builds an idle fabric with a fault plan injected. The plan is
    /// validated through the topology's fault hooks
    /// ([`Topology::validate_plan`]); an empty plan yields an engine
    /// bit-identical to [`ShgNoc::new`]. Statically dead links are
    /// masked out of the route-distance tables, so the router steers
    /// around them from the first cycle instead of discovering them by
    /// deflection.
    pub(crate) fn with_faults(cfg: ShgConfig, plan: &FaultPlan) -> Result<Self, FaultError> {
        plan.validate(&ShgTopology::new(cfg))?;
        let faults = (!plan.is_empty()).then(|| plan.compile(cfg.num_nodes()));
        Ok(Self::build(cfg, faults))
    }

    fn build(cfg: ShgConfig, faults: Option<FaultState>) -> Self {
        let topo = ShgTopology::new(cfg);
        let q = cfg.q();
        let nodes = topo.num_nodes();
        let out_degree = 2 * usize::from(cfg.delta());
        let coords: Vec<Coord> = (0..nodes).map(|id| Coord::from_node_id(id, q)).collect();
        let template = topo.out_links(0);
        let slot_ports: Vec<OutPort> = template.iter().map(|l| l.port).collect();
        let slot_spans: Vec<u16> = template.iter().map(|l| l.span).collect();
        let mut class_slots = [0u32; 16];
        for (dead, mask) in class_slots.iter_mut().enumerate() {
            for (slot, port) in slot_ports.iter().enumerate() {
                if dead >> port.index() & 1 == 1 {
                    *mask |= 1 << slot;
                }
            }
        }

        // `links()` enumerates in ascending global-link order, so the
        // running count per destination is the link's rank there.
        let mut link_dst = vec![0u32; nodes * out_degree];
        let mut link_reg = vec![0u32; nodes * out_degree];
        let mut arrivals = vec![0usize; nodes];
        for link in topo.links() {
            let global = link.src * out_degree + link.slot;
            link_dst[global] = link.dst as u32;
            link_reg[global] = (link.dst * out_degree + arrivals[link.dst]) as u32;
            arrivals[link.dst] += 1;
        }
        assert!(
            arrivals.iter().all(|&a| a == out_degree),
            "every stride is a permutation of the nodes: in-degree equals out-degree"
        );

        let mut greedy = vec![PAD_SLOT; nodes];
        for (offset, slot) in greedy.iter_mut().enumerate().skip(1) {
            *slot = topo.route_slot(0, offset) as u8;
        }

        // Only a statically dead link breaks vertex transitivity: links
        // that go down in windows are masked per cycle, not routed around.
        let static_dead = faults
            .as_ref()
            .map(FaultState::static_dead)
            .filter(|dead| dead.iter().any(|d| !d.is_empty()));
        let (rows, row_stride) = match static_dead {
            None => {
                // Distance depends only on the offset: node 0's rows, from
                // one BFS out of node 0, are every router's rows.
                let from_origin = bfs_from_origin(nodes, out_degree, &link_dst);
                let mut rows = vec![PAD_SLOT; nodes * out_degree];
                for offset in 1..nodes {
                    let via = (0..out_degree).map(|s| {
                        let next = coords[link_dst[s] as usize];
                        from_origin[offset_id(next, coords[offset], q)]
                    });
                    fill_row(&mut rows[offset * out_degree..][..out_degree], via);
                }
                (rows, 0)
            }
            Some(dead) => {
                let dist = build_dist(nodes, out_degree, &slot_ports, &link_dst, Some(dead));
                let mut rows = vec![PAD_SLOT; nodes * nodes * out_degree];
                for at in 0..nodes {
                    for dst in (0..nodes).filter(|&dst| dst != at) {
                        let via = (0..out_degree)
                            .map(|s| dist[link_dst[at * out_degree + s] as usize * nodes + dst]);
                        let row = (at * nodes + offset_id(coords[at], coords[dst], q)) * out_degree;
                        fill_row(&mut rows[row..][..out_degree], via);
                    }
                }
                (rows, nodes)
            }
        };

        ShgNoc {
            topo,
            nodes,
            out_degree,
            coords,
            slot_ports,
            slot_spans,
            all_slots: (1 << out_degree) - 1,
            class_slots,
            link_dst,
            link_reg,
            regs: vec![EMPTY_SLOT; nodes * out_degree],
            next_regs: vec![EMPTY_SLOT; nodes * out_degree],
            occ: vec![0; nodes.div_ceil(64)],
            next_occ: vec![0; nodes.div_ceil(64)],
            greedy,
            rows,
            row_stride,
            pool: PacketPool::with_capacity(nodes * out_degree),
            stats: SimStats::default(),
            faults,
            in_flight: 0,
            cycle: 0,
        }
    }

    /// The topology this engine runs.
    pub fn topology(&self) -> &ShgTopology {
        &self.topo
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// True when every still-queued packet sits at a fail-stopped
    /// router (mirrors the torus engine's early-exit condition).
    pub(crate) fn only_failed_injectors_pending(&self, queues: &InjectQueues) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.only_failed_injectors_pending(queues))
    }

    /// Clears accumulated statistics (e.g. after warmup).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    /// The invariant `forward` and the walk maintain: a node's bit is set
    /// exactly when one of its arrival registers holds a packet. A clear
    /// bit over an occupied register would make the step skip a router
    /// that holds a packet, so debug builds check it after every step.
    fn occupancy_mask_exact(&self) -> bool {
        self.regs
            .chunks_exact(self.out_degree)
            .enumerate()
            .all(|(node, regs)| {
                let occupied = regs.iter().any(|&r| r != EMPTY_SLOT);
                occupied == (self.occ[node / 64] >> (node % 64) & 1 == 1)
            })
    }

    /// Ejects `pkt` at `node` this cycle.
    fn eject<S: EventSink>(
        &mut self,
        node: usize,
        pkt: Packet,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
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
    }

    /// Removes the packet in pool slot `idx` from the network as lost at
    /// `node` (`link` names the faulty link, if one is to blame).
    fn drop_packet<S: EventSink>(
        &mut self,
        node: usize,
        idx: u32,
        link: Option<OutPort>,
        corrupted: bool,
        sink: &mut S,
    ) {
        if S::ENABLED {
            sink.emit(&SimEvent::FaultDrop {
                cycle: self.cycle,
                node,
                packet: self.pool.get(idx).id,
                link,
                corrupted,
            });
        }
        self.pool.release(idx);
        self.in_flight -= 1;
        self.stats.dropped += 1;
    }

    /// Places the packet in pool slot `idx` onto output `slot` of
    /// `node`, bumping its hop counters in the pool. A link the visit's
    /// `faults` word names lossy consumes the hop but loses the packet
    /// (counted in `dropped`); the return value says whether the
    /// register was written, i.e. whether the slot is now taken.
    #[inline(always)]
    fn forward<S: EventSink>(
        &mut self,
        node: usize,
        slot: usize,
        idx: u32,
        faults: NodeFaults,
        sink: &mut S,
    ) -> bool {
        let port = self.slot_ports[slot];
        let span = self.slot_spans[slot];
        let pkt = self.pool.get_mut(idx);
        if span > 1 {
            pkt.express_hops += 1;
            self.stats.link_usage.express_hops += 1;
            if S::ENABLED {
                sink.emit(&SimEvent::ExpressHop {
                    cycle: self.cycle,
                    node,
                    packet: pkt.id,
                    span,
                });
            }
        } else {
            pkt.short_hops += 1;
            self.stats.link_usage.short_hops += 1;
        }
        if let Some(corrupted) = faults.link_fault(port) {
            self.drop_packet(node, idx, Some(port), corrupted, sink);
            return false;
        }
        let link = node * self.out_degree + slot;
        let dst = self.link_dst[link] as usize;
        self.next_regs[self.link_reg[link] as usize] = idx;
        self.next_occ[dst / 64] |= 1 << (dst % 64);
        true
    }

    /// Advances the fabric by one cycle (see [`SimEngine::step_cycle`]).
    pub(crate) fn step_with_sink<S: EventSink>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
        // One branch per cycle picks the body, as in `Noc::step_with_sink`.
        if S::ENABLED || self.faults.is_some() {
            self.step_body::<S, true>(queues, deliveries, sink);
        } else {
            self.step_body::<S, false>(queues, deliveries, sink);
        }
    }

    /// The cycle itself, compiled per case: with `FAULTED` false every
    /// router's fault word is the constant default.
    fn step_body<S: EventSink, const FAULTED: bool>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
        let q = self.topo.config().q();
        let deg = self.out_degree;

        // Only a router with an occupied arrival register or a waiting
        // PE can do anything observable.
        let mut active = ActiveCursor::default();
        while let Some(node) = active.next(&self.occ, queues) {
            self.stats.router_visits += 1;
            let at = self.coords[node];
            let base = node * deg;
            let faults = match &self.faults {
                Some(f) if FAULTED => f.node_faults(node),
                _ => NodeFaults::default(),
            };
            let NodeFaults {
                failed,
                stalled,
                dead,
                ..
            } = faults;
            let live = self.all_slots & !self.class_slots[usize::from(dead.bits() & 0xF)];
            // This router's outputs are written only during this visit,
            // so "is the slot free" is local state, not a register probe.
            let mut free = live;

            // Arrivals, in ascending global-link order (deterministic).
            // Every occupied register is consumed here, which is what
            // leaves `regs` empty for the swap below.
            for reg in base..base + deg {
                let idx = self.regs[reg];
                if idx == EMPTY_SLOT {
                    continue;
                }
                self.regs[reg] = EMPTY_SLOT;

                // A fail-stopped router swallows every arrival.
                if failed {
                    self.drop_packet(node, idx, None, false, sink);
                    continue;
                }

                let dst = self.pool.dst(idx);
                if dst == at {
                    // Per-input ejector: delivery this cycle.
                    self.stats.route_decisions += 1;
                    let pkt = self.pool.remove(idx);
                    if S::ENABLED {
                        sink.emit(&SimEvent::RouteDecision {
                            cycle: self.cycle,
                            node,
                            packet: pkt.id,
                            in_port: None,
                            out: OutPort::Exit,
                            src: pkt.src,
                            dst: pkt.dst,
                            hops: pkt.total_hops(),
                        });
                    }
                    self.in_flight -= 1;
                    self.eject(node, pkt, deliveries, sink);
                    continue;
                }

                let offset = offset_id(at, dst, q);
                let row = (node * self.row_stride + offset) * deg;
                let (chosen, wanted) = pick_slot(&self.rows[row..row + deg], live, free);
                if chosen == NO_SLOT {
                    // Every live output is taken: dead links broke the
                    // arrivals <= outputs guarantee. Bufferless routers
                    // have nowhere to park the loser.
                    debug_assert!(!dead.is_empty(), "only faults strand");
                    self.drop_packet(node, idx, dead.iter().next(), false, sink);
                    continue;
                }
                let slot = chosen as usize;
                let out = self.slot_ports[slot];
                self.stats.route_decisions += 1;
                if S::ENABLED {
                    let pkt = self.pool.get(idx);
                    sink.emit(&SimEvent::RouteDecision {
                        cycle: self.cycle,
                        node,
                        packet: pkt.id,
                        in_port: None,
                        out,
                        src: pkt.src,
                        dst: pkt.dst,
                        hops: pkt.total_hops(),
                    });
                }
                // Taking the closest slot on a healthy router is neither
                // a reroute nor a deflection, whatever the greedy slot is.
                if chosen != wanted || !dead.is_empty() {
                    let greedy = usize::from(self.greedy[offset]);
                    if slot != greedy {
                        let greedy_port = self.slot_ports[greedy];
                        if dead.contains(greedy_port) {
                            // Steered off a dead link: degradation, not a
                            // deflection.
                            self.stats.rerouted += 1;
                            if S::ENABLED {
                                sink.emit(&SimEvent::FaultReroute {
                                    cycle: self.cycle,
                                    node,
                                    packet: self.pool.get(idx).id,
                                    avoided: greedy_port,
                                });
                            }
                        } else if chosen != wanted {
                            // Denied the closest productive slot by
                            // occupancy: a genuine deflection.
                            let pkt = self.pool.get_mut(idx);
                            pkt.deflections += 1;
                            self.stats.ports.deflections[out.index().min(3)] += 1;
                            if S::ENABLED {
                                sink.emit(&SimEvent::Deflect {
                                    cycle: self.cycle,
                                    node,
                                    packet: pkt.id,
                                    out,
                                });
                            }
                        }
                    }
                }
                // A transient-fault drop consumes the hop but leaves the
                // slot free for the next arrival.
                if self.forward(node, slot, idx, faults, sink) {
                    free &= !(1 << slot);
                }
            }

            // PE injection: lowest priority.
            if failed {
                continue;
            }
            let Some(dst) = queues.head_dst(node) else {
                continue;
            };
            let offset = offset_id(at, dst, q);
            let row = (node * self.row_stride + offset) * deg;
            // A self-send leaves through the ejector without traversing
            // any link; otherwise the PE needs a free output.
            let chosen = (dst != at).then(|| pick_slot(&self.rows[row..row + deg], live, free).0);
            if stalled || chosen == Some(NO_SLOT) {
                if S::ENABLED {
                    sink.emit(&queues.stall_event(self.cycle, node));
                }
                continue;
            }
            let pending = queues.pop(node).expect("its head was read above");
            let mut pkt = Packet::new(pending.id, at, dst, pending.enqueued_at, pending.tag);
            pkt.injected_at = self.cycle;
            self.stats.injected += 1;
            self.stats.route_decisions += 1;
            if S::ENABLED {
                sink.emit(&SimEvent::Inject {
                    cycle: self.cycle,
                    node,
                    packet: pkt.id,
                    dst,
                    out: chosen.map_or(OutPort::Exit, |s| self.slot_ports[s as usize]),
                    queue_wait: self.cycle.saturating_sub(pkt.enqueued_at),
                });
            }
            let Some(chosen) = chosen else {
                self.eject(node, pkt, deliveries, sink);
                continue;
            };
            let slot = chosen as usize;
            if !dead.is_empty() {
                let greedy = usize::from(self.greedy[offset]);
                let greedy_port = self.slot_ports[greedy];
                if dead.contains(greedy_port) {
                    // `pick_slot` returns live slots only, and a dead
                    // port kills every slot of its class.
                    debug_assert_ne!(slot, greedy);
                    self.stats.rerouted += 1;
                    if S::ENABLED {
                        sink.emit(&SimEvent::FaultReroute {
                            cycle: self.cycle,
                            node,
                            packet: pkt.id,
                            avoided: greedy_port,
                        });
                    }
                }
            }
            self.in_flight += 1;
            if self.pool.free_slots() > 0 {
                self.stats.pool_reuse += 1;
            }
            let idx = self.pool.insert(pkt);
            self.forward(node, slot, idx, faults, sink);
        }

        debug_assert!(
            self.regs.iter().all(|&r| r == EMPTY_SLOT),
            "the walk consumes every occupied register"
        );
        self.occ.fill(0);
        std::mem::swap(&mut self.regs, &mut self.next_regs);
        std::mem::swap(&mut self.occ, &mut self.next_occ);
        debug_assert!(self.occupancy_mask_exact());
        if S::ENABLED {
            sink.end_cycle(self.cycle);
        }
        self.cycle += 1;
        // The fault words describe the cycle about to run (see
        // `Noc::step_with_sink`).
        if let Some(f) = self.faults.as_mut() {
            f.patch_epoch(self.cycle);
        }
    }
}

/// The links a lone packet crosses on the healthy fabric: every router
/// sends it down the first slot of its preference row — the far end
/// closest to `dst`, ties toward the lowest slot — exactly as the step
/// does. ([`Topology::route_slot`]'s greedy slot only classifies
/// reroutes; on a tie the two differ.)
pub(crate) fn zero_load_path(topo: &ShgTopology, src: usize, dst: usize) -> Vec<LinkDesc> {
    let q = topo.config().q();
    let deg = 2 * usize::from(topo.config().delta());
    let links = topo.links();
    let link_dst: Vec<u32> = links.iter().map(|l| l.dst as u32).collect();
    let from_origin = bfs_from_origin(topo.num_nodes(), deg, &link_dst);
    let target = Coord::from_node_id(dst, q);
    let mut row = [PAD_SLOT; PAD_SLOT as usize];
    let mut path = Vec::new();
    let mut at = src;
    while at != dst {
        let out = &links[at * deg..][..deg];
        let via = out
            .iter()
            .map(|l| from_origin[offset_id(Coord::from_node_id(l.dst, q), target, q)]);
        fill_row(&mut row[..deg], via);
        let link = out[usize::from(row[0])];
        at = link.dst;
        path.push(link);
    }
    path
}

/// BFS hop distance from node 0 to every node of the healthy SHG.
fn bfs_from_origin(nodes: usize, out_degree: usize, link_dst: &[u32]) -> Vec<u16> {
    let mut dist = vec![UNREACHABLE; nodes];
    let mut queue = std::collections::VecDeque::from([0u32]);
    dist[0] = 0;
    while let Some(v) = queue.pop_front() {
        for &next in &link_dst[v as usize * out_degree..][..out_degree] {
            if dist[next as usize] == UNREACHABLE {
                dist[next as usize] = dist[v as usize] + 1;
                queue.push_back(next);
            }
        }
    }
    dist
}

/// BFS hop distances between every node pair on the SHG with the
/// statically dead port classes in `static_dead` masked out
/// (`dist[at * nodes + dst]`; [`UNREACHABLE`] when no path survives).
/// One reverse BFS per destination over the live in-edges.
fn build_dist(
    nodes: usize,
    out_degree: usize,
    slot_ports: &[OutPort],
    link_dst: &[u32],
    static_dead: Option<&[OutSet]>,
) -> Vec<u16> {
    let mut radj: Vec<Vec<u32>> = vec![Vec::new(); nodes];
    for src in 0..nodes {
        let dead = static_dead.map_or(OutSet::empty(), |d| d[src]);
        for s in 0..out_degree {
            if dead.contains(slot_ports[s]) {
                continue;
            }
            radj[link_dst[src * out_degree + s] as usize].push(src as u32);
        }
    }
    let mut dist = vec![UNREACHABLE; nodes * nodes];
    let mut queue = std::collections::VecDeque::new();
    for dst in 0..nodes {
        dist[dst * nodes + dst] = 0;
        queue.push_back(dst as u32);
        while let Some(v) = queue.pop_front() {
            let dv = dist[v as usize * nodes + dst];
            for &u in &radj[v as usize] {
                let entry = &mut dist[u as usize * nodes + dst];
                if *entry == UNREACHABLE {
                    *entry = dv + 1;
                    queue.push_back(u);
                }
            }
        }
    }
    dist
}

impl SimEngine for ShgNoc {
    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn report_name(&self) -> String {
        self.topo.name()
    }

    fn step_cycle<S: EventSink>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
        self.step_with_sink(queues, deliveries, sink);
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn reset_stats(&mut self) {
        ShgNoc::reset_stats(self);
    }

    fn only_failed_injectors_pending(&self, queues: &InjectQueues) -> bool {
        ShgNoc::only_failed_injectors_pending(self, queues)
    }

    fn stats_snapshot(&self) -> SimStats {
        self.stats.clone()
    }
}

/// [`SessionBackend`] for the Sparse Hamming Graph:
/// `SimSession::with_backend(ShgBackend::new(cfg))` composes sinks,
/// monitors, fault plans, and attribution exactly like the torus and
/// mesh sessions.
#[derive(Debug, Clone, Copy)]
pub struct ShgBackend {
    cfg: ShgConfig,
}

impl ShgBackend {
    /// A backend building [`ShgNoc`]s from `cfg`.
    pub fn new(cfg: ShgConfig) -> Self {
        ShgBackend { cfg }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &ShgConfig {
        &self.cfg
    }
}

impl SessionBackend for ShgBackend {
    type Engine = ShgNoc;

    fn build(&self, faults: Option<&FaultPlan>) -> Result<ShgNoc, FaultError> {
        match faults {
            Some(plan) => ShgNoc::with_faults(self.cfg, plan),
            None => Ok(ShgNoc::new(self.cfg)),
        }
    }

    fn monitor_shape(&self) -> MonitorShape {
        ShgTopology::new(self.cfg).monitor_shape()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefShgNoc;
    use super::*;
    use crate::fault::Fault;
    use crate::sim::{SimOptions, SimReport, SimSession, TrafficSource};
    use crate::topology::TopoRouteLut;
    use crate::trace::{NullSink, VecSink};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    struct Batch {
        items: Vec<(usize, Coord)>,
        pushed: bool,
    }

    impl Batch {
        fn all_to(q: u16, dst: Coord) -> Self {
            let nodes = usize::from(q) * usize::from(q);
            Batch {
                items: (0..nodes)
                    .filter(|&s| Coord::from_node_id(s, q) != dst)
                    .map(|s| (s, dst))
                    .collect(),
                pushed: false,
            }
        }
    }

    impl TrafficSource for Batch {
        fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
            if !self.pushed {
                for &(s, d) in &self.items {
                    queues.push(s, d, cycle, 0);
                }
                self.pushed = true;
            }
        }
        fn exhausted(&self) -> bool {
            self.pushed
        }
    }

    fn cfg(q: u16, delta: u16) -> ShgConfig {
        ShgConfig::new(q, delta).unwrap()
    }

    fn run(c: ShgConfig, src: &mut impl TrafficSource) -> SimReport {
        SimSession::with_backend(ShgBackend::new(c))
            .run(src)
            .expect("no fault plan attached")
            .report
    }

    #[test]
    fn delivers_everything() {
        let report = run(cfg(8, 2), &mut Batch::all_to(8, Coord::new(3, 5)));
        assert!(!report.truncated);
        assert_eq!(report.stats.delivered, 63);
        assert_eq!(report.stats.injected, 63);
        assert!(report.conserved());
        assert_eq!(report.nodes, 64);
        assert!(report.config_name.contains("SHG"));
        assert!(report.avg_latency() > 0.0);
        // Express strides were exercised.
        assert!(report.stats.link_usage.express_hops > 0);
    }

    #[test]
    fn self_send_delivers_immediately() {
        let mut src = Batch {
            items: vec![(9, Coord::from_node_id(9, 8))],
            pushed: false,
        };
        let report = run(cfg(8, 2), &mut src);
        assert_eq!(report.stats.delivered, 1);
        assert_eq!(report.stats.link_usage.total(), 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let c = cfg(8, 3);
        let mk = || Batch::all_to(8, Coord::new(0, 0));
        assert_eq!(run(c, &mut mk()), run(c, &mut mk()));
    }

    #[test]
    fn event_stream_uses_port_classes() {
        let mut sink = VecSink::new();
        let mut src = Batch {
            items: vec![(0, Coord::new(4, 0))],
            pushed: false,
        };
        SimSession::with_backend(ShgBackend::new(cfg(8, 3)))
            .with_sink(&mut sink)
            .run(&mut src)
            .unwrap();
        // dx == 4 with strides {1,2,4}: one stride-4 express hop.
        let express: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                SimEvent::ExpressHop { span, .. } => Some(*span),
                _ => None,
            })
            .collect();
        assert_eq!(express, vec![4]);
        assert!(sink.events.iter().any(|e| matches!(
            e,
            SimEvent::Inject {
                out: OutPort::EastEx,
                ..
            }
        )));
        assert!(sink
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::Eject { .. })));
    }

    #[test]
    fn conservation_holds_under_fault_plans() {
        let c = cfg(8, 2);
        let plan = FaultPlan::new()
            .with(Fault::DeadLink {
                node: 10,
                out: OutPort::EastEx,
            })
            .with(Fault::FailStopRouter { node: 20, at: 3 })
            .with(Fault::TransientLink {
                node: 5,
                out: OutPort::EastSh,
                from: 0,
                until: 40,
                corrupt: true,
            })
            .with(Fault::StalledInjector {
                node: 7,
                from: 0,
                until: 30,
            })
            .with(Fault::DownLink {
                node: 12,
                out: OutPort::SouthEx,
                from: 2,
                until: 60,
            });
        let mut src = Batch::all_to(8, Coord::new(4, 4));
        let report = SimSession::with_backend(ShgBackend::new(c))
            .with_faults(&plan)
            .run(&mut src)
            .unwrap()
            .report;
        assert!(report.conserved(), "{:?}", report.stats);
        assert!(report.stats.dropped > 0, "faults must cost something");
        assert!(
            report.stats.delivered < report.stats.injected,
            "some packets are lost"
        );
        assert!(report.stats.delivered > 0, "the fabric degrades, not dies");
    }

    #[test]
    fn empty_plan_is_bit_identical_to_no_plan() {
        let c = cfg(8, 2);
        let mk = || Batch::all_to(8, Coord::new(2, 6));
        let clean = run(c, &mut mk());
        let mut src = mk();
        let empty = SimSession::with_backend(ShgBackend::new(c))
            .with_faults(&FaultPlan::new())
            .run(&mut src)
            .unwrap()
            .report;
        assert_eq!(clean, empty);
    }

    #[test]
    fn fault_plan_validation_goes_through_topology() {
        let bad = FaultPlan::new().with(Fault::DeadLink {
            node: 0,
            out: OutPort::EastEx,
        });
        // delta == 1: no express class exists.
        let err = ShgNoc::with_faults(cfg(4, 1), &bad).unwrap_err();
        assert_eq!(
            err,
            FaultError::NoExpressLink {
                node: 0,
                out: OutPort::EastEx,
            }
        );
        // Unlike the torus, a single Sh-class dead link is admitted
        // (the graph stays strongly connected via other rows).
        let sh = FaultPlan::new().with(Fault::DeadLink {
            node: 0,
            out: OutPort::EastSh,
        });
        assert!(ShgNoc::with_faults(cfg(8, 2), &sh).is_ok());
    }

    #[test]
    fn dead_shared_link_detours_without_loss() {
        let c = cfg(8, 2);
        let plan = FaultPlan::new().with(Fault::DeadLink {
            node: 0,
            out: OutPort::EastSh,
        });
        // One packet whose greedy route needs exactly that stride-1 link.
        let mut src = Batch {
            items: vec![(0, Coord::new(1, 0))],
            pushed: false,
        };
        let report = SimSession::with_backend(ShgBackend::new(c))
            .with_faults(&plan)
            .run(&mut src)
            .unwrap()
            .report;
        assert_eq!(report.stats.delivered, 1, "deflection finds the detour");
        assert_eq!(report.stats.dropped, 0);
        assert!(
            report.stats.rerouted > 0,
            "the dead link was steered around"
        );
    }

    #[test]
    fn storm_runs_conserve() {
        let c = cfg(8, 2);
        let topo = ShgTopology::new(c);
        let storm = FaultPlan::storm(&topo, 42, &crate::fault::StormSpec::default());
        assert!(!storm.is_empty());
        let mut src = Batch::all_to(8, Coord::new(7, 7));
        let report = SimSession::with_backend(ShgBackend::new(c))
            .with_faults(&storm)
            .run(&mut src)
            .unwrap()
            .report;
        assert!(report.conserved(), "{:?}", report.stats);
    }

    #[test]
    fn monitored_shg_run_matches_unmonitored() {
        let c = cfg(8, 2);
        let mk = || Batch::all_to(8, Coord::new(1, 1));
        let plain = run(c, &mut mk());
        let mut src = mk();
        let outcome = SimSession::with_backend(ShgBackend::new(c))
            .with_monitor(crate::monitor::MonitorConfig::default())
            .run(&mut src)
            .unwrap();
        assert_eq!(outcome.report, plain, "observation must not perturb");
        let monitor = outcome.monitor.expect("monitor attached");
        assert_eq!(monitor.summary().delivered, 63);
    }

    #[test]
    fn truncation_reports_in_flight() {
        let mut src = Batch::all_to(8, Coord::new(0, 0));
        let report = SimSession::with_backend(ShgBackend::new(cfg(8, 2)))
            .options(SimOptions {
                max_cycles: 3,
                ..SimOptions::default()
            })
            .run(&mut src)
            .unwrap()
            .report;
        assert!(report.truncated);
        assert!(report.conserved());
    }

    /// The four link port classes, for drawing faults.
    const LINK_PORTS: [OutPort; 4] = [
        OutPort::EastSh,
        OutPort::EastEx,
        OutPort::SouthSh,
        OutPort::SouthEx,
    ];

    /// A small random plan of one fault family (`kind` 1..=5: static
    /// dead links, down-link windows, transient links, fail-stop
    /// routers, stalled injectors), of all five (6), or none (0). Draws
    /// the topology refuses are skipped.
    fn random_plan(c: ShgConfig, kind: u8, rng: &mut SmallRng) -> FaultPlan {
        let topo = ShgTopology::new(c);
        let mut plan = FaultPlan::new();
        if kind == 0 {
            return plan;
        }
        for i in 0..rng.gen_range(1..5) {
            let node = rng.gen_range(0..c.num_nodes());
            let out = LINK_PORTS[rng.gen_range(0..4)];
            let from = rng.gen_range(0..50u64);
            let until = from + rng.gen_range(1..90u64);
            let fault = match if kind == 6 { i % 5 + 1 } else { kind } {
                1 => Fault::DeadLink { node, out },
                2 => Fault::DownLink {
                    node,
                    out,
                    from,
                    until,
                },
                3 => Fault::TransientLink {
                    node,
                    out,
                    from,
                    until,
                    corrupt: rng.gen(),
                },
                4 => Fault::FailStopRouter { node, at: from },
                _ => Fault::StalledInjector { node, from, until },
            };
            if topo.validate_fault(&fault).is_ok() {
                plan.push(fault);
            }
        }
        plan
    }

    /// Random traffic for the first 60 cycles (self-sends included).
    fn pump(queues: &mut [&mut InjectQueues], q: u16, rate: u32, cycle: u64, rng: &mut SmallRng) {
        if cycle >= 60 {
            return;
        }
        for node in 0..usize::from(q) * usize::from(q) {
            if rng.gen_range(0..100) < rate {
                let dst = Coord::new(rng.gen_range(0..q), rng.gen_range(0..q));
                for queue in queues.iter_mut() {
                    queue.push(node, dst, cycle, 0);
                }
            }
        }
    }

    /// Drives [`ShgNoc`] and the dense reference through the same random
    /// traffic (self-sends included) and fault plan: deliveries match
    /// cycle by cycle, then the whole event stream and every statistic
    /// but `router_visits` (the reference visits every router).
    fn assert_matches_reference<S: EventSink + Default>(
        c: ShgConfig,
        plan: &FaultPlan,
        rate: u32,
        seed: u64,
    ) -> (S, S) {
        let (q, nodes) = (c.q(), c.num_nodes());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut new = ShgNoc::with_faults(c, plan).unwrap();
        let mut old = RefShgNoc::with_faults(c, plan).unwrap();
        let mut new_q = InjectQueues::new(nodes);
        let mut old_q = InjectQueues::new(nodes);
        let (mut new_sink, mut old_sink) = (S::default(), S::default());
        for cycle in 0..700u64 {
            pump(&mut [&mut new_q, &mut old_q], q, rate, cycle, &mut rng);
            if cycle >= 60 && new_q.is_empty() && new.in_flight() == 0 {
                break;
            }
            let (mut new_out, mut old_out) = (Vec::new(), Vec::new());
            new.step_with_sink(&mut new_q, &mut new_out, &mut new_sink);
            old.step_with_sink(&mut old_q, &mut old_out, &mut old_sink);
            assert_eq!(new_out, old_out, "deliveries of cycle {cycle}");
        }
        let mut new_stats = new.stats().clone();
        assert!(new_stats.router_visits <= old.stats().router_visits);
        new_stats.router_visits = old.stats().router_visits;
        assert_eq!(&new_stats, old.stats());
        assert_eq!(new.in_flight(), old.in_flight());
        assert_eq!(
            (0..new_q.nodes()).map(|n| new_q.depth(n)).sum::<usize>(),
            (0..old_q.nodes()).map(|n| old_q.depth(n)).sum::<usize>()
        );
        (new_sink, old_sink)
    }

    /// The fabrics the differentials and table checks cover: the
    /// smallest ring, an odd side, and `delta = 3` where slots share a
    /// port class.
    const SPECS: [(u16, u16); 4] = [(4, 1), (5, 2), (8, 2), (8, 3)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn step_matches_dense_reference(
            spec in 0usize..4,
            kind in 0u8..7,
            rate in 1u32..100,
            seed in any::<u64>(),
        ) {
            let (q, delta) = SPECS[spec];
            let c = cfg(q, delta);
            let plan = random_plan(c, kind, &mut SmallRng::seed_from_u64(seed ^ 0xFA17));
            let (new, old) = assert_matches_reference::<VecSink>(c, &plan, rate, seed);
            prop_assert_eq!(new.events, old.events);
            // The unobserved monomorphization takes the same decisions.
            assert_matches_reference::<NullSink>(c, &plan, rate, seed);
        }

        /// `router_visits` is the running count of routers with an
        /// occupied arrival register or a waiting PE — nothing occupied
        /// is skipped, nothing idle is visited — and the occupancy mask
        /// is exact after every step.
        #[test]
        fn router_visits_match_shadow_active_set(
            spec in 0usize..4,
            kind in 0u8..7,
            rate in 1u32..40,
            seed in any::<u64>(),
        ) {
            let (q, delta) = SPECS[spec];
            let c = cfg(q, delta);
            let nodes = c.num_nodes();
            let mut rng = SmallRng::seed_from_u64(seed);
            let plan = random_plan(c, kind, &mut rng);
            let mut noc = ShgNoc::with_faults(c, &plan).unwrap();
            let mut queues = InjectQueues::new(nodes);
            let mut deliveries = Vec::new();
            let mut expected = 0u64;
            for cycle in 0..700u64 {
                pump(&mut [&mut queues], q, rate, cycle, &mut rng);
                if cycle >= 60 && queues.is_empty() && noc.in_flight() == 0 {
                    break;
                }
                expected += (0..nodes)
                    .filter(|&n| {
                        let regs = &noc.regs[n * noc.out_degree..][..noc.out_degree];
                        regs.iter().any(|&r| r != EMPTY_SLOT) || queues.depth(n) > 0
                    })
                    .count() as u64;
                noc.step_with_sink(&mut queues, &mut deliveries, &mut NullSink);
                prop_assert_eq!(noc.stats().router_visits, expected, "after cycle {}", cycle);
                prop_assert!(noc.occupancy_mask_exact());
            }
            prop_assert!(expected <= noc.cycle * nodes as u64);
        }
    }

    #[test]
    fn occupancy_mask_is_exact_healthy_and_failstopped() {
        let c = cfg(8, 2);
        let plan = FaultPlan::new().with(Fault::FailStopRouter { node: 27, at: 4 });
        for mut noc in [ShgNoc::new(c), ShgNoc::with_faults(c, &plan).unwrap()] {
            let mut queues = InjectQueues::new(64);
            for node in 0..64 {
                queues.push(node, Coord::new(3, 3), 0, 0); // node 27
            }
            let mut deliveries = Vec::new();
            let mut saw_traffic = false;
            for _ in 0..12 {
                noc.step_with_sink(&mut queues, &mut deliveries, &mut NullSink);
                assert!(noc.occupancy_mask_exact());
                saw_traffic |= noc.occ.iter().any(|&w| w != 0);
            }
            assert!(saw_traffic);
        }
    }

    /// Two static-dead plans for the exhaustive table checks (each fault
    /// admitted by the topology it is used on).
    fn static_dead_plans(c: ShgConfig) -> Vec<FaultPlan> {
        let nodes = c.num_nodes();
        let express = if c.delta() > 1 {
            OutPort::EastEx
        } else {
            OutPort::SouthSh
        };
        vec![
            FaultPlan::new().with(Fault::DeadLink {
                node: 1,
                out: OutPort::EastSh,
            }),
            FaultPlan::new()
                .with(Fault::DeadLink {
                    node: nodes / 2,
                    out: express,
                })
                .with(Fault::DeadLink {
                    node: nodes - 1,
                    out: OutPort::SouthSh,
                }),
        ]
    }

    /// The preference-row read equals the reference's scan of the full
    /// distance table for every router, destination, dead port-class
    /// set and set of already-taken live outputs.
    #[test]
    fn pick_slot_matches_reference_scan_exhaustively() {
        for (q, delta) in [(4, 1), (8, 2), (8, 3)] {
            let c = cfg(q, delta);
            let mut plans = vec![FaultPlan::new()];
            plans.extend(static_dead_plans(c));
            for plan in &plans {
                let new = ShgNoc::with_faults(c, plan).unwrap();
                let mut old = RefShgNoc::with_faults(c, plan).unwrap();
                let deg = new.out_degree;
                for node in 0..new.nodes {
                    for dst in (0..new.nodes).filter(|&d| d != node) {
                        let offset = offset_id(new.coords[node], new.coords[dst], q);
                        let row = (node * new.row_stride + offset) * deg;
                        let row = &new.rows[row..row + deg];
                        for dead_bits in 0..16usize {
                            let dead: OutSet = LINK_PORTS
                                .into_iter()
                                .filter(|p| dead_bits >> p.index() & 1 == 1)
                                .collect();
                            let live = new.all_slots & !new.class_slots[dead_bits];
                            // Every `free` that is a subset of `live`.
                            let mut taken = 0u32;
                            loop {
                                let free = live & !taken;
                                let (chosen, wanted) = pick_slot(row, live, free);
                                let as_option = |s: u32| (s != NO_SLOT).then_some(s as usize);
                                assert_eq!(
                                    (as_option(chosen), as_option(wanted)),
                                    old.choose_slot_under(node, dst, dead, taken),
                                    "shg:{q}:{delta} {plan} at {node} to {dst} dead {dead:?} taken {taken:#b}"
                                );
                                taken = (taken | !live).wrapping_add(1) & live;
                                if taken == 0 {
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Vertex transitivity, checked rather than assumed: the rows built
    /// for one router from one BFS equal, for every router, the rows
    /// built from the full all-pairs distance table.
    #[test]
    fn healthy_offset_rows_equal_per_router_rows() {
        for (q, delta) in [(4, 1), (5, 2), (8, 3), (16, 4)] {
            let noc = ShgNoc::new(cfg(q, delta));
            assert_eq!(noc.row_stride, 0);
            let (nodes, deg) = (noc.nodes, noc.out_degree);
            let dist = build_dist(nodes, deg, &noc.slot_ports, &noc.link_dst, None);
            let mut row = vec![0u8; deg];
            for at in 0..nodes {
                for dst in (0..nodes).filter(|&d| d != at) {
                    row.fill(PAD_SLOT);
                    let via =
                        (0..deg).map(|s| dist[noc.link_dst[at * deg + s] as usize * nodes + dst]);
                    fill_row(&mut row, via);
                    let offset = offset_id(noc.coords[at], noc.coords[dst], q);
                    assert_eq!(
                        &noc.rows[offset * deg..][..deg],
                        &row[..],
                        "shg:{q}:{delta} at {at} to {dst}"
                    );
                }
            }
        }
    }

    /// A plan whose links only go down in windows keeps the healthy
    /// offset-keyed rows; one statically dead link switches to rows per
    /// router.
    #[test]
    fn only_static_dead_links_build_per_router_rows() {
        let c = cfg(8, 2);
        let topo = ShgTopology::new(c);
        let healthy = ShgNoc::new(c);
        let storm = FaultPlan::storm(&topo, 42, &crate::fault::StormSpec::default());
        assert!(storm
            .faults()
            .iter()
            .any(|f| matches!(f, Fault::DownLink { .. })));
        let mut windows = storm.clone();
        for fault in [
            Fault::TransientLink {
                node: 3,
                out: OutPort::EastEx,
                from: 5,
                until: 9,
                corrupt: true,
            },
            Fault::FailStopRouter { node: 7, at: 20 },
            Fault::StalledInjector {
                node: 9,
                from: 0,
                until: 4,
            },
        ] {
            windows.push(fault);
        }
        for plan in [storm, windows] {
            let noc = ShgNoc::with_faults(c, &plan).unwrap();
            assert_eq!(noc.row_stride, 0, "{plan}");
            assert_eq!(noc.rows, healthy.rows, "{plan}");
        }
        for plan in static_dead_plans(c) {
            let noc = ShgNoc::with_faults(c, &plan).unwrap();
            assert_eq!(noc.row_stride, noc.nodes, "{plan}");
        }
    }

    /// The offset-keyed greedy table and the destination-grouped
    /// register map agree with the topology's own tables.
    #[test]
    fn greedy_and_register_tables_match_topology() {
        for (q, delta) in [(4, 1), (5, 2), (8, 3)] {
            let noc = ShgNoc::new(cfg(q, delta));
            let lut = TopoRouteLut::build(noc.topology());
            let (nodes, deg) = (noc.nodes, noc.out_degree);
            for at in 0..nodes {
                for dst in (0..nodes).filter(|&d| d != at) {
                    let offset = offset_id(noc.coords[at], noc.coords[dst], q);
                    assert_eq!(Some(usize::from(noc.greedy[offset])), lut.slot(at, dst));
                }
            }
            // Each node's block lists its arriving links in ascending
            // global-link order, and every register is used once.
            let mut arriving: Vec<Vec<usize>> = vec![Vec::new(); nodes];
            for link in noc.topology().links() {
                arriving[link.dst].push(link.src * deg + link.slot);
            }
            for (dst, links) in arriving.iter().enumerate() {
                for (rank, &global) in links.iter().enumerate() {
                    assert_eq!(noc.link_reg[global] as usize, dst * deg + rank);
                    assert_eq!(noc.link_dst[global] as usize, dst);
                }
            }
        }
    }
}
