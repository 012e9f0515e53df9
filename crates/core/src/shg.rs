//! A bufferless deflection-routed engine for the Sparse Hamming Graph
//! ([`crate::topology::ShgTopology`]).
//!
//! The router is synchronous and bufferless, like Hoplite: every link
//! has a single register, each cycle every arriving packet must leave
//! through some output (or be ejected), and contention resolves by
//! deflection rather than buffering. Differences from the torus engine:
//!
//! * **Routing is LUT-driven** through the topology's flat
//!   [`TopoRouteLut`] — the greedy radix decomposition over the
//!   power-of-two stride set. The per-cycle hot path is a single table
//!   read per packet, exactly like the torus `RouteLut`.
//! * **Per-input ejectors**: every arrival destined here leaves the
//!   network this cycle, so the output-allocation problem stays
//!   feasible (arrivals never exceed the out-degree on a healthy
//!   fabric).
//! * **Deflection is distance-descent**: the engine pre-computes BFS
//!   hop distances to every destination on the *statically faulted*
//!   graph, and each packet takes the live, free output slot whose far
//!   end is closest to its destination (ties break toward the lowest
//!   slot, preserving X-before-Y ordering). A packet denied every
//!   productive slot takes any live free one. Losers never wait —
//!   there is nowhere to wait — but every deflection still makes the
//!   best progress available, which is what keeps a detour around a
//!   dead stride-1 link from livelocking on the stride ring.
//!
//! Events reuse the torus [`SimEvent`] schema via the SHG's
//! [`OutPort`]-class mapping (stride-1 links report as `E_sh`/`S_sh`,
//! longer strides as `E_ex`/`S_ex`), so monitors, attribution, and
//! trace renderers work unchanged.
//!
//! Fault plans are validated through [`Topology::validate_fault`] and
//! compiled to the same per-node tables the torus engine reads; all
//! five fault kinds are supported, and exact conservation
//! (`delivered + in_flight + dropped == injected`) holds under every
//! plan, asserted by the integration tests.

use crate::fault::{FaultError, FaultPlan};
use crate::kernel::PacketPool;
use crate::packet::{Delivery, Packet};
use crate::port::{OutPort, OutSet};
use crate::queue::InjectQueues;
use crate::sim::{SessionBackend, SimEngine};
use crate::stats::SimStats;
use crate::topology::{MonitorShape, ShgConfig, ShgTopology, TopoRouteLut, Topology};
use crate::trace::{EventSink, SimEvent};

/// Empty link-register marker.
const EMPTY_SLOT: u32 = u32::MAX;

/// Distance-table marker for "no path on the statically faulted graph".
const UNREACHABLE: u16 = u16::MAX;

/// The Sparse Hamming Graph engine: a synchronous bufferless
/// deflection router bank over [`ShgTopology`].
#[derive(Debug, Clone)]
pub struct ShgNoc {
    topo: ShgTopology,
    lut: TopoRouteLut,
    nodes: usize,
    out_degree: usize,
    /// Output port class per slot (same for every node).
    slot_ports: Vec<OutPort>,
    /// Link span per slot (stride in router positions).
    slot_spans: Vec<u16>,
    /// `regs[src * out_degree + slot]`: pool index of the packet on
    /// that link, arriving at its dst this cycle.
    regs: Vec<u32>,
    /// Next cycle's link registers (written by this cycle's routing).
    next_regs: Vec<u32>,
    /// Per node: the global link indices arriving there, ascending.
    in_links: Vec<Vec<u32>>,
    /// `link_dst[src * out_degree + slot]`: the node that link lands on.
    link_dst: Vec<u32>,
    /// `dist[at * nodes + dst]`: BFS hop distance on the statically
    /// faulted graph ([`UNREACHABLE`] when no path survives).
    dist: Vec<u16>,
    pool: PacketPool,
    stats: SimStats,
    faults: Option<crate::fault::FaultState>,
    in_flight: usize,
    cycle: u64,
}

impl ShgNoc {
    /// Builds an idle fabric.
    pub fn new(cfg: ShgConfig) -> Self {
        let topo = ShgTopology::new(cfg);
        let lut = TopoRouteLut::build(&topo);
        let nodes = topo.num_nodes();
        let out_degree = 2 * usize::from(cfg.delta());
        let template = topo.out_links(0);
        let slot_ports: Vec<OutPort> = template.iter().map(|l| l.port).collect();
        let slot_spans: Vec<u16> = template.iter().map(|l| l.span).collect();
        let mut in_links = vec![Vec::new(); nodes];
        let mut link_dst = vec![0u32; nodes * out_degree];
        for link in topo.links() {
            in_links[link.dst].push((link.src * out_degree + link.slot) as u32);
            link_dst[link.src * out_degree + link.slot] = link.dst as u32;
        }
        let dist = build_dist(nodes, out_degree, &slot_ports, &link_dst, None);
        ShgNoc {
            topo,
            lut,
            nodes,
            out_degree,
            slot_ports,
            slot_spans,
            regs: vec![EMPTY_SLOT; nodes * out_degree],
            next_regs: vec![EMPTY_SLOT; nodes * out_degree],
            in_links,
            link_dst,
            dist,
            pool: PacketPool::with_capacity(nodes * out_degree),
            stats: SimStats::default(),
            faults: None,
            in_flight: 0,
            cycle: 0,
        }
    }

    /// Builds an idle fabric with a fault plan injected. The plan is
    /// validated through the topology's fault hooks
    /// ([`Topology::validate_fault`]); an empty plan yields an engine
    /// bit-identical to [`ShgNoc::new`]. Statically dead links are
    /// masked out of the route-distance tables, so the router steers
    /// around them from the first cycle instead of discovering them by
    /// deflection.
    pub fn with_faults(cfg: ShgConfig, plan: &FaultPlan) -> Result<Self, FaultError> {
        let topo = ShgTopology::new(cfg);
        plan.validate_topo(&topo)?;
        let mut noc = ShgNoc::new(cfg);
        if !plan.is_empty() {
            let faults = plan.compile(noc.nodes);
            noc.dist = build_dist(
                noc.nodes,
                noc.out_degree,
                &noc.slot_ports,
                &noc.link_dst,
                Some(faults.static_dead()),
            );
            noc.faults = Some(faults);
        }
        Ok(noc)
    }

    /// The topology this engine runs.
    pub fn topology(&self) -> &ShgTopology {
        &self.topo
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Packets currently on links.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// True when every still-queued packet sits at a fail-stopped
    /// router (mirrors the torus engine's early-exit condition).
    pub fn only_failed_injectors_pending(&self, queues: &InjectQueues) -> bool {
        match &self.faults {
            None => false,
            Some(f) => (0..self.nodes).all(|n| queues.depth(n) == 0 || f.failed(n, self.cycle)),
        }
    }

    /// Record that `count` packets were enqueued (driver bookkeeping).
    pub fn note_enqueued(&mut self, count: u64) {
        self.stats.enqueued += count;
    }

    /// Clears accumulated statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    /// Returns the engine to its just-built state.
    pub fn reset(&mut self) {
        self.regs.fill(EMPTY_SLOT);
        self.next_regs.fill(EMPTY_SLOT);
        self.pool.clear();
        self.stats = SimStats::default();
        self.in_flight = 0;
        self.cycle = 0;
        if let Some(f) = self.faults.as_mut() {
            f.rewind();
        }
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
        self.stats
            .network_latency
            .record(delivery.network_latency());
        deliveries.push(delivery);
        if S::ENABLED {
            sink.emit(&SimEvent::Eject {
                cycle: self.cycle,
                node,
                delivery,
            });
        }
    }

    /// Picks output slots at `node` for a packet bound to `dst` by
    /// distance descent: among currently live slots, `wanted` is the
    /// one whose far end is BFS-closest to `dst` on the statically
    /// faulted graph, and `chosen` is the closest one that is also
    /// still free this cycle (ties break toward the lowest slot). When
    /// every productive slot is taken, `chosen` falls back to any live
    /// free slot — a pure deflection. `(None, _)` means every live
    /// output is occupied.
    fn choose_slot(&self, node: usize, dst: usize) -> (Option<usize>, Option<usize>) {
        let dead = self
            .faults
            .as_ref()
            .map_or(OutSet::empty(), |f| f.dead[node]);
        let base = node * self.out_degree;
        let mut wanted: Option<(u16, usize)> = None;
        let mut chosen: Option<(u16, usize)> = None;
        for s in 0..self.out_degree {
            if dead.contains(self.slot_ports[s]) {
                continue;
            }
            let next = self.link_dst[base + s] as usize;
            let d = self.dist[next * self.nodes + dst];
            if d == UNREACHABLE {
                continue;
            }
            if wanted.is_none_or(|(best, _)| d < best) {
                wanted = Some((d, s));
            }
            if self.next_regs[base + s] == EMPTY_SLOT && chosen.is_none_or(|(best, _)| d < best) {
                chosen = Some((d, s));
            }
        }
        let chosen = chosen.map(|(_, s)| s).or_else(|| {
            (0..self.out_degree).find(|&s| {
                !dead.contains(self.slot_ports[s]) && self.next_regs[base + s] == EMPTY_SLOT
            })
        });
        (chosen, wanted.map(|(_, s)| s))
    }

    /// Places the packet in pool slot `idx` onto output `slot` of
    /// `node`, updating hop counters; a transiently faulted link
    /// consumes the hop but loses the packet (counted in `dropped`).
    fn forward<S: EventSink>(&mut self, node: usize, slot: usize, idx: u32, sink: &mut S) {
        let port = self.slot_ports[slot];
        let span = self.slot_spans[slot];
        let mut pkt = *self.pool.get(idx);
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
        let link_fault = self
            .faults
            .as_ref()
            .and_then(|f| f.link_fault(node, port, self.cycle));
        if let Some(corrupted) = link_fault {
            self.pool.release(idx);
            self.in_flight -= 1;
            self.stats.dropped += 1;
            if S::ENABLED {
                sink.emit(&SimEvent::FaultDrop {
                    cycle: self.cycle,
                    node,
                    packet: pkt.id,
                    link: Some(port),
                    corrupted,
                });
            }
            return;
        }
        self.pool.write(idx, &pkt);
        self.next_regs[node * self.out_degree + slot] = idx;
    }

    /// Advances the fabric by one cycle (see [`SimEngine::step_cycle`]).
    pub fn step_with_sink<S: EventSink>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
        if let Some(f) = self.faults.as_mut() {
            f.patch_epoch(self.cycle);
        }

        self.stats.router_visits += self.nodes as u64;
        for node in 0..self.nodes {
            let failed = self
                .faults
                .as_ref()
                .is_some_and(|f| f.failed(node, self.cycle));

            // Arrivals, in ascending global-link order (deterministic).
            for li in 0..self.in_links[node].len() {
                let gidx = self.in_links[node][li] as usize;
                let idx = self.regs[gidx];
                if idx == EMPTY_SLOT {
                    continue;
                }
                self.regs[gidx] = EMPTY_SLOT;
                let pkt = *self.pool.get(idx);

                // A fail-stopped router swallows every arrival.
                if failed {
                    self.pool.release(idx);
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
                    continue;
                }

                let q = self.topo.config().q();
                let dst = pkt.dst.to_node_id(q);
                if dst == node {
                    // Per-input ejector: delivery this cycle.
                    self.stats.route_decisions += 1;
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
                    self.pool.release(idx);
                    self.in_flight -= 1;
                    self.eject(node, pkt, deliveries, sink);
                    continue;
                }

                let greedy = self.lut.slot(node, dst).expect("dst != node");
                let (chosen, wanted) = self.choose_slot(node, dst);
                let Some(slot) = chosen else {
                    // Every live output is taken: dead links broke the
                    // arrivals <= outputs guarantee. Bufferless routers
                    // have nowhere to park the loser.
                    let dead = self.faults.as_ref().expect("only faults strand").dead[node];
                    self.pool.release(idx);
                    self.in_flight -= 1;
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
                let out = self.slot_ports[slot];
                self.stats.route_decisions += 1;
                if S::ENABLED {
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
                if slot != greedy {
                    let greedy_port = self.slot_ports[greedy];
                    let dead_caused = self
                        .faults
                        .as_ref()
                        .is_some_and(|f| f.dead[node].contains(greedy_port));
                    if dead_caused {
                        // Steered off a dead link: degradation, not a
                        // deflection.
                        self.stats.rerouted += 1;
                        if S::ENABLED {
                            sink.emit(&SimEvent::FaultReroute {
                                cycle: self.cycle,
                                node,
                                packet: pkt.id,
                                avoided: greedy_port,
                            });
                        }
                    } else if Some(slot) != wanted {
                        // Denied the closest productive slot by
                        // occupancy: a genuine deflection.
                        let mut moved = *self.pool.get(idx);
                        moved.deflections += 1;
                        self.pool.write(idx, &moved);
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
                self.forward(node, slot, idx, sink);
            }

            // PE injection: lowest priority.
            if failed {
                continue;
            }
            let stalled = self
                .faults
                .as_ref()
                .is_some_and(|f| f.injector_stalled(node, self.cycle));
            let Some(pending) = queues.peek(node) else {
                continue;
            };
            if stalled {
                self.stats.injection_stalls += 1;
                if S::ENABLED {
                    sink.emit(&queues.stall_event(self.cycle, node));
                }
                continue;
            }
            let q = self.topo.config().q();
            let dst = pending.dst.to_node_id(q);
            if dst == node {
                // Self-send: delivered without traversing any link.
                let pending = queues.pop(node).unwrap();
                let mut pkt = Packet::new(
                    pending.id,
                    pkt_coord(node, q),
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
                        out: OutPort::Exit,
                        queue_wait: self.cycle.saturating_sub(pkt.enqueued_at),
                    });
                }
                self.eject(node, pkt, deliveries, sink);
                continue;
            }
            let greedy = self.lut.slot(node, dst).expect("dst != node");
            match self.choose_slot(node, dst).0 {
                Some(slot) => {
                    let pending = queues.pop(node).unwrap();
                    let mut pkt = Packet::new(
                        pending.id,
                        pkt_coord(node, q),
                        pending.dst,
                        pending.enqueued_at,
                        pending.tag,
                    );
                    pkt.injected_at = self.cycle;
                    self.stats.injected += 1;
                    self.stats.route_decisions += 1;
                    let out = self.slot_ports[slot];
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
                    if slot != greedy {
                        let greedy_port = self.slot_ports[greedy];
                        if self
                            .faults
                            .as_ref()
                            .is_some_and(|f| f.dead[node].contains(greedy_port))
                        {
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
                    self.forward(node, slot, idx, sink);
                }
                None => {
                    self.stats.injection_stalls += 1;
                    if S::ENABLED {
                        sink.emit(&queues.stall_event(self.cycle, node));
                    }
                }
            }
        }

        std::mem::swap(&mut self.regs, &mut self.next_regs);
        self.next_regs.fill(EMPTY_SLOT);
        if S::ENABLED {
            sink.end_cycle(self.cycle);
        }
        self.cycle += 1;
    }
}

/// Node id to coordinate on the SHG's `q × q` grid.
fn pkt_coord(node: usize, q: u16) -> crate::geom::Coord {
    crate::geom::Coord::from_node_id(node, q)
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

    fn reset(&mut self) {
        ShgNoc::reset(self);
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
    use super::*;
    use crate::fault::Fault;
    use crate::geom::Coord;
    use crate::sim::{SimOptions, SimReport, SimSession, TrafficSource};
    use crate::trace::VecSink;

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
    fn runs_are_deterministic_and_reset_is_exact() {
        let c = cfg(8, 3);
        let mk = || Batch::all_to(8, Coord::new(0, 0));
        let a = run(c, &mut mk());
        let b = run(c, &mut mk());
        assert_eq!(a, b);
        let batch = SimSession::with_backend(ShgBackend::new(c))
            .run_batch(&[1, 2, 3], |_| mk())
            .unwrap();
        for outcome in &batch {
            assert_eq!(outcome.report, a, "reset must be exact");
        }
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
        let storm = FaultPlan::storm_topo(&topo, 42, &crate::fault::StormSpec::default());
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
}
