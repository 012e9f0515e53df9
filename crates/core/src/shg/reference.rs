//! The dense SHG engine as it stood before the active-set walk: a scan
//! of every router every cycle, a per-packet search of every output slot
//! against the full `nodes x nodes` distance table, and whole-`Packet`
//! copies through the pool. Kept verbatim as the oracle the
//! differential tests in [`super::tests`] compare [`super::ShgNoc`]
//! against; it exists only under `#[cfg(test)]`.

use super::{build_dist, EMPTY_SLOT, UNREACHABLE};
use crate::fault::{FaultError, FaultPlan};
use crate::kernel::PacketPool;
use crate::packet::{Delivery, Packet};
use crate::port::{OutPort, OutSet};
use crate::queue::InjectQueues;
use crate::stats::SimStats;
use crate::topology::{ShgConfig, ShgTopology, TopoRouteLut, Topology};
use crate::trace::{EventSink, SimEvent};

/// The Sparse Hamming Graph engine: a synchronous bufferless
/// deflection router bank over [`ShgTopology`].
#[derive(Debug, Clone)]
pub(super) struct RefShgNoc {
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

impl RefShgNoc {
    /// Builds an idle fabric.
    pub(super) fn new(cfg: ShgConfig) -> Self {
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
        RefShgNoc {
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
    /// bit-identical to [`RefShgNoc::new`]. Statically dead links are
    /// masked out of the route-distance tables, so the router steers
    /// around them from the first cycle instead of discovering them by
    /// deflection.
    pub(super) fn with_faults(cfg: ShgConfig, plan: &FaultPlan) -> Result<Self, FaultError> {
        let topo = ShgTopology::new(cfg);
        plan.validate(&topo)?;
        let mut noc = RefShgNoc::new(cfg);
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

    /// Accumulated statistics.
    pub(super) fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Packets currently on links.
    pub(super) fn in_flight(&self) -> usize {
        self.in_flight
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
            .map_or(OutSet::empty(), |f| f.node_faults(node).dead);
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

    /// Test hook: [`RefShgNoc::choose_slot`] as if `dead` were the dead
    /// set at `node` this epoch and exactly the slots in `taken` already
    /// carried a packet this cycle.
    pub(super) fn choose_slot_under(
        &mut self,
        node: usize,
        dst: usize,
        dead: OutSet,
        taken: u32,
    ) -> (Option<usize>, Option<usize>) {
        let nodes = self.nodes;
        self.faults
            .get_or_insert_with(|| FaultPlan::new().compile(nodes))
            .words[node]
            .dead = dead;
        for s in 0..self.out_degree {
            self.next_regs[node * self.out_degree + s] = match taken >> s & 1 {
                1 => 0,
                _ => EMPTY_SLOT,
            };
        }
        self.choose_slot(node, dst)
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
            .and_then(|f| f.node_faults(node).link_fault(port));
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
    pub(super) fn step_with_sink<S: EventSink>(
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
                .is_some_and(|f| f.node_faults(node).failed);

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
                    let dead = self.faults.as_ref().expect("only faults strand").words[node].dead;
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
                        .is_some_and(|f| f.words[node].dead.contains(greedy_port));
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
                .is_some_and(|f| f.node_faults(node).stalled);
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
                            .is_some_and(|f| f.words[node].dead.contains(greedy_port))
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
