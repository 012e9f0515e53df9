//! The dense mesh engine as it stood before the active-set walk: three
//! `0..nodes` scans per cycle, a five-way `% 5` search per output per
//! router, and an O(nodes x moves) stall pass under an enabled sink.
//! Kept verbatim as the oracle the differential tests in
//! [`super::tests`] compare [`super::MeshNoc`] against; it exists only
//! under `#[cfg(test)]`.

use std::collections::VecDeque;

use fasttrack_core::fault::{FaultError, FaultPlan};
use fasttrack_core::geom::Coord;
use fasttrack_core::packet::{Delivery, Packet};
use fasttrack_core::port::OutPort;
use fasttrack_core::queue::InjectQueues;
use fasttrack_core::stats::SimStats;
use fasttrack_core::trace::{EventSink, SimEvent};

use super::{axis_port, MeshFaultState, INJ};
use crate::config::MeshConfig;
use crate::router::{xy_route, Dir};
use crate::topology::MeshTopology;

/// A buffered 2-D mesh NoC instance.
#[derive(Debug, Clone)]
pub(super) struct RefMeshNoc {
    cfg: MeshConfig,
    /// Router coordinates by node id (no divide per router per phase).
    coords: Vec<Coord>,
    /// `fifos[node][d]`: packets that arrived moving *from* direction
    /// `d` (i.e. sent by the `d`-side neighbor).
    fifos: Vec<[VecDeque<Packet>; 4]>,
    /// `credits[node][d]`: free slots we may still consume in the
    /// `d`-side neighbor's facing FIFO.
    credits: Vec<[usize; 4]>,
    /// Round-robin arbitration pointer per node per output (4 links +
    /// ejection).
    rr: Vec<[u8; 5]>,
    in_flight: usize,
    cycle: u64,
    stats: SimStats,
    faults: Option<MeshFaultState>,
    /// Per-cycle scratch of the step (granted moves, then link
    /// arrivals): cleared every cycle, allocated once.
    moves: Vec<Move>,
    arrivals: Vec<(usize, usize, Packet)>,
}

/// One granted move, computed against the cycle-start snapshot.
#[derive(Debug, Clone, Copy)]
struct Move {
    node: usize,
    /// Input index: 0..4 = link FIFO by direction, [`INJ`] = injection.
    input: usize,
    /// Output: `Some(dir)` = link, `None` = ejection.
    out: Option<Dir>,
}

impl RefMeshNoc {
    /// Builds an idle mesh.
    pub(super) fn new(cfg: MeshConfig) -> Self {
        let nodes = cfg.num_nodes();
        RefMeshNoc {
            cfg,
            coords: (0..nodes)
                .map(|id| Coord::from_node_id(id, cfg.n()))
                .collect(),
            fifos: vec![Default::default(); nodes],
            credits: vec![[cfg.buffer_depth(); 4]; nodes],
            rr: vec![[0; 5]; nodes],
            in_flight: 0,
            cycle: 0,
            stats: SimStats::default(),
            faults: None,
            moves: Vec::new(),
            arrivals: Vec::new(),
        }
    }

    /// Builds a mesh with `plan` injected. An empty plan is identical to
    /// [`RefMeshNoc::new`]. The mesh supports the fault subset that its
    /// single-path XY routing can express: fail-stop routers, stalled
    /// injectors, and transient axis-link faults; permanently dead links
    /// are rejected (every mesh link is the only route for some pairs).
    pub(super) fn with_faults(cfg: MeshConfig, plan: &FaultPlan) -> Result<Self, FaultError> {
        plan.validate(&MeshTopology::new(cfg))?;
        let mut noc = RefMeshNoc::new(cfg);
        if !plan.is_empty() {
            noc.faults = Some(MeshFaultState::compile(plan, cfg.num_nodes()));
        }
        Ok(noc)
    }

    /// Packets currently buffered in the mesh.
    pub(super) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Current cycle.
    pub(super) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated statistics.
    pub(super) fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// `step` with an [`EventSink`] observing the cycle.
    ///
    /// The mesh emits the same event vocabulary as the torus engines
    /// with two caveats: routing decisions carry `in_port: None` (FIFO
    /// inputs have no torus port identity) and link outputs are reported
    /// by axis (`axis_port`). Buffered routers hold rather than
    /// misroute, so no [`SimEvent::Deflect`] is ever emitted.
    pub(super) fn step_with_sink<S: EventSink>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
        let n = self.cfg.n();
        let nodes = self.cfg.num_nodes();
        let mut moves = std::mem::take(&mut self.moves);
        let mut arrivals = std::mem::take(&mut self.arrivals);
        moves.clear();
        self.stats.router_visits += nodes as u64;

        // Phase 0: fail-stop routers drop everything buffered at them
        // and return the consumed credits upstream, so traffic keeps
        // flowing *toward* the dead node and is accounted as lost there
        // (exact conservation: every drop decrements in-flight).
        for node in 0..nodes {
            if !self
                .faults
                .as_ref()
                .is_some_and(|f| f.failed(node, self.cycle))
            {
                continue;
            }
            let at = self.coords[node];
            for d in Dir::ALL {
                while let Some(pkt) = self.fifos[node][d.index()].pop_front() {
                    if let Some(upstream) = d.neighbor(at, n) {
                        self.credits[upstream.to_node_id(n)][d.opposite().index()] += 1;
                    }
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
        }

        // Phase 1: arbitration against the cycle-start snapshot.
        for node in 0..nodes {
            // A fail-stopped router makes no moves: nothing routes,
            // nothing injects, nothing ejects.
            if self
                .faults
                .as_ref()
                .is_some_and(|f| f.failed(node, self.cycle))
            {
                continue;
            }
            let at = self.coords[node];
            // Desired output of each candidate input's head packet.
            let mut desires: [Option<Option<Dir>>; 5] = [None; 5];
            for d in Dir::ALL {
                if let Some(head) = self.fifos[node][d.index()].front() {
                    desires[d.index()] = Some(xy_route(at, head.dst));
                }
            }
            let inject_blocked = self
                .faults
                .as_ref()
                .is_some_and(|f| f.injector_stalled(node, self.cycle));
            if !inject_blocked {
                if let Some(pending) = queues.peek(node) {
                    desires[INJ] = Some(xy_route(at, pending.dst));
                }
            }

            // Arbitrate each output: ejection (index 4) plus four links.
            for out_idx in 0..5usize {
                let out: Option<Dir> = if out_idx == 4 {
                    None
                } else {
                    Some(Dir::ALL[out_idx])
                };
                // Link outputs need a neighbor and a credit.
                if let Some(dir) = out {
                    if dir.neighbor(at, n).is_none() || self.credits[node][dir.index()] == 0 {
                        continue;
                    }
                }
                // Round-robin over the five candidate inputs.
                let start = self.rr[node][out_idx] as usize;
                let winner = (0..5)
                    .map(|k| (start + k) % 5)
                    .find(|&i| desires[i] == Some(out));
                if let Some(input) = winner {
                    moves.push(Move { node, input, out });
                    self.rr[node][out_idx] = ((input + 1) % 5) as u8;
                    // Reserve the credit now so no other router state is
                    // needed; pops/pushes apply in phase 2.
                    if let Some(dir) = out {
                        self.credits[node][dir.index()] -= 1;
                    }
                }
            }
        }

        // Phase 2: apply moves — pops (returning upstream credits), then
        // pushes into downstream FIFOs.
        for mv in &moves {
            let at = self.coords[mv.node];
            let mut pkt = if mv.input == INJ {
                let pending = queues.pop(mv.node).expect("granted injection has a packet");
                let mut p = Packet::new(
                    pending.id,
                    at,
                    pending.dst,
                    pending.enqueued_at,
                    pending.tag,
                );
                p.injected_at = self.cycle;
                self.stats.injected += 1;
                self.in_flight += 1;
                if S::ENABLED {
                    sink.emit(&SimEvent::Inject {
                        cycle: self.cycle,
                        node: mv.node,
                        packet: p.id,
                        dst: p.dst,
                        out: mv.out.map_or(OutPort::Exit, axis_port),
                        queue_wait: self.cycle.saturating_sub(p.enqueued_at),
                    });
                }
                p
            } else {
                let p = self.fifos[mv.node][mv.input]
                    .pop_front()
                    .expect("granted input has a head");
                // Return the credit to the upstream router that feeds
                // this FIFO (if any — edge FIFOs have no upstream).
                let from_dir = Dir::ALL[mv.input];
                if let Some(upstream) = from_dir.neighbor(at, n) {
                    self.credits[upstream.to_node_id(n)][from_dir.opposite().index()] += 1;
                }
                if S::ENABLED {
                    sink.emit(&SimEvent::RouteDecision {
                        cycle: self.cycle,
                        node: mv.node,
                        packet: p.id,
                        in_port: None,
                        out: mv.out.map_or(OutPort::Exit, axis_port),
                        src: p.src,
                        dst: p.dst,
                        hops: p.total_hops(),
                    });
                }
                p
            };

            match mv.out {
                None => {
                    debug_assert_eq!(pkt.dst, at);
                    self.in_flight -= 1;
                    self.stats.delivered += 1;
                    let delivery = Delivery {
                        packet: pkt,
                        cycle: self.cycle + 1,
                    };
                    self.stats.total_latency.record(delivery.total_latency());
                    self.stats
                        .network_latency
                        .record(delivery.network_latency());
                    if S::ENABLED {
                        sink.emit(&SimEvent::Eject {
                            cycle: self.cycle,
                            node: mv.node,
                            delivery,
                        });
                    }
                    deliveries.push(delivery);
                }
                Some(dir) => {
                    // The hop is counted even when a transient fault eats
                    // the packet: the wire was driven either way.
                    pkt.short_hops += 1;
                    self.stats.link_usage.short_hops += 1;
                    let axis = axis_port(dir);
                    if let Some(corrupted) = self
                        .faults
                        .as_ref()
                        .and_then(|f| f.link_fault(mv.node, axis, self.cycle))
                    {
                        // The reserved downstream slot is never filled:
                        // hand the credit straight back.
                        self.credits[mv.node][dir.index()] += 1;
                        self.in_flight -= 1;
                        self.stats.dropped += 1;
                        if S::ENABLED {
                            sink.emit(&SimEvent::FaultDrop {
                                cycle: self.cycle,
                                node: mv.node,
                                packet: pkt.id,
                                link: Some(axis),
                                corrupted,
                            });
                        }
                        continue;
                    }
                    let target = dir.neighbor(at, n).expect("checked in phase 1");
                    // The packet arrives at the target on the FIFO facing
                    // back toward us.
                    arrivals.push((target.to_node_id(n), dir.opposite().index(), pkt));
                }
            }
        }
        for (node, fifo, pkt) in arrivals.drain(..) {
            debug_assert!(self.fifos[node][fifo].len() < self.cfg.buffer_depth());
            self.fifos[node][fifo].push_back(pkt);
        }

        if S::ENABLED {
            // A node with a still-pending head was denied injection this
            // cycle (grants pop the head, and pumps happen outside step).
            for node in 0..nodes {
                let injected = moves.iter().any(|m| m.node == node && m.input == INJ);
                if !injected && queues.peek(node).is_some() {
                    sink.emit(&queues.stall_event(self.cycle, node));
                }
            }
            sink.end_cycle(self.cycle);
        }

        self.moves = moves;
        self.arrivals = arrivals;
        self.cycle += 1;
    }
}
