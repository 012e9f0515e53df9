//! The buffered-mesh engine: input-FIFO routers with credit-based flow
//! control and round-robin output arbitration.
//!
//! Unlike the bufferless torus, a buffered router *parks* losers: each
//! of the four link inputs owns a FIFO of `buffer_depth` packets, a
//! packet advances only when its output wins arbitration *and* the
//! downstream FIFO has a credit, and ejection consumes one packet per
//! cycle. XY routing on a mesh with guaranteed ejection is
//! deadlock-free, which the tests verify by draining adversarial loads.

use std::collections::VecDeque;

use crate::fault::{FaultError, FaultPlan, FaultState, NodeFaults};
use crate::geom::Coord;
use crate::mesh::config::MeshConfig;
use crate::mesh::router::{xy_route, Dir};
use crate::mesh::topology::MeshTopology;
use crate::packet::{Delivery, Packet};
use crate::port::OutPort;
use crate::queue::{ActiveCursor, InjectQueues};
use crate::stats::SimStats;
use crate::trace::{EventSink, SimEvent};

#[cfg(test)]
mod reference;

/// Maps a mesh link direction onto the torus-typed event port by *axis*:
/// the torus enum has no west/north outputs (its rings are
/// unidirectional), so traces report x-axis links as `E_sh` and y-axis
/// links as `S_sh`. Axis-level link accounting (e.g. the windowed
/// metrics' utilization series) stays meaningful; direction within the
/// axis is a mesh-only detail.
pub(super) fn axis_port(dir: Dir) -> OutPort {
    match dir {
        Dir::East | Dir::West => OutPort::EastSh,
        Dir::North | Dir::South => OutPort::SouthSh,
    }
}

/// Candidate inputs per output: four link FIFOs plus local injection.
const INJ: usize = 4;

/// Output index of the ejector, after the four links in [`Dir::index`]
/// order.
const EJECT: usize = 4;

/// [`MeshNoc::neighbors`] entry at the mesh edge.
const NO_NEIGHBOR: u32 = u32::MAX;

/// Index of the direction a packet sent toward `dir` arrives from
/// ([`Dir::opposite`] on indices: N <-> S, E <-> W).
const fn opposite(dir: usize) -> usize {
    dir ^ 2
}

/// The round-robin winner among the inputs in `want` (bit `i` = input
/// `i`, five inputs), searching from input `start` upward and wrapping.
/// `want` must be non-zero.
#[inline]
fn rr_winner(want: u32, start: usize) -> usize {
    debug_assert!(want != 0 && want < 32 && start < 5);
    // Rotate right by `start` within five bits: the winner is then the
    // lowest set bit.
    let rotated = (want >> start | want << (5 - start)) & 0x1F;
    let input = start + rotated.trailing_zeros() as usize;
    if input >= 5 {
        input - 5
    } else {
        input
    }
}

/// A buffered 2-D mesh NoC instance.
#[derive(Debug, Clone)]
pub struct MeshNoc {
    cfg: MeshConfig,
    /// Router coordinates by node id (no divide per router per phase).
    coords: Vec<Coord>,
    /// `neighbors[node][d]`: node id of the `d`-side neighbor, or
    /// [`NO_NEIGHBOR`] at the mesh edge.
    neighbors: Vec<[u32; 4]>,
    /// `fifos[node][d]`: packets that arrived moving *from* direction
    /// `d` (i.e. sent by the `d`-side neighbor).
    fifos: Vec<[VecDeque<Packet>; 4]>,
    /// Bit `node % 64` of word `node / 64` is set exactly while one of
    /// `node`'s link FIFOs holds a packet; with the inject queues' own
    /// mask it is the step's active set.
    occ: Vec<u64>,
    /// `credits[node][d]`: free slots we may still consume in the
    /// `d`-side neighbor's facing FIFO.
    credits: Vec<[usize; 4]>,
    /// Round-robin arbitration pointer per node per output (4 links +
    /// ejection).
    rr: Vec<[u8; 5]>,
    in_flight: usize,
    cycle: u64,
    stats: SimStats,
    /// The compiled fault plan; link faults are *axis-level* (see
    /// [`axis_port`]): a `TransientLink` on `E_sh` covers both x-axis
    /// directions at its node, `S_sh` both y-axis directions.
    faults: Option<FaultState>,
    /// Per-cycle scratch of the step (granted moves, link arrivals, and
    /// under an enabled sink the nodes that injected): cleared every
    /// cycle, allocated once.
    moves: Vec<Move>,
    arrivals: Vec<(usize, usize, Packet)>,
    injected: Vec<u64>,
}

/// One granted move, computed against the cycle-start snapshot.
#[derive(Debug, Clone, Copy)]
struct Move {
    node: u32,
    /// Input index: 0..4 = link FIFO by direction, [`INJ`] = injection.
    input: u8,
    /// Output index: 0..4 = link by direction, [`EJECT`] = ejection.
    out: u8,
}

impl MeshNoc {
    /// Builds an idle mesh.
    pub fn new(cfg: MeshConfig) -> Self {
        let n = cfg.n();
        let nodes = cfg.num_nodes();
        let coords: Vec<Coord> = (0..nodes).map(|id| Coord::from_node_id(id, n)).collect();
        let neighbors = coords
            .iter()
            .map(|&at| {
                Dir::ALL.map(|d| {
                    d.neighbor(at, n)
                        .map_or(NO_NEIGHBOR, |c| c.to_node_id(n) as u32)
                })
            })
            .collect();
        MeshNoc {
            cfg,
            coords,
            neighbors,
            fifos: vec![Default::default(); nodes],
            occ: vec![0; nodes.div_ceil(64)],
            credits: vec![[cfg.buffer_depth(); 4]; nodes],
            rr: vec![[0; 5]; nodes],
            in_flight: 0,
            cycle: 0,
            stats: SimStats::default(),
            faults: None,
            moves: Vec::new(),
            arrivals: Vec::new(),
            injected: vec![0; nodes.div_ceil(64)],
        }
    }

    /// Builds a mesh with `plan` injected. An empty plan is identical to
    /// [`MeshNoc::new`]. The mesh supports the fault subset that its
    /// single-path XY routing can express: fail-stop routers, stalled
    /// injectors, and transient axis-link faults; permanently dead links
    /// are rejected (every mesh link is the only route for some pairs).
    pub(crate) fn with_faults(cfg: MeshConfig, plan: &FaultPlan) -> Result<Self, FaultError> {
        plan.validate(&MeshTopology::new(cfg))?;
        let mut noc = MeshNoc::new(cfg);
        if !plan.is_empty() {
            noc.faults = Some(plan.compile(cfg.num_nodes()));
        }
        Ok(noc)
    }

    /// True when every node that still has queued packets has
    /// fail-stopped by the current cycle — those packets can never
    /// inject, so a driver waiting for the queues to drain should stop.
    /// Always false on a fault-free mesh.
    pub(crate) fn only_failed_injectors_pending(&self, queues: &InjectQueues) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.only_failed_injectors_pending(queues))
    }

    /// The configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// Packets currently buffered in the mesh.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Clears statistics.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    /// Clears `node`'s occupancy bit if a pop just emptied its last
    /// non-empty link FIFO.
    #[inline]
    fn note_popped(&mut self, node: usize) {
        if self.fifos[node].iter().all(VecDeque::is_empty) {
            self.occ[node / 64] &= !(1 << (node % 64));
        }
    }

    /// The invariant the pushes and pops maintain (see `occ`): a clear
    /// bit over a buffered packet would make the step skip its router,
    /// so debug builds check it after every step.
    fn occupancy_mask_exact(&self) -> bool {
        self.fifos.iter().enumerate().all(|(node, fifos)| {
            let occupied = fifos.iter().any(|f| !f.is_empty());
            occupied == (self.occ[node / 64] >> (node % 64) & 1 == 1)
        })
    }

    /// Advances the mesh by one cycle, with an [`EventSink`] observing it.
    ///
    /// The mesh emits the same event vocabulary as the torus engines
    /// with two caveats: routing decisions carry `in_port: None` (FIFO
    /// inputs have no torus port identity) and link outputs are reported
    /// by axis (`axis_port`). Buffered routers hold rather than
    /// misroute, so no [`SimEvent::Deflect`] is ever emitted.
    pub(crate) fn step_with_sink<S: EventSink>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
        let mut moves = std::mem::take(&mut self.moves);
        let mut arrivals = std::mem::take(&mut self.arrivals);
        moves.clear();

        // Phase 0: fail-stop routers drop everything buffered at them
        // and return the consumed credits upstream, so traffic keeps
        // flowing *toward* the dead node and is accounted as lost there
        // (exact conservation: every drop decrements in-flight).
        if let Some(f) = &self.faults {
            let mut active = ActiveCursor::default();
            while let Some(node) = active.next(&self.occ, queues) {
                if !f.node_faults(node).failed {
                    continue;
                }
                for d in 0..4 {
                    while let Some(pkt) = self.fifos[node][d].pop_front() {
                        let upstream = self.neighbors[node][d];
                        if upstream != NO_NEIGHBOR {
                            self.credits[upstream as usize][opposite(d)] += 1;
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
        }

        // Phase 1: arbitration against the cycle-start snapshot. Only a
        // router with a buffered packet or a waiting PE has a candidate.
        let mut active = ActiveCursor::default();
        while let Some(node) = active.next(&self.occ, queues) {
            self.stats.router_visits += 1;
            let NodeFaults {
                failed, stalled, ..
            } = match &self.faults {
                Some(f) => f.node_faults(node),
                None => NodeFaults::default(),
            };
            // A fail-stopped router makes no moves: nothing routes,
            // nothing injects, nothing ejects. Phase 0 left its FIFOs
            // empty; its bit goes here, after the cursor has read it, so
            // both phases walk the cycle-start active set.
            if failed {
                self.occ[node / 64] &= !(1 << (node % 64));
                continue;
            }
            let at = self.coords[node];
            // Per output, the candidate inputs whose head packet desires
            // it (bit `i` = input `i`).
            let mut want = [0u32; 5];
            for (d, fifo) in self.fifos[node].iter().enumerate() {
                if let Some(head) = fifo.front() {
                    want[xy_route(at, head.dst).map_or(EJECT, Dir::index)] |= 1 << d;
                }
            }
            if let Some(dst) = queues.head_dst(node).filter(|_| !stalled) {
                want[xy_route(at, dst).map_or(EJECT, Dir::index)] |= 1 << INJ;
            }

            // Arbitrate each output somebody wants: four links, then
            // ejection.
            for (out, &want) in want.iter().enumerate() {
                if want == 0 {
                    continue;
                }
                // Link outputs need a neighbor and a credit.
                if out != EJECT
                    && (self.neighbors[node][out] == NO_NEIGHBOR || self.credits[node][out] == 0)
                {
                    continue;
                }
                let input = rr_winner(want, usize::from(self.rr[node][out]));
                moves.push(Move {
                    node: node as u32,
                    input: input as u8,
                    out: out as u8,
                });
                self.rr[node][out] = if input == 4 { 0 } else { input as u8 + 1 };
                // Reserve the credit now so no other router state is
                // needed; pops/pushes apply in phase 2.
                if out != EJECT {
                    self.credits[node][out] -= 1;
                }
            }
        }

        // Phase 2: apply moves — pops (returning upstream credits), then
        // pushes into downstream FIFOs.
        for mv in &moves {
            let node = mv.node as usize;
            let input = usize::from(mv.input);
            let out = usize::from(mv.out);
            let at = self.coords[node];
            let out_port = match out {
                EJECT => OutPort::Exit,
                dir => axis_port(Dir::ALL[dir]),
            };
            let mut pkt = if input == INJ {
                let pending = queues.pop(node).expect("granted injection has a packet");
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
                    self.injected[node / 64] |= 1 << (node % 64);
                    sink.emit(&SimEvent::Inject {
                        cycle: self.cycle,
                        node,
                        packet: p.id,
                        dst: p.dst,
                        out: out_port,
                        queue_wait: self.cycle.saturating_sub(p.enqueued_at),
                    });
                }
                p
            } else {
                let p = self.fifos[node][input]
                    .pop_front()
                    .expect("granted input has a head");
                self.note_popped(node);
                // Return the credit to the upstream router that feeds
                // this FIFO (if any — edge FIFOs have no upstream).
                let upstream = self.neighbors[node][input];
                if upstream != NO_NEIGHBOR {
                    self.credits[upstream as usize][opposite(input)] += 1;
                }
                if S::ENABLED {
                    sink.emit(&SimEvent::RouteDecision {
                        cycle: self.cycle,
                        node,
                        packet: p.id,
                        in_port: None,
                        out: out_port,
                        src: p.src,
                        dst: p.dst,
                        hops: p.total_hops(),
                    });
                }
                p
            };

            if out == EJECT {
                debug_assert_eq!(pkt.dst, at);
                self.in_flight -= 1;
                self.stats.delivered += 1;
                let delivery = Delivery {
                    packet: pkt,
                    cycle: self.cycle + 1,
                };
                self.stats.total_latency.record(delivery.total_latency());
                if S::ENABLED {
                    sink.emit(&SimEvent::Eject {
                        cycle: self.cycle,
                        node,
                        delivery,
                    });
                }
                deliveries.push(delivery);
                continue;
            }
            // The hop is counted even when a transient fault eats the
            // packet: the wire was driven either way.
            pkt.short_hops += 1;
            self.stats.link_usage.short_hops += 1;
            if let Some(corrupted) = self
                .faults
                .as_ref()
                .and_then(|f| f.node_faults(node).link_fault(out_port))
            {
                // The reserved downstream slot is never filled: hand the
                // credit straight back.
                self.credits[node][out] += 1;
                self.in_flight -= 1;
                self.stats.dropped += 1;
                if S::ENABLED {
                    sink.emit(&SimEvent::FaultDrop {
                        cycle: self.cycle,
                        node,
                        packet: pkt.id,
                        link: Some(out_port),
                        corrupted,
                    });
                }
                continue;
            }
            // The packet arrives at the target on the FIFO facing back
            // toward us (the neighbor exists: checked in phase 1).
            arrivals.push((self.neighbors[node][out] as usize, opposite(out), pkt));
        }
        for (node, fifo, pkt) in arrivals.drain(..) {
            debug_assert!(self.fifos[node][fifo].len() < self.cfg.buffer_depth());
            self.fifos[node][fifo].push_back(pkt);
            self.occ[node / 64] |= 1 << (node % 64);
        }
        debug_assert!(self.occupancy_mask_exact());

        if S::ENABLED {
            // A node with a still-pending head that did not inject was
            // denied this cycle (grants pop the head, and pumps happen
            // outside step). Walking `injected | non-empty` and skipping
            // the injectors leaves exactly those, in node order.
            let mut pending = ActiveCursor::default();
            while let Some(node) = pending.next(&self.injected, queues) {
                if self.injected[node / 64] >> (node % 64) & 1 == 0 {
                    sink.emit(&queues.stall_event(self.cycle, node));
                }
            }
            self.injected.fill(0);
            sink.end_cycle(self.cycle);
        }

        self.moves = moves;
        self.arrivals = arrivals;
        self.cycle += 1;
        // The fault words describe the cycle about to run (see
        // `Noc::step_with_sink`).
        if let Some(f) = self.faults.as_mut() {
            f.patch_epoch(self.cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefMeshNoc;
    use super::*;
    use crate::fault::Fault;
    use crate::trace::{NullSink, VecSink};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// The sink's events of one kind, in emission order.
    fn of_kind<'a>(sink: &'a VecSink, kind: &str) -> Vec<&'a SimEvent> {
        sink.events.iter().filter(|e| e.kind() == kind).collect()
    }

    fn drain(noc: &mut MeshNoc, q: &mut InjectQueues, max: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        for _ in 0..max {
            noc.step_with_sink(q, &mut out, &mut NullSink);
            if q.is_empty() && noc.in_flight() == 0 {
                break;
            }
        }
        out
    }

    #[test]
    fn single_packet_shortest_path() {
        let mut noc = MeshNoc::new(MeshConfig::new(4, 2).unwrap());
        let mut q = InjectQueues::new(16);
        q.push(0, Coord::new(3, 2), 0, 0);
        let dels = drain(&mut noc, &mut q, 100);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].packet.short_hops, 5); // Manhattan distance
                                                  // Injection rides the first link in its grant cycle: 5 link
                                                  // cycles + 1 ejection cycle = latency 6.
        assert_eq!(dels[0].total_latency(), 6);
    }

    #[test]
    fn west_and_north_routes_exist() {
        // Mesh traffic is bidirectional, unlike the torus.
        let mut noc = MeshNoc::new(MeshConfig::new(4, 2).unwrap());
        let mut q = InjectQueues::new(16);
        let src = Coord::new(3, 3).to_node_id(4);
        q.push(src, Coord::new(0, 0), 0, 0);
        let dels = drain(&mut noc, &mut q, 100);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].packet.short_hops, 6);
    }

    #[test]
    fn buffers_absorb_contention_without_loss() {
        let mut noc = MeshNoc::new(MeshConfig::new(4, 4).unwrap());
        let mut q = InjectQueues::new(16);
        for node in 0..16 {
            if node != 5 {
                for _ in 0..8 {
                    q.push(node, Coord::new(1, 1), 0, 0); // node 5
                }
            }
        }
        let dels = drain(&mut noc, &mut q, 10_000);
        assert_eq!(dels.len(), 15 * 8, "buffered mesh must deliver everything");
        assert_eq!(noc.in_flight(), 0);
        // Ejection-limited: 120 packets need >= 120 cycles.
        assert!(noc.cycle >= 120);
    }

    #[test]
    fn credits_bound_fifo_occupancy() {
        let mut noc = MeshNoc::new(MeshConfig::new(4, 1).unwrap());
        let mut q = InjectQueues::new(16);
        for node in 0..16 {
            for _ in 0..5 {
                q.push(node, Coord::new(3, 3), 0, 0);
            }
        }
        let mut dels = Vec::new();
        for _ in 0..5000 {
            noc.step_with_sink(&mut q, &mut dels, &mut NullSink);
            for fifos in &noc.fifos {
                for f in fifos {
                    assert!(f.len() <= 1, "depth-1 FIFO overflow");
                }
            }
            if q.is_empty() && noc.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(dels.len(), 80);
    }

    #[test]
    fn adversarial_full_random_load_drains() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        let mut noc = MeshNoc::new(MeshConfig::new(8, 4).unwrap());
        let mut q = InjectQueues::new(64);
        let mut count = 0;
        for node in 0..64usize {
            for _ in 0..30 {
                let dst = Coord::new(rng.gen_range(0..8), rng.gen_range(0..8));
                if dst.to_node_id(8) != node {
                    q.push(node, dst, 0, 0);
                    count += 1;
                }
            }
        }
        let dels = drain(&mut noc, &mut q, 100_000);
        assert_eq!(dels.len(), count, "deadlock or loss in buffered mesh");
    }

    #[test]
    fn trace_events_cover_the_packet_lifetime() {
        use crate::trace::VecSink;
        let mut noc = MeshNoc::new(MeshConfig::new(4, 2).unwrap());
        let mut q = InjectQueues::new(16);
        q.push(0, Coord::new(3, 2), 0, 0);
        q.push(0, Coord::new(1, 0), 0, 0); // queued behind the first: stalls
        let mut sink = VecSink::new();
        let mut dels = Vec::new();
        for _ in 0..100 {
            noc.step_with_sink(&mut q, &mut dels, &mut sink);
            if q.is_empty() && noc.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(dels.len(), 2);
        assert_eq!(of_kind(&sink, "inject").len(), 2);
        assert_eq!(of_kind(&sink, "eject").len(), 2);
        // Each FIFO move is a decision: packet 1 rides its first link on
        // injection, then 4 link moves + the ejection move; packet 2
        // covers its single hop on injection, then ejects (4 + 1 + 1).
        let routes = of_kind(&sink, "route");
        assert_eq!(routes.len(), 6);
        let exits = routes
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    SimEvent::RouteDecision {
                        out: OutPort::Exit,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(exits, 2);
        // Buffered routers never deflect.
        assert!(of_kind(&sink, "deflect").is_empty());
        for e in routes {
            if let SimEvent::RouteDecision { in_port, .. } = e {
                assert!(in_port.is_none(), "mesh FIFOs have no torus port identity");
            }
        }
    }

    #[test]
    fn depth_one_credits_stall_injection() {
        use crate::trace::VecSink;
        // Depth-1 FIFOs: the second packet cannot inject until the first
        // vacates the downstream buffer and the credit returns.
        let mut noc = MeshNoc::new(MeshConfig::new(4, 1).unwrap());
        let mut q = InjectQueues::new(16);
        q.push(0, Coord::new(2, 0), 0, 0);
        q.push(0, Coord::new(2, 0), 0, 0);
        let mut sink = VecSink::new();
        let mut dels = Vec::new();
        for _ in 0..100 {
            noc.step_with_sink(&mut q, &mut dels, &mut sink);
            if q.is_empty() && noc.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(dels.len(), 2);
        let stalls = of_kind(&sink, "stall");
        assert!(
            !stalls.is_empty(),
            "credit exhaustion must surface as a stall"
        );
        for e in stalls {
            assert!(matches!(e, SimEvent::QueueStall { node: 0, .. }));
        }
    }

    #[test]
    fn latency_is_low_and_deterministic_at_low_load() {
        let mut noc = MeshNoc::new(MeshConfig::new(8, 4).unwrap());
        let mut q = InjectQueues::new(64);
        q.push(0, Coord::new(4, 4), 0, 0);
        let dels = drain(&mut noc, &mut q, 100);
        // No contention: latency = hops + inject + eject, no deflections
        // ever (buffered routers hold, never misroute).
        assert_eq!(dels[0].packet.short_hops, 8);
        assert_eq!(dels[0].packet.deflections, 0);
    }

    /// A small random plan of one fault family the mesh admits (`kind`
    /// 1..=3: transient axis links, fail-stop routers, stalled
    /// injectors), of all three (4), or none (0). Each family drawn also
    /// gets its window edge case: two overlapping `E_sh` transients at
    /// one node with opposite `corrupt` flags, a fail-stop at cycle 0,
    /// and a stall window ending on the cycle the next one begins.
    fn random_plan(cfg: &MeshConfig, kind: u8, rng: &mut SmallRng) -> FaultPlan {
        let mut plan = FaultPlan::new();
        if kind == 0 {
            return plan;
        }
        for i in 0..rng.gen_range(1..5) {
            let node = rng.gen_range(0..cfg.num_nodes());
            let from = rng.gen_range(0..50u64);
            let until = from + rng.gen_range(1..90u64);
            plan.push(match if kind == 4 { i % 3 + 1 } else { kind } {
                1 => Fault::TransientLink {
                    node,
                    out: [OutPort::EastSh, OutPort::SouthSh][rng.gen_range(0..2)],
                    from,
                    until,
                    corrupt: rng.gen(),
                },
                2 => Fault::FailStopRouter { node, at: from },
                _ => Fault::StalledInjector { node, from, until },
            });
        }
        let families = if kind == 4 { 1..=3 } else { kind..=kind };
        for family in families {
            let node = rng.gen_range(0..cfg.num_nodes());
            let from = rng.gen_range(0..50u64);
            match family {
                1 => {
                    let corrupt: bool = rng.gen();
                    for (from, until, corrupt) in
                        [(from, from + 40, corrupt), (from + 10, from + 20, !corrupt)]
                    {
                        plan.push(Fault::TransientLink {
                            node,
                            out: OutPort::EastSh,
                            from,
                            until,
                            corrupt,
                        });
                    }
                }
                2 => plan.push(Fault::FailStopRouter { node, at: 0 }),
                _ => {
                    for (from, until) in [(from, from + 20), (from + 20, from + 50)] {
                        plan.push(Fault::StalledInjector { node, from, until });
                    }
                }
            }
        }
        plan
    }

    /// Random traffic for the first 60 cycles (self-sends included).
    fn pump(queues: &mut [&mut InjectQueues], n: u16, rate: u32, cycle: u64, rng: &mut SmallRng) {
        if cycle >= 60 {
            return;
        }
        for node in 0..usize::from(n) * usize::from(n) {
            if rng.gen_range(0..100) < rate {
                let dst = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
                for q in queues.iter_mut() {
                    q.push(node, dst, cycle, 0);
                }
            }
        }
    }

    /// Drives [`MeshNoc`] and the dense reference through the same
    /// random traffic and fault plan: deliveries match cycle by cycle,
    /// then every statistic but `router_visits` (the reference visits
    /// every router). Returns both sinks for the caller to compare.
    fn assert_matches_reference<S: EventSink + Default>(
        cfg: MeshConfig,
        plan: &FaultPlan,
        rate: u32,
        seed: u64,
    ) -> (S, S) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut new = MeshNoc::with_faults(cfg, plan).unwrap();
        let mut old = RefMeshNoc::with_faults(cfg, plan).unwrap();
        let mut new_q = InjectQueues::new(cfg.num_nodes());
        let mut old_q = InjectQueues::new(cfg.num_nodes());
        let (mut new_sink, mut old_sink) = (S::default(), S::default());
        for cycle in 0..1500u64 {
            pump(
                &mut [&mut new_q, &mut old_q],
                cfg.n(),
                rate,
                cycle,
                &mut rng,
            );
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
        assert_eq!(new.cycle, old.cycle());
        assert_eq!(
            (0..new_q.nodes()).map(|n| new_q.depth(n)).sum::<usize>(),
            (0..old_q.nodes()).map(|n| old_q.depth(n)).sum::<usize>()
        );
        (new_sink, old_sink)
    }

    /// Depth-1 credits, an odd side, and the benchmark's 8x8.
    const SPECS: [(u16, usize); 3] = [(4, 1), (5, 3), (8, 4)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn step_matches_dense_reference(
            spec in 0usize..3,
            kind in 0u8..5,
            rate in 1u32..100,
            seed in any::<u64>(),
        ) {
            let (n, depth) = SPECS[spec];
            let cfg = MeshConfig::new(n, depth).unwrap();
            let plan = random_plan(&cfg, kind, &mut SmallRng::seed_from_u64(seed ^ 0xFA17));
            let (new, old) = assert_matches_reference::<VecSink>(cfg, &plan, rate, seed);
            prop_assert_eq!(new.events, old.events);
            // The unobserved monomorphization takes the same decisions.
            assert_matches_reference::<NullSink>(cfg, &plan, rate, seed);
        }

        /// `router_visits` is the running count of routers with a
        /// non-empty link FIFO or a waiting PE — nothing buffered is
        /// skipped, nothing idle is visited — and the occupancy mask is
        /// exact after every step.
        #[test]
        fn router_visits_match_shadow_active_set(
            spec in 0usize..3,
            kind in 0u8..5,
            rate in 1u32..40,
            seed in any::<u64>(),
        ) {
            let (n, depth) = SPECS[spec];
            let cfg = MeshConfig::new(n, depth).unwrap();
            let mut rng = SmallRng::seed_from_u64(seed);
            let plan = random_plan(&cfg, kind, &mut rng);
            let mut noc = MeshNoc::with_faults(cfg, &plan).unwrap();
            let mut queues = InjectQueues::new(cfg.num_nodes());
            let mut deliveries = Vec::new();
            let mut expected = 0u64;
            for cycle in 0..1500u64 {
                pump(&mut [&mut queues], n, rate, cycle, &mut rng);
                if cycle >= 60 && queues.is_empty() && noc.in_flight() == 0 {
                    break;
                }
                expected += (0..cfg.num_nodes())
                    .filter(|&node| {
                        noc.fifos[node].iter().any(|f| !f.is_empty()) || queues.depth(node) > 0
                    })
                    .count() as u64;
                noc.step_with_sink(&mut queues, &mut deliveries, &mut NullSink);
                prop_assert_eq!(noc.stats().router_visits, expected, "after cycle {}", cycle);
                prop_assert!(noc.occupancy_mask_exact());
            }
            prop_assert!(expected <= noc.cycle * cfg.num_nodes() as u64);
        }
    }

    #[test]
    fn occupancy_mask_is_exact_healthy_and_failstopped() {
        let cfg = MeshConfig::new(8, 2).unwrap();
        let plan = FaultPlan::new().with(Fault::FailStopRouter { node: 27, at: 4 });
        for mut noc in [MeshNoc::new(cfg), MeshNoc::with_faults(cfg, &plan).unwrap()] {
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

    /// Rotate-and-`trailing_zeros` picks the input the modular search
    /// picked, for every candidate mask and pointer.
    #[test]
    fn rr_winner_matches_modular_search_exhaustively() {
        for want in 1u32..32 {
            for start in 0..5usize {
                let searched = (0..5)
                    .map(|k| (start + k) % 5)
                    .find(|&i| want >> i & 1 == 1);
                assert_eq!(
                    Some(rr_winner(want, start)),
                    searched,
                    "{want:#b} from {start}"
                );
            }
        }
    }
}
