//! The buffered-mesh engine: input-FIFO routers with credit-based flow
//! control and round-robin output arbitration.
//!
//! Unlike the bufferless torus, a buffered router *parks* losers: each
//! of the four link inputs owns a FIFO of `buffer_depth` packets, a
//! packet advances only when its output wins arbitration *and* the
//! downstream FIFO has a credit, and ejection consumes one packet per
//! cycle. XY routing on a mesh with guaranteed ejection is
//! deadlock-free, which the tests verify by draining adversarial loads.
//!
//! Buffered packets live in a [`PacketPool`]; each FIFO is a chain of
//! pool slots linked through a per-slot `next` column, so storage
//! follows the packets in flight, not `nodes × 4 × buffer_depth`. A
//! packet's XY output is computed once, as it lands in a FIFO, and
//! arbitration walks the outputs that are both wanted and open (per-node
//! bit masks) instead of testing all five. A router applies its grants
//! as it is visited; what they do to other routers (credits refunded
//! upstream, packets landing downstream) waits until every router has
//! decided, so each decides against the cycle-start state.

use crate::fault::{FaultError, FaultPlan, FaultState, NodeFaults};
use crate::geom::Coord;
use crate::kernel::{PacketPool, EMPTY_SLOT};
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

/// [`xy_out`] by `3 * cmp(dst.x, at.x) + cmp(dst.y, at.y)`, each
/// comparison 0 (less), 1 (equal) or 2 (greater): x first, then y.
const XY_OUT: [u8; 9] = [3, 3, 3, 0, EJECT as u8, 2, 1, 1, 1];

/// The output index XY routing ([`xy_route`]) picks at `at` for `dst`:
/// a link by [`Dir::index`], or [`EJECT`]. A table read, not a branch
/// chain: random traffic makes the branches unpredictable.
#[inline]
fn xy_out(at: Coord, dst: Coord) -> usize {
    let cmp = |here: u16, there: u16| usize::from(there > here) + usize::from(there >= here);
    usize::from(XY_OUT[3 * cmp(at.x, dst.x) + cmp(at.y, dst.y)])
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
    /// Every buffered packet. Hop counters are bumped in place; a packet
    /// is copied out only when it ejects.
    pool: PacketPool,
    /// Per pool slot: the slot behind it in its FIFO, or [`EMPTY_SLOT`]
    /// at the tail.
    next: Vec<u32>,
    /// Per pool slot: the output ([`xy_out`]) the router whose FIFO
    /// holds the packet routes it to, computed when it landed there.
    route: Vec<u8>,
    /// `heads[node * 4 + d]` and `tails[node * 4 + d]`: the first and
    /// last pool slot of the FIFO of packets that arrived moving *from*
    /// direction `d` (sent by the `d`-side neighbor), or [`EMPTY_SLOT`].
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Per node: bit `d` is set exactly while link FIFO `d` is non-empty.
    nonempty: Vec<u8>,
    /// Per node: bit `d` is set exactly while link output `d` has a
    /// neighbor and a credit; bit [`EJECT`] is always set.
    open: Vec<u8>,
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
    /// Per-cycle scratch of the step (the FIFOs popped, as `node * 4 +
    /// d`, whose credits go back upstream; link arrivals as `(node * 4 +
    /// d, pool slot)`; and under an enabled sink the nodes that
    /// injected): cleared every cycle, allocated once.
    refunds: Vec<u32>,
    arrivals: Vec<(u32, u32)>,
    injected: Vec<u64>,
}

impl MeshNoc {
    /// Builds an idle mesh.
    pub fn new(cfg: MeshConfig) -> Self {
        let n = cfg.n();
        let nodes = cfg.num_nodes();
        let coords: Vec<Coord> = (0..nodes).map(|id| Coord::from_node_id(id, n)).collect();
        let neighbors: Vec<[u32; 4]> = coords
            .iter()
            .map(|&at| {
                Dir::ALL.map(|d| {
                    d.neighbor(at, n)
                        .map_or(NO_NEIGHBOR, |c| c.to_node_id(n) as u32)
                })
            })
            .collect();
        let open = neighbors
            .iter()
            .map(|near| {
                (0..4)
                    .filter(|&d| near[d] != NO_NEIGHBOR)
                    .fold(1 << EJECT, |open, d| open | 1 << d)
            })
            .collect();
        MeshNoc {
            cfg,
            coords,
            neighbors,
            pool: PacketPool::with_capacity(4 * nodes),
            next: Vec::with_capacity(4 * nodes),
            route: Vec::with_capacity(4 * nodes),
            heads: vec![EMPTY_SLOT; 4 * nodes],
            tails: vec![EMPTY_SLOT; 4 * nodes],
            nonempty: vec![0; nodes],
            open,
            occ: vec![0; nodes.div_ceil(64)],
            credits: vec![[cfg.buffer_depth(); 4]; nodes],
            rr: vec![[0; 5]; nodes],
            in_flight: 0,
            cycle: 0,
            stats: SimStats::default(),
            faults: None,
            refunds: Vec::new(),
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

    /// `node`'s fault word this cycle (the default on a healthy mesh).
    #[inline]
    fn node_faults(&self, node: usize) -> NodeFaults {
        self.faults
            .as_ref()
            .map_or(NodeFaults::default(), |f| f.node_faults(node))
    }

    /// Appends pool slot `idx` to FIFO `fifo` (`node * 4 + d`), routing
    /// the packet for `node` once, here.
    #[inline]
    fn push(&mut self, fifo: usize, idx: u32) {
        let node = fifo / 4;
        let out = xy_out(self.coords[node], self.pool.dst(idx)) as u8;
        let slot = idx as usize;
        if slot == self.next.len() {
            self.next.push(EMPTY_SLOT);
            self.route.push(out);
        } else {
            self.next[slot] = EMPTY_SLOT;
            self.route[slot] = out;
        }
        match self.tails[fifo] {
            EMPTY_SLOT => self.heads[fifo] = idx,
            tail => self.next[tail as usize] = idx,
        }
        self.tails[fifo] = idx;
        self.nonempty[node] |= 1 << (fifo % 4);
        self.occ[node / 64] |= 1 << (node % 64);
    }

    /// Unlinks the head of the non-empty FIFO `fifo`, returning its pool
    /// slot. The caller clears the node's `occ` bit when it must.
    #[inline]
    fn pop(&mut self, fifo: usize) -> u32 {
        let idx = self.heads[fifo];
        debug_assert_ne!(idx, EMPTY_SLOT, "pop of an empty FIFO");
        let next = self.next[idx as usize];
        self.heads[fifo] = next;
        if next == EMPTY_SLOT {
            self.tails[fifo] = EMPTY_SLOT;
            self.nonempty[fifo / 4] &= !(1 << (fifo % 4));
        }
        idx
    }

    /// Returns a credit to the router that feeds `node`'s FIFO `d` (edge
    /// FIFOs have no upstream), opening its output toward `node`.
    #[inline]
    fn return_credit(&mut self, node: usize, d: usize) {
        let upstream = self.neighbors[node][d];
        if upstream != NO_NEIGHBOR {
            let (upstream, out) = (upstream as usize, opposite(d));
            self.credits[upstream][out] += 1;
            self.open[upstream] |= 1 << out;
        }
    }

    /// Packets in FIFO `fifo`, by walking its chain.
    fn fifo_len(&self, fifo: usize) -> usize {
        let mut len = 0;
        let mut idx = self.heads[fifo];
        while idx != EMPTY_SLOT {
            len += 1;
            idx = self.next[idx as usize];
        }
        len
    }

    /// The invariants every push, pop and credit change maintain, over
    /// all state derived from the FIFOs: each chain ends at its tail and
    /// holds at most `buffer_depth` packets whose cached output is XY's
    /// from this router; the non-empty mask and `occ` follow the chains;
    /// each credit plus the facing FIFO's length is the depth; the
    /// `open` mask is exactly the outputs with a neighbor and a credit,
    /// plus ejection; and `in_flight` counts the buffered packets. Debug
    /// builds check it after every step: a stale bit would make the step
    /// skip a router or grant a full link.
    fn state_exact(&self) -> bool {
        let depth = self.cfg.buffer_depth();
        let mut buffered = 0;
        let chains = (0..self.coords.len()).all(|node| {
            let mut nonempty = 0u8;
            let mut open = 1 << EJECT;
            let fifos = (0..4).all(|d| {
                let fifo = node * 4 + d;
                let (mut idx, mut last, mut len) = (self.heads[fifo], EMPTY_SLOT, 0);
                // Bounded, so a chain that loops fails instead of hanging.
                while idx != EMPTY_SLOT && len <= depth {
                    let routed = usize::from(self.route[idx as usize]);
                    let xy = xy_route(self.coords[node], self.pool.dst(idx));
                    if routed != xy.map_or(EJECT, Dir::index) {
                        return false;
                    }
                    (last, len) = (idx, len + 1);
                    idx = self.next[idx as usize];
                }
                buffered += len;
                if len > 0 {
                    nonempty |= 1 << d;
                }
                let near = self.neighbors[node][d];
                let credit = self.credits[node][d];
                if near != NO_NEIGHBOR && credit > 0 {
                    open |= 1 << d;
                }
                let facing = match near {
                    NO_NEIGHBOR => depth,
                    near => credit + self.fifo_len(near as usize * 4 + opposite(d)),
                };
                last == self.tails[fifo] && len <= depth && facing == depth
            });
            let occupied = self.occ[node / 64] >> (node % 64) & 1 == 1;
            fifos
                && nonempty == self.nonempty[node]
                && occupied == (nonempty != 0)
                && open == self.open[node]
        });
        chains && buffered == self.in_flight
    }

    /// Applies one grant of `node`'s: pops the input (its credit
    /// refunded upstream in phase 2) or injects the PE's head, then
    /// ejects the packet, drops it on a faulty link, or sends it on
    /// toward the downstream FIFO it lands in during phase 2.
    #[inline(always)]
    fn apply<S: EventSink>(
        &mut self,
        node: usize,
        input: usize,
        out: usize,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
        let out_port = match out {
            EJECT => OutPort::Exit,
            dir => axis_port(Dir::ALL[dir]),
        };
        let idx = if input == INJ {
            let pending = queues.pop(node).expect("granted injection has a packet");
            let mut p = Packet::new(
                pending.id,
                self.coords[node],
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
            self.pool.insert(p)
        } else {
            let idx = self.pop(node * 4 + input);
            if self.nonempty[node] == 0 {
                self.occ[node / 64] &= !(1 << (node % 64));
            }
            self.refunds.push((node * 4 + input) as u32);
            if S::ENABLED {
                let p = self.pool.get(idx);
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
            idx
        };

        if out == EJECT {
            let packet = self.pool.remove(idx);
            debug_assert_eq!(packet.dst, self.coords[node]);
            self.in_flight -= 1;
            self.stats.delivered += 1;
            let delivery = Delivery {
                packet,
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
            return;
        }
        // The hop is counted even when a transient fault eats the
        // packet: the wire was driven either way.
        self.pool.get_mut(idx).short_hops += 1;
        self.stats.link_usage.short_hops += 1;
        if let Some(corrupted) = self
            .faults
            .as_ref()
            .and_then(|f| f.node_faults(node).link_fault(out_port))
        {
            // The reserved downstream slot is never filled: hand the
            // credit straight back.
            self.credits[node][out] += 1;
            self.open[node] |= 1 << out;
            let packet = self.pool.get(idx).id;
            self.pool.release(idx);
            self.in_flight -= 1;
            self.stats.dropped += 1;
            if S::ENABLED {
                sink.emit(&SimEvent::FaultDrop {
                    cycle: self.cycle,
                    node,
                    packet,
                    link: Some(out_port),
                    corrupted,
                });
            }
            return;
        }
        // The packet arrives at the target on the FIFO facing back
        // toward us (the neighbor exists: checked in phase 1).
        let fifo = self.neighbors[node][out] as usize * 4 + opposite(out);
        self.arrivals.push((fifo as u32, idx));
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
        // Phase 0: fail-stop routers drop everything buffered at them
        // and return the consumed credits upstream, so traffic keeps
        // flowing *toward* the dead node and is accounted as lost there
        // (exact conservation: every drop decrements in-flight).
        if self.faults.is_some() {
            let mut active = ActiveCursor::default();
            while let Some(node) = active.next(&self.occ, queues) {
                if !self.node_faults(node).failed {
                    continue;
                }
                for d in 0..4 {
                    while self.heads[node * 4 + d] != EMPTY_SLOT {
                        let idx = self.pop(node * 4 + d);
                        self.return_credit(node, d);
                        let packet = self.pool.get(idx).id;
                        self.pool.release(idx);
                        self.in_flight -= 1;
                        self.stats.dropped += 1;
                        if S::ENABLED {
                            sink.emit(&SimEvent::FaultDrop {
                                cycle: self.cycle,
                                node,
                                packet,
                                link: None,
                                corrupted: false,
                            });
                        }
                    }
                }
            }
        }

        // Phase 1: each router arbitrates against the cycle-start
        // snapshot and applies its own grants at once. What a grant does
        // to another router — the credit a pop returns upstream, the
        // packet a link move lands downstream — waits for phase 2, so a
        // router visited later still sees the cycle-start state. Only a
        // router with a buffered packet or a waiting PE has a candidate.
        let mut active = ActiveCursor::default();
        while let Some(node) = active.next(&self.occ, queues) {
            self.stats.router_visits += 1;
            let NodeFaults {
                failed, stalled, ..
            } = self.node_faults(node);
            // A fail-stopped router makes no moves: nothing routes,
            // nothing injects, nothing ejects. Phase 0 left its FIFOs
            // empty; its bit goes here, after the cursor has read it, so
            // both phases walk the cycle-start active set.
            if failed {
                self.occ[node / 64] &= !(1 << (node % 64));
                continue;
            }
            // Per output, the candidate inputs whose head packet desires
            // it (bit `i` = input `i`), and the outputs somebody wants.
            let mut want = [0u32; 5];
            let mut wanted = 0u32;
            let mut fifos = self.nonempty[node];
            while fifos != 0 {
                let d = fifos.trailing_zeros() as usize;
                fifos &= fifos - 1;
                let out = usize::from(self.route[self.heads[node * 4 + d] as usize]);
                want[out] |= 1 << d;
                wanted |= 1 << out;
            }
            if let Some(dst) = queues.head_dst(node).filter(|_| !stalled) {
                let out = xy_out(self.coords[node], dst);
                want[out] |= 1 << INJ;
                wanted |= 1 << out;
            }

            // Arbitrate each wanted output that is open (a link with a
            // neighbor and a credit, or ejection), in N, E, S, W, eject
            // order.
            let mut grants = wanted & u32::from(self.open[node]);
            while grants != 0 {
                let out = grants.trailing_zeros() as usize;
                grants &= grants - 1;
                let input = rr_winner(want[out], usize::from(self.rr[node][out]));
                self.rr[node][out] = if input == 4 { 0 } else { input as u8 + 1 };
                // Reserve the downstream slot before the move applies.
                if out != EJECT {
                    self.credits[node][out] -= 1;
                    if self.credits[node][out] == 0 {
                        self.open[node] &= !(1 << out);
                    }
                }
                self.apply(node, input, out, queues, deliveries, sink);
            }
        }

        // Phase 2: the deferred effects on other routers — credits back
        // upstream, then pushes into downstream FIFOs.
        let (mut refunds, mut arrivals) = (
            std::mem::take(&mut self.refunds),
            std::mem::take(&mut self.arrivals),
        );
        for fifo in refunds.drain(..) {
            self.return_credit(fifo as usize / 4, fifo as usize % 4);
        }
        for (fifo, idx) in arrivals.drain(..) {
            self.push(fifo as usize, idx);
        }
        (self.refunds, self.arrivals) = (refunds, arrivals);
        debug_assert!(self.state_exact(), "mesh state out of step with its FIFOs");

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
            for fifo in 0..noc.heads.len() {
                assert!(noc.fifo_len(fifo) <= 1, "depth-1 FIFO overflow");
            }
            if q.is_empty() && noc.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(dels.len(), 80);
    }

    /// `mesh:<n>:65535` parses, so buffer storage must follow the
    /// packets in flight: nothing is allocated per buffer slot, and the
    /// deep mesh still drains.
    #[test]
    fn deep_fifos_allocate_per_packet_not_per_slot() {
        let cfg = MeshConfig::new(4, 65535).unwrap();
        let mut noc = MeshNoc::new(cfg);
        let mut q = InjectQueues::new(16);
        for node in 0..16 {
            for k in 0..4 {
                q.push(node, Coord::new(k, 3 - k), 0, 0);
            }
        }
        let dels = drain(&mut noc, &mut q, 1000);
        assert_eq!(dels.len(), 64);
        assert!(noc.state_exact());
        let capacities = [
            noc.pool.capacity(),
            noc.next.capacity(),
            noc.route.capacity(),
            noc.heads.capacity(),
            noc.tails.capacity(),
        ];
        assert!(
            capacities.iter().all(|&c| c <= 4 * 16),
            "buffers sized by depth: {capacities:?}"
        );
        assert!(noc.credits.iter().flatten().all(|&c| c == 65535));
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
        /// skipped, nothing idle is visited — and the derived state
        /// (masks, credits, cached routes) is exact after every step.
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
                        (0..4).any(|d| noc.heads[node * 4 + d] != EMPTY_SLOT)
                            || queues.depth(node) > 0
                    })
                    .count() as u64;
                noc.step_with_sink(&mut queues, &mut deliveries, &mut NullSink);
                prop_assert_eq!(noc.stats().router_visits, expected, "after cycle {}", cycle);
                prop_assert!(noc.state_exact());
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
                assert!(noc.state_exact());
                saw_traffic |= noc.occ.iter().any(|&w| w != 0);
            }
            assert!(saw_traffic);
        }
    }

    /// The comparison table routes as `xy_route` does, for every pair
    /// of positions on either side of, and level with, each other.
    #[test]
    fn xy_out_matches_xy_route_exhaustively() {
        for at in (0..25).map(|id| Coord::from_node_id(id, 5)) {
            for dst in (0..25).map(|id| Coord::from_node_id(id, 5)) {
                let routed = xy_route(at, dst).map_or(EJECT, Dir::index);
                assert_eq!(xy_out(at, dst), routed, "{at:?} -> {dst:?}");
            }
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
