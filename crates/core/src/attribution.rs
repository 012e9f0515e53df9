//! Per-packet latency attribution and wire-class cycle accounting.
//!
//! FastTrack's central claim is that heterogeneous wires pay off:
//! express lanes on long FPGA wires should carry most of the
//! traffic-weighted distance while cheap shared rings absorb the rest.
//! This module folds the [`SimEvent`] stream
//! into the answer for any concrete run: *where did each packet's
//! cycles go?*
//!
//! # Attribution model
//!
//! Every delivered packet's end-to-end latency (`delivery.cycle -
//! enqueued_at`) is decomposed into six disjoint components:
//!
//! | component    | cycles attributed |
//! |--------------|-------------------|
//! | `queue-wait` | source-queue wait before injection (`Inject.queue_wait`) |
//! | `express`    | transit after a decision onto an express lane |
//! | `ring`       | transit after a decision onto a shared ring link |
//! | `deflect`    | transit after a non-productive (deflected) decision |
//! | `reroute`    | transit after a fault-avoidance reroute decision |
//! | `eject`      | the final consume cycle at the destination PE |
//!
//! Attribution is **delta-based**: the cycles between two consecutive
//! routing decisions for a packet belong to the class chosen at the
//! *earlier* decision. This makes the exact-sum invariant hold for any
//! [`LinkPipeline`](crate::config::LinkPipeline) configuration without
//! knowing the per-class link latencies — whatever pipeline depth a
//! link has, the elapsed delta lands in that link's class. A same-cycle
//! `Deflect` or `FaultReroute` event overrides the pending class for
//! the upcoming delta (reroute wins over deflect: the engine emits it
//! last), so penalty cycles are charged to the *cause*, not the wire.
//!
//! Two invariants are maintained and checked:
//!
//! 1. **Exact sum** — per packet, the six components sum exactly to
//!    the measured end-to-end latency (`debug_assert` in debug builds;
//!    a `mismatches` counter in release builds).
//! 2. **Decision reconciliation** — every counted routing decision is
//!    classified by its output wire class (express lane, shared ring,
//!    or PE exit), and `express + ring + exit == SimStats::route_decisions`.
//!
//! The sink is bounded-memory: per-packet state lives only while the
//! packet is in flight and is dropped on `Eject` / `FaultDrop`. It is
//! keyed by [`PacketId`] alone: one [`crate::queue::InjectQueues`]
//! counter numbers every packet of a run, whichever channel of a bank
//! carries it, so a packet a fallback chain moves to a sibling channel
//! keeps its state.
//!
//! # Composition
//!
//! Attribution rides the same tuple-sink fan-out as the health monitor
//! and the profiler: [`SimSession::with_attribution`](crate::sim::SimSession::with_attribution)
//! tees an [`AttributionSink`] into the event stream and returns the
//! assembled [`AttributionReport`] in
//! [`SimOutcome::attribution`](crate::sim::SimOutcome). When not
//! attached, nothing is paid — the session drives the engine with the
//! same sinks as before.

use std::fmt::Write as _;

use crate::monitor::MetricsRegistry;
use crate::packet::PacketId;
use crate::port::OutPort;
use crate::sim::SimReport;
use crate::stats::Histogram;
use crate::trace::{EventSink, SimEvent};

/// The six disjoint latency components (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyComponent {
    /// Source-queue wait before injection.
    QueueWait = 0,
    /// Transit cycles after a productive express-lane decision.
    Express = 1,
    /// Transit cycles after a productive shared-ring decision.
    Ring = 2,
    /// Transit cycles after a deflected (non-productive) decision.
    Deflect = 3,
    /// Transit cycles after a fault-avoidance reroute decision.
    Reroute = 4,
    /// The final consume cycle at the destination PE.
    Eject = 5,
}

/// Number of latency components.
pub(crate) const COMPONENTS: usize = 6;

impl LatencyComponent {
    /// All components, in decomposition order.
    pub const ALL: [LatencyComponent; COMPONENTS] = [
        LatencyComponent::QueueWait,
        LatencyComponent::Express,
        LatencyComponent::Ring,
        LatencyComponent::Deflect,
        LatencyComponent::Reroute,
        LatencyComponent::Eject,
    ];

    /// Stable human/metric label (kebab-case).
    pub fn label(self) -> &'static str {
        match self {
            LatencyComponent::QueueWait => "queue-wait",
            LatencyComponent::Express => "express",
            LatencyComponent::Ring => "ring",
            LatencyComponent::Deflect => "deflect",
            LatencyComponent::Reroute => "reroute",
            LatencyComponent::Eject => "eject",
        }
    }

    /// Metric-name fragment (snake_case, for `fasttrack_attrib_*`).
    fn metric(self) -> &'static str {
        match self {
            LatencyComponent::QueueWait => "queue_wait",
            LatencyComponent::Express => "express",
            LatencyComponent::Ring => "ring",
            LatencyComponent::Deflect => "deflect",
            LatencyComponent::Reroute => "reroute",
            LatencyComponent::Eject => "eject",
        }
    }
}

/// Configuration for an attribution run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttributionConfig {
    /// Capture the full cycle-by-cycle journey of one packet (for
    /// `fasttrack explain`). The watched packet's every event is
    /// retained verbatim in [`AttributionReport::journey`].
    pub watch: Option<PacketId>,
}

impl AttributionConfig {
    /// Watch one packet's journey (builder-style).
    pub fn watch(mut self, packet: PacketId) -> Self {
        self.watch = Some(packet);
        self
    }
}

/// The finished decomposition of one delivered packet's latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketAttribution {
    /// Which packet.
    pub packet: PacketId,
    /// Cycles per component, indexed by `LatencyComponent as usize`.
    pub components: [u64; COMPONENTS],
    /// Cycle the packet entered its source queue.
    pub enqueued_at: u64,
    /// Cycle the packet was consumed at the destination PE.
    pub delivered_at: u64,
}

impl PacketAttribution {
    /// Cycles attributed to one component.
    pub fn component(&self, c: LatencyComponent) -> u64 {
        self.components[c as usize]
    }

    /// Sum of all components.
    pub(crate) fn total(&self) -> u64 {
        self.components.iter().sum()
    }

    /// The independently measured end-to-end latency.
    pub fn latency(&self) -> u64 {
        self.delivered_at - self.enqueued_at
    }

    /// Whether the exact-sum invariant holds for this packet.
    pub fn exact(&self) -> bool {
        self.total() == self.latency()
    }
}

/// The watched packet's reconstructed journey (for `fasttrack explain`).
#[derive(Debug, Clone)]
pub struct PacketJourney {
    /// The watched packet id.
    pub packet: PacketId,
    /// Every event that mentioned the packet, in emission order.
    pub events: Vec<SimEvent>,
    /// Its latency decomposition, if it was delivered.
    pub attribution: Option<PacketAttribution>,
    /// Whether a fault dropped the packet.
    pub dropped: bool,
}

/// In-flight per-packet state (bounded: removed on eject/drop).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    queue_wait: u64,
    last_cycle: u64,
    pending: LatencyComponent,
    /// Transit cycles accumulated so far, per component.
    transit: [u64; COMPONENTS],
}

/// The in-flight packets' state, keyed by id: open addressing with
/// linear probing and backward-shift deletion over a power-of-two slot
/// array, hashed by one multiply and shift (ids are a dense counter, so
/// the golden-ratio multiplier spreads them evenly). It holds only what
/// is on the fabric — ids still queued at their source are not in it —
/// so it stays a few hundred entries however long the run.
#[derive(Debug, Clone)]
struct InFlightTable {
    slots: Vec<Option<(PacketId, InFlight)>>,
    len: usize,
    /// `64 - log2(slots.len())`.
    shift: u32,
}

impl InFlightTable {
    fn new() -> Self {
        InFlightTable {
            slots: vec![None; 64],
            len: 0,
            shift: 64 - 6,
        }
    }

    #[inline]
    fn home(&self, id: PacketId) -> usize {
        (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `id`, or the empty slot its probe ends at.
    #[inline]
    fn probe(&self, id: PacketId) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(id);
        while matches!(&self.slots[i], Some((held, _)) if *held != id) {
            i = (i + 1) & mask;
        }
        i
    }

    fn insert(&mut self, id: PacketId, st: InFlight) {
        // At most three quarters full, so every probe ends.
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let doubled = vec![None; self.slots.len() * 2];
            self.shift -= 1;
            for (held, st) in std::mem::replace(&mut self.slots, doubled)
                .into_iter()
                .flatten()
            {
                let i = self.probe(held);
                self.slots[i] = Some((held, st));
            }
        }
        let i = self.probe(id);
        if self.slots[i].is_none() {
            self.len += 1;
        }
        self.slots[i] = Some((id, st));
    }

    #[inline]
    fn get_mut(&mut self, id: PacketId) -> Option<&mut InFlight> {
        let i = self.probe(id);
        self.slots[i].as_mut().map(|(_, st)| st)
    }

    fn remove(&mut self, id: PacketId) -> Option<InFlight> {
        let mask = self.slots.len() - 1;
        let mut hole = self.probe(id);
        let (_, st) = self.slots[hole].take()?;
        self.len -= 1;
        // Close the hole: pull back each later entry of the run whose
        // home is not cyclically inside (hole, its slot].
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some((held, _)) = &self.slots[i] else {
                return Some(st);
            };
            if (i.wrapping_sub(self.home(*held)) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
        }
    }
}

/// A streaming [`EventSink`] that folds the event stream into
/// per-packet latency attributions and wire-class decision counts.
#[derive(Debug, Clone)]
pub struct AttributionSink {
    cfg: AttributionConfig,
    states: InFlightTable,
    /// Aggregates over delivered packets (reset at warmup).
    delivered: u64,
    totals: [u64; COMPONENTS],
    hists: [Histogram; COMPONENTS],
    mismatches: u64,
    /// Routing decisions by the class of their output (reset at warmup,
    /// like SimStats): `Express`, `Ring` and `Eject` (the PE exit) are
    /// the slots that count.
    decisions: [u64; COMPONENTS],
    /// Traffic-weighted distance: express lanes cover `span` router
    /// positions per decision, shared rings exactly one (so the ring's
    /// positions are its decisions).
    express_positions: u64,
    /// Fault accounting (packets that never reached their PE).
    dropped_packets: u64,
    dropped_cycles: u64,
    /// Watched-packet journey capture.
    journey: Vec<SimEvent>,
    watch_result: Option<PacketAttribution>,
    watch_dropped: bool,
}

impl AttributionSink {
    /// A fresh sink.
    pub fn new(cfg: AttributionConfig) -> Self {
        AttributionSink {
            cfg,
            states: InFlightTable::new(),
            delivered: 0,
            totals: [0; COMPONENTS],
            hists: Default::default(),
            mismatches: 0,
            decisions: [0; COMPONENTS],
            express_positions: 0,
            dropped_packets: 0,
            dropped_cycles: 0,
            journey: Vec::new(),
            watch_result: None,
            watch_dropped: false,
        }
    }

    /// Which class the cycles *after* a decision onto `out` belong to
    /// (a table, not a branch: the class of the next decision is as
    /// good as random).
    #[inline]
    fn classify(out: OutPort) -> LatencyComponent {
        const BY_PORT: [LatencyComponent; 5] = [
            LatencyComponent::Express, // EastEx
            LatencyComponent::Ring,    // EastSh
            LatencyComponent::Express, // SouthEx
            LatencyComponent::Ring,    // SouthSh
            LatencyComponent::Eject,   // Exit
        ];
        BY_PORT[out.index()]
    }

    /// The packet an event refers to, if any.
    fn packet_of(event: &SimEvent) -> Option<PacketId> {
        match event {
            SimEvent::Inject { packet, .. }
            | SimEvent::RouteDecision { packet, .. }
            | SimEvent::Deflect { packet, .. }
            | SimEvent::ExpressHop { packet, .. }
            | SimEvent::FaultDrop { packet, .. }
            | SimEvent::FaultReroute { packet, .. } => Some(*packet),
            SimEvent::Eject { delivery, .. } => Some(delivery.packet.id),
            _ => None,
        }
    }

    fn finalize(&mut self, cycle: u64, delivery: &crate::packet::Delivery) {
        let Some(mut st) = self.states.remove(delivery.packet.id) else {
            // A delivery we never saw injected (sink attached mid-run):
            // nothing to attribute, but record the hole.
            self.mismatches += 1;
            return;
        };
        st.transit[st.pending as usize] += cycle - st.last_cycle;
        let mut components = st.transit;
        components[LatencyComponent::QueueWait as usize] = st.queue_wait;
        components[LatencyComponent::Eject as usize] += delivery.cycle - cycle;
        let attr = PacketAttribution {
            packet: delivery.packet.id,
            components,
            enqueued_at: delivery.packet.enqueued_at,
            delivered_at: delivery.cycle,
        };
        debug_assert_eq!(
            attr.total(),
            delivery.total_latency(),
            "attribution components must sum exactly to end-to-end latency for {:?}",
            delivery.packet.id,
        );
        if !attr.exact() {
            self.mismatches += 1;
        }
        self.delivered += 1;
        for c in LatencyComponent::ALL {
            self.totals[c as usize] += components[c as usize];
            self.hists[c as usize].record(components[c as usize]);
        }
        if self.cfg.watch == Some(delivery.packet.id) {
            self.watch_result = Some(attr);
        }
    }

    /// Reset the aggregates (decision counters, delivered totals,
    /// histograms) while keeping in-flight per-packet state, mirroring
    /// the engine's own stats reset at the warmup boundary so the
    /// decision counters keep reconciling with `route_decisions`.
    fn warmup_reset(&mut self) {
        self.delivered = 0;
        self.totals = [0; COMPONENTS];
        self.hists = Default::default();
        self.mismatches = 0;
        self.decisions = [0; COMPONENTS];
        self.express_positions = 0;
        self.dropped_packets = 0;
        self.dropped_cycles = 0;
    }
}

impl EventSink for AttributionSink {
    fn emit(&mut self, event: &SimEvent) {
        if let Some(w) = self.cfg.watch {
            if Self::packet_of(event) == Some(w) {
                self.journey.push(*event);
            }
        }
        match event {
            SimEvent::Inject {
                cycle,
                packet,
                out,
                queue_wait,
                ..
            } => {
                let class = Self::classify(*out);
                self.decisions[class as usize] += 1;
                self.states.insert(
                    *packet,
                    InFlight {
                        queue_wait: *queue_wait,
                        last_cycle: *cycle,
                        pending: class,
                        transit: [0; COMPONENTS],
                    },
                );
            }
            SimEvent::RouteDecision {
                cycle, packet, out, ..
            } => {
                let class = Self::classify(*out);
                self.decisions[class as usize] += 1;
                if let Some(st) = self.states.get_mut(*packet) {
                    st.transit[st.pending as usize] += cycle - st.last_cycle;
                    st.last_cycle = *cycle;
                    st.pending = class;
                }
            }
            SimEvent::Deflect { packet, .. } => {
                if let Some(st) = self.states.get_mut(*packet) {
                    st.pending = LatencyComponent::Deflect;
                }
            }
            SimEvent::FaultReroute { packet, .. } => {
                // Emitted after any same-cycle Deflect, so the reroute
                // cause wins the pending class.
                if let Some(st) = self.states.get_mut(*packet) {
                    st.pending = LatencyComponent::Reroute;
                }
            }
            SimEvent::ExpressHop { span, .. } => {
                self.express_positions += u64::from(*span);
            }
            SimEvent::Eject {
                cycle, delivery, ..
            } => self.finalize(*cycle, delivery),
            SimEvent::FaultDrop { cycle, packet, .. } => {
                if let Some(st) = self.states.remove(*packet) {
                    self.dropped_packets += 1;
                    let in_net: u64 = st.transit.iter().sum();
                    self.dropped_cycles += st.queue_wait + in_net + (cycle - st.last_cycle);
                }
                if self.cfg.watch == Some(*packet) {
                    self.watch_dropped = true;
                }
            }
            SimEvent::WarmupReset { .. } => self.warmup_reset(),
            _ => {}
        }
    }
}

/// The aggregate attribution report for one run.
///
/// Assembled from an [`AttributionSink`] after the drive loop;
/// [`AttributionReport::append_metrics`] reports it as the
/// `fasttrack_attrib_*` metric family.
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// Packets delivered after warmup (the attributed population).
    pub delivered: u64,
    /// Total cycles per component, indexed by `LatencyComponent as usize`.
    pub component_cycles: [u64; COMPONENTS],
    /// Delivered packets whose components did not sum to their latency
    /// (always 0 unless the sink was attached mid-run).
    pub mismatches: u64,
    /// Routing decisions onto express lanes.
    pub express_decisions: u64,
    /// Routing decisions onto shared-ring links.
    pub ring_decisions: u64,
    /// Routing decisions onto the PE exit.
    pub exit_decisions: u64,
    /// `SimStats::route_decisions` from the same run, for reconciliation.
    pub route_decisions: u64,
    /// Router positions covered on express lanes (span-weighted).
    pub express_positions: u64,
    /// Router positions covered on shared rings (one per decision).
    pub ring_positions: u64,
    /// Packets dropped by faults.
    pub dropped_packets: u64,
    /// Cycles sunk into packets that were dropped.
    pub dropped_cycles: u64,
    /// Packets still in flight when the run ended.
    pub in_flight: usize,
    /// The watched packet's journey, when one was configured.
    pub journey: Option<PacketJourney>,
    hists: [Histogram; COMPONENTS],
}

impl AttributionReport {
    /// Folds the sink into a report.
    pub fn assemble(sink: AttributionSink, report: &SimReport) -> Self {
        let journey = sink.cfg.watch.map(|packet| PacketJourney {
            packet,
            events: sink.journey.clone(),
            attribution: sink.watch_result,
            dropped: sink.watch_dropped,
        });
        AttributionReport {
            delivered: sink.delivered,
            component_cycles: sink.totals,
            mismatches: sink.mismatches,
            express_decisions: sink.decisions[LatencyComponent::Express as usize],
            ring_decisions: sink.decisions[LatencyComponent::Ring as usize],
            exit_decisions: sink.decisions[LatencyComponent::Eject as usize],
            route_decisions: report.stats.route_decisions,
            express_positions: sink.express_positions,
            ring_positions: sink.decisions[LatencyComponent::Ring as usize],
            dropped_packets: sink.dropped_packets,
            dropped_cycles: sink.dropped_cycles,
            in_flight: sink.states.len,
            journey,
            hists: sink.hists,
        }
    }

    /// Appends the `fasttrack_attrib_*` rows to `registry`.
    pub fn append_metrics(&self, registry: &mut MetricsRegistry) {
        registry.counter(
            "fasttrack_attrib_packets_total",
            "packets with a complete latency attribution",
            self.delivered,
        );
        for c in LatencyComponent::ALL {
            registry.counter(
                &format!("fasttrack_attrib_{}_cycles_total", c.metric()),
                &format!("total cycles attributed to the {} component", c.label()),
                self.component(c),
            );
            registry.histogram(
                &format!("fasttrack_attrib_{}_cycles", c.metric()),
                &format!("per-packet {} cycles", c.label()),
                self.histogram(c).clone(),
            );
        }
        for (name, help, count) in [
            (
                "fasttrack_attrib_express_decisions_total",
                "routing decisions onto express lanes",
                self.express_decisions,
            ),
            (
                "fasttrack_attrib_ring_decisions_total",
                "routing decisions onto shared-ring links",
                self.ring_decisions,
            ),
            (
                "fasttrack_attrib_exit_decisions_total",
                "routing decisions onto the PE exit",
                self.exit_decisions,
            ),
            (
                "fasttrack_attrib_mismatch_total",
                "delivered packets whose components did not sum to their latency",
                self.mismatches,
            ),
            (
                "fasttrack_attrib_dropped_packets_total",
                "in-flight packets dropped by faults",
                self.dropped_packets,
            ),
        ] {
            registry.counter(name, help, count);
        }
        registry.gauge(
            "fasttrack_attrib_express_traffic_fraction",
            "fraction of traffic-weighted distance covered on express lanes",
            self.express_traffic_fraction(),
        );
    }

    /// Total cycles attributed to one component.
    pub fn component(&self, c: LatencyComponent) -> u64 {
        self.component_cycles[c as usize]
    }

    /// Per-component latency histogram over delivered packets.
    pub(crate) fn histogram(&self, c: LatencyComponent) -> &Histogram {
        &self.hists[c as usize]
    }

    /// Sum of all components over all delivered packets — equals the
    /// sum of their end-to-end latencies.
    pub fn total_cycles(&self) -> u64 {
        self.component_cycles.iter().sum()
    }

    /// Fraction of traffic-weighted distance covered on express lanes.
    pub fn express_traffic_fraction(&self) -> f64 {
        let total = self.express_positions + self.ring_positions;
        if total == 0 {
            0.0
        } else {
            self.express_positions as f64 / total as f64
        }
    }

    /// Whether the wire-class decision counters reconcile with the
    /// engine's own `route_decisions` counter.
    pub fn reconciled(&self) -> bool {
        self.express_decisions + self.ring_decisions + self.exit_decisions == self.route_decisions
    }

    /// Render the "where did the cycles go" table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let total = self.total_cycles();
        let _ = writeln!(
            out,
            "where the cycles went ({} delivered packets, {} total cycles):",
            self.delivered, total
        );
        let _ = writeln!(
            out,
            "  {:<11} {:>12} {:>7} {:>9} {:>7} {:>7} {:>7}",
            "component", "cycles", "share", "avg/pkt", "p50", "p95", "p99"
        );
        for c in LatencyComponent::ALL {
            let v = self.component(c);
            let share = if total == 0 {
                0.0
            } else {
                100.0 * v as f64 / total as f64
            };
            let avg = if self.delivered == 0 {
                0.0
            } else {
                v as f64 / self.delivered as f64
            };
            let h = self.histogram(c);
            let _ = writeln!(
                out,
                "  {:<11} {:>12} {:>6.1}% {:>9.2} {:>7} {:>7} {:>7}",
                c.label(),
                v,
                share,
                avg,
                h.percentile(50.0).unwrap_or(0),
                h.percentile(95.0).unwrap_or(0),
                h.percentile(99.0).unwrap_or(0),
            );
        }
        let _ = writeln!(
            out,
            "express traffic fraction {:.1}% ({} express positions vs {} ring)",
            100.0 * self.express_traffic_fraction(),
            self.express_positions,
            self.ring_positions,
        );
        let _ = writeln!(
            out,
            "wire-class decisions: {} express + {} ring + {} exit == {} route decisions [{}]",
            self.express_decisions,
            self.ring_decisions,
            self.exit_decisions,
            self.route_decisions,
            if self.reconciled() { "ok" } else { "MISMATCH" },
        );
        if self.dropped_packets > 0 || self.in_flight > 0 {
            let _ = writeln!(
                out,
                "unattributed: {} dropped packets ({} cycles sunk), {} still in flight",
                self.dropped_packets, self.dropped_cycles, self.in_flight,
            );
        }
        if self.mismatches > 0 {
            let _ = writeln!(out, "WARNING: {} exact-sum mismatches", self.mismatches);
        }
        out
    }

    /// Flat JSON encoding (schema `fasttrack-attribution-v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"fasttrack-attribution-v1\"");
        let _ = write!(out, ",\"delivered\":{}", self.delivered);
        for c in LatencyComponent::ALL {
            let _ = write!(out, ",\"{}_cycles\":{}", c.metric(), self.component(c));
        }
        let _ = write!(out, ",\"total_cycles\":{}", self.total_cycles());
        let _ = write!(
            out,
            ",\"express_decisions\":{},\"ring_decisions\":{},\"exit_decisions\":{},\"route_decisions\":{}",
            self.express_decisions, self.ring_decisions, self.exit_decisions, self.route_decisions
        );
        let _ = write!(
            out,
            ",\"express_traffic_fraction\":{:.6},\"reconciled\":{}",
            self.express_traffic_fraction(),
            self.reconciled()
        );
        let _ = write!(
            out,
            ",\"mismatches\":{},\"dropped_packets\":{},\"dropped_cycles\":{},\"in_flight\":{}",
            self.mismatches, self.dropped_packets, self.dropped_cycles, self.in_flight
        );
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Coord;
    use crate::packet::{Delivery, Packet};
    use crate::port::InPort;

    fn inject(cycle: u64, id: u64, out: OutPort, queue_wait: u64) -> SimEvent {
        SimEvent::Inject {
            cycle,
            node: 0,
            packet: PacketId(id),
            dst: Coord::new(1, 1),
            out,
            queue_wait,
        }
    }

    fn route(cycle: u64, id: u64, out: OutPort) -> SimEvent {
        SimEvent::RouteDecision {
            cycle,
            node: 0,
            packet: PacketId(id),
            in_port: Some(InPort::WestSh),
            out,
            src: Coord::new(0, 0),
            dst: Coord::new(1, 1),
            hops: 0,
        }
    }

    fn eject(cycle: u64, id: u64, enqueued_at: u64) -> SimEvent {
        let mut p = Packet::new(
            PacketId(id),
            Coord::new(0, 0),
            Coord::new(1, 1),
            enqueued_at,
            0,
        );
        p.injected_at = enqueued_at;
        SimEvent::Eject {
            cycle,
            node: 3,
            delivery: Delivery {
                packet: p,
                cycle: cycle + 1,
            },
        }
    }

    fn report_with(route_decisions: u64) -> SimReport {
        let mut r = SimReport::default();
        r.stats.route_decisions = route_decisions;
        r
    }

    #[test]
    fn hand_built_stream_decomposes_exactly() {
        // enqueue@2, inject@5 (wait 3) onto express, decision@9 onto
        // ring, decision@11 deflected, decision@14 exit, eject@14
        // (consumed @15). Latency 15-2=13 = 3 wait + 4 express +
        // 2 ring + 3 deflect + 1 eject.
        let mut s = AttributionSink::new(AttributionConfig::default());
        s.emit(&inject(5, 7, OutPort::EastEx, 3));
        s.emit(&route(9, 7, OutPort::SouthSh));
        s.emit(&route(11, 7, OutPort::EastSh));
        s.emit(&SimEvent::Deflect {
            cycle: 11,
            node: 0,
            packet: PacketId(7),
            out: OutPort::EastSh,
        });
        s.emit(&route(14, 7, OutPort::Exit));
        s.emit(&eject(14, 7, 2));
        let r = AttributionReport::assemble(s, &report_with(4));
        assert_eq!(r.delivered, 1);
        assert_eq!(r.component(LatencyComponent::QueueWait), 3);
        assert_eq!(r.component(LatencyComponent::Express), 4);
        assert_eq!(r.component(LatencyComponent::Ring), 2);
        assert_eq!(r.component(LatencyComponent::Deflect), 3);
        assert_eq!(r.component(LatencyComponent::Reroute), 0);
        assert_eq!(r.component(LatencyComponent::Eject), 1);
        assert_eq!(r.total_cycles(), 13);
        assert_eq!(r.mismatches, 0);
        // 1 express + 2 ring + 1 exit decision == 4 route decisions.
        assert!(r.reconciled(), "{r:?}");
    }

    #[test]
    fn reroute_overrides_deflect_for_the_same_decision() {
        let mut s = AttributionSink::new(AttributionConfig::default());
        s.emit(&inject(0, 1, OutPort::EastSh, 0));
        s.emit(&route(4, 1, OutPort::SouthSh));
        s.emit(&SimEvent::Deflect {
            cycle: 4,
            node: 0,
            packet: PacketId(1),
            out: OutPort::SouthSh,
        });
        s.emit(&SimEvent::FaultReroute {
            cycle: 4,
            node: 0,
            packet: PacketId(1),
            avoided: OutPort::EastEx,
        });
        s.emit(&route(9, 1, OutPort::Exit));
        s.emit(&eject(9, 1, 0));
        let r = AttributionReport::assemble(s, &report_with(3));
        assert_eq!(r.component(LatencyComponent::Reroute), 5);
        assert_eq!(r.component(LatencyComponent::Deflect), 0);
        assert_eq!(r.total_cycles(), 10);
        assert!(r.reconciled());
    }

    #[test]
    fn self_send_is_queue_wait_plus_eject() {
        let mut s = AttributionSink::new(AttributionConfig::default());
        s.emit(&inject(6, 2, OutPort::Exit, 4));
        s.emit(&eject(6, 2, 2));
        let r = AttributionReport::assemble(s, &report_with(1));
        assert_eq!(r.component(LatencyComponent::QueueWait), 4);
        assert_eq!(r.component(LatencyComponent::Eject), 1);
        assert_eq!(r.total_cycles(), 5);
        assert!(r.reconciled());
    }

    #[test]
    fn fault_drop_bounds_memory_and_counts_sunk_cycles() {
        let mut s = AttributionSink::new(AttributionConfig::default());
        s.emit(&inject(0, 3, OutPort::EastEx, 2));
        s.emit(&route(5, 3, OutPort::SouthSh));
        s.emit(&SimEvent::FaultDrop {
            cycle: 8,
            node: 0,
            packet: PacketId(3),
            link: Some(OutPort::SouthSh),
            corrupted: false,
        });
        assert_eq!(s.states.len, 0);
        let r = AttributionReport::assemble(s, &report_with(2));
        assert_eq!(r.dropped_packets, 1);
        // 2 wait + 5 express + 3 in-transit when dropped.
        assert_eq!(r.dropped_cycles, 10);
        assert_eq!(r.delivered, 0);
    }

    #[test]
    fn warmup_reset_clears_aggregates_but_keeps_in_flight() {
        let mut s = AttributionSink::new(AttributionConfig::default());
        s.emit(&inject(0, 1, OutPort::Exit, 0));
        s.emit(&eject(0, 1, 0));
        s.emit(&inject(3, 2, OutPort::EastEx, 1));
        s.emit(&SimEvent::WarmupReset { cycle: 5 });
        assert_eq!(s.states.len, 1);
        s.emit(&route(7, 2, OutPort::Exit));
        s.emit(&eject(7, 2, 2));
        let r = AttributionReport::assemble(s, &report_with(1));
        // Only the post-warmup delivery counts, but its pre-warmup
        // cycles are still attributed (latency measured from enqueue).
        assert_eq!(r.delivered, 1);
        assert_eq!(r.total_cycles(), 6);
        assert_eq!(r.exit_decisions, 1);
        assert!(r.reconciled());
    }

    #[test]
    fn a_packet_that_switches_channel_keeps_its_state() {
        // A fallback chain evicts packet 9 from channel 0 and channel 1
        // adopts it: ids are per run, not per channel, so the later
        // events find the state the injection left.
        let mut s = AttributionSink::new(AttributionConfig::default());
        s.set_channel(0);
        s.emit(&inject(0, 9, OutPort::EastSh, 0));
        s.set_channel(1);
        s.emit(&route(4, 9, OutPort::EastEx));
        s.emit(&route(6, 9, OutPort::Exit));
        s.emit(&eject(6, 9, 0));
        assert_eq!(s.states.len, 0);
        let r = AttributionReport::assemble(s, &report_with(3));
        assert_eq!((r.delivered, r.mismatches), (1, 0));
        assert_eq!(r.component(LatencyComponent::Ring), 4);
        assert_eq!(r.component(LatencyComponent::Express), 2);
        assert_eq!(r.total_cycles(), 7);
        assert!(r.reconciled());
    }

    #[test]
    fn in_flight_table_matches_a_hash_map_model() {
        // Ids arrive in order and leave in a scrambled one, as on a
        // deflecting fabric; the table grows past its first size and
        // every removal closes its probe run.
        let state = |n: u64| InFlight {
            queue_wait: n,
            last_cycle: 0,
            pending: LatencyComponent::Ring,
            transit: [0; COMPONENTS],
        };
        let mut table = InFlightTable::new();
        let mut model = std::collections::HashMap::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for next in 0..4000u64 {
            table.insert(PacketId(next), state(next));
            model.insert(next, next);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Drain faster than the fill every so often.
            for probe in 0..(x % 3 + u64::from(next % 500 > 400)) {
                let id = (x >> 8).wrapping_add(probe * 7) % (next + 1);
                assert_eq!(
                    table.remove(PacketId(id)).map(|st| st.queue_wait),
                    model.remove(&id),
                    "remove {id}"
                );
            }
            assert_eq!(table.len, model.len());
        }
        assert!(table.slots.len() > 64, "the table grew");
        for id in 0..4000 {
            assert_eq!(
                table.get_mut(PacketId(id)).map(|st| st.queue_wait),
                model.get(&id).copied(),
                "lookup {id}"
            );
        }
    }

    #[test]
    fn watch_captures_the_full_journey() {
        let cfg = AttributionConfig::default().watch(PacketId(7));
        let mut s = AttributionSink::new(cfg);
        s.emit(&inject(0, 6, OutPort::EastSh, 0)); // unwatched
        s.emit(&inject(1, 7, OutPort::EastEx, 1));
        s.emit(&route(3, 7, OutPort::Exit));
        s.emit(&eject(3, 7, 0));
        let r = AttributionReport::assemble(s, &report_with(3));
        let j = r.journey.as_ref().expect("watch configured");
        assert_eq!(j.packet, PacketId(7));
        assert_eq!(j.events.len(), 3);
        assert!(!j.dropped);
        let a = j.attribution.expect("watched packet was delivered");
        assert!(a.exact());
        assert_eq!(a.component(LatencyComponent::Express), 2);
    }

    #[test]
    fn published_cells_ride_the_registry_exposition() {
        let mut s = AttributionSink::new(AttributionConfig::default());
        s.emit(&inject(2, 1, OutPort::EastEx, 2));
        s.emit(&SimEvent::ExpressHop {
            cycle: 2,
            node: 0,
            packet: PacketId(1),
            span: 4,
        });
        s.emit(&route(6, 1, OutPort::Exit));
        s.emit(&eject(6, 1, 0));
        let r = AttributionReport::assemble(s, &report_with(2));
        assert!(r.reconciled());
        assert_eq!(r.express_positions, 4);
        let mut reg = MetricsRegistry::new();
        r.append_metrics(&mut reg);
        let text = reg.to_prometheus();
        assert!(text.contains("fasttrack_attrib_packets_total 1"));
        assert!(text.contains("fasttrack_attrib_express_cycles_total 4"));
        assert!(text.contains("fasttrack_attrib_express_traffic_fraction 1"));
        // The per-component histogram rides along.
        assert!(text.contains("fasttrack_attrib_express_cycles_count 1"));
        assert!(text.contains("fasttrack_attrib_express_cycles_sum 4"));
        let json = r.to_json();
        assert!(json.starts_with("{\"schema\":\"fasttrack-attribution-v1\""));
        assert!(json.contains("\"reconciled\":true"));
    }

    #[test]
    fn render_text_mentions_every_component() {
        let mut s = AttributionSink::new(AttributionConfig::default());
        s.emit(&inject(0, 1, OutPort::Exit, 0));
        s.emit(&eject(0, 1, 0));
        let r = AttributionReport::assemble(s, &report_with(1));
        let text = r.render_text();
        for c in LatencyComponent::ALL {
            assert!(
                text.contains(c.label()),
                "missing {} in:\n{text}",
                c.label()
            );
        }
        assert!(text.contains("route decisions [ok]"));
    }
}
