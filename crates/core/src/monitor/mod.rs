//! Online health monitoring: a bounded flight recorder and anomaly
//! detectors layered on the [`EventSink`] stream, plus the metrics
//! registry a finished run's observers report into.
//!
//! The paper's sweeps (Figs 11, 12, 18) only make sense on runs that
//! have not gone pathological; this module watches for the three
//! failure modes of a bufferless deflection NoC *while the run is in
//! progress* — livelocked packets circling the torus, starved
//! injectors, and hot express links — instead of diagnosing them
//! post-mortem from exported traces.
//!
//! [`HealthMonitor`] is an ordinary [`EventSink`], so it composes with
//! the exporters via sink tuples and costs nothing when absent (the
//! engine's [`crate::trace::NullSink`] path is untouched). Everything
//! here is deterministic: the same event stream yields the same
//! [`HealthReport`]s, the same summary JSON, and the same metric rows,
//! which is what lets the sweep pool merge per-point health by point
//! index without breaking the byte-identical CSV guarantee.

mod detect;
mod recorder;
mod registry;

pub use detect::{Anomaly, DetectorConfig};
pub(crate) use detect::{HotspotDetector, LivelockDetector, StarvationDetector};
pub use recorder::FlightRecorder;
pub use registry::{MetricValue, MetricsRegistry};

use crate::stats::Histogram;
use crate::topology::MonitorShape;
use crate::trace::{EventSink, SimEvent};

/// Configuration for a [`HealthMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Detector thresholds.
    pub detectors: DetectorConfig,
    /// Flight-recorder events retained per router (K).
    pub flight_capacity: usize,
    /// Reports kept with full excerpts; further anomalies only count.
    pub max_reports: usize,
    /// Emit a snapshot line every this many cycles (`None` disables).
    pub snapshot_every: Option<u64>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            detectors: DetectorConfig::default(),
            flight_capacity: 32,
            max_reports: 64,
            snapshot_every: None,
        }
    }
}

/// One detected anomaly plus the flight-recorder excerpt around it.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Cycle the anomaly was detected.
    pub cycle: u64,
    /// What was detected.
    pub anomaly: Anomaly,
    /// The triggering router's flight-recorder contents at detection,
    /// oldest first (≤ K events).
    pub excerpt: Vec<SimEvent>,
}

/// Final health verdict of a monitored run.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSummary {
    /// Cycles observed.
    pub cycles: u64,
    /// Routers monitored.
    pub nodes: usize,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Deflection events.
    pub deflections: u64,
    /// Inject-stall events.
    pub stalls: u64,
    /// Packets lost to injected faults (dead links, transient drops,
    /// fail-stop routers).
    pub dropped: u64,
    /// Packets steered away from a dead express link onto the shared
    /// ring.
    pub rerouted: u64,
    /// Retained anomaly reports, in detection order.
    pub reports: Vec<HealthReport>,
    /// Anomalies beyond `max_reports` that were counted but not kept.
    pub suppressed: u64,
}

impl HealthSummary {
    /// True when no anomaly was detected.
    pub fn healthy(&self) -> bool {
        self.reports.is_empty() && self.suppressed == 0
    }

    /// Number of retained reports of the given kind
    /// (`"livelock"` / `"starvation"` / `"hotspot"`).
    pub fn count(&self, kind: &str) -> usize {
        self.reports
            .iter()
            .filter(|r| r.anomaly.kind() == kind)
            .count()
    }

    /// Renders the summary as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"cycles\":{},\"nodes\":{},\"healthy\":{},\"injected\":{},\"delivered\":{},\"deflections\":{},\"stalls\":{},\"dropped\":{},\"rerouted\":{},\"suppressed\":{}",
            self.cycles,
            self.nodes,
            self.healthy(),
            self.injected,
            self.delivered,
            self.deflections,
            self.stalls,
            self.dropped,
            self.rerouted,
            self.suppressed
        );
        let _ = write!(
            out,
            ",\"anomalies\":{{\"livelock\":{},\"starvation\":{},\"hotspot\":{}}}",
            self.count("livelock"),
            self.count("starvation"),
            self.count("hotspot")
        );
        out.push_str(",\"reports\":[");
        for (i, r) in self.reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"cycle\":{},\"kind\":\"{}\",\"node\":{},\"detail\":{{",
                r.cycle,
                r.anomaly.kind(),
                r.anomaly.node()
            );
            match r.anomaly {
                Anomaly::Livelock {
                    packet,
                    hops,
                    dor_distance,
                    ..
                } => {
                    let _ = write!(
                        out,
                        "\"packet\":{},\"hops\":{},\"dor_distance\":{}",
                        packet.0, hops, dor_distance
                    );
                }
                Anomaly::Starvation { streak, depth, .. } => {
                    let _ = write!(out, "\"streak\":{streak},\"depth\":{depth}");
                }
                Anomaly::Hotspot {
                    out: port, ewma, ..
                } => {
                    let _ = write!(out, "\"out\":\"{port}\",\"ewma\":{ewma}");
                }
            }
            out.push_str("},\"excerpt\":[");
            for (j, e) in r.excerpt.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"cycle\":{},\"kind\":\"{}\"", e.cycle(), e.kind());
                if let Some(node) = e.node() {
                    let _ = write!(out, ",\"node\":{node}");
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Renders a short human-readable verdict for the CLI.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.healthy() {
            let _ = writeln!(out, "health: OK (no anomalies in {} cycles)", self.cycles);
            if self.dropped > 0 || self.rerouted > 0 {
                let _ = writeln!(
                    out,
                    "  degraded: {} packets dropped, {} rerouted around dead links",
                    self.dropped, self.rerouted
                );
            }
            return out;
        }
        let _ = writeln!(
            out,
            "health: {} anomalies in {} cycles (livelock {}, starvation {}, hotspot {}; {} suppressed)",
            self.reports.len() as u64 + self.suppressed,
            self.cycles,
            self.count("livelock"),
            self.count("starvation"),
            self.count("hotspot"),
            self.suppressed
        );
        if self.dropped > 0 || self.rerouted > 0 {
            let _ = writeln!(
                out,
                "  degraded: {} packets dropped, {} rerouted around dead links",
                self.dropped, self.rerouted
            );
        }
        for r in &self.reports {
            let _ = write!(out, "  [cycle {:>6}] ", r.cycle);
            match r.anomaly {
                Anomaly::Livelock {
                    packet,
                    node,
                    hops,
                    dor_distance,
                } => {
                    let _ = writeln!(
                        out,
                        "livelock at node {node}: packet {} has {hops} hops vs DOR {dor_distance}",
                        packet.0
                    );
                }
                Anomaly::Starvation {
                    node,
                    streak,
                    depth,
                } => {
                    let _ = writeln!(
                        out,
                        "starvation at node {node}: {streak} stalled cycles (queue depth {depth})"
                    );
                }
                Anomaly::Hotspot {
                    node,
                    out: port,
                    ewma,
                } => {
                    let _ = writeln!(out, "hotspot at node {node}: link {port} ewma {ewma:.3}");
                }
            }
        }
        out
    }
}

/// The live counters: index into [`HealthMonitor`]'s `counts`, and the
/// metric name and help text each is reported under.
const INJECTED: usize = 0;
const DELIVERED: usize = 1;
const DEFLECTIONS: usize = 2;
const STALLS: usize = 3;
const EXPRESS_HOPS: usize = 4;
const ROUTE_DECISIONS: usize = 5;
const FAULT_DROPS: usize = 6;
const FAULT_REROUTES: usize = 7;
const COUNTERS: [(&str, &str); 8] = [
    ("fasttrack_injected_total", "Packets injected"),
    ("fasttrack_delivered_total", "Packets delivered"),
    ("fasttrack_deflections_total", "Deflection events"),
    ("fasttrack_inject_stalls_total", "Inject-stall events"),
    ("fasttrack_express_hops_total", "Express-link hops"),
    ("fasttrack_route_decisions_total", "Route decisions"),
    (
        "fasttrack_fault_drops_total",
        "Packets lost to injected faults",
    ),
    (
        "fasttrack_fault_reroutes_total",
        "Packets deflected around dead express links",
    ),
];

/// An [`EventSink`] that maintains live counters, a per-router flight
/// recorder, and the three anomaly detectors.
///
/// Events are counted in plain integers: [`HealthMonitor::summary`] and
/// [`HealthMonitor::append_metrics`] read them and are exact at any
/// time.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    nodes: usize,
    cfg: MonitorConfig,
    recorder: FlightRecorder,
    livelock: LivelockDetector,
    starvation: StarvationDetector,
    hotspot: HotspotDetector,
    reports: Vec<HealthReport>,
    suppressed: u64,
    counts: [u64; COUNTERS.len()],
    latency: Histogram,
    cycles: u64,
    channels: usize,
    snapshots: Vec<String>,
    next_snapshot: u64,
    prev_delivered: u64,
}

impl HealthMonitor {
    /// A monitor sized for `shape` (see [`MonitorShape`] — the
    /// topology-derived replacement for the old torus side length).
    pub fn new(shape: MonitorShape, cfg: MonitorConfig) -> Self {
        let nodes = shape.nodes;
        HealthMonitor {
            nodes,
            cfg,
            recorder: FlightRecorder::new(nodes, cfg.flight_capacity),
            livelock: LivelockDetector::new(shape.grid_side, &cfg.detectors),
            starvation: StarvationDetector::new(nodes, &cfg.detectors),
            hotspot: HotspotDetector::new(shape, &cfg.detectors),
            reports: Vec::new(),
            suppressed: 0,
            counts: [0; COUNTERS.len()],
            latency: Histogram::new(),
            cycles: 0,
            channels: shape.channels.max(1),
            snapshots: Vec::new(),
            next_snapshot: cfg.snapshot_every.unwrap_or(u64::MAX),
            prev_delivered: 0,
        }
    }

    /// Appends this monitor's rows to `registry`: the eight event
    /// counters, the delivery-latency histogram and the in-flight gauge.
    pub fn append_metrics(&self, registry: &mut MetricsRegistry) {
        for ((name, help), &count) in COUNTERS.iter().zip(&self.counts) {
            registry.counter(name, help, count);
        }
        registry.histogram(
            "fasttrack_delivery_latency_cycles",
            "End-to-end packet latency",
            self.latency.clone(),
        );
        registry.gauge(
            "fasttrack_in_flight",
            "Packets currently in the network",
            self.packets_in_flight() as f64,
        );
    }

    /// The flight recorder (for replay through exporters).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Retained anomaly reports, in detection order.
    pub fn reports(&self) -> &[HealthReport] {
        &self.reports
    }

    /// Snapshot lines collected so far (one per `snapshot_every`).
    pub fn snapshots(&self) -> &[String] {
        &self.snapshots
    }

    /// True when no anomaly has been detected so far.
    pub fn healthy(&self) -> bool {
        self.reports.is_empty() && self.suppressed == 0
    }

    /// Announces the channel count of a multi-channel bank, so hotspot
    /// utilization normalizes per channel.
    pub(crate) fn set_channels(&mut self, channels: usize) {
        self.channels = channels.max(1);
        self.hotspot.set_channels(self.channels);
    }

    /// Clones the current state into a final [`HealthSummary`].
    pub fn summary(&self) -> HealthSummary {
        HealthSummary {
            cycles: self.cycles,
            nodes: self.nodes,
            injected: self.counts[INJECTED],
            delivered: self.counts[DELIVERED],
            deflections: self.counts[DEFLECTIONS],
            stalls: self.counts[STALLS],
            dropped: self.counts[FAULT_DROPS],
            rerouted: self.counts[FAULT_REROUTES],
            reports: self.reports.clone(),
            suppressed: self.suppressed,
        }
    }

    fn report(&mut self, cycle: u64, anomaly: Anomaly) {
        if self.reports.len() < self.cfg.max_reports {
            let excerpt = self.recorder.excerpt(anomaly.node());
            self.reports.push(HealthReport {
                cycle,
                anomaly,
                excerpt,
            });
        } else {
            self.suppressed += 1;
        }
    }

    fn snapshot(&mut self, cycle: u64) {
        let delivered = self.counts[DELIVERED];
        let delta = delivered - self.prev_delivered;
        self.prev_delivered = delivered;
        let anomalies = self.reports.len() as u64 + self.suppressed;
        self.snapshots.push(format!(
            "[monitor] cycle={:>8} injected={} delivered={} (+{}) in_flight={} stalls={} anomalies={}",
            cycle + 1,
            self.counts[INJECTED],
            delivered,
            delta,
            self.packets_in_flight(),
            self.counts[STALLS],
            anomalies
        ));
    }

    /// Injected packets neither delivered nor lost to a fault.
    fn packets_in_flight(&self) -> u64 {
        self.counts[INJECTED] - self.counts[DELIVERED] - self.counts[FAULT_DROPS]
    }
}

impl EventSink for HealthMonitor {
    /// Records the event, then one dispatch on its kind: count it and
    /// feed the detectors that read that kind (their `observe`s inline
    /// here, where the kind is already known).
    fn emit(&mut self, event: &SimEvent) {
        self.recorder.emit(event);
        match *event {
            SimEvent::Inject { .. } => {
                self.counts[INJECTED] += 1;
                self.hotspot.observe(event);
                self.starvation.observe(event);
            }
            SimEvent::RouteDecision { cycle, .. } => {
                self.counts[ROUTE_DECISIONS] += 1;
                self.hotspot.observe(event);
                if let Some(a) = self.livelock.observe(event) {
                    self.report(cycle, a);
                }
            }
            SimEvent::QueueStall { cycle, .. } => {
                self.counts[STALLS] += 1;
                if let Some(a) = self.starvation.observe(event) {
                    self.report(cycle, a);
                }
            }
            SimEvent::Eject { delivery, .. } => {
                self.counts[DELIVERED] += 1;
                self.latency.record(delivery.total_latency());
                self.livelock.observe(event);
            }
            SimEvent::Deflect { .. } => self.counts[DEFLECTIONS] += 1,
            SimEvent::ExpressHop { .. } => self.counts[EXPRESS_HOPS] += 1,
            SimEvent::FaultDrop { .. } => self.counts[FAULT_DROPS] += 1,
            SimEvent::FaultReroute { .. } => self.counts[FAULT_REROUTES] += 1,
            SimEvent::WarmupReset { .. } | SimEvent::Truncated { .. } => {}
        }
    }

    fn end_cycle(&mut self, cycle: u64) {
        self.cycles = self.cycles.max(cycle + 1);
        for a in self.hotspot.end_cycle(cycle) {
            self.report(cycle, a);
        }
        if let Some(every) = self.cfg.snapshot_every {
            if cycle + 1 >= self.next_snapshot {
                self.snapshot(cycle);
                self.next_snapshot = cycle + 1 + every;
            }
        }
    }

    fn set_channel(&mut self, channel: usize) {
        if channel + 1 > self.channels {
            self.set_channels(channel + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Coord;
    use crate::packet::{Delivery, Packet, PacketId};
    use crate::port::OutPort;

    fn stall(cycle: u64, node: usize) -> SimEvent {
        SimEvent::QueueStall {
            cycle,
            node,
            depth: 3,
        }
    }

    fn quick_cfg() -> MonitorConfig {
        MonitorConfig {
            detectors: DetectorConfig {
                starvation_streak: 4,
                ..DetectorConfig::default()
            },
            flight_capacity: 8,
            max_reports: 2,
            snapshot_every: None,
        }
    }

    #[test]
    fn starvation_report_carries_excerpt() {
        let mut m = HealthMonitor::new(MonitorShape::torus(2), quick_cfg());
        for c in 0..4 {
            m.emit(&stall(c, 1));
            m.end_cycle(c);
        }
        assert!(!m.healthy());
        let r = &m.reports()[0];
        assert_eq!(r.anomaly.kind(), "starvation");
        assert_eq!(r.excerpt.len(), 4, "excerpt holds the stalls so far");
        assert!(r.excerpt.iter().all(|e| e.node() == Some(1)));
    }

    #[test]
    fn max_reports_suppresses_but_counts() {
        let mut m = HealthMonitor::new(MonitorShape::torus(2), quick_cfg());
        // Starve three different nodes; only two reports are kept.
        for node in 0..3 {
            for c in 0..4 {
                m.emit(&stall(100 * node as u64 + c, node));
            }
        }
        assert_eq!(m.reports().len(), 2);
        let s = m.summary();
        assert_eq!(s.suppressed, 1);
        assert!(!s.healthy());
        assert_eq!(s.count("starvation"), 2);
    }

    #[test]
    fn counters_track_stream_and_summary_json_is_stable() {
        let mut m = HealthMonitor::new(MonitorShape::torus(2), MonitorConfig::default());
        let packet = Packet::new(PacketId(1), Coord::new(0, 0), Coord::new(1, 0), 0, 0);
        m.emit(&SimEvent::Inject {
            cycle: 0,
            node: 0,
            packet: PacketId(1),
            dst: Coord::new(1, 0),
            out: OutPort::EastSh,
            queue_wait: 0,
        });
        m.emit(&SimEvent::Eject {
            cycle: 1,
            node: 1,
            delivery: Delivery { packet, cycle: 2 },
        });
        m.end_cycle(1);
        let s = m.summary();
        assert_eq!((s.injected, s.delivered), (1, 1));
        assert!(s.healthy());
        let json = s.to_json();
        assert!(json.contains("\"healthy\":true"));
        assert!(json.contains("\"anomalies\":{\"livelock\":0,\"starvation\":0,\"hotspot\":0}"));
        assert_eq!(json, m.summary().to_json(), "JSON must be deterministic");
        let mut registry = MetricsRegistry::new();
        m.append_metrics(&mut registry);
        let prom = registry.to_prometheus();
        assert!(prom.contains("fasttrack_injected_total 1"));
        assert!(prom.contains("fasttrack_delivery_latency_cycles_count 1"));
    }

    #[test]
    fn snapshots_fire_on_schedule() {
        let cfg = MonitorConfig {
            snapshot_every: Some(10),
            ..MonitorConfig::default()
        };
        let mut m = HealthMonitor::new(MonitorShape::torus(2), cfg);
        for c in 0..35 {
            // Multi-channel banks call end_cycle once per channel.
            m.end_cycle(c);
            m.end_cycle(c);
        }
        assert_eq!(m.snapshots().len(), 3);
        assert!(m.snapshots()[0].contains("cycle="));
    }

    #[test]
    fn render_text_mentions_each_kind() {
        let mut m = HealthMonitor::new(MonitorShape::torus(2), quick_cfg());
        for c in 0..4 {
            m.emit(&stall(c, 0));
        }
        let text = m.summary().render_text();
        assert!(text.contains("starvation at node 0"));
        assert!(text.starts_with("health: 1 anomalies"));
        let ok = HealthMonitor::new(MonitorShape::torus(2), quick_cfg())
            .summary()
            .render_text();
        assert!(ok.starts_with("health: OK"));
    }
}
