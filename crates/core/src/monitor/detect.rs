//! Online anomaly detectors over the [`SimEvent`] stream.
//!
//! Three pathologies of a bufferless deflection NoC are watched live:
//!
//! * **Livelock** — a packet whose accumulated link traversals exceed a
//!   configurable multiple of its DOR distance is circling the torus
//!   instead of converging. The engine carries `src`/`dst`/`hops` on
//!   every [`SimEvent::RouteDecision`], so this detector needs no
//!   per-packet state beyond a dedup list of already-reported ids.
//! * **Starvation** — a PE that stalls injection for a long consecutive
//!   streak of cycles is being locked out by through-traffic
//!   (Hoplite's injection has the lowest allocator priority).
//! * **Hotspot** — a link whose EWMA utilization crosses a watermark,
//!   folded from per-window usage counts at window boundaries.
//!
//! Detectors are deterministic: fed the same event stream they emit the
//! same anomalies in the same order, which keeps sweep output stable at
//! any thread count.

use crate::geom::Coord;
use crate::packet::PacketId;
use crate::port::OutPort;
use crate::topology::MonitorShape;
use crate::trace::SimEvent;

/// Thresholds for the online detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// A packet is livelocked when its hops exceed
    /// `max(livelock_multiple × DOR distance, livelock_min_hops)`.
    pub livelock_multiple: f64,
    /// Absolute hop floor below which livelock never fires (protects
    /// short DOR distances from false positives).
    pub livelock_min_hops: u32,
    /// Consecutive stalled cycles before a source is reported starved.
    pub starvation_streak: u64,
    /// EWMA link utilization above which a hotspot is reported.
    pub hotspot_watermark: f64,
    /// EWMA smoothing factor in `(0,1]` (weight of the newest window).
    pub hotspot_alpha: f64,
    /// Cycles per utilization window.
    pub hotspot_window: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            livelock_multiple: 8.0,
            livelock_min_hops: 32,
            starvation_streak: 128,
            hotspot_watermark: 0.85,
            hotspot_alpha: 0.25,
            hotspot_window: 64,
        }
    }
}

/// A detected pathology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Anomaly {
    /// A packet's displacement far exceeds its DOR distance.
    Livelock {
        /// The circling packet.
        packet: PacketId,
        /// Router where the threshold was crossed.
        node: usize,
        /// Link traversals accumulated so far.
        hops: u32,
        /// The packet's one-way DOR distance (dx + dy).
        dor_distance: u32,
    },
    /// A source PE has been unable to inject for a long streak.
    Starvation {
        /// The starved node.
        node: usize,
        /// Consecutive stalled cycles at the report.
        streak: u64,
        /// Source-queue depth when the threshold was crossed.
        depth: usize,
    },
    /// A link's EWMA utilization crossed the watermark.
    Hotspot {
        /// Upstream router of the hot link.
        node: usize,
        /// The hot output port.
        out: OutPort,
        /// EWMA utilization at the crossing (1.0 = a packet every
        /// cycle on every channel).
        ewma: f64,
    },
}

impl Anomaly {
    /// Stable lowercase tag for serializers and summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Anomaly::Livelock { .. } => "livelock",
            Anomaly::Starvation { .. } => "starvation",
            Anomaly::Hotspot { .. } => "hotspot",
        }
    }

    /// The router the anomaly is anchored at.
    pub(crate) fn node(&self) -> usize {
        match *self {
            Anomaly::Livelock { node, .. }
            | Anomaly::Starvation { node, .. }
            | Anomaly::Hotspot { node, .. } => node,
        }
    }
}

/// Flags packets whose displacement exceeds a multiple of their DOR
/// distance. Reports each packet at most once per flight (its id is
/// forgotten again on ejection, so a reinjected id can report again).
#[derive(Debug, Clone)]
pub(crate) struct LivelockDetector {
    grid: Option<u16>,
    multiple: f64,
    min_hops: u32,
    /// Ids reported and still in flight: almost always empty, and never
    /// longer than the anomalies of one flight time.
    reported: Vec<PacketId>,
}

impl LivelockDetector {
    /// A detector for a square grid of side `grid` (torus DOR distance
    /// as the displacement reference). `None` disables the
    /// distance-scaled threshold and falls back to the absolute hop
    /// floor for topologies without a grid embedding.
    pub(crate) fn new(grid: Option<u16>, cfg: &DetectorConfig) -> Self {
        LivelockDetector {
            grid,
            multiple: cfg.livelock_multiple,
            min_hops: cfg.livelock_min_hops,
            reported: Vec::new(),
        }
    }

    /// DOR distance (one-way dx + dy) on the grid; 0 without one (the
    /// hop floor then carries the threshold alone).
    pub(crate) fn dor_distance(&self, src: Coord, dst: Coord) -> u32 {
        match self.grid {
            Some(n) => u32::from(src.dx_to(dst, n)) + u32::from(src.dy_to(dst, n)),
            None => 0,
        }
    }

    /// Feeds one event; returns an anomaly on a fresh threshold cross.
    #[inline]
    pub(crate) fn observe(&mut self, event: &SimEvent) -> Option<Anomaly> {
        match *event {
            SimEvent::RouteDecision {
                node,
                packet,
                src,
                dst,
                hops,
                ..
            } => {
                // The threshold is never below the floor, so most
                // decisions are settled by one integer compare.
                if hops <= self.min_hops {
                    return None;
                }
                let dor = self.dor_distance(src, dst);
                let threshold = (self.multiple * f64::from(dor)).max(f64::from(self.min_hops));
                if f64::from(hops) > threshold && !self.reported.contains(&packet) {
                    self.reported.push(packet);
                    return Some(Anomaly::Livelock {
                        packet,
                        node,
                        hops,
                        dor_distance: dor,
                    });
                }
                None
            }
            SimEvent::Eject { delivery, .. } => {
                if !self.reported.is_empty() {
                    self.reported.retain(|&p| p != delivery.packet.id);
                }
                None
            }
            _ => None,
        }
    }
}

/// Flags PEs with long consecutive inject-stall streaks.
#[derive(Debug, Clone)]
pub(crate) struct StarvationDetector {
    threshold: u64,
    streaks: Vec<u64>,
    /// Last cycle counted per node, so multi-channel banks (one stall
    /// event per channel per cycle) advance the streak once per cycle.
    last_cycle: Vec<u64>,
    flagged: Vec<bool>,
}

impl StarvationDetector {
    /// A detector for `nodes` sources.
    pub(crate) fn new(nodes: usize, cfg: &DetectorConfig) -> Self {
        StarvationDetector {
            threshold: cfg.starvation_streak.max(1),
            streaks: vec![0; nodes],
            last_cycle: vec![u64::MAX; nodes],
            flagged: vec![false; nodes],
        }
    }

    /// Feeds one event; returns an anomaly when a streak first reaches
    /// the threshold (re-armed by a successful injection).
    #[inline]
    pub(crate) fn observe(&mut self, event: &SimEvent) -> Option<Anomaly> {
        match *event {
            SimEvent::QueueStall { cycle, node, depth } if node < self.streaks.len() => {
                if self.last_cycle[node] == cycle {
                    return None;
                }
                self.last_cycle[node] = cycle;
                self.streaks[node] += 1;
                if self.streaks[node] >= self.threshold && !self.flagged[node] {
                    self.flagged[node] = true;
                    return Some(Anomaly::Starvation {
                        node,
                        streak: self.streaks[node],
                        depth,
                    });
                }
                None
            }
            SimEvent::Inject { node, .. } if node < self.streaks.len() => {
                self.streaks[node] = 0;
                self.flagged[node] = false;
                None
            }
            _ => None,
        }
    }
}

/// Flags links whose EWMA utilization crosses the watermark.
///
/// Usage counts accumulate per flat link key —
/// `node * links_per_node + class_slot`, as the [`MonitorShape`]
/// defines it — and fold into the EWMA at window boundaries in
/// [`HotspotDetector::end_cycle`] (which is idempotent per cycle, as
/// multi-channel banks call it once per channel). Utilization is
/// normalized by the channel count announced via
/// [`HotspotDetector::set_channels`], so 1.0 means every channel of
/// the link carried a packet every cycle of the window.
#[derive(Debug, Clone)]
pub(crate) struct HotspotDetector {
    window: u64,
    alpha: f64,
    watermark: f64,
    channels: usize,
    links_per_node: usize,
    counts: Vec<u64>,
    ewma: Vec<f64>,
    flagged: Vec<bool>,
    next_boundary: u64,
}

impl HotspotDetector {
    /// A detector sized for `shape` (one EWMA cell per link key the
    /// shape enumerates).
    pub(crate) fn new(shape: MonitorShape, cfg: &DetectorConfig) -> Self {
        let links = shape.num_links();
        HotspotDetector {
            window: cfg.hotspot_window.max(1),
            alpha: cfg.hotspot_alpha.clamp(f64::MIN_POSITIVE, 1.0),
            watermark: cfg.hotspot_watermark,
            channels: shape.channels.max(1),
            links_per_node: shape.links_per_node.max(1),
            counts: vec![0; links],
            ewma: vec![0.0; links],
            flagged: vec![false; links],
            next_boundary: cfg.hotspot_window.max(1),
        }
    }

    /// Announces how many channels feed this detector (≥ 1).
    pub(crate) fn set_channels(&mut self, channels: usize) {
        self.channels = channels.max(1);
    }

    /// Feeds one event (counts link occupancy; emits nothing itself).
    #[inline]
    pub(crate) fn observe(&mut self, event: &SimEvent) {
        let (node, out) = match *event {
            SimEvent::RouteDecision { node, out, .. } | SimEvent::Inject { node, out, .. } => {
                (node, out)
            }
            _ => return,
        };
        if out == OutPort::Exit || out.index() >= self.links_per_node {
            return;
        }
        let id = node * self.links_per_node + out.index();
        if id >= self.counts.len() {
            return;
        }
        self.counts[id] += 1;
    }

    /// Folds the window ending at `cycle` (if a boundary was reached)
    /// and returns watermark crossings in link-key order (node-major,
    /// class-slot minor — identical to the old `(node, out)` order).
    /// Idempotent per cycle.
    pub(crate) fn end_cycle(&mut self, cycle: u64) -> Vec<Anomaly> {
        if cycle + 1 < self.next_boundary {
            return Vec::new();
        }
        let denom = (self.window * self.channels as u64) as f64;
        let mut crossings = Vec::new();
        for id in 0..self.counts.len() {
            let u = self.counts[id] as f64 / denom;
            self.counts[id] = 0;
            let e = self.alpha * u + (1.0 - self.alpha) * self.ewma[id];
            self.ewma[id] = e;
            if e > self.watermark && !self.flagged[id] {
                self.flagged[id] = true;
                crossings.push(Anomaly::Hotspot {
                    node: id / self.links_per_node,
                    out: OutPort::ALL[id % self.links_per_node],
                    ewma: e,
                });
            } else if e < self.watermark * 0.75 {
                // Hysteresis re-arm: a link must cool well below the
                // watermark before it can report again.
                self.flagged[id] = false;
            }
        }
        self.next_boundary = cycle + 1 + self.window;
        crossings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Delivery, Packet};

    fn shape(nodes: usize) -> MonitorShape {
        MonitorShape {
            nodes,
            links_per_node: 4,
            grid_side: None,
            channels: 1,
        }
    }

    fn route(cycle: u64, node: usize, packet: u64, hops: u32, src: Coord, dst: Coord) -> SimEvent {
        SimEvent::RouteDecision {
            cycle,
            node,
            packet: PacketId(packet),
            in_port: None,
            out: OutPort::EastSh,
            src,
            dst,
            hops,
        }
    }

    #[test]
    fn livelock_trips_once_and_rearms_on_eject() {
        let cfg = DetectorConfig {
            livelock_multiple: 4.0,
            livelock_min_hops: 8,
            ..DetectorConfig::default()
        };
        let mut d = LivelockDetector::new(Some(4), &cfg);
        let (src, dst) = (Coord::new(0, 0), Coord::new(1, 0)); // DOR = 1
        assert!(d.observe(&route(0, 0, 7, 4, src, dst)).is_none());
        assert!(
            d.observe(&route(1, 1, 7, 8, src, dst)).is_none(),
            "at floor"
        );
        let a = d.observe(&route(2, 2, 7, 9, src, dst)).unwrap();
        assert!(matches!(
            a,
            Anomaly::Livelock {
                hops: 9,
                dor_distance: 1,
                ..
            }
        ));
        assert!(
            d.observe(&route(3, 3, 7, 10, src, dst)).is_none(),
            "one report per flight"
        );
        let packet = Packet::new(PacketId(7), src, dst, 0, 0);
        d.observe(&SimEvent::Eject {
            cycle: 4,
            node: 1,
            delivery: Delivery { packet, cycle: 5 },
        });
        assert!(d.observe(&route(6, 0, 7, 20, src, dst)).is_some());
    }

    #[test]
    fn livelock_respects_dor_scaling() {
        // Defaults: multiple 8, floor 32, so the threshold is
        // max(8 x DOR, 32) and a packet fires strictly above it. The
        // integer early-out sits exactly at the floor.
        let origin = Coord::new(0, 0);
        let cases: [(Option<u16>, Coord, u32, u32, bool); 11] = [
            // DOR 1: the floor carries the threshold.
            (Some(8), Coord::new(1, 0), 1, 32, false),
            (Some(8), Coord::new(1, 0), 1, 33, true),
            // DOR 4: scaled threshold equals the floor.
            (Some(8), Coord::new(2, 2), 4, 32, false),
            (Some(8), Coord::new(2, 2), 4, 33, true),
            // DOR 7 (east 3, south 4): scaled threshold 56 is above the
            // floor, so hops past the early-out still must not fire.
            (Some(8), Coord::new(3, 4), 7, 33, false),
            (Some(8), Coord::new(3, 4), 7, 56, false),
            (Some(8), Coord::new(3, 4), 7, 57, true),
            // A self-send has DOR 0.
            (Some(8), origin, 0, 33, true),
            // No grid embedding: DOR reads 0 and the floor stands alone.
            (None, Coord::new(3, 4), 0, 32, false),
            (None, Coord::new(3, 4), 0, 33, true),
            (None, Coord::new(3, 4), 0, 0, false),
        ];
        for (id, (grid, dst, dor, hops, fires)) in cases.into_iter().enumerate() {
            let mut d = LivelockDetector::new(grid, &DetectorConfig::default());
            assert_eq!(d.dor_distance(origin, dst), dor, "case {id}");
            let a = d.observe(&route(0, 5, id as u64, hops, origin, dst));
            let expected = fires.then_some(Anomaly::Livelock {
                packet: PacketId(id as u64),
                node: 5,
                hops,
                dor_distance: dor,
            });
            assert_eq!(a, expected, "case {id}: {hops} hops vs DOR {dor}");
        }
        // A fractional multiple compares in f64, not truncated.
        let cfg = DetectorConfig {
            livelock_multiple: 2.5,
            livelock_min_hops: 4,
            ..DetectorConfig::default()
        };
        let mut d = LivelockDetector::new(Some(8), &cfg);
        let dst = Coord::new(3, 0); // DOR 3 -> threshold 7.5
        assert!(d.observe(&route(0, 0, 1, 7, origin, dst)).is_none());
        assert!(d.observe(&route(0, 0, 1, 8, origin, dst)).is_some());
    }

    #[test]
    fn starvation_needs_consecutive_streak() {
        let cfg = DetectorConfig {
            starvation_streak: 3,
            ..DetectorConfig::default()
        };
        let mut d = StarvationDetector::new(4, &cfg);
        let stall = |cycle, node| SimEvent::QueueStall {
            cycle,
            node,
            depth: 2,
        };
        assert!(d.observe(&stall(0, 1)).is_none());
        assert!(d.observe(&stall(1, 1)).is_none());
        // An injection breaks the streak.
        d.observe(&SimEvent::Inject {
            cycle: 2,
            node: 1,
            packet: PacketId(0),
            dst: Coord::new(0, 0),
            out: OutPort::EastSh,
            queue_wait: 0,
        });
        assert_eq!(d.streaks[1], 0);
        assert!(d.observe(&stall(3, 1)).is_none());
        assert!(d.observe(&stall(4, 1)).is_none());
        let a = d.observe(&stall(5, 1)).unwrap();
        assert!(matches!(
            a,
            Anomaly::Starvation {
                node: 1,
                streak: 3,
                depth: 2
            }
        ));
        assert!(
            d.observe(&stall(6, 1)).is_none(),
            "reported once per streak"
        );
    }

    #[test]
    fn starvation_counts_each_cycle_once() {
        let cfg = DetectorConfig {
            starvation_streak: 2,
            ..DetectorConfig::default()
        };
        let mut d = StarvationDetector::new(2, &cfg);
        // Two channels stalling in the same cycle advance the streak once.
        let stall = |cycle| SimEvent::QueueStall {
            cycle,
            node: 0,
            depth: 1,
        };
        assert!(d.observe(&stall(0)).is_none());
        assert!(d.observe(&stall(0)).is_none());
        assert_eq!(d.streaks[0], 1);
        assert!(d.observe(&stall(1)).is_some());
    }

    #[test]
    fn hotspot_crosses_watermark_via_ewma() {
        let cfg = DetectorConfig {
            hotspot_watermark: 0.5,
            hotspot_alpha: 0.5,
            hotspot_window: 4,
            ..DetectorConfig::default()
        };
        let mut d = HotspotDetector::new(shape(2), &cfg);
        let (src, dst) = (Coord::new(0, 0), Coord::new(1, 0));
        // Saturate node 0's E_sh link: one decision per cycle.
        let mut fired = Vec::new();
        for c in 0..16 {
            d.observe(&route(c, 0, c, 1, src, dst));
            fired.extend(d.end_cycle(c));
        }
        // EWMA after windows at full utilization: 0.5, 0.75 → crossed.
        assert_eq!(fired.len(), 1);
        assert!(matches!(
            fired[0],
            Anomaly::Hotspot {
                node: 0,
                out: OutPort::EastSh,
                ..
            }
        ));
        assert!(d.ewma[OutPort::EastSh.index()] > 0.9);
        assert_eq!(d.ewma[d.links_per_node + OutPort::EastSh.index()], 0.0);
    }

    #[test]
    fn hotspot_idle_stream_never_fires() {
        let mut d = HotspotDetector::new(shape(4), &DetectorConfig::default());
        let mut fired = Vec::new();
        for c in 0..1024 {
            fired.extend(d.end_cycle(c));
        }
        assert!(fired.is_empty());
    }

    #[test]
    fn hotspot_end_cycle_is_idempotent_per_cycle() {
        let cfg = DetectorConfig {
            hotspot_watermark: 0.5,
            hotspot_alpha: 1.0,
            hotspot_window: 2,
            ..DetectorConfig::default()
        };
        let mut d = HotspotDetector::new(shape(1), &cfg);
        let (src, dst) = (Coord::new(0, 0), Coord::new(1, 0));
        d.observe(&route(0, 0, 0, 1, src, dst));
        d.observe(&route(1, 0, 1, 1, src, dst));
        let first = d.end_cycle(1);
        let second = d.end_cycle(1);
        assert_eq!(first.len(), 1);
        assert!(second.is_empty(), "same-cycle re-fold must be a no-op");
    }

    #[test]
    fn hotspot_normalizes_by_channels() {
        let cfg = DetectorConfig {
            hotspot_watermark: 0.6,
            hotspot_alpha: 1.0,
            hotspot_window: 4,
            ..DetectorConfig::default()
        };
        let mut d = HotspotDetector::new(shape(1), &cfg);
        d.set_channels(2);
        let (src, dst) = (Coord::new(0, 0), Coord::new(1, 0));
        // One of two channels busy: utilization 0.5, below watermark.
        for c in 0..8 {
            d.observe(&route(c, 0, c, 1, src, dst));
            assert!(d.end_cycle(c).is_empty());
        }
        assert!((d.ewma[OutPort::EastSh.index()] - 0.5).abs() < 1e-9);
    }
}
