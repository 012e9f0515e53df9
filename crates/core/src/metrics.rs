//! Windowed (per-epoch) metrics over the event stream, plus an
//! automatic steady-state detector.
//!
//! [`WindowedMetrics`] is an [`EventSink`] that folds the engine's event
//! stream into fixed-length epochs: rolling throughput, latency
//! mean/p50/p99, deflection rate and stall counts. Because it consumes
//! the same events any exporter sees, it needs no engine support beyond
//! `crate::noc::Noc::step_with_sink`.
//!
//! The steady-state detector ([`WindowedMetrics::steady_state_epoch`])
//! replaces hand-picked [`crate::sim::SimOptions::warmup_cycles`] for
//! open-loop runs: it finds the first epoch from which the delivered
//! rate stays inside a tolerance band around the run's tail rate, and
//! [`WindowedMetrics::suggested_warmup`] converts that epoch back into
//! a warmup cycle count.

use crate::stats::Histogram;
use crate::trace::{EventSink, SimEvent};

/// Accumulated observations for one fixed-length window of cycles.
#[derive(Debug, Clone, Default)]
pub struct EpochStats {
    /// First cycle of the epoch.
    pub start_cycle: u64,
    /// Cycles covered (the configured epoch length; the trailing partial
    /// epoch reports fewer).
    pub cycles: u64,
    /// Packets injected into the NoC during the epoch.
    pub injected: u64,
    /// Packets delivered during the epoch.
    pub delivered: u64,
    /// Routing decisions made for in-flight packets.
    pub decisions: u64,
    /// Deflections among those decisions.
    pub deflections: u64,
    /// Express-link traversals.
    pub express_hops: u64,
    /// Cycles in which some PE wanted to inject but stalled.
    pub stalls: u64,
    /// End-to-end latency histogram of this epoch's deliveries.
    latency: Histogram,
}

impl EpochStats {
    /// Delivered packets per cycle per PE over this epoch.
    pub(crate) fn throughput_per_pe(&self, nodes: usize) -> f64 {
        if self.cycles == 0 || nodes == 0 {
            0.0
        } else {
            self.delivered as f64 / self.cycles as f64 / nodes as f64
        }
    }

    /// Mean end-to-end latency of this epoch's deliveries.
    pub(crate) fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Median end-to-end latency (histogram-bucket upper bound).
    pub(crate) fn p50_latency(&self) -> u64 {
        self.latency.percentile(50.0).unwrap_or(0)
    }

    /// 99th-percentile end-to-end latency (histogram-bucket upper bound).
    pub(crate) fn p99_latency(&self) -> u64 {
        self.latency.percentile(99.0).unwrap_or(0)
    }

    /// Fraction of routing decisions that deflected.
    pub(crate) fn deflection_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.deflections as f64 / self.decisions as f64
        }
    }
}

/// An [`EventSink`] that aggregates events into fixed-length epochs.
#[derive(Debug, Clone)]
pub struct WindowedMetrics {
    epoch_len: u64,
    nodes: usize,
    completed: Vec<EpochStats>,
    cur: EpochStats,
    /// Epoch index of `cur`.
    cur_index: u64,
    /// One past the last cycle any event or cycle marker reached.
    horizon: u64,
    /// Cycle of the driver's warmup reset, if one was emitted.
    warmup_reset_at: Option<u64>,
    /// True if the driver reported a truncated run.
    truncated: bool,
}

impl WindowedMetrics {
    /// Metrics over `epoch_len`-cycle windows for a `nodes`-PE system.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is 0.
    pub fn new(nodes: usize, epoch_len: u64) -> Self {
        assert!(epoch_len > 0, "epoch length must be positive");
        WindowedMetrics {
            epoch_len,
            nodes,
            completed: Vec::new(),
            cur: EpochStats::default(),
            cur_index: 0,
            horizon: 0,
            warmup_reset_at: None,
            truncated: false,
        }
    }

    /// Flushes the trailing partial epoch (if it saw any cycles) and
    /// returns all epochs.
    pub fn finish(mut self) -> Vec<EpochStats> {
        let partial_cycles = self.horizon.saturating_sub(self.cur_index * self.epoch_len);
        if partial_cycles > 0 {
            self.cur.start_cycle = self.cur_index * self.epoch_len;
            self.cur.cycles = partial_cycles;
            self.completed.push(self.cur);
        }
        self.completed
    }

    /// Rolls completed epochs forward so `cycle` lands in `cur`.
    fn advance_to(&mut self, cycle: u64) {
        self.horizon = self.horizon.max(cycle + 1);
        while cycle >= (self.cur_index + 1) * self.epoch_len {
            let mut done = std::mem::take(&mut self.cur);
            done.start_cycle = self.cur_index * self.epoch_len;
            done.cycles = self.epoch_len;
            self.completed.push(done);
            self.cur_index += 1;
        }
    }

    /// Delivered-rate (per cycle per PE) of each completed epoch.
    pub(crate) fn epoch_rates(&self) -> Vec<f64> {
        self.completed
            .iter()
            .map(|e| e.throughput_per_pe(self.nodes))
            .collect()
    }

    /// Detects the epoch at which the delivered rate settles: the start
    /// of the longest contiguous run of epochs whose rate stays within
    /// `tolerance` (relative) of the median epoch rate. The median makes
    /// the detector robust against both the warmup ramp and the drain
    /// tail of a finite-packet run — neither pulls the reference rate
    /// the way a mean would. Returns `None` when the run is too short
    /// (< 4 epochs), idle, or never holds the band for more than a
    /// single epoch.
    pub(crate) fn steady_state_epoch_with_tolerance(&self, tolerance: f64) -> Option<usize> {
        // A run shorter than one window completes no epochs; keep that
        // guard explicit so short runs can never reach the plateau
        // search below and report a bogus epoch 0.
        if self.horizon < self.epoch_len {
            return None;
        }
        let rates = self.epoch_rates();
        if rates.len() < 4 {
            return None;
        }
        let mut sorted = rates.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        let mid = sorted.len() / 2;
        let median = if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        } else {
            sorted[mid]
        };
        if median <= 0.0 {
            return None;
        }
        let within = |r: f64| (r - median).abs() <= tolerance * median;
        // The steady region is the longest contiguous in-band run
        // (earliest on ties); a single in-band epoch is not a plateau.
        let mut best: Option<(usize, usize)> = None;
        let mut i = 0;
        while i < rates.len() {
            if within(rates[i]) {
                let start = i;
                while i < rates.len() && within(rates[i]) {
                    i += 1;
                }
                if best.is_none_or(|(_, len)| i - start > len) {
                    best = Some((start, i - start));
                }
            } else {
                i += 1;
            }
        }
        best.and_then(|(start, len)| (len >= 2).then_some(start))
    }

    /// `WindowedMetrics::steady_state_epoch_with_tolerance` at the
    /// default 10% band.
    pub fn steady_state_epoch(&self) -> Option<usize> {
        self.steady_state_epoch_with_tolerance(0.10)
    }

    /// The warmup cycle count the steady-state detector suggests — the
    /// start cycle of the detected steady epoch. A drop-in replacement
    /// for hand-picking [`crate::sim::SimOptions::warmup_cycles`].
    pub fn suggested_warmup(&self) -> Option<u64> {
        self.steady_state_epoch()
            .map(|e| self.completed[e].start_cycle)
    }
}

impl EventSink for WindowedMetrics {
    fn emit(&mut self, event: &SimEvent) {
        self.advance_to(event.cycle());
        match *event {
            SimEvent::Inject { .. } => self.cur.injected += 1,
            SimEvent::RouteDecision { .. } => self.cur.decisions += 1,
            SimEvent::Deflect { .. } => self.cur.deflections += 1,
            SimEvent::ExpressHop { .. } => self.cur.express_hops += 1,
            SimEvent::Eject { delivery, .. } => {
                self.cur.delivered += 1;
                self.cur.latency.record(delivery.total_latency());
            }
            SimEvent::QueueStall { .. } => self.cur.stalls += 1,
            // Fault events feed the health monitor's dedicated counters;
            // windowed epochs track only the throughput-side signals.
            SimEvent::FaultDrop { .. } | SimEvent::FaultReroute { .. } => {}
            SimEvent::WarmupReset { cycle } => self.warmup_reset_at = Some(cycle),
            SimEvent::Truncated { .. } => self.truncated = true,
        }
    }

    fn end_cycle(&mut self, cycle: u64) {
        // Idempotent per cycle: multi-channel banks call this once per
        // channel with the same cycle number.
        self.advance_to(cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Aggregate delivered rate (per cycle per PE) from `epoch` onward:
    /// the measurement that treats everything before `epoch` as warmup.
    fn rate_after(m: &WindowedMetrics, epoch: usize) -> f64 {
        let tail = &m.completed[epoch.min(m.completed.len())..];
        let cycles: u64 = tail.iter().map(|e| e.cycles).sum();
        let delivered: u64 = tail.iter().map(|e| e.delivered).sum();
        if cycles == 0 || m.nodes == 0 {
            0.0
        } else {
            delivered as f64 / cycles as f64 / m.nodes as f64
        }
    }
    use crate::geom::Coord;
    use crate::packet::{Delivery, Packet, PacketId};

    /// An eject at `cycle` whose delivery reports exactly `latency`
    /// (enqueued at 0, consumed at `latency` — only the event cycle
    /// drives epoch attribution).
    fn eject_at(cycle: u64, latency: u64) -> SimEvent {
        let packet = Packet::new(PacketId(0), Coord::new(0, 0), Coord::new(1, 0), 0, 0);
        SimEvent::Eject {
            cycle,
            node: 1,
            delivery: Delivery {
                packet,
                cycle: latency,
            },
        }
    }

    #[test]
    fn epochs_roll_at_boundaries() {
        let mut m = WindowedMetrics::new(4, 10);
        m.emit(&eject_at(3, 2));
        m.emit(&eject_at(9, 2));
        m.emit(&eject_at(10, 2)); // rolls epoch 0
        for c in 10..25 {
            m.end_cycle(c);
        }
        assert_eq!(m.completed.len(), 2);
        assert_eq!(m.completed[0].delivered, 2);
        assert_eq!(m.completed[0].start_cycle, 0);
        assert_eq!(m.completed[0].cycles, 10);
        assert_eq!(m.completed[1].delivered, 1);
        let all = m.finish();
        assert_eq!(all.len(), 3); // trailing partial epoch flushed
        assert_eq!(all[2].cycles, 5);
    }

    #[test]
    fn run_shorter_than_one_window_reports_no_steady_state() {
        // Regression: a run that ends inside the first window must not
        // panic anywhere and must never suggest a warmup — there is no
        // completed epoch to anchor one.
        let mut m = WindowedMetrics::new(4, 100);
        for c in 0..7 {
            m.emit(&eject_at(c, 1));
            m.end_cycle(c);
        }
        assert!(m.completed.is_empty());
        assert_eq!(m.steady_state_epoch(), None);
        assert_eq!(m.suggested_warmup(), None);
        assert_eq!(rate_after(&m, 0), 0.0);
        assert_eq!(rate_after(&m, 10), 0.0, "out-of-range epoch clamps");
        // Flushing the trailing partial epoch yields its true length and
        // still no steady state on a fresh short run.
        let epochs = m.finish();
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].cycles, 7);
        assert_eq!(epochs[0].delivered, 7);
    }

    #[test]
    fn empty_run_is_harmless() {
        let m = WindowedMetrics::new(4, 10);
        assert_eq!(m.steady_state_epoch(), None);
        assert_eq!(m.suggested_warmup(), None);
        assert_eq!(rate_after(&m, 0), 0.0);
        assert!(m.finish().is_empty());
    }

    #[test]
    fn quiet_epochs_are_still_emitted() {
        let mut m = WindowedMetrics::new(4, 5);
        for c in 0..20 {
            m.end_cycle(c);
        }
        assert_eq!(m.completed.len(), 3);
        assert!(m.completed.iter().all(|e| e.delivered == 0));
    }

    #[test]
    fn end_cycle_is_idempotent_per_cycle() {
        let mut m = WindowedMetrics::new(4, 5);
        for c in 0..10 {
            for _channel in 0..3 {
                m.end_cycle(c);
            }
        }
        assert_eq!(m.completed.len(), 1);
        assert_eq!(m.finish().len(), 2);
    }

    #[test]
    fn latency_and_deflection_rates() {
        let mut m = WindowedMetrics::new(2, 100);
        for _ in 0..3 {
            m.emit(&SimEvent::RouteDecision {
                cycle: 1,
                node: 0,
                packet: PacketId(0),
                in_port: None,
                out: crate::port::OutPort::EastSh,
                src: Coord::new(0, 0),
                dst: Coord::new(1, 0),
                hops: 1,
            });
        }
        m.emit(&SimEvent::Deflect {
            cycle: 1,
            node: 0,
            packet: PacketId(0),
            out: crate::port::OutPort::SouthSh,
        });
        m.emit(&eject_at(2, 10));
        m.emit(&eject_at(3, 20));
        let epochs = m.finish();
        assert_eq!(epochs.len(), 1);
        let e = &epochs[0];
        assert!((e.mean_latency() - 15.0).abs() < 1e-9);
        assert!(e.p50_latency() >= 10);
        assert!(e.p99_latency() >= e.p50_latency());
        assert!((e.deflection_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn steady_state_detects_ramp() {
        let mut m = WindowedMetrics::new(1, 10);
        // Epoch rates: 0, 0.1, then steady 0.5 for 10 epochs.
        let mut cycle = 0;
        for (epoch, &per_epoch) in [0u64, 1, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5].iter().enumerate() {
            for i in 0..per_epoch {
                m.emit(&eject_at(epoch as u64 * 10 + i, 1));
            }
            cycle = (epoch as u64 + 1) * 10;
            m.end_cycle(cycle - 1);
        }
        let _ = cycle;
        let steady = m.steady_state_epoch().expect("ramp should settle");
        assert_eq!(steady, 2);
        assert_eq!(m.suggested_warmup(), Some(20));
        // Measuring after the detected epoch recovers the plateau rate.
        assert!((rate_after(&m, steady) - 0.5).abs() < 1e-9);
        // Measuring from the start underestimates it.
        assert!(rate_after(&m, 0) < 0.45);
    }

    #[test]
    fn steady_state_needs_enough_epochs() {
        let mut m = WindowedMetrics::new(1, 10);
        m.emit(&eject_at(0, 1));
        m.end_cycle(19);
        assert_eq!(m.steady_state_epoch(), None);
    }

    #[test]
    fn driver_markers_recorded() {
        let mut m = WindowedMetrics::new(4, 10);
        m.emit(&SimEvent::WarmupReset { cycle: 30 });
        m.emit(&SimEvent::Truncated { cycle: 90 });
        assert_eq!(m.warmup_reset_at, Some(30));
        assert!(m.truncated);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_epoch_rejected() {
        WindowedMetrics::new(4, 0);
    }
}
