//! Simulation statistics: latency aggregates, log-scale histograms, link
//! usage, and per-port deflection counters — everything the paper's
//! evaluation figures consume.

use std::fmt;

use crate::port::InPort;

/// Power-of-two buckets covering the full `u64` range.
const BUCKETS: usize = 64;

/// A power-of-two-bucketed latency histogram (paper Figure 16 plots
/// packet latencies on a log axis from tens to tens of thousands of
/// cycles) — the one histogram in the workspace: run statistics, the
/// windowed metrics, the health monitor, latency attribution and the
/// metrics exposition all record into or read from this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts samples with `value` in `[2^i, 2^(i+1))`
    /// (bucket 0 holds values 0 and 1).
    buckets: [u64; BUCKETS],
    count: u64,
    /// Saturates at `u64::MAX` instead of wrapping.
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub(crate) fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub(crate) fn record(&mut self, value: u64) {
        self.buckets[63 - value.max(1).leading_zeros() as usize] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of all samples (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts, for the metrics exposition's cumulative
    /// `le` series (which lists empty buckets too).
    pub(crate) fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Exclusive upper bound of bucket `i`. The top bucket's true bound
    /// is `2^64`, which doesn't fit in a `u64`, so it saturates to
    /// `u64::MAX` (making the top bucket's range inclusive instead).
    fn bucket_high(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            1u64 << (i + 1)
        }
    }

    /// Iterates `(bucket_low, bucket_high_exclusive, count)` for non-empty
    /// buckets in increasing order (the top bucket saturates its high
    /// bound to `u64::MAX`, see `Histogram::bucket_high`).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, Self::bucket_high(i), c))
    }

    /// Approximate percentile: the inclusive upper edge of the bucket
    /// holding the sample of rank `p` (`u64::MAX` for the top bucket,
    /// whose true edge does not fit). Returns `None` for an empty
    /// histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=100.0`.
    pub(crate) fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i >= 63 { u64::MAX } else { (2u64 << i) - 1 });
            }
        }
        unreachable!("the buckets hold `count` samples")
    }

    /// Merges another histogram into this one.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (mine, &theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// Streaming aggregate of a latency population: its histogram (which
/// carries count and sum) plus the exact worst case.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    max: u64,
    histogram: Histogram,
}

impl LatencyStats {
    /// Records one latency sample.
    pub(crate) fn record(&mut self, latency: u64) {
        self.max = self.max.max(latency);
        self.histogram.record(latency);
    }

    /// Mean latency (0 for an empty population).
    pub(crate) fn mean(&self) -> f64 {
        self.histogram.mean()
    }

    /// Worst-case latency observed (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The underlying histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Merges another aggregate into this one.
    pub(crate) fn merge(&mut self, other: &LatencyStats) {
        self.max = self.max.max(other.max);
        self.histogram.merge(&other.histogram);
    }
}

/// Totals of short- and express-link traversals (paper Figure 18a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkUsage {
    /// One-hop link traversals.
    pub short_hops: u64,
    /// Express-link traversals (each covers `D` router positions).
    pub express_hops: u64,
}

impl LinkUsage {
    /// Total traversals of either kind.
    pub fn total(&self) -> u64 {
        self.short_hops + self.express_hops
    }

    /// Fraction of traversals on express links (0 when idle).
    pub fn express_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.express_hops as f64 / self.total() as f64
        }
    }
}

/// Deflection and lane-demotion counts per in-flight input port
/// (paper Figure 18b tracks them at `West_Sh` / `West_Ex` / ... inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortCounters {
    /// `deflections[p]`: packets at input `p` assigned a non-productive
    /// (DOR-regressing) output.
    pub deflections: [u64; 4],
    /// `demotions[p]`: packets at input `p` that wanted an express output
    /// but were forced onto a short one ("input deflections" in Fig 18b).
    pub demotions: [u64; 4],
}

impl PortCounters {
    /// Deflections at the given in-flight port.
    pub fn deflections_at(&self, port: InPort) -> u64 {
        debug_assert!(port != InPort::Pe);
        self.deflections[port.index()]
    }

    /// Demotions at the given in-flight port.
    pub fn demotions_at(&self, port: InPort) -> u64 {
        debug_assert!(port != InPort::Pe);
        self.demotions[port.index()]
    }

    /// All deflections across ports.
    pub fn total_deflections(&self) -> u64 {
        self.deflections.iter().sum()
    }

    /// All demotions across ports.
    pub fn total_demotions(&self) -> u64 {
        self.demotions.iter().sum()
    }
}

/// Aggregated statistics for one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimStats {
    /// Packets handed to source queues.
    pub enqueued: u64,
    /// Packets that entered the NoC.
    pub injected: u64,
    /// Packets delivered to their destination PE.
    pub delivered: u64,
    /// Latency from source-queue entry to delivery.
    pub total_latency: LatencyStats,
    /// Latency from NoC injection to delivery.
    pub network_latency: LatencyStats,
    /// Link traversal totals.
    pub link_usage: LinkUsage,
    /// Per-port deflection counters.
    pub ports: PortCounters,
    /// Cycles in which a PE wanted to inject but stalled.
    pub injection_stalls: u64,
    /// Packets discarded by injected faults (dead routers, transient
    /// link drops, corruption). Zero on a fault-free fabric. Packet
    /// conservation holds as `delivered + in_flight + dropped ==
    /// injected` at every cycle.
    pub dropped: u64,
    /// Routing decisions that steered a packet away from a dead express
    /// link onto the plain ring (graceful degradation, not a loss).
    pub rerouted: u64,
    /// Lane-locked express packets demoted onto the shared ring by a
    /// fallback chain instead of being dropped at a dead router (a
    /// subset of `rerouted`; zero without fallback chains).
    pub fallback_demotions: u64,
    /// Allocation losers handed to a parallel channel by a fallback
    /// chain instead of being dropped (a subset of `rerouted`; zero
    /// without fallback chains or on a single channel).
    pub fallback_channel_switches: u64,
    /// Output-port decisions made for packets (in-flight allocations plus
    /// accepted injections) — the LUT/direct route-resolution workload.
    pub route_decisions: u64,
    /// Packet-pool insertions that reused a previously freed slot instead
    /// of growing the pool (allocator recycling efficiency).
    pub pool_reuse: u64,
    /// Routers whose step body ran, summed over cycles. Every engine
    /// visits only routers that hold a packet (an occupied input or
    /// arrival register on the torus and the SHG, a non-empty link FIFO
    /// on the mesh) or have a waiting PE, so at low load this is far
    /// below `cycles x nodes`.
    pub router_visits: u64,
}

impl SimStats {
    /// Merges another run's statistics into this one (used to combine the
    /// per-channel statistics of a multi-channel NoC).
    pub(crate) fn merge(&mut self, other: &SimStats) {
        self.enqueued += other.enqueued;
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.total_latency.merge(&other.total_latency);
        self.network_latency.merge(&other.network_latency);
        self.link_usage.short_hops += other.link_usage.short_hops;
        self.link_usage.express_hops += other.link_usage.express_hops;
        for i in 0..4 {
            self.ports.deflections[i] += other.ports.deflections[i];
            self.ports.demotions[i] += other.ports.demotions[i];
        }
        self.injection_stalls += other.injection_stalls;
        self.dropped += other.dropped;
        self.rerouted += other.rerouted;
        self.fallback_demotions += other.fallback_demotions;
        self.fallback_channel_switches += other.fallback_channel_switches;
        self.route_decisions += other.route_decisions;
        self.pool_reuse += other.pool_reuse;
        self.router_visits += other.router_visits;
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delivered {} / injected {} (avg latency {:.1}, worst {}, {} deflections, {} short + {} express hops)",
            self.delivered,
            self.injected,
            self.total_latency.mean(),
            self.total_latency.max(),
            self.ports.total_deflections(),
            self.link_usage.short_hops,
            self.link_usage.express_hops,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        h.record(1000);
        assert_eq!(h.count(), 6);
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets[0], (1, 2, 2)); // 0 and 1
        assert_eq!(buckets[1], (2, 4, 2)); // 2 and 3
        assert_eq!(buckets[2], (4, 8, 1));
        assert_eq!(buckets[3], (512, 1024, 1));
    }

    #[test]
    fn histogram_percentile() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        for v in [1, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Some(1));
        assert_eq!(h.percentile(99.0), Some(1023));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn histogram_percentile_validates() {
        Histogram::new().percentile(150.0);
    }

    #[test]
    fn histogram_extreme_values() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        let buckets: Vec<_> = h.iter().collect();
        // 0 and 1 share bucket 0; u64::MAX lands in the saturated top
        // bucket [2^63, u64::MAX] without overflowing the bound math.
        assert_eq!(buckets[0], (1, 2, 2));
        assert_eq!(buckets[1], (1u64 << 63, u64::MAX, 1));
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
        assert_eq!(h.percentile(50.0), Some(1));
        assert_eq!(h.sum(), u64::MAX, "the sum saturates");
    }

    #[test]
    fn histogram_power_of_two_boundaries() {
        // 2^k is the *low* edge of bucket k; 2^k - 1 is the top of
        // bucket k-1.
        for k in [1u32, 2, 8, 31, 32, 62] {
            let lo = 1u64 << k;
            let mut h = Histogram::new();
            h.record(lo - 1);
            h.record(lo);
            let buckets: Vec<_> = h.iter().collect();
            assert_eq!(buckets.len(), 2, "2^{k}-1 and 2^{k} must split buckets");
            assert_eq!(buckets[0], (1 << (k - 1), lo, 1));
            assert_eq!(buckets[1], (lo, 1 << (k + 1), 1));
        }
        // The top boundary: 2^63 - 1 tops bucket 62; 2^63 opens the
        // saturated bucket 63.
        let mut h = Histogram::new();
        h.record((1u64 << 63) - 1);
        h.record(1u64 << 63);
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets[0], (1u64 << 62, 1u64 << 63, 1));
        assert_eq!(buckets[1], (1u64 << 63, u64::MAX, 1));
        assert_eq!(h.percentile(50.0), Some((1u64 << 63) - 1));
    }

    #[test]
    fn histogram_merge_with_top_bucket() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.percentile(100.0), Some(u64::MAX));
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(3);
        let mut b = Histogram::new();
        b.record(100);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 105);
        assert_eq!(a.mean(), 35.0);
        assert_eq!(a.iter().count(), 2);
        let mut direct = Histogram::new();
        for v in [3, 100, 2] {
            direct.record(v);
        }
        assert_eq!(a, direct, "merging equals recording into one");
    }

    #[test]
    fn latency_stats_aggregates() {
        let mut s = LatencyStats::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0);
        for v in [10, 20, 30] {
            s.record(v);
        }
        assert_eq!(s.histogram.count(), 3);
        assert!((s.mean() - 20.0).abs() < 1e-9);
        assert_eq!(s.max(), 30);
    }

    #[test]
    fn latency_stats_default_is_the_empty_aggregate() {
        let mut s = LatencyStats::default();
        assert_eq!((s.histogram.count(), s.max(), s.mean()), (0, 0, 0.0));
        s.record(5);
        assert_eq!(s.max(), 5);
        let mut stats = SimStats::default();
        stats.network_latency.record(7);
        assert_eq!(stats.network_latency.max(), 7);
    }

    #[test]
    fn latency_stats_merge() {
        let mut a = LatencyStats::default();
        a.record(5);
        let mut b = LatencyStats::default();
        b.record(15);
        a.merge(&b);
        assert_eq!(a.histogram.count(), 2);
        assert_eq!(a.max(), 15);
    }

    #[test]
    fn link_usage_fractions() {
        let u = LinkUsage {
            short_hops: 75,
            express_hops: 25,
        };
        assert_eq!(u.total(), 100);
        assert!((u.express_fraction() - 0.25).abs() < 1e-9);
        assert_eq!(LinkUsage::default().express_fraction(), 0.0);
    }

    #[test]
    fn port_counters_indexing() {
        let mut c = PortCounters::default();
        c.deflections[InPort::WestSh.index()] = 7;
        c.demotions[InPort::WestEx.index()] = 3;
        assert_eq!(c.deflections_at(InPort::WestSh), 7);
        assert_eq!(c.demotions_at(InPort::WestEx), 3);
        assert_eq!(c.total_deflections(), 7);
        assert_eq!(c.total_demotions(), 3);
    }

    #[test]
    fn sim_stats_display_is_nonempty() {
        let s = SimStats::default();
        assert!(!s.to_string().is_empty());
    }
}
