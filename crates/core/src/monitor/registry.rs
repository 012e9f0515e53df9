//! Dependency-free metrics registry: atomic [`Counter`], [`Gauge`], and
//! log-bucketed [`LogHistogram`] cells behind a shared, cloneable
//! [`MetricsRegistry`].
//!
//! Every cell is an `Arc` around atomics, so a handle can be cloned to
//! another thread and read (or incremented) there without locks; the
//! registry itself only takes a mutex to register a new name or to
//! serialize. The sinks in this crate do not count per event in these
//! cells: they count in plain integers ([`LocalHistogram`] for
//! buckets) and store the totals here when a cycle or the run ends.
//! Exposition is deterministic: both the Prometheus text format and the
//! JSON snapshot list metrics sorted by name.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::stats::{bucket_index, percentile_edge};

/// A monotonically increasing atomic counter.
///
/// Cloning shares the underlying cell — all clones observe the same
/// value, which is what lets sweep workers aggregate into one counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Overwrites the value: how a sink that counts in a plain `u64` of
    /// its own publishes the total.
    pub(crate) fn set(&self, n: u64) {
        self.cell.store(n, Ordering::Relaxed);
    }
}

/// A settable floating-point gauge (stored as `f64` bits in an atomic).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge at `0.0`.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Replaces the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two buckets in a [`LogHistogram`] — enough for
/// the full `u64` range.
pub const HIST_BUCKETS: usize = 64;

#[derive(Debug)]
struct HistogramInner {
    /// `buckets[i]` counts values in `[2^i, 2^(i+1))`; bucket 0 also
    /// holds zero, mirroring [`crate::stats::Histogram`].
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// The single-owner form of a [`LogHistogram`]: the same buckets in
/// plain integers, for a sink that records on its own memory per event
/// and publishes with [`LogHistogram::publish`] when a reader can look.
#[derive(Debug, Clone)]
pub(crate) struct LocalHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    /// Bit `i` is set when `buckets[i]` changed since the last publish.
    dirty: u64,
}

impl LocalHistogram {
    pub(crate) fn new() -> Self {
        LocalHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            dirty: 0,
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, value: u64) {
        let i = bucket_index(value);
        self.buckets[i] += 1;
        self.dirty |= 1 << i;
        self.count += 1;
        self.sum += value;
    }
}

/// A thread-safe log-bucketed histogram with power-of-two buckets.
///
/// Same bucketing as the single-threaded [`crate::stats::Histogram`],
/// but every cell is atomic so concurrent recorders (sweep workers,
/// multi-channel banks) can share one instance.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    inner: Arc<HistogramInner>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            inner: Arc::new(HistogramInner {
                buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

impl LogHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Mean of all observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// A consistent-enough snapshot of the bucket counts.
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.inner.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Upper-bound estimate of percentile `p` (in `[0,100]`): the
    /// inclusive upper edge of the bucket containing the p-th
    /// observation, matching [`crate::stats::Histogram::percentile`]
    /// (0 when empty).
    pub fn percentile(&self, p: f64) -> u64 {
        percentile_edge(&self.bucket_counts(), p).unwrap_or(0)
    }

    /// Brings this cell up to `local`, which must be the only writer:
    /// stores the buckets recorded into since the last publish, then
    /// count and sum.
    pub(crate) fn publish(&self, local: &mut LocalHistogram) {
        while local.dirty != 0 {
            let i = local.dirty.trailing_zeros() as usize;
            local.dirty &= local.dirty - 1;
            self.inner.buckets[i].store(local.buckets[i], Ordering::Relaxed);
        }
        self.inner.count.store(local.count, Ordering::Relaxed);
        self.inner.sum.store(local.sum, Ordering::Relaxed);
    }

    /// Adds every observation recorded in `other` to this histogram,
    /// preserving exact bucket counts and the exact sum. Lets a
    /// privately accumulated histogram (e.g. a latency-attribution
    /// component) be published into a registry-owned cell after a run.
    pub fn merge_from(&self, other: &LogHistogram) {
        for (mine, theirs) in self.inner.buckets.iter().zip(other.inner.buckets.iter()) {
            let c = theirs.load(Ordering::Relaxed);
            if c > 0 {
                mine.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.inner
            .count
            .fetch_add(other.inner.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.inner
            .sum
            .fetch_add(other.inner.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

#[derive(Debug, Clone)]
enum MetricKind {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(LogHistogram),
}

impl MetricKind {
    fn type_name(&self) -> &'static str {
        match self {
            MetricKind::Counter(_) => "counter",
            MetricKind::Gauge(_) => "gauge",
            MetricKind::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    help: String,
    kind: MetricKind,
}

/// A named collection of metric cells with deterministic exposition.
///
/// Cloning the registry shares the underlying table, so a registry
/// handed to sweep workers aggregates across all of them. Registration
/// is get-or-create: asking twice for the same name returns handles to
/// the same cell.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: Arc<Mutex<Vec<Metric>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn get_or_insert(&self, name: &str, help: &str, make: impl FnOnce() -> MetricKind) -> Metric {
        let mut metrics = self.metrics.lock().unwrap();
        if let Some(m) = metrics.iter().find(|m| m.name == name) {
            return m.clone();
        }
        let metric = Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: make(),
        };
        metrics.push(metric.clone());
        metric
    }

    /// Returns (registering on first use) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self
            .get_or_insert(name, help, || MetricKind::Counter(Counter::new()))
            .kind
        {
            MetricKind::Counter(c) => c,
            other => panic!(
                "metric {name:?} already registered as {}",
                other.type_name()
            ),
        }
    }

    /// Returns (registering on first use) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self
            .get_or_insert(name, help, || MetricKind::Gauge(Gauge::new()))
            .kind
        {
            MetricKind::Gauge(g) => g,
            other => panic!(
                "metric {name:?} already registered as {}",
                other.type_name()
            ),
        }
    }

    /// Returns (registering on first use) the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn histogram(&self, name: &str, help: &str) -> LogHistogram {
        match self
            .get_or_insert(name, help, || MetricKind::Histogram(LogHistogram::new()))
            .kind
        {
            MetricKind::Histogram(h) => h,
            other => panic!(
                "metric {name:?} already registered as {}",
                other.type_name()
            ),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().unwrap().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn sorted(&self) -> Vec<Metric> {
        let mut metrics = self.metrics.lock().unwrap().clone();
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        metrics
    }

    /// Renders the registry in the Prometheus text exposition format,
    /// metrics sorted by name. Histograms emit cumulative `_bucket`
    /// series with power-of-two `le` bounds up to the highest non-empty
    /// bucket, then `+Inf`, `_sum`, `_count`, and (when non-empty)
    /// summary-style p50/p95/p99 `quantile` samples.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for m in self.sorted() {
            let _ = writeln!(out, "# HELP {} {}", m.name, escape_help(&m.help));
            let _ = writeln!(out, "# TYPE {} {}", m.name, m.kind.type_name());
            match &m.kind {
                MetricKind::Counter(c) => {
                    let _ = writeln!(out, "{} {}", m.name, c.get());
                }
                MetricKind::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", m.name, g.get());
                }
                MetricKind::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let last = counts.iter().rposition(|&c| c > 0);
                    let mut cum = 0u64;
                    if let Some(last) = last {
                        for (i, &c) in counts.iter().enumerate().take(last + 1) {
                            cum += c;
                            // Exclusive bucket edge 2^(i+1) becomes the
                            // inclusive `le` bound 2^(i+1)-1.
                            let le = (1u128 << (i + 1)) - 1;
                            let _ = writeln!(out, "{}_bucket{{le=\"{}\"}} {}", m.name, le, cum);
                        }
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", m.name, h.count());
                    let _ = writeln!(out, "{}_sum {}", m.name, h.sum());
                    let _ = writeln!(out, "{}_count {}", m.name, h.count());
                    // Summary-style quantile samples so percentiles are
                    // scrapeable without the JSON path. Omitted while
                    // empty, matching how summaries expose no data.
                    if h.count() > 0 {
                        for q in [50.0, 95.0, 99.0] {
                            let _ = writeln!(
                                out,
                                "{}{{quantile=\"{}\"}} {}",
                                m.name,
                                q / 100.0,
                                h.percentile(q)
                            );
                        }
                    }
                }
            }
        }
        out
    }

    /// Renders the registry as one deterministic JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`, each map
    /// sorted by name.
    pub fn snapshot_json(&self) -> String {
        use std::fmt::Write as _;
        let metrics = self.sorted();
        let mut out = String::from("{");
        let mut first_section = true;
        for (section, want) in [("counters", 0usize), ("gauges", 1), ("histograms", 2)] {
            if !first_section {
                out.push(',');
            }
            first_section = false;
            let _ = write!(out, "\"{section}\":{{");
            let mut first = true;
            for m in &metrics {
                let idx = match &m.kind {
                    MetricKind::Counter(_) => 0,
                    MetricKind::Gauge(_) => 1,
                    MetricKind::Histogram(_) => 2,
                };
                if idx != want {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                match &m.kind {
                    MetricKind::Counter(c) => {
                        let _ = write!(out, "\"{}\":{}", m.name, c.get());
                    }
                    MetricKind::Gauge(g) => {
                        let _ = write!(out, "\"{}\":{}", m.name, g.get());
                    }
                    MetricKind::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let _ = write!(
                            out,
                            "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                            m.name,
                            h.count(),
                            h.sum()
                        );
                        let mut first_b = true;
                        for (i, &c) in counts.iter().enumerate() {
                            if c == 0 {
                                continue;
                            }
                            if !first_b {
                                out.push(',');
                            }
                            first_b = false;
                            let le = (1u128 << (i + 1)) - 1;
                            let _ = write!(out, "[{le},{c}]");
                        }
                        out.push_str("]}");
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Escapes a metric HELP string per the Prometheus text exposition
/// format: backslash and newline must be escaped (`\\` and `\n`).
pub fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double-quote, and newline must be escaped.
pub fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_share_cells_across_clones() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("injected_total", "Packets injected");
        let c2 = reg.counter("injected_total", "dup request");
        c.add(3);
        c2.inc();
        assert_eq!(c.get(), 4);
        let g = reg.gauge("in_flight", "Packets in flight");
        g.set(2.5);
        assert_eq!(reg.gauge("in_flight", "").get(), 2.5);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn histogram_buckets_match_stats_histogram() {
        let h = LogHistogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2); // 0 and 1
        assert_eq!(counts[1], 2); // 2 and 3
        assert_eq!(counts[2], 1); // 4
        assert_eq!(counts[9], 1); // 1000 in [512, 1024)
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        assert_eq!(h.percentile(100.0), 1023);

        // Same shape as the single-threaded histogram.
        let mut reference = crate::stats::Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            reference.record(v);
        }
        assert_eq!(h.percentile(50.0), reference.percentile(50.0).unwrap());
        assert_eq!(h.percentile(99.0), reference.percentile(99.0).unwrap());
    }

    #[test]
    fn concurrent_increments_all_land() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("work_total", "work");
        let h = reg.histogram("lat", "latency");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (c, h) = (c.clone(), h.clone());
                scope.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
    }

    #[test]
    fn prometheus_text_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("zz_total", "Last by name").add(7);
        reg.gauge("aa_ratio", "First by name").set(0.5);
        let h = reg.histogram("mm_latency", "Middle");
        h.record(3);
        let text = reg.to_prometheus();
        let aa = text.find("aa_ratio").unwrap();
        let mm = text.find("mm_latency").unwrap();
        let zz = text.find("zz_total").unwrap();
        assert!(aa < mm && mm < zz, "metrics must be name-sorted");
        assert!(text.contains("# TYPE zz_total counter"));
        assert!(text.contains("zz_total 7"));
        assert!(text.contains("aa_ratio 0.5"));
        assert!(text.contains("mm_latency_bucket{le=\"3\"} 1"));
        assert!(text.contains("mm_latency_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("mm_latency_sum 3"));
        assert_eq!(reg.to_prometheus(), text, "exposition must be stable");
    }

    #[test]
    fn json_snapshot_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("c", "").add(2);
        reg.gauge("g", "").set(1.25);
        reg.histogram("h", "").record(5);
        let json = reg.snapshot_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"counters\":{\"c\":2}"));
        assert!(json.contains("\"gauges\":{\"g\":1.25}"));
        assert!(json.contains("\"h\":{\"count\":1,\"sum\":5,\"buckets\":[[7,1]]}"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", "");
        reg.gauge("x", "");
    }

    #[test]
    fn help_text_is_escaped_in_exposition() {
        let reg = MetricsRegistry::new();
        reg.counter("evil_total", "line one\nline two \\ backslash")
            .inc();
        let text = reg.to_prometheus();
        assert!(text.contains("# HELP evil_total line one\\nline two \\\\ backslash"));
        // The raw newline must not split the HELP line: every line of
        // the exposition is a comment or a sample.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.starts_with("evil_total"),
                "unexpected exposition line {line:?}"
            );
        }
    }

    #[test]
    fn label_value_escaping() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(escape_help("a\"b"), "a\"b", "quotes are legal in HELP");
    }

    #[test]
    fn exposition_ends_with_single_trailing_newline() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", "help").inc();
        reg.histogram("h_cycles", "help").record(3);
        let text = reg.to_prometheus();
        assert!(text.ends_with('\n'));
        assert!(!text.ends_with("\n\n"));
    }

    #[test]
    fn help_precedes_type_precedes_samples_for_each_metric() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", "a").inc();
        reg.gauge("b_ratio", "b").set(0.5);
        reg.histogram("c_latency", "c").record(9);
        let text = reg.to_prometheus();
        for name in ["a_total", "b_ratio", "c_latency"] {
            let help = text.find(&format!("# HELP {name} ")).unwrap();
            let ty = text.find(&format!("# TYPE {name} ")).unwrap();
            let sample = text
                .lines()
                .position(|l| l.starts_with(name))
                .map(|i| text.lines().take(i).map(|l| l.len() + 1).sum::<usize>())
                .unwrap();
            assert!(help < ty, "{name}: HELP must precede TYPE");
            assert!(ty < sample, "{name}: TYPE must precede samples");
        }
    }

    #[test]
    fn metric_ordering_is_stable_across_registration_order() {
        let a = MetricsRegistry::new();
        a.counter("zz_total", "z").add(1);
        a.gauge("aa_ratio", "a").set(1.0);
        a.histogram("mm_latency", "m").record(2);
        let b = MetricsRegistry::new();
        b.histogram("mm_latency", "m").record(2);
        b.gauge("aa_ratio", "a").set(1.0);
        b.counter("zz_total", "z").add(1);
        assert_eq!(
            a.to_prometheus(),
            b.to_prometheus(),
            "exposition must not depend on registration order"
        );
    }

    #[test]
    fn histogram_quantile_samples_follow_count_in_ascending_order() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q_latency", "q");
        for v in [1, 2, 4, 8, 100] {
            h.record(v);
        }
        let text = reg.to_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let count_at = lines
            .iter()
            .position(|l| l.starts_with("q_latency_count "))
            .expect("_count sample present");
        // The three quantile samples come right after _count, in
        // ascending quantile order, each starting with the metric name.
        for (off, q) in [(1, "0.5"), (2, "0.95"), (3, "0.99")] {
            let line = lines[count_at + off];
            assert!(
                line.starts_with(&format!("q_latency{{quantile=\"{q}\"}} ")),
                "expected quantile {q} at offset {off}, got {line:?}"
            );
        }
        // Values are the histogram's own percentile estimates.
        assert!(text.contains(&format!(
            "q_latency{{quantile=\"0.99\"}} {}\n",
            h.percentile(99.0)
        )));
        // Quantile estimates never decrease with the quantile.
        assert!(h.percentile(50.0) <= h.percentile(95.0));
        assert!(h.percentile(95.0) <= h.percentile(99.0));
    }

    #[test]
    fn empty_histogram_emits_no_quantile_samples() {
        let reg = MetricsRegistry::new();
        reg.histogram("e_latency", "e");
        let text = reg.to_prometheus();
        assert!(text.contains("e_latency_count 0"));
        assert!(
            !text.contains("quantile="),
            "empty histogram must not expose quantiles: {text}"
        );
    }

    #[test]
    fn quantile_label_values_never_need_escaping() {
        // The quantile label value is always a bare decimal; the
        // escaper must pass it through untouched so the samples stay
        // byte-stable for scrapers.
        for q in ["0.5", "0.95", "0.99"] {
            assert_eq!(escape_label_value(q), q);
        }
    }

    #[test]
    fn merge_from_preserves_buckets_count_and_sum() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        for v in [0, 1, 7, 1000] {
            a.record(v);
        }
        for v in [3, 900_000] {
            b.record(v);
        }
        let merged = LogHistogram::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.count(), a.count() + b.count());
        assert_eq!(merged.sum(), a.sum() + b.sum());
        let (ma, mb, mm) = (a.bucket_counts(), b.bucket_counts(), merged.bucket_counts());
        for i in 0..HIST_BUCKETS {
            assert_eq!(mm[i], ma[i] + mb[i], "bucket {i}");
        }
    }
}
