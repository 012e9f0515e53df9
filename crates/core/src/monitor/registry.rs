//! Dependency-free metrics registry: a name-sorted list of counter,
//! gauge and [`Histogram`] values with a deterministic Prometheus text
//! exposition.
//!
//! The registry is a plain value. Observers count in their own fields
//! while a run is in progress; when it ends, [`crate::sim::SimSession`]
//! has each of them append its rows here, once, and hands the result
//! back in the [`crate::sim::SimOutcome`]. Nothing can read a metric
//! mid-run, so nothing is shared, locked or atomic.

use crate::stats::Histogram;

/// The value of one registered metric.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // a run reports a few dozen rows, once
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time measurement.
    Gauge(f64),
    /// A log-bucketed distribution.
    Histogram(Histogram),
}

impl MetricValue {
    /// The Prometheus `# TYPE` of this value.
    pub fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    help: String,
    value: MetricValue,
}

/// A named collection of metric values, kept sorted by name so the
/// exposition does not depend on registration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Where `name` is (`Ok`) or would be inserted (`Err`).
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.metrics.binary_search_by(|m| m.name.as_str().cmp(name))
    }

    fn insert(&mut self, name: &str, help: &str, value: MetricValue) {
        match self.position(name) {
            Ok(at) => panic!(
                "metric {name:?} already registered as {}",
                self.metrics[at].value.type_name()
            ),
            Err(at) => self.metrics.insert(
                at,
                Metric {
                    name: name.to_string(),
                    help: help.to_string(),
                    value,
                },
            ),
        }
    }

    /// Registers the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered (as any type): every
    /// metric has exactly one owner.
    pub(crate) fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.insert(name, help, MetricValue::Counter(value));
    }

    /// Registers the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub(crate) fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.insert(name, help, MetricValue::Gauge(value));
    }

    /// Registers the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub(crate) fn histogram(&mut self, name: &str, help: &str, value: Histogram) {
        self.insert(name, help, MetricValue::Histogram(value));
    }

    /// The value registered as `name`, if any.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.position(name).ok().map(|at| &self.metrics[at].value)
    }

    /// Every metric as `(name, help, value)`, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &MetricValue)> + '_ {
        self.metrics
            .iter()
            .map(|m| (m.name.as_str(), m.help.as_str(), &m.value))
    }

    /// Renders the registry in the Prometheus text exposition format,
    /// metrics sorted by name. Histograms emit cumulative `_bucket`
    /// series with power-of-two `le` bounds up to the highest non-empty
    /// bucket, then `+Inf`, `_sum`, `_count`, and (when non-empty)
    /// summary-style p50/p95/p99 `quantile` samples.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, help, value) in self.iter() {
            // HELP text escapes backslash and newline per the format.
            let help = help.replace('\\', "\\\\").replace('\n', "\\n");
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {}", value.type_name());
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{name} {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{name} {g}");
                }
                MetricValue::Histogram(h) => {
                    let counts = h.buckets();
                    let mut cum = 0u64;
                    if let Some(last) = counts.iter().rposition(|&c| c > 0) {
                        for (i, &c) in counts.iter().enumerate().take(last + 1) {
                            cum += c;
                            // Exclusive bucket edge 2^(i+1) becomes the
                            // inclusive `le` bound 2^(i+1)-1.
                            let le = (1u128 << (i + 1)) - 1;
                            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
                        }
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                    // Summary-style quantile samples so percentiles are
                    // scrapeable. Omitted while empty, matching how
                    // summaries expose no data.
                    for q in [50.0, 95.0, 99.0] {
                        if let Some(v) = h.percentile(q) {
                            let _ = writeln!(out, "{name}{{quantile=\"{}\"}} {v}", q / 100.0);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn values_are_read_back_by_name() {
        let mut reg = MetricsRegistry::new();
        reg.counter("injected_total", "Packets injected", 4);
        reg.gauge("in_flight", "Packets in flight", 2.5);
        assert_eq!(reg.get("injected_total"), Some(&MetricValue::Counter(4)));
        assert_eq!(reg.get("in_flight"), Some(&MetricValue::Gauge(2.5)));
        assert_eq!(reg.get("absent"), None);
        assert_eq!(reg.iter().count(), 2);
    }

    #[test]
    fn histogram_buckets_match_stats_histogram() {
        // The cumulative `le` series is the histogram's own buckets:
        // each non-empty bucket `[lo, hi)` steps the series at `hi - 1`.
        let h = hist(&[0, 1, 2, 3, 4, 1000]);
        let mut reg = MetricsRegistry::new();
        reg.histogram("lat", "", h.clone());
        let text = reg.to_prometheus();
        let mut cum = 0;
        for (_, hi, count) in h.iter() {
            cum += count;
            assert!(
                text.contains(&format!("lat_bucket{{le=\"{}\"}} {cum}\n", hi - 1)),
                "bucket below {hi} in:\n{text}"
            );
        }
        assert!(text.contains("lat_bucket{le=\"1023\"} 6\nlat_bucket{le=\"+Inf\"} 6\n"));
        assert!(text.contains("lat_sum 1010\nlat_count 6\n"));
    }

    #[test]
    fn quantile_label_values_never_need_escaping() {
        // The only labels the exposition emits are `le` and `quantile`,
        // and their values are bare decimals or `+Inf` — nothing a
        // label-value escaper would touch, so there is none.
        let mut reg = MetricsRegistry::new();
        reg.histogram("lat", "", hist(&[0, 7, 1000, u64::MAX]));
        for line in reg.to_prometheus().lines() {
            let Some((_, rest)) = line.split_once("=\"") else {
                continue;
            };
            let (value, _) = rest.split_once('"').expect("closing quote");
            assert!(
                value == "+Inf" || value.bytes().all(|b| b.is_ascii_digit() || b == b'.'),
                "label value {value:?} in {line:?}"
            );
        }
    }

    #[test]
    fn prometheus_text_is_sorted_and_complete() {
        let mut reg = MetricsRegistry::new();
        reg.counter("zz_total", "Last by name", 7);
        reg.gauge("aa_ratio", "First by name", 0.5);
        reg.histogram("mm_latency", "Middle", hist(&[3]));
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
    #[should_panic(expected = "already registered as counter")]
    fn type_mismatch_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x", "", 0);
        reg.gauge("x", "", 0.0);
    }

    #[test]
    fn help_text_is_escaped_in_exposition() {
        let mut reg = MetricsRegistry::new();
        reg.counter("evil_total", "line one\nline two \\ backslash \"q\"", 1);
        let text = reg.to_prometheus();
        // Quotes are legal in HELP; backslash and newline are escaped.
        assert!(text.contains("# HELP evil_total line one\\nline two \\\\ backslash \"q\""));
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
    fn exposition_ends_with_single_trailing_newline() {
        let mut reg = MetricsRegistry::new();
        reg.counter("c_total", "help", 1);
        reg.histogram("h_cycles", "help", hist(&[3]));
        let text = reg.to_prometheus();
        assert!(text.ends_with('\n'));
        assert!(!text.ends_with("\n\n"));
    }

    #[test]
    fn help_precedes_type_precedes_samples_for_each_metric() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a_total", "a", 1);
        reg.gauge("b_ratio", "b", 0.5);
        reg.histogram("c_latency", "c", hist(&[9]));
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
        let mut a = MetricsRegistry::new();
        a.counter("zz_total", "z", 1);
        a.gauge("aa_ratio", "a", 1.0);
        a.histogram("mm_latency", "m", hist(&[2]));
        let mut b = MetricsRegistry::new();
        b.histogram("mm_latency", "m", hist(&[2]));
        b.gauge("aa_ratio", "a", 1.0);
        b.counter("zz_total", "z", 1);
        assert_eq!(a, b, "the registry must not depend on registration order");
        assert_eq!(a.to_prometheus(), b.to_prometheus());
    }

    #[test]
    fn histogram_quantile_samples_follow_count_in_ascending_order() {
        let h = hist(&[1, 2, 4, 8, 100]);
        let mut reg = MetricsRegistry::new();
        reg.histogram("q_latency", "q", h.clone());
        let text = reg.to_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let count_at = lines
            .iter()
            .position(|l| l.starts_with("q_latency_count "))
            .expect("_count sample present");
        // The three quantile samples come right after _count, in
        // ascending quantile order, each the histogram's own estimate.
        for (off, q, p) in [(1, "0.5", 50.0), (2, "0.95", 95.0), (3, "0.99", 99.0)] {
            assert_eq!(
                lines[count_at + off],
                format!("q_latency{{quantile=\"{q}\"}} {}", h.percentile(p).unwrap()),
            );
        }
        // Quantile estimates never decrease with the quantile.
        assert!(h.percentile(50.0) <= h.percentile(95.0));
        assert!(h.percentile(95.0) <= h.percentile(99.0));
    }

    #[test]
    fn empty_histogram_emits_no_quantile_samples() {
        let mut reg = MetricsRegistry::new();
        reg.histogram("e_latency", "e", Histogram::new());
        let text = reg.to_prometheus();
        assert!(text.contains("e_latency_count 0"));
        assert!(
            !text.contains("quantile="),
            "empty histogram must not expose quantiles: {text}"
        );
    }
}
