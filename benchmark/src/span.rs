//! Spans recorded from the benchmark's own files around calls into each
//! layer, kept in memory and written out when the run ends.
//!
//! A span is `{name, start_ns, end_ns, parent, job}`. Per-cycle calls
//! (`pump`, `step`, `on_delivery`) would be millions of spans, so each
//! session folds them into one *aggregated* span per kind: its duration
//! is the summed time of the calls, `count` says how many there were,
//! and it is laid out inside its parent so that children never overlap.
//! A layer's self time is its span's duration minus its children's.

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same [`SpanTree`]; `None` for
    /// the root.
    pub parent: Option<usize>,
    /// The workload job this span belongs to (shared by a job's spans).
    pub job: String,
    /// Calls folded into this span (1 for a plain span).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans in creation order; a parent always precedes its children.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    pub spans: Vec<Span>,
}

impl SpanTree {
    /// Adds a span and returns its index.
    ///
    /// # Panics
    ///
    /// Panics when the span ends before it starts or leaves its parent's
    /// interval: both are bugs in the recording code.
    pub fn add(
        &mut self,
        name: &str,
        job: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> usize {
        assert!(start_ns <= end_ns, "span {name} ends before it starts");
        if let Some(p) = parent {
            let p = &self.spans[p];
            assert!(
                p.start_ns <= start_ns && end_ns <= p.end_ns,
                "span {name} [{start_ns},{end_ns}] leaves its parent {} [{},{}]",
                p.name,
                p.start_ns,
                p.end_ns
            );
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            job: job.to_string(),
            count,
        });
        self.spans.len() - 1
    }

    /// Lays aggregated children end to end from the parent's start:
    /// `(name, total_ns, count)` each. Their total must fit the parent.
    pub fn add_aggregated(&mut self, job: &str, parent: usize, children: &[(&str, u64, u64)]) {
        let mut at = self.spans[parent].start_ns;
        for &(name, total_ns, count) in children {
            self.add(name, job, Some(parent), at, at + total_ns, count);
            at += total_ns;
        }
    }

    /// Appends `other` under `parent`, shifted so that it starts at
    /// `at_ns`; returns the index its root got.
    pub fn graft(&mut self, other: &SpanTree, parent: Option<usize>, at_ns: u64) -> usize {
        let base = self.spans.len();
        let origin = other.spans.first().map_or(0, |s| s.start_ns);
        for s in &other.spans {
            self.spans.push(Span {
                start_ns: s.start_ns - origin + at_ns,
                end_ns: s.end_ns - origin + at_ns,
                parent: s.parent.map(|p| p + base).or(parent),
                ..s.clone()
            });
        }
        base
    }

    pub fn root_duration_ns(&self) -> u64 {
        self.spans.first().map_or(0, Span::duration_ns)
    }

    /// Self time of every span: duration minus children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p]
                    .checked_sub(s.duration_ns())
                    .expect("children fit their parent");
            }
        }
        own
    }

    /// `(self_ns, total_ns, count)` summed by span name.
    pub fn by_name(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += own;
            e.1 += s.duration_ns();
            e.2 += s.count;
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph":"X"`) event per span, microsecond timestamps.
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("cat", Json::str(&s.job)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("job", Json::str(&s.job)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            ("calls", Json::Num(s.count as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A random tree built the way the recorder builds them: children
    /// are carved out of their parent's interval without overlapping.
    fn random_tree(mut state: u64) -> SpanTree {
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound.max(1)
        };
        let mut tree = SpanTree::default();
        tree.add("root", "j", None, 100, 100 + 1_000_000, 1);
        let mut frontier = vec![0usize];
        while let Some(p) = frontier.pop() {
            let (start, end) = (tree.spans[p].start_ns, tree.spans[p].end_ns);
            let mut at = start;
            for _ in 0..next(4) {
                let room = end - at;
                if room < 4 {
                    break;
                }
                let gap = next(room / 4);
                let len = next(room - gap);
                let id = tree.add("child", "j", Some(p), at + gap, at + gap + len, 1 + next(9));
                at += gap + len;
                if tree.spans.len() < 200 {
                    frontier.push(id);
                }
            }
        }
        tree
    }

    #[test]
    fn self_times_are_never_negative_and_sum_to_the_root() {
        for seed in 1..200u64 {
            let tree = random_tree(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let own = tree.self_ns();
            assert_eq!(
                own.iter().sum::<u64>(),
                tree.root_duration_ns(),
                "seed {seed}"
            );
            for (s, o) in tree.spans.iter().zip(&own) {
                assert!(*o <= s.duration_ns());
                if let Some(p) = s.parent {
                    let p = &tree.spans[p];
                    assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
                }
            }
            let by_name: u64 = tree.by_name().values().map(|v| v.0).sum();
            assert_eq!(by_name, tree.root_duration_ns());
        }
    }

    #[test]
    #[should_panic(expected = "leaves its parent")]
    fn a_child_outside_its_parent_is_refused() {
        let mut tree = SpanTree::default();
        let root = tree.add("root", "j", None, 0, 10, 1);
        tree.add("child", "j", Some(root), 5, 11, 1);
    }

    #[test]
    fn aggregated_children_are_laid_end_to_end() {
        let mut tree = SpanTree::default();
        let drive = tree.add("drive", "j", None, 1000, 2000, 1);
        tree.add_aggregated("j", drive, &[("pump", 100, 50), ("step", 800, 50)]);
        assert_eq!(tree.spans[1].start_ns, 1000);
        assert_eq!(tree.spans[2].start_ns, 1100);
        assert_eq!(tree.spans[2].end_ns, 1900);
        assert_eq!(tree.self_ns(), [100, 100, 800]);
        assert_eq!(tree.by_name()["pump"], (100, 100, 50));
    }

    #[test]
    fn grafting_rebases_time_and_parents() {
        let mut job = SpanTree::default();
        let r = job.add("job", "a", None, 500, 900, 1);
        job.add("session", "a", Some(r), 600, 800, 1);
        let mut all = SpanTree::default();
        let root = all.add("workload", "w", None, 0, 10_000, 1);
        let at = all.graft(&job, Some(root), 2000);
        assert_eq!(at, 1);
        assert_eq!(all.spans[1].parent, Some(0));
        assert_eq!((all.spans[1].start_ns, all.spans[1].end_ns), (2000, 2400));
        assert_eq!(all.spans[2].parent, Some(1));
        assert_eq!((all.spans[2].start_ns, all.spans[2].end_ns), (2100, 2300));
        assert_eq!(all.self_ns().iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let tree = random_tree(42);
        let text = tree.chrome_json().pretty();
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), tree.spans.len());
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
    }
}
