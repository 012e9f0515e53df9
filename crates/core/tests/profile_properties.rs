//! Profiler transparency and span-algebra properties:
//!
//! * a profiled [`SimSession`] run must be *report-identical* to an
//!   unprofiled one, and its summary must count the run (the event
//!   stream under every observer subset is `tests/observer_fanout.rs`'s
//!   to check);
//! * spans close strictly LIFO and the sum of child durations never
//!   exceeds the parent's duration (disjoint sub-intervals in integer
//!   nanoseconds);
//! * hot-path counters (`route_decisions`, `pool_reuse`) agree with the
//!   event stream and are maintained identically with or without an
//!   attached sink.

use fasttrack_core::prelude::*;
use fasttrack_core::profile::{summarize, SpanRecorder};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;

use common::BatchSource;

fn ft_cfg() -> NocConfig {
    NocConfig::fasttrack(8, 2, 2, FtPolicy::Full).unwrap()
}

#[test]
fn profiled_run_is_report_identical() {
    for cfg in [NocConfig::hoplite(4).unwrap(), ft_cfg()] {
        let plain = SimSession::new(&cfg)
            .run(&mut BatchSource::random(cfg.n(), 8, 11))
            .unwrap();
        let profiled = SimSession::new(&cfg)
            .with_profile()
            .run(&mut BatchSource::random(cfg.n(), 8, 11))
            .unwrap();
        assert_eq!(
            plain.report, profiled.report,
            "profiling must not perturb the run"
        );
        assert!(plain.profile.is_none());
        let profile = profiled.profile.expect("profile attached");
        assert!(profile.summary().drive_seconds > 0.0);
        assert_eq!(profile.summary().delivered, plain.report.stats.delivered);
    }
}

#[test]
fn profiled_run_composes_with_monitor_and_faults() {
    let cfg = ft_cfg();
    let plan = FaultPlan::new().with(Fault::FailStopRouter { node: 9, at: 50 });
    let plain = SimSession::new(&cfg)
        .with_faults(&plan)
        .with_monitor(MonitorConfig::default())
        .run(&mut BatchSource::random(8, 4, 7))
        .unwrap();
    let profiled = SimSession::new(&cfg)
        .with_faults(&plan)
        .with_monitor(MonitorConfig::default())
        .with_profile()
        .run(&mut BatchSource::random(8, 4, 7))
        .unwrap();
    assert_eq!(plain.report, profiled.report);
    let profile = profiled.profile.expect("profile attached");
    // Profile and monitor rows ride one exposition.
    let text = profiled.metrics.to_prometheus();
    assert!(text.contains("fasttrack_profile_cycles_per_sec"));
    assert!(text.contains("fasttrack_profile_route_decisions_total"));
    assert!(text.contains("fasttrack_fault_drops_total"));
    // Fault build phases were spanned.
    let names: Vec<_> = profile.spans().iter().map(|s| s.name).collect();
    assert!(names.contains(&"session"));
    assert!(names.contains(&"session.build"));
    assert!(names.contains(&"session.build.fault_validate"));
    assert!(names.contains(&"session.build.route_lut"));
    assert!(names.contains(&"session.drive"));
}

#[test]
fn route_decisions_match_event_stream() {
    let cfg = ft_cfg();
    let mut sink = VecSink::new();
    let outcome = SimSession::new(&cfg)
        .with_sink(&mut sink)
        .run(&mut BatchSource::random(8, 6, 31))
        .unwrap();
    let decisions = sink
        .events
        .iter()
        .filter(|e| matches!(e.kind(), "route" | "inject"))
        .count();
    assert_eq!(
        outcome.report.stats.route_decisions, decisions as u64,
        "route_decisions must count in-flight allocations plus accepted injections"
    );
    // A closed workload this size recycles pool slots.
    assert!(outcome.report.stats.pool_reuse > 0);
    assert!(outcome.report.stats.pool_reuse <= outcome.report.stats.injected);
}

#[test]
fn counters_are_sink_independent() {
    let cfg = ft_cfg();
    let plain = SimSession::new(&cfg)
        .run(&mut BatchSource::random(8, 6, 31))
        .unwrap();
    let mut sink = VecSink::new();
    let traced = SimSession::new(&cfg)
        .with_sink(&mut sink)
        .run(&mut BatchSource::random(8, 6, 31))
        .unwrap();
    assert_eq!(
        plain.report.stats.route_decisions,
        traced.report.stats.route_decisions
    );
    assert_eq!(
        plain.report.stats.pool_reuse,
        traced.report.stats.pool_reuse
    );
}

#[test]
fn profile_chrome_trace_and_json_are_well_formed() {
    let cfg = ft_cfg();
    let outcome = SimSession::new(&cfg)
        .with_profile()
        .run(&mut BatchSource::random(8, 4, 3))
        .unwrap();
    let profile = outcome.profile.unwrap();
    let doc = profile.chrome_trace();
    assert!(doc.starts_with("{\"traceEvents\":["));
    assert!(doc.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
    assert!(doc.contains("\"name\":\"session.drive\""));
    let json = profile.to_json();
    assert!(json.contains("\"schema\":\"fasttrack-profile-v1\""));
    assert!(json.contains("\"phases\":["));
    let text = profile.render_text();
    assert!(text.contains("session.drive"));
    assert!(text.contains("cycles/s"));
}

proptest! {
    /// Spans close LIFO; every recorded span nests inside its parent's
    /// interval and the children of each span are pairwise disjoint, so
    /// the sum of child durations never exceeds the parent duration.
    /// The enter/exit program is a random well-formed sequence: at each
    /// step, either open a new span (under a depth cap) or close the
    /// innermost one.
    #[test]
    fn span_nesting_laws((seed, len) in (any::<u64>(), 1usize..64)) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
        static NAMES: [&str; 4] = ["a", "b", "c", "d"];
        let mut rec = SpanRecorder::new();
        let mut tokens = Vec::new();
        for (i, &open) in program.iter().enumerate() {
            if open || tokens.is_empty() {
                if tokens.len() < 8 {
                    tokens.push(rec.enter(NAMES[i % NAMES.len()]));
                }
            } else {
                rec.exit(tokens.pop().unwrap());
            }
        }
        while let Some(t) = tokens.pop() {
            rec.exit(t);
        }
        let spans = rec.finish();
        let mut child_sum = vec![0u64; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                let p = p as usize;
                prop_assert!(p < i, "parents precede children");
                prop_assert_eq!(spans[p].depth + 1, s.depth);
                prop_assert!(s.start_ns >= spans[p].start_ns);
                prop_assert!(s.start_ns + s.dur_ns <= spans[p].start_ns + spans[p].dur_ns);
                child_sum[p] += s.dur_ns;
            } else {
                prop_assert_eq!(s.depth, 0);
            }
        }
        for (i, s) in spans.iter().enumerate() {
            prop_assert!(
                child_sum[i] <= s.dur_ns,
                "children of {} sum to {} > parent {}",
                s.name, child_sum[i], s.dur_ns
            );
        }
        // The per-phase summary conserves time: summing self-time over
        // every phase recovers exactly the root spans' total duration
        // (each nanosecond is attributed to exactly one span).
        let phases = summarize(&spans);
        let self_total: u64 = phases.iter().map(|p| p.self_ns).sum();
        let roots: u64 = spans.iter().filter(|s| s.parent.is_none()).map(|s| s.dur_ns).sum();
        prop_assert_eq!(self_total, roots);
        let count_total: u64 = phases.iter().map(|p| p.count).sum();
        prop_assert_eq!(count_total, spans.len() as u64);
    }
}
