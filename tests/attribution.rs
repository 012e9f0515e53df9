//! Integration tests for per-packet latency attribution and wire-class
//! cycle accounting.
//!
//! Three families:
//!
//! * **Passive observer** — attaching the attribution sink must not
//!   change the [`SimReport`] or the event stream, on healthy and
//!   faulted fabrics alike.
//! * **Exact-sum and reconciliation laws (proptest)** — across random
//!   topologies, traffic patterns, rates, and fault plans, every
//!   delivered packet's components sum exactly to its end-to-end
//!   latency, the aggregate equals the sum of [`Delivery`] latencies,
//!   and express + ring + exit decisions reconcile with the engine's
//!   `route_decisions` counter.
//! * **Corpus replay** — every checked-in `tests/corpus/*.trace` entry
//!   attributes cleanly: identical report with the sink attached, exact
//!   sums, counter reconciliation, and drop accounting that matches
//!   `SimStats::dropped`.

use fasttrack::core::attribution::{AttributionConfig, LatencyComponent};
use fasttrack::core::fault::FaultSpec;
use fasttrack::core::trace::{SimEvent, VecSink};
use fasttrack::prelude::*;
use fasttrack::traffic::scenario::ScenarioTrace;

use proptest::prelude::*;

/// Sum of end-to-end latencies over the measured (post-warmup) ejects
/// in an event stream.
fn delivered_latency_sum(events: &[SimEvent]) -> u64 {
    let measured_from = events
        .iter()
        .rev()
        .find_map(|e| match e {
            SimEvent::WarmupReset { cycle } => Some(*cycle),
            _ => None,
        })
        .unwrap_or(0);
    events
        .iter()
        .filter_map(|e| match e {
            SimEvent::Eject {
                cycle, delivery, ..
            } if *cycle >= measured_from => Some(delivery.total_latency()),
            _ => None,
        })
        .sum()
}

#[test]
fn attribution_is_a_passive_observer() {
    // Identical reports and event streams with and without the sink, on
    // a healthy FastTrack fabric and on a faulted one.
    let cfg = NocConfig::fasttrack(6, 2, 2, FtPolicy::Full).unwrap();
    let plan = FaultPlan::random(
        &cfg,
        99,
        &FaultSpec {
            dead_links: 2,
            transient_links: 1,
            ..FaultSpec::default()
        },
    );
    for faulted in [false, true] {
        let session = |attrib: bool| {
            let mut src = BernoulliSource::new(6, Pattern::Random, 0.6, 40, 17);
            let mut events = VecSink::new();
            let mut s = SimSession::new(&cfg).with_sink(&mut events);
            if faulted {
                s = s.with_faults(&plan);
            }
            if attrib {
                s = s.with_attribution(AttributionConfig::default());
            }
            let outcome = s.run(&mut src).unwrap();
            (outcome.report.clone(), events.events, outcome.attribution)
        };
        let (plain_report, plain_events, none) = session(false);
        let (report, events, attribution) = session(true);
        assert!(none.is_none());
        assert_eq!(plain_report, report, "faulted={faulted}: report perturbed");
        assert_eq!(plain_events, events, "faulted={faulted}: events perturbed");
        let a = attribution.unwrap();
        assert_eq!(a.delivered, report.stats.delivered);
        assert_eq!(a.mismatches, 0, "faulted={faulted}");
        assert!(a.reconciled(), "faulted={faulted}");
        assert_eq!(a.total_cycles(), delivered_latency_sum(&events));
    }
}

#[test]
fn warmup_attribution_covers_only_the_measured_window() {
    // With a warmup period, aggregates reset alongside the engine
    // stats: the attributed total must equal the sum of post-reset
    // delivery latencies, and reconciliation holds against the measured
    // route-decision counter.
    let cfg = NocConfig::fasttrack(4, 2, 1, FtPolicy::Full).unwrap();
    let mut src = BernoulliSource::new(4, Pattern::Random, 0.8, 200, 23);
    let mut events = VecSink::new();
    let outcome = SimSession::new(&cfg)
        .warmup_cycles(50)
        .with_sink(&mut events)
        .with_attribution(AttributionConfig::default())
        .run(&mut src)
        .unwrap();
    let a = outcome.attribution.unwrap();
    assert!(
        events
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::WarmupReset { .. })),
        "run must actually cross the warmup boundary"
    );
    assert_eq!(a.delivered, outcome.report.stats.delivered);
    assert_eq!(a.mismatches, 0);
    assert!(a.reconciled(), "measured-window decisions must reconcile");
    assert_eq!(a.total_cycles(), delivered_latency_sum(&events.events));
}

#[test]
fn attribution_follows_packets_across_a_channel_switch() {
    // One `InjectQueues` counter numbers every packet of a bank run, so
    // an id names one packet whichever channel carries it. Under a
    // storm the standard fallback chain evicts allocation losers to the
    // sibling channel; their later events must find the state their
    // injection left.
    let cfg = NocConfig::fasttrack(8, 2, 2, FtPolicy::Full).unwrap();
    let storm = StormSpec {
        kills_per_kcycle: 8,
        heal_after: (200, 600),
        ..StormSpec::default()
    };
    let plan = FaultPlan::storm(&cfg, 42, &storm);
    let mut src = BernoulliSource::new(8, Pattern::Random, 0.8, 200, 7);
    let mut events = VecSink::new();
    let outcome = SimSession::new(&cfg)
        .channels(2)
        .with_fallback(&FallbackConfig::standard())
        .unwrap()
        .with_faults(&plan)
        .with_sink(&mut events)
        .with_attribution(AttributionConfig::default())
        .run(&mut src)
        .unwrap();
    let report = &outcome.report;
    assert!(
        report.stats.fallback_channel_switches > 0,
        "the scenario must actually switch channels"
    );
    let a = outcome.attribution.as_ref().unwrap();
    assert_eq!(a.delivered, report.stats.delivered);
    assert_eq!(a.mismatches, 0, "switched packets lost their state");
    assert_eq!(a.in_flight, report.in_flight);
    assert_eq!(a.total_cycles(), delivered_latency_sum(&events.events));
    assert!(a.reconciled());
}

#[test]
fn corpus_traces_attribute_cleanly() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus must exist")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty());
    for path in entries {
        let name = path.display().to_string();
        let trace = ScenarioTrace::decode(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let run = |attrib: bool| {
            let mut src = trace.replay_source().unwrap();
            let mut session = trace.header.session().unwrap();
            if attrib {
                session = session.with_attribution(AttributionConfig::default());
            }
            let outcome = session.run(&mut src).unwrap();
            (outcome.report, outcome.attribution)
        };
        let (plain, _) = run(false);
        let (report, attribution) = run(true);
        assert_eq!(plain, report, "{name}: report perturbed");
        let a = attribution.unwrap();
        assert_eq!(a.delivered, report.stats.delivered, "{name}");
        assert_eq!(a.mismatches, 0, "{name}");
        assert!(a.reconciled(), "{name}");
        assert_eq!(a.dropped_packets, report.stats.dropped, "{name}: drops");
        let stranded = report.stats.injected - report.stats.delivered - report.stats.dropped;
        assert_eq!(a.in_flight as u64, stranded, "{name}: in-flight");
    }
}

/// The random-scenario space the laws are checked over. `d`/`r` picks
/// are mapped onto combinations valid for every drawn `n` (d ≤ n/2,
/// r | d, r | n).
fn scenario_cfg(topo: u8, n: u16, d_pick: u16, r_pick: u16) -> NocConfig {
    let d = if d_pick == 3 && n >= 8 { 4 } else { 2 };
    let r = if r_pick == 2 { 2 } else { 1 };
    match topo % 3 {
        0 => NocConfig::hoplite(n).unwrap(),
        1 => NocConfig::fasttrack(n, d, r, FtPolicy::Full).unwrap(),
        _ => NocConfig::fasttrack(n, d, r, FtPolicy::Inject).unwrap(),
    }
}

/// Bit-permutation patterns need power-of-two `n`; other draws fall
/// back to torus-safe patterns.
fn scenario_pattern(p: u8, n: u16) -> Pattern {
    let bits_ok = n.is_power_of_two();
    match p % 5 {
        0 => Pattern::Random,
        1 if bits_ok => Pattern::BitComplement,
        2 => Pattern::Transpose,
        3 => Pattern::Tornado,
        4 if bits_ok => Pattern::Shuffle,
        _ => Pattern::Random,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The exact-sum and reconciliation laws, over random topologies,
    /// patterns, rates, and seeded fault plans.
    #[test]
    fn exact_sum_holds_on_random_scenarios(
        topo in 0u8..3,
        n_pick in 0u16..3,
        d in 2u16..4,
        r in 1u16..3,
        pattern in 0u8..5,
        rate_pct in 5u64..=100,
        seed in 0u64..1000,
        dead in 0usize..3,
        transient in 0usize..2,
        fail_stop in 0usize..2,
    ) {
        let n = [4u16, 6, 8][n_pick as usize];
        let cfg = scenario_cfg(topo, n, d, r);
        let plan = FaultPlan::random(&cfg, seed ^ 0xFA17, &FaultSpec {
            dead_links: dead,
            transient_links: transient,
            fail_stop_routers: fail_stop,
            stalled_injectors: 0,
            down_links: 0,
            window: (0, 500),
        });
        let mut src = BernoulliSource::new(
            n,
            scenario_pattern(pattern, n),
            rate_pct as f64 / 100.0,
            20,
            seed,
        );
        let mut events = VecSink::new();
        let outcome = SimSession::new(&cfg)
            .with_faults(&plan)
            .with_sink(&mut events)
            .with_attribution(AttributionConfig::default())
            .run(&mut src)
            .unwrap();
        let a = outcome.attribution.unwrap();
        let stats = &outcome.report.stats;

        // Law 1: per-packet exact sums (debug builds also assert inside
        // the sink; `mismatches` is the release-mode witness).
        prop_assert_eq!(a.mismatches, 0);
        // Law 2: the aggregate equals the sum of delivery latencies.
        prop_assert_eq!(a.delivered, stats.delivered);
        prop_assert_eq!(a.total_cycles(), delivered_latency_sum(&events.events));
        // Law 3: wire-class decisions reconcile with the engine counter.
        prop_assert!(
            a.reconciled(),
            "{} express + {} ring + {} exit != {} route decisions",
            a.express_decisions, a.ring_decisions, a.exit_decisions,
            a.route_decisions,
        );
        prop_assert_eq!(a.route_decisions, stats.route_decisions);
        // Law 4: drop accounting is conserved.
        prop_assert_eq!(a.dropped_packets, stats.dropped);
        // Law 5: on a fault-free fabric, express-class decisions are
        // exactly the engine's express-link traversals, and Hoplite
        // never sees an express cycle.
        if plan.is_empty() {
            prop_assert_eq!(a.express_decisions, stats.link_usage.express_hops);
        }
        if topo % 3 == 0 {
            prop_assert_eq!(a.component(LatencyComponent::Express), 0);
            prop_assert_eq!(a.express_decisions, 0);
        }
    }
}
