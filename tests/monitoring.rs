//! Integration tests for the online health-monitoring subsystem: the
//! monitor as a passive observer (identical reports with and without
//! it), detector verdicts on real traffic, registry exposition, and
//! flight-recorder retention properties under proptest.

use std::collections::VecDeque;

use fasttrack_core::config::{FtPolicy, NocConfig};
use fasttrack_core::fault::{Fault, FaultPlan};
use fasttrack_core::monitor::{DetectorConfig, FlightRecorder, MetricValue, MonitorConfig};
use fasttrack_core::packet::PacketId;
use fasttrack_core::port::OutPort;
use fasttrack_core::sim::{SimOutcome, SimSession};
use fasttrack_core::sweep::splitmix64;
use fasttrack_core::trace::{EventSink, SimEvent, VecSink};
use fasttrack_traffic::pattern::Pattern;
use fasttrack_traffic::source::BernoulliSource;

use proptest::prelude::*;

fn monitored_cfg() -> MonitorConfig {
    MonitorConfig {
        detectors: DetectorConfig::default(),
        flight_capacity: 16,
        max_reports: 64,
        snapshot_every: Some(100),
    }
}

#[test]
fn monitor_is_a_passive_observer() {
    // The monitored run must produce the exact same SimReport as the
    // plain run: monitoring reads the event stream, never the engine.
    let cfg = NocConfig::fasttrack(8, 2, 2, FtPolicy::Full).unwrap();
    for rate in [0.05, 0.5, 1.0] {
        let mut a = BernoulliSource::new(8, Pattern::Random, rate, 50, 11);
        let mut b = BernoulliSource::new(8, Pattern::Random, rate, 50, 11);
        let plain = SimSession::new(&cfg).run(&mut a).unwrap().report;
        let outcome = SimSession::new(&cfg)
            .with_monitor(monitored_cfg())
            .run(&mut b)
            .unwrap();
        let (report, monitor) = (outcome.report, outcome.monitor.unwrap());
        assert_eq!(plain, report, "rate {rate}: monitor perturbed the run");
        let s = monitor.summary();
        assert_eq!(s.injected, report.stats.injected);
        assert_eq!(s.delivered, report.stats.delivered);
        assert_eq!(s.cycles, report.cycles);
    }
}

#[test]
fn light_load_is_healthy_and_saturation_is_not() {
    let cfg = NocConfig::hoplite(8).unwrap();
    let mut light = BernoulliSource::new(8, Pattern::Random, 0.02, 20, 5);
    let m = SimSession::new(&cfg)
        .with_monitor(monitored_cfg())
        .run(&mut light)
        .unwrap()
        .monitor
        .unwrap();
    assert!(
        m.healthy(),
        "2% load on Hoplite must not trip any detector: {:?}",
        m.reports().first()
    );

    // Hoplite-64 RANDOM at rate 1.0 is far above saturation: injectors
    // starve and the shared ring links run hot.
    let mut heavy = BernoulliSource::new(8, Pattern::Random, 1.0, 150, 5);
    let m = SimSession::new(&cfg)
        .with_monitor(monitored_cfg())
        .run(&mut heavy)
        .unwrap()
        .monitor
        .unwrap();
    assert!(!m.healthy(), "saturated Hoplite reported healthy");
    let s = m.summary();
    assert!(
        s.count("starvation") + s.count("hotspot") > 0,
        "expected load anomalies, got {:?}",
        s.reports
            .iter()
            .map(|r| r.anomaly.kind())
            .collect::<Vec<_>>()
    );
    for r in &s.reports {
        assert!(
            r.excerpt.len() <= monitored_cfg().flight_capacity,
            "excerpt exceeds flight capacity"
        );
    }
    // The summary JSON round-trips deterministically.
    assert_eq!(s.to_json(), m.summary().to_json());
}

#[test]
fn registry_exposition_matches_summary() {
    let cfg = NocConfig::fasttrack(4, 2, 1, FtPolicy::Full).unwrap();
    let mut src = BernoulliSource::new(4, Pattern::Transpose, 0.3, 40, 9);
    let outcome = SimSession::new(&cfg)
        .with_monitor(monitored_cfg())
        .run(&mut src)
        .unwrap();
    let prom = outcome.metrics.to_prometheus();
    let (report, m) = (outcome.report, outcome.monitor.unwrap());
    assert!(prom.contains(&format!(
        "fasttrack_injected_total {}",
        report.stats.injected
    )));
    assert!(prom.contains(&format!(
        "fasttrack_delivered_total {}",
        report.stats.delivered
    )));
    assert!(prom.contains(&format!(
        "fasttrack_delivery_latency_cycles_count {}",
        report.stats.delivered
    )));
    // Snapshots fired on the 100-cycle schedule.
    assert_eq!(m.snapshots().len() as u64, report.cycles / 100);
}

#[test]
fn in_flight_gauge_forgets_dropped_packets() {
    // A fail-stopped router swallows packets for the rest of the run:
    // they have left the network, so the gauge must end at what is
    // still on links (nothing, here), not at the drop count.
    let cfg = NocConfig::fasttrack(8, 2, 2, FtPolicy::Full).unwrap();
    let plan = FaultPlan::new().with(Fault::FailStopRouter { node: 27, at: 40 });
    let mut src = BernoulliSource::new(8, Pattern::Random, 0.5, 60, 13);
    let SimOutcome {
        report,
        metrics: reg,
        ..
    } = SimSession::new(&cfg)
        .with_faults(&plan)
        .with_monitor(monitored_cfg())
        .run(&mut src)
        .unwrap();
    assert!(report.stats.dropped > 0, "the plan must actually drop");
    assert!(report.conserved());
    let cell = |name: &str| match reg.get(name) {
        Some(&MetricValue::Counter(n)) => n,
        other => panic!("{name}: {other:?}"),
    };
    let Some(&MetricValue::Gauge(in_flight)) = reg.get("fasttrack_in_flight") else {
        panic!("no in-flight gauge");
    };
    assert_eq!(in_flight, report.in_flight as f64);
    assert_eq!(
        cell("fasttrack_injected_total"),
        cell("fasttrack_delivered_total") + in_flight as u64 + cell("fasttrack_fault_drops_total"),
    );
    assert_eq!(cell("fasttrack_fault_drops_total"), report.stats.dropped);
}

/// The event `pick` selects, at `node` in cycle `cycle`: every kind a
/// recorder can be handed, the two driver-level ones included.
fn event_of(pick: u64, cycle: u64, node: usize) -> SimEvent {
    let packet = PacketId(pick >> 8);
    match pick % 6 {
        0 => SimEvent::QueueStall {
            cycle,
            node,
            depth: 1,
        },
        1 => SimEvent::Deflect {
            cycle,
            node,
            packet,
            out: OutPort::EastSh,
        },
        2 => SimEvent::ExpressHop {
            cycle,
            node,
            packet,
            span: 2,
        },
        3 => SimEvent::FaultDrop {
            cycle,
            node,
            packet,
            link: None,
            corrupted: false,
        },
        4 => SimEvent::WarmupReset { cycle },
        _ => SimEvent::Truncated { cycle },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flat ring against one `VecDeque` per router: any stream of
    /// kinds and nodes (past-the-end nodes and driver events share the
    /// extra ring) leaves the same excerpts and dump.
    #[test]
    fn flight_recorder_matches_a_deque_model(
        seed in 0u64..10_000,
        k in 1usize..=8,
        nodes in 1usize..6,
        len in 0usize..200,
    ) {
        let mut recorder = FlightRecorder::new(nodes, k);
        let mut model: Vec<VecDeque<SimEvent>> = vec![VecDeque::new(); nodes + 1];
        let mut x = seed;
        for i in 0..len {
            x = splitmix64(x);
            // Nodes run two past the last router; cycles mostly rise.
            let node = (x >> 16) as usize % (nodes + 2);
            let event = event_of(x, (i as u64 / 3) + (x >> 40) % 2, node);
            recorder.emit(&event);
            let ring = &mut model[event.node().map_or(nodes, |n| n.min(nodes))];
            if ring.len() == k {
                ring.pop_front();
            }
            ring.push_back(event);
        }
        for (ring, held) in model.iter().enumerate() {
            prop_assert_eq!(recorder.excerpt(ring), Vec::from(held.clone()), "ring {}", ring);
        }
        prop_assert!(recorder.excerpt(nodes + 1).is_empty());
        let mut dump: Vec<(u64, usize, usize, SimEvent)> = Vec::new();
        for (ring, held) in model.iter().enumerate() {
            dump.extend(held.iter().enumerate().map(|(seq, &e)| (e.cycle(), ring, seq, e)));
        }
        dump.sort_by_key(|&(cycle, ring, seq, _)| (cycle, ring, seq));
        let dump: Vec<SimEvent> = dump.into_iter().map(|t| t.3).collect();
        prop_assert_eq!(recorder.dump_all(), dump);
    }

    /// Flight-recorder law: after observing any real simulation, every
    /// ring's excerpt is the last K events of its router in a full tee
    /// of the stream, and the merged dump is all of them, cycle-sorted.
    #[test]
    fn flight_recorder_bounded_and_ordered(
        seed in 0u64..1000,
        k in 1usize..24,
        rate_pct in 1u64..100,
    ) {
        let cfg = NocConfig::hoplite(4).unwrap();
        let nodes = cfg.num_nodes();
        let mut src = BernoulliSource::new(
            4,
            Pattern::Random,
            rate_pct as f64 / 100.0,
            20,
            seed,
        );
        let mut recorder = FlightRecorder::new(nodes, k);
        let mut tee = VecSink::new();
        SimSession::new(&cfg)
            .with_sink(&mut (&mut recorder, &mut tee))
            .run(&mut src)
            .unwrap();
        prop_assert!(!tee.events.is_empty(), "run emitted no events");

        let mut total = 0usize;
        for ring in 0..=nodes {
            let seen: Vec<SimEvent> = tee
                .events
                .iter()
                .filter(|e| e.node().map_or(nodes, |n| n.min(nodes)) == ring)
                .copied()
                .collect();
            let ex = recorder.excerpt(ring);
            prop_assert_eq!(&ex, &seen[seen.len().saturating_sub(k)..], "ring {}", ring);
            total += ex.len();
        }
        let dump = recorder.dump_all();
        prop_assert_eq!(dump.len(), total, "dump is the union of the excerpts");
        for w in dump.windows(2) {
            prop_assert!(w[0].cycle() <= w[1].cycle(), "dump out of cycle order");
        }
    }

    /// Replaying any recorded excerpt through a fresh recorder with the
    /// same capacity is a fixed point: its dump is the excerpt again.
    #[test]
    fn flight_recorder_replay_is_fixed_point(seed in 0u64..500, k in 1usize..16) {
        let cfg = NocConfig::hoplite(4).unwrap();
        let nodes = cfg.num_nodes();
        let mut src = BernoulliSource::new(4, Pattern::Random, 0.4, 10, seed);
        let mut recorder = FlightRecorder::new(nodes, k);
        SimSession::new(&cfg).with_sink(&mut recorder).run(&mut src).unwrap();
        let dump = recorder.dump_all();

        let mut replay = FlightRecorder::new(nodes, k);
        for e in &dump {
            replay.emit(e);
        }
        prop_assert_eq!(replay.dump_all(), dump);
    }
}
