//! The observer fan-out contract: on every backend, healthy or faulted,
//! every subset of {sink, monitor, attribution, profile} leaves the run
//! identical to the bare session — same `SimReport`, same event stream
//! at the user sink — and each attached observer sees that one stream
//! in full. And the observers are pure folds of that stream: a
//! standalone monitor or attribution sink fed a recording of it ends in
//! the same state as the one the session drove.

use fasttrack::prelude::*;

/// A dead express link and a router that fail-stops mid-run on the
/// 4x4 torus.
fn torus_faults() -> FaultPlan {
    FaultPlan::new()
        .with(Fault::DeadLink {
            node: 5,
            out: OutPort::EastEx,
        })
        .with(Fault::FailStopRouter { node: 10, at: 30 })
}

/// A session on `backend`, under `faults` when given.
fn session_on<B: SessionBackend + Clone>(
    backend: &B,
    faults: Option<&FaultPlan>,
) -> SimSession<'static, B> {
    let session = SimSession::with_backend(backend.clone());
    match faults {
        Some(plan) => session.with_faults(plan),
        None => session,
    }
}

/// Runs all 16 observer subsets on `backend`, under `faults` when
/// given, against the bare run.
fn check_all_subsets<B: SessionBackend + Clone>(
    name: &str,
    backend: B,
    side: u16,
    rate: f64,
    faults: Option<&FaultPlan>,
) {
    let source = || BernoulliSource::new(side, Pattern::Random, rate, 30, 0xFA9);
    let session = || session_on(&backend, faults);
    let bare = session().run(&mut source()).unwrap().report;
    assert_eq!(faults.is_some(), bare.stats.dropped > 0, "{name}: drops");
    let mut reference = VecSink::new();
    session()
        .with_sink(&mut reference)
        .run(&mut source())
        .unwrap();
    // Every delivery's `injected_at` is the cycle of its packet's
    // `Inject` event, on every engine.
    let mut injected_at = std::collections::HashMap::new();
    let mut eject_latency = 0;
    for event in &reference.events {
        match *event {
            SimEvent::Inject { cycle, packet, .. } => {
                injected_at.insert(packet, cycle);
            }
            SimEvent::Eject { delivery, .. } => {
                let p = delivery.packet;
                assert_eq!(
                    injected_at.get(&p.id),
                    Some(&p.injected_at),
                    "{name}: {p:?}"
                );
                eject_latency += delivery.total_latency();
            }
            _ => {}
        }
    }

    for mask in 0u8..16 {
        let [sink_on, monitor, attribution, profile] = [0, 1, 2, 3].map(|bit| mask >> bit & 1 == 1);
        let case = format!("{name}, subset {mask:04b}");
        let mut session = session();
        if monitor {
            session = session.with_monitor(MonitorConfig::default());
        }
        if attribution {
            session = session.with_attribution(AttributionConfig::default());
        }
        if profile {
            session = session.with_profile();
        }
        let mut sink = VecSink::new();
        let outcome = if sink_on {
            session.with_sink(&mut sink).run(&mut source())
        } else {
            session.run(&mut source())
        }
        .unwrap();

        assert_eq!(outcome.report, bare, "{case}: report perturbed");
        if sink_on {
            assert_eq!(sink.events, reference.events, "{case}: stream perturbed");
        }
        assert_eq!(outcome.monitor.is_some(), monitor, "{case}");
        assert_eq!(outcome.attribution.is_some(), attribution, "{case}");
        assert_eq!(outcome.profile.is_some(), profile, "{case}");

        if let Some(m) = &outcome.monitor {
            let summary = m.summary();
            assert_eq!(summary.injected, bare.stats.injected, "{case}");
            assert_eq!(summary.delivered, bare.stats.delivered, "{case}");
        }
        if let Some(a) = &outcome.attribution {
            assert_eq!(a.delivered, bare.stats.delivered, "{case}");
            assert_eq!(a.mismatches, 0, "{case}");
            assert_eq!(a.total_cycles(), eject_latency, "{case}");
        }
        if let Some(p) = &outcome.profile {
            assert_eq!(
                p.summary().events_dispatched,
                reference.events.len() as u64,
                "{case}"
            );
            assert!(
                p.spans().iter().any(|s| s.name == "session.drive"),
                "{case}"
            );
        }
        // Each attached observer's rows, and only those, are in the
        // outcome's one registry.
        let text = outcome.metrics.to_prometheus();
        for (family, attached) in [
            ("fasttrack_delivered_total", monitor),
            ("fasttrack_attrib_packets_total", attribution),
            ("fasttrack_profile_events_dispatched_total", profile),
        ] {
            assert_eq!(text.contains(family), attached, "{case}: {family}");
        }
    }
}

#[test]
fn every_observer_subset_is_passive_on_every_backend() {
    let ft = NocConfig::fasttrack(4, 2, 1, FtPolicy::Full).unwrap();
    check_all_subsets("torus", TorusBackend::new(&ft), 4, 0.6, None);
    // Faulted: every observer sees the drops.
    check_all_subsets(
        "faulted torus",
        TorusBackend::new(&ft),
        4,
        0.6,
        Some(&torus_faults()),
    );
    let hoplite = NocConfig::hoplite(4).unwrap();
    check_all_subsets(
        "3-channel torus",
        TorusBackend::new(&hoplite).channels(3),
        4,
        0.6,
        None,
    );
    check_all_subsets(
        "shg",
        ShgBackend::new(ShgConfig::new(4, 2).unwrap()),
        4,
        0.6,
        None,
    );
    check_all_subsets(
        "mesh",
        MeshBackend::new(&MeshConfig::new(4, 2).unwrap()),
        4,
        0.6,
        None,
    );
    // Low load on a large torus: most routers are skipped every cycle.
    let ft16 = NocConfig::fasttrack(16, 2, 1, FtPolicy::Full).unwrap();
    check_all_subsets("low-load torus", TorusBackend::new(&ft16), 16, 0.05, None);
}

/// Everything an engine tells a sink, in call order.
#[derive(Debug, Clone, Copy)]
enum Call {
    Emit(SimEvent),
    EndCycle(u64),
    SetChannel(usize),
}

#[derive(Default)]
struct Tape(Vec<Call>);

impl EventSink for Tape {
    fn emit(&mut self, event: &SimEvent) {
        self.0.push(Call::Emit(*event));
    }
    fn end_cycle(&mut self, cycle: u64) {
        self.0.push(Call::EndCycle(cycle));
    }
    fn set_channel(&mut self, channel: usize) {
        self.0.push(Call::SetChannel(channel));
    }
}

impl Tape {
    fn replay<S: EventSink>(&self, sink: &mut S) {
        for call in &self.0 {
            match call {
                Call::Emit(event) => sink.emit(event),
                Call::EndCycle(cycle) => sink.end_cycle(*cycle),
                Call::SetChannel(channel) => sink.set_channel(*channel),
            }
        }
    }
}

/// Records one run's sink calls and replays them into standalone
/// observers: they must end where the in-session ones did, the metric
/// rows they report included. This is what lets the observers count in
/// private integers and report once, after the run.
fn check_observers_are_pure_folds<B: SessionBackend + Clone>(
    name: &str,
    backend: B,
    side: u16,
    faults: Option<&FaultPlan>,
) {
    let source = || BernoulliSource::new(side, Pattern::Random, 0.7, 40, 0xF01D);
    let session = || session_on(&backend, faults);
    let mcfg = MonitorConfig {
        snapshot_every: Some(50),
        ..MonitorConfig::default()
    };
    let mut tape = Tape::default();
    let report = session()
        .with_sink(&mut tape)
        .run(&mut source())
        .unwrap()
        .report;
    assert_eq!(faults.is_some(), report.stats.dropped > 0, "{name}: drops");

    let outcome = session().with_monitor(mcfg).run(&mut source()).unwrap();
    let driven_metrics = outcome.metrics.to_prometheus();
    let driven = outcome.monitor.unwrap();
    let mut replayed = HealthMonitor::new(backend.monitor_shape(), mcfg);
    tape.replay(&mut replayed);
    let mut replayed_metrics = MetricsRegistry::new();
    replayed.append_metrics(&mut replayed_metrics);
    assert_eq!(
        replayed.summary().to_json(),
        driven.summary().to_json(),
        "{name}: summary"
    );
    assert_eq!(
        replayed_metrics.to_prometheus(),
        driven_metrics,
        "{name}: registry"
    );
    assert_eq!(replayed.snapshots(), driven.snapshots(), "{name}");
    assert_eq!(
        replayed.recorder().dump_all(),
        driven.recorder().dump_all(),
        "{name}: flight recorder"
    );

    let outcome = session()
        .with_attribution(AttributionConfig::default())
        .run(&mut source())
        .unwrap();
    let driven_metrics = outcome.metrics.to_prometheus();
    let driven = outcome.attribution.unwrap();
    let mut sink = AttributionSink::new(AttributionConfig::default());
    tape.replay(&mut sink);
    let replayed = AttributionReport::assemble(sink, &report);
    assert_eq!(replayed.to_json(), driven.to_json(), "{name}: attribution");
    let mut replayed_metrics = MetricsRegistry::new();
    replayed.append_metrics(&mut replayed_metrics);
    assert_eq!(
        replayed_metrics.to_prometheus(),
        driven_metrics,
        "{name}: attribution registry"
    );
}

#[test]
fn observers_are_pure_folds_of_the_event_stream() {
    let ft = NocConfig::fasttrack(4, 2, 1, FtPolicy::Full).unwrap();
    check_observers_are_pure_folds("torus", TorusBackend::new(&ft), 4, None);
    // Drops and reroutes reach the fault cells and the in-flight gauge.
    check_observers_are_pure_folds(
        "faulted torus",
        TorusBackend::new(&ft),
        4,
        Some(&torus_faults()),
    );
    let hoplite = NocConfig::hoplite(4).unwrap();
    check_observers_are_pure_folds(
        "3-channel torus",
        TorusBackend::new(&hoplite).channels(3),
        4,
        None,
    );
    check_observers_are_pure_folds(
        "shg",
        ShgBackend::new(ShgConfig::new(4, 2).unwrap()),
        4,
        None,
    );
    check_observers_are_pure_folds(
        "mesh",
        MeshBackend::new(&MeshConfig::new(4, 2).unwrap()),
        4,
        None,
    );
}
