//! The observer fan-out contract: on every backend, every subset of
//! {sink, monitor, attribution, profile} leaves the run identical to the
//! bare session — same `SimReport`, same event stream at the user sink —
//! and each attached observer sees that one stream in full.

use fasttrack::prelude::*;

/// Runs all 16 observer subsets on `backend` against the bare run.
fn check_all_subsets<B: SessionBackend + Clone>(name: &str, backend: B, side: u16, rate: f64) {
    let source = || BernoulliSource::new(side, Pattern::Random, rate, 30, 0xFA9);
    let bare = SimSession::with_backend(backend.clone())
        .run(&mut source())
        .unwrap()
        .report;
    let mut reference = VecSink::new();
    SimSession::with_backend(backend.clone())
        .with_sink(&mut reference)
        .run(&mut source())
        .unwrap();
    let eject_latency: u64 = reference
        .events
        .iter()
        .filter_map(|e| match e {
            SimEvent::Eject { delivery, .. } => Some(delivery.total_latency()),
            _ => None,
        })
        .sum();

    for mask in 0u8..16 {
        let [sink_on, monitor, attribution, profile] = [0, 1, 2, 3].map(|bit| mask >> bit & 1 == 1);
        let case = format!("{name}, subset {mask:04b}");
        let mut session = SimSession::with_backend(backend.clone());
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
        // Derived cells ride the monitor's registry when one is attached.
        if let Some(m) = &outcome.monitor {
            let text = m.registry().to_prometheus();
            assert_eq!(
                text.contains("fasttrack_attrib_packets_total"),
                attribution,
                "{case}"
            );
            assert_eq!(
                text.contains("fasttrack_profile_events_dispatched_total"),
                profile,
                "{case}"
            );
        }
    }
}

#[test]
fn every_observer_subset_is_passive_on_every_backend() {
    let ft = NocConfig::fasttrack(4, 2, 1, FtPolicy::Full).unwrap();
    check_all_subsets("torus", TorusBackend::new(&ft), 4, 0.6);
    let hoplite = NocConfig::hoplite(4).unwrap();
    check_all_subsets(
        "3-channel torus",
        TorusBackend::new(&hoplite).channels(3),
        4,
        0.6,
    );
    check_all_subsets(
        "shg",
        ShgBackend::new(ShgConfig::new(4, 2).unwrap()),
        4,
        0.6,
    );
    check_all_subsets(
        "mesh",
        MeshBackend::new(&MeshConfig::new(4, 2).unwrap()),
        4,
        0.6,
    );
    // Low load on a large torus: most routers are skipped every cycle.
    let ft16 = NocConfig::fasttrack(16, 2, 1, FtPolicy::Full).unwrap();
    check_all_subsets("low-load torus", TorusBackend::new(&ft16), 16, 0.05);
}
