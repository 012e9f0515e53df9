//! Property tests for the fallback-chain routing subsystem: an empty
//! chain config must be structurally invisible (bit-identical reports
//! *and* event streams to the no-fallback engine), exact conservation —
//! `delivered + in_flight + dropped == injected` — must survive links
//! dying with packets in flight and healing mid-run, and the whole
//! machinery must stay a pure function of its seeds (byte-determinism
//! across repeated runs).

use fasttrack_core::prelude::*;
use proptest::prelude::*;

mod common;

use common::{arb_ft_config, BatchSource};

/// A storm-flavored fault spec: links die *and recover* inside the
/// given window, with a few permanent dead links mixed in.
fn storm_spec(down: usize, dead: usize, window: u64) -> FaultSpec {
    FaultSpec {
        dead_links: dead,
        transient_links: 0,
        fail_stop_routers: 0,
        stalled_injectors: 0,
        down_links: down,
        window: (0, window),
    }
}

/// Directed regression: an express link dies while packets are in
/// flight, then heals while the run is still draining. Conservation
/// must hold through both epoch transitions and traffic injected after
/// the heal must still deliver.
#[test]
fn link_dies_with_packets_in_flight_then_heals() {
    let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap();
    // Every express link at row 0 goes down early and recovers mid-run.
    let plan = FaultPlan::random(&cfg, 0x5702, &storm_spec(6, 0, 120));
    assert!(!plan.is_empty(), "the scenario needs dynamic outages");
    let report = SimSession::new(&cfg)
        .options(SimOptions::with_max_cycles(100_000))
        .with_fallback(&FallbackConfig::standard())
        .expect("standard chains validate")
        .with_faults(&plan)
        .run(&mut BatchSource::random(cfg.n(), 3, 0x5702))
        .map(|o| o.report)
        .expect("drawn plans always validate");
    assert!(!report.truncated, "the run must drain after the heal");
    assert!(report.conserved());
    assert_eq!(
        report.stats.delivered + report.stats.dropped,
        report.stats.injected,
        "a drained run accounts for every packet"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An empty chain config is structurally invisible: with the same
    /// faults and traffic, `with_fallback(none)` produces a report and
    /// an event stream bit-identical to a session that never called
    /// `with_fallback` — i.e. exactly today's drop behavior.
    #[test]
    fn empty_chains_are_bit_identical_to_drop_behavior(
        cfg in arb_ft_config(),
        seed in 0u64..1_000,
        down in 0usize..4,
        dead in 0usize..3,
    ) {
        use fasttrack_core::trace::VecSink;
        let plan = FaultPlan::random(&cfg, seed ^ 0xFA11, &storm_spec(down, dead, 300));
        let opts = SimOptions::with_max_cycles(50_000);

        let mut plain_events = VecSink::new();
        let plain = SimSession::new(&cfg)
            .options(opts)
            .with_faults(&plan)
            .with_sink(&mut plain_events)
            .run(&mut BatchSource::random(cfg.n(), 2, seed))
            .map(|o| o.report)
            .expect("drawn plans always validate");

        let mut none_events = VecSink::new();
        let none = SimSession::new(&cfg)
            .options(opts)
            .with_fallback(&FallbackConfig::none())
            .expect("empty chains validate")
            .with_faults(&plan)
            .with_sink(&mut none_events)
            .run(&mut BatchSource::random(cfg.n(), 2, seed))
            .map(|o| o.report)
            .expect("drawn plans always validate");

        prop_assert_eq!(&plain, &none, "empty chains must not perturb the report");
        prop_assert_eq!(&plain_events.events, &none_events.events,
            "empty chains must not perturb the event stream");
    }

    /// Exact conservation across recovery windows: links die with
    /// packets in flight and heal mid-run, with the standard chains
    /// demoting and rerouting — nothing duplicated, nothing
    /// unaccounted, at one or several channels.
    #[test]
    fn conservation_holds_across_recovery_windows(
        cfg in arb_ft_config(),
        seed in 0u64..1_000,
        down in 1usize..5,
        dead in 0usize..2,
        channels in 1usize..3,
    ) {
        let plan = FaultPlan::random(&cfg, seed ^ 0x5702, &storm_spec(down, dead, 400));
        let report = SimSession::new(&cfg)
            .options(SimOptions::with_max_cycles(30_000))
            .channels(channels)
            .with_fallback(&FallbackConfig::standard())
            .expect("standard chains validate")
            .with_faults(&plan)
            .run(&mut BatchSource::random(cfg.n(), 2, seed))
            .map(|o| o.report)
            .expect("drawn plans always validate");
        prop_assert!(
            report.conserved(),
            "delivered {} + in_flight {} + dropped {} != injected {} (plan: {})",
            report.stats.delivered,
            report.in_flight,
            report.stats.dropped,
            report.stats.injected,
            plan,
        );
        prop_assert!(report.stats.delivered + report.stats.dropped <= report.stats.injected);
        // Demotions and channel switches are reroutes by definition.
        prop_assert!(
            report.stats.fallback_demotions + report.stats.fallback_channel_switches
                <= report.stats.rerouted
        );
    }

    /// Byte-determinism over recovery windows: the same seeds produce
    /// the same report and the same event stream, run after run, with
    /// the full chain machinery (demotion, eviction, epoch patching)
    /// engaged.
    #[test]
    fn recovery_windows_are_byte_deterministic(
        cfg in arb_ft_config(),
        seed in 0u64..1_000,
        down in 1usize..5,
    ) {
        use fasttrack_core::trace::VecSink;
        let plan = FaultPlan::random(&cfg, seed ^ 0x5702, &storm_spec(down, 1, 400));
        let run = || {
            let mut events = VecSink::new();
            let report = SimSession::new(&cfg)
                .options(SimOptions::with_max_cycles(30_000))
                .with_fallback(&FallbackConfig::standard())
                .expect("standard chains validate")
                .with_faults(&plan)
                .with_sink(&mut events)
                .run(&mut BatchSource::random(cfg.n(), 2, seed))
                .map(|o| o.report)
                .expect("drawn plans always validate");
            (report, events.events)
        };
        let (report_a, events_a) = run();
        let (report_b, events_b) = run();
        prop_assert_eq!(&report_a, &report_b);
        prop_assert_eq!(&events_a, &events_b);
    }
}
