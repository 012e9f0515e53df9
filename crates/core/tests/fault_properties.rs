//! Property tests for the fault-injection subsystem: an empty
//! [`FaultPlan`], or one whose windows open only after the run, must be
//! invisible (bit-identical reports to the plain engine), the same seed
//! must always draw the same fault schedule, and exact packet
//! conservation — `delivered + in_flight + dropped ==
//! injected` — must survive every fault mix the generator can produce.

use fasttrack_core::prelude::*;
use proptest::prelude::*;

mod common;

use common::{arb_ft_config, BatchSource};

/// Regression: under the INJECT policy the express lanes have no turn
/// onto the shared ring, so a dead express link used to trap a
/// lane-locked express packet orbiting the express ring forever (the
/// run hit the cycle cap with one packet eternally in flight). Such
/// packets are now dropped as stranded at the first dead router, so the
/// run terminates and conserves.
#[test]
fn inject_policy_dead_express_link_terminates() {
    let cfg = NocConfig::fasttrack(8, 4, 1, FtPolicy::Inject).unwrap();
    let spec = FaultSpec {
        dead_links: 2,
        transient_links: 2,
        fail_stop_routers: 1,
        stalled_injectors: 1,
        down_links: 0,
        window: (0, 400),
    };
    let plan = FaultPlan::random(&cfg, 4 ^ 0xFA17, &spec);
    assert!(!plan.is_empty(), "the regression scenario needs dead links");
    let report = SimSession::new(&cfg)
        .options(SimOptions::with_max_cycles(100_000))
        .with_faults(&plan)
        .run(&mut BatchSource::random(cfg.n(), 2, 4))
        .map(|o| o.report)
        .expect("drawn plans always validate");
    assert!(
        !report.truncated,
        "stranded express packets must be dropped, not orbit forever \
         (in_flight {} at the cycle cap)",
        report.in_flight,
    );
    assert!(report.conserved());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An empty fault plan is structurally invisible: the report of the
    /// faulted engine is bit-identical to the plain engine on the same
    /// traffic, and nothing is dropped or rerouted.
    #[test]
    fn empty_plan_is_bit_identical(cfg in arb_ft_config(), seed in 0u64..1_000) {
        let opts = SimOptions::default();
        let plain = SimSession::new(&cfg).options(opts).run(&mut BatchSource::random(cfg.n(), 2, seed)).unwrap().report;
        let faulted = SimSession::new(&cfg).options(opts).with_faults(&FaultPlan::new()).run(&mut BatchSource::random(cfg.n(), 2, seed)).map(|o| o.report)
        .expect("empty plan always validates");
        prop_assert_eq!(&plain, &faulted);
        prop_assert_eq!(faulted.stats.dropped, 0);
        prop_assert_eq!(faulted.stats.rerouted, 0);
    }

    /// A plan whose only window opens after the run has ended arms the
    /// faulted step body, which must then run exactly like the healthy
    /// one (which only unobserved runs take) — report and, observed,
    /// event stream — on a lone torus and on a bank.
    #[test]
    fn window_after_the_run_is_bit_identical(cfg in arb_ft_config(), seed in 0u64..1_000) {
        const LATE: u64 = 1 << 40;
        let node = seed as usize % cfg.num_nodes();
        for fault in [
            Fault::FailStopRouter { node, at: LATE },
            Fault::StalledInjector { node, from: LATE, until: LATE + 1 },
            Fault::TransientLink { node, out: OutPort::EastSh, from: LATE, until: LATE + 1, corrupt: true },
        ] {
            let plan = FaultPlan::new().with(fault);
            for channels in [1, 2] {
                let run = |plan: Option<&FaultPlan>| {
                    let session = || {
                        let session = SimSession::new(&cfg).channels(channels);
                        match plan {
                            Some(plan) => session.with_faults(plan),
                            None => session,
                        }
                    };
                    let traffic = || BatchSource::random(cfg.n(), 3, seed);
                    let bare = session().run(&mut traffic()).unwrap().report;
                    let mut sink = VecSink::new();
                    let observed = session().with_sink(&mut sink).run(&mut traffic()).unwrap().report;
                    assert_eq!(bare, observed, "{fault} on {channels} channels");
                    (bare, sink.events)
                };
                let (healthy, healthy_events) = run(None);
                let (armed, armed_events) = run(Some(&plan));
                prop_assert!(!healthy.truncated);
                prop_assert_eq!(&healthy, &armed, "{} on {} channels", fault, channels);
                prop_assert!(healthy_events == armed_events, "{} on {} channels", fault, channels);
            }
        }
    }

    /// [`FaultPlan::random`] is a pure function of `(cfg, seed, spec)`:
    /// the same seed draws the same schedule, and nearby seeds diverge
    /// (the schedule actually depends on the seed).
    #[test]
    fn same_seed_same_fault_schedule(cfg in arb_ft_config(), seed in any::<u64>()) {
        let spec = FaultSpec {
            dead_links: 2,
            transient_links: 2,
            fail_stop_routers: 1,
            stalled_injectors: 1,
            down_links: 0,
            window: (0, 500),
        };
        let a = FaultPlan::random(&cfg, seed, &spec);
        let b = FaultPlan::random(&cfg, seed, &spec);
        prop_assert_eq!(&a, &b, "same seed must draw the same plan");
        prop_assert!(a.validate(&cfg).is_ok(), "drawn plans always validate");
        // Different seeds eventually differ; check a small neighborhood
        // rather than asserting on any single draw.
        let diverges = (1..=8u64)
            .any(|k| FaultPlan::random(&cfg, seed.wrapping_add(k), &spec) != a);
        prop_assert!(a.is_empty() || diverges, "schedule must depend on the seed");
    }

    /// Exact conservation under arbitrary fault mixes: every injected
    /// packet is delivered, still in flight at the cycle cap, or was
    /// dropped by a fault — nothing duplicated, nothing unaccounted.
    #[test]
    fn conservation_holds_under_faults(
        cfg in arb_ft_config(),
        seed in 0u64..1_000,
        dead in 0usize..3,
        transient in 0usize..3,
        fail_stop in 0usize..2,
        stalls in 0usize..2,
        corrupt_bias in any::<bool>(),
    ) {
        let spec = FaultSpec {
            dead_links: dead,
            transient_links: transient,
            fail_stop_routers: fail_stop,
            stalled_injectors: stalls,
            down_links: 0,
            // Early, tight window so the faults overlap the traffic; the
            // corrupt_bias seed bit varies drop vs corrupt draws.
            window: (0, if corrupt_bias { 200 } else { 400 }),
        };
        let plan = FaultPlan::random(&cfg, seed ^ 0xFA17, &spec);
        // Conservation holds truncated or not (in-flight packets are
        // counted), so a tight cycle cap keeps the suite fast even when
        // a fault mix degrades the fabric badly.
        let report = SimSession::new(&cfg).options(SimOptions::with_max_cycles(20_000)).with_faults(&plan).run(&mut BatchSource::random(cfg.n(), 2, seed)).map(|o| o.report)
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
        // Fail-stop and transient faults may lose packets; dead links
        // and stalls alone may also strand packets at full routers, but
        // never invent them.
        prop_assert!(report.stats.delivered + report.stats.dropped <= report.stats.injected);
    }

    /// The multi-channel engine keeps the same conservation invariant
    /// with the plan replicated into every channel.
    #[test]
    fn multichannel_conservation_holds_under_faults(
        seed in 0u64..500,
        channels in 1usize..3,
        dead in 0usize..2,
        fail_stop in 0usize..2,
    ) {
        let cfg = NocConfig::fasttrack(4, 2, 1, FtPolicy::Full).unwrap();
        let spec = FaultSpec {
            dead_links: dead,
            transient_links: 1,
            fail_stop_routers: fail_stop,
            stalled_injectors: 0,
            down_links: 0,
            window: (0, 300),
        };
        let plan = FaultPlan::random(&cfg, seed, &spec);
        let report = SimSession::new(&cfg).channels(channels).with_faults(&plan).run(&mut BatchSource::random(cfg.n(), 2, seed)).map(|o| o.report)
        .expect("drawn plans always validate");
        prop_assert!(
            report.conserved(),
            "delivered {} + in_flight {} + dropped {} != injected {}",
            report.stats.delivered,
            report.in_flight,
            report.stats.dropped,
            report.stats.injected,
        );
    }
}
