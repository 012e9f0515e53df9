//! Differential properties for `SimSession` and the hot-path routing
//! kernel:
//!
//! * LUT-based route resolution ([`RouteMode::Lut`], the default) must
//!   be bit-identical to recomputing `compute_prefs` per decision
//!   ([`RouteMode::Direct`]) over random `FT(N², D, R)` grids, traffic,
//!   faults, and channel counts;
//! * a fully composed session (faults + sink + monitor + attribution +
//!   profile) must match the bare session's report and event stream.

use fasttrack_core::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;

use common::BatchSource;

/// Arbitrary FastTrack configuration with the paper's validity rules
/// (`D % R == 0`, `R` tiles the ring) enforced by construction. Sides
/// that are not powers of two matter: `gcd(D, N) < D` (as in
/// `ft:10:4:2`) is where express-aligned and express-worthwhile offsets
/// differ, which the route table's offset kinds must tell apart.
fn arb_ft_config() -> impl Strategy<Value = NocConfig> {
    (0usize..6, any::<u8>(), any::<bool>()).prop_map(|(side, sel, full)| {
        let n = [4u16, 6, 8, 10, 12, 16][side];
        let policy = if full {
            FtPolicy::Full
        } else {
            FtPolicy::Inject
        };
        let mut variants = Vec::new();
        for d in 1..=n / 2 {
            for r in 1..=d {
                if d % r == 0 && n.is_multiple_of(r) {
                    variants.push((d, r));
                }
            }
        }
        let (d, r) = variants[sel as usize % variants.len()];
        NocConfig::fasttrack(n, d, r, policy).unwrap()
    })
}

/// Open-loop Bernoulli injection, `per_pe` packets per PE (the traffic
/// crate's `BernoulliSource` sits above this crate).
struct BernoulliLoad {
    n: u16,
    rate: f64,
    left: Vec<u32>,
    rng: SmallRng,
}

impl BernoulliLoad {
    fn new(n: u16, rate: f64, per_pe: u32, seed: u64) -> Self {
        BernoulliLoad {
            n,
            rate,
            left: vec![per_pe; n as usize * n as usize],
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl TrafficSource for BernoulliLoad {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        for node in 0..self.left.len() {
            if self.left[node] > 0 && self.rng.gen::<f64>() < self.rate {
                let dst = Coord::new(self.rng.gen_range(0..self.n), self.rng.gen_range(0..self.n));
                queues.push(node, dst, cycle, 0);
                self.left[node] -= 1;
            }
        }
    }
    fn exhausted(&self) -> bool {
        self.left.iter().all(|&l| l == 0)
    }
}

/// The low-load regime (16x16 at 5 % injection), where the torus step
/// skips most routers every cycle: LUT and Direct still agree bit for
/// bit, and a fully observed session still reports and streams exactly
/// what the bare one does.
#[test]
fn low_load_16x16_sessions_agree() {
    let ft = NocConfig::fasttrack(16, 2, 1, FtPolicy::Full).unwrap();
    let hoplite = NocConfig::hoplite(16).unwrap();
    for (cfg, channels) in [(&ft, 1), (&hoplite, 3)] {
        let load = || BernoulliLoad::new(16, 0.05, 20, 0x10AD);
        let session = || SimSession::new(cfg).channels(channels);
        let mut bare_sink = VecSink::new();
        let bare = session()
            .with_sink(&mut bare_sink)
            .run(&mut load())
            .unwrap()
            .report;
        let direct = session()
            .route_mode(RouteMode::Direct)
            .run(&mut load())
            .unwrap()
            .report;
        assert_eq!(bare, direct, "{}", bare.config_name);

        let mut sink = VecSink::new();
        let composed = session()
            .with_monitor(MonitorConfig::default())
            .with_attribution(AttributionConfig::default())
            .with_profile()
            .with_sink(&mut sink)
            .run(&mut load())
            .unwrap();
        assert_eq!(bare, composed.report, "{}", bare.config_name);
        assert_eq!(bare_sink.events, sink.events, "{}", bare.config_name);

        // The regime is the one claimed: most router-cycles were skipped.
        assert_eq!(bare.stats.delivered, 256 * 20);
        let dense = bare.cycles * 256 * channels as u64;
        assert!(
            bare.stats.router_visits * 2 < dense,
            "{}: {} visits of {dense} router-cycles",
            bare.config_name,
            bare.stats.router_visits
        );
    }
}

/// One batch run under `mode`: its report and its whole event stream.
fn observed(
    cfg: &NocConfig,
    channels: usize,
    mode: RouteMode,
    plan: Option<&FaultPlan>,
    per_pe: usize,
    seed: u64,
) -> (SimReport, Vec<SimEvent>) {
    let mut sink = VecSink::new();
    let mut session = SimSession::new(cfg).channels(channels).route_mode(mode);
    if let Some(plan) = plan {
        session = session.with_faults(plan);
    }
    let report = session
        .with_sink(&mut sink)
        .run(&mut BatchSource::random(cfg.n(), per_pe, seed))
        .unwrap()
        .report;
    (report, sink.events)
}

/// Past saturation — forty packets queued at every PE — routers hold
/// three and four packets at once, which a three-packet batch barely
/// produces: the memoised multi-input decisions must still be the
/// allocator's, event for event, healthy, gated and faulted.
#[test]
fn saturated_lut_runs_match_direct_event_for_event() {
    let ft = |n, d, r, policy| NocConfig::fasttrack(n, d, r, policy).unwrap();
    for (cfg, channels) in [
        (ft(8, 2, 2, FtPolicy::Full), 1),
        (ft(10, 4, 2, FtPolicy::Full), 1),
        (ft(10, 4, 2, FtPolicy::Inject), 2),
        (ft(6, 3, 1, FtPolicy::Inject), 1),
        (NocConfig::hoplite(6).unwrap(), 3),
    ] {
        for plan in [None, Some(small_plan(&cfg, 5))] {
            let run = |mode| observed(&cfg, channels, mode, plan.as_ref(), 40, 9);
            let (lut, lut_events) = run(RouteMode::Lut);
            let (direct, direct_events) = run(RouteMode::Direct);
            assert_eq!(lut, direct, "{}", lut.config_name);
            assert!(lut_events == direct_events, "{} events", lut.config_name);
            if channels == 1 && plan.is_none() {
                // The regime is the one claimed.
                let decisions = lut.stats.route_decisions as f64;
                assert!(
                    decisions > 1.5 * lut.stats.router_visits as f64,
                    "{}: {decisions} decisions over {} visits",
                    lut.config_name,
                    lut.stats.router_visits
                );
            }
        }
    }
}

/// FTlite banks under the standard fallback chains, past saturation and
/// with express links dead and dying: stranded express packets are
/// demoted (or, with the chains off, dropped), allocation losers switch
/// channels and sibling channels shut exit gates — all of it memoised
/// per live-output block in LUT mode and decided afresh in Direct mode,
/// event for event.
#[test]
fn inject_policy_fallback_banks_match_direct() {
    let spec = FaultSpec {
        dead_links: 6,
        transient_links: 2,
        fail_stop_routers: 1,
        stalled_injectors: 1,
        down_links: 12,
        window: (0, 300),
    };
    let (mut demotions, mut switches, mut dropped) = (0, 0, 0);
    for (n, d, r) in [(8, 4, 1), (8, 2, 1), (10, 4, 2)] {
        let cfg = NocConfig::fasttrack(n, d, r, FtPolicy::Inject).unwrap();
        for seed in 0..3 {
            let plan = FaultPlan::random(&cfg, seed, &spec);
            for fallback in [FallbackConfig::standard(), FallbackConfig::none()] {
                let run = |mode| {
                    let mut sink = VecSink::new();
                    let report = SimSession::new(&cfg)
                        .channels(2)
                        .route_mode(mode)
                        .with_faults(&plan)
                        .with_fallback(&fallback)
                        .unwrap()
                        .with_sink(&mut sink)
                        .run(&mut BatchSource::random(n, 20, seed))
                        .unwrap()
                        .report;
                    (report, sink.events)
                };
                let (lut, lut_events) = run(RouteMode::Lut);
                let (direct, direct_events) = run(RouteMode::Direct);
                assert_eq!(lut, direct, "{} seed {seed}", lut.config_name);
                assert!(lut_events == direct_events, "{} events", lut.config_name);
                demotions += lut.stats.fallback_demotions;
                switches += lut.stats.fallback_channel_switches;
                dropped += lut.stats.dropped;
            }
        }
    }
    // Every path the word drives ran.
    assert!(demotions > 0 && switches > 0 && dropped > 0);
}

/// A fault plan exercising every supported fault kind, drawn
/// deterministically from a seed (always torus-safe by construction).
fn small_plan(cfg: &NocConfig, seed: u64) -> FaultPlan {
    let spec = FaultSpec {
        dead_links: 1,
        transient_links: 1,
        fail_stop_routers: 1,
        stalled_injectors: 1,
        down_links: 0,
        window: (0, 200),
    };
    FaultPlan::random(cfg, seed ^ 0xFA17, &spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Route-LUT dispatch is bit-identical to direct computation for
    /// whole simulations over random FT grids (reports carry every
    /// counter, histogram, and the cycle count, so equality here is
    /// cycle-exactness).
    #[test]
    fn lut_routing_is_bit_identical_to_direct(cfg in arb_ft_config(), seed in 0u64..500) {
        let (lut, lut_events) = observed(&cfg, 1, RouteMode::Lut, None, 3, seed);
        let (direct, direct_events) = observed(&cfg, 1, RouteMode::Direct, None, 3, seed);
        prop_assert_eq!(lut, direct);
        prop_assert_eq!(lut_events, direct_events);
    }

    /// Same bit-identity through the multi-channel bank (the LUT is
    /// shared across channels there) and under faults.
    #[test]
    fn lut_matches_direct_multichannel_faulted(
        cfg in arb_ft_config(),
        channels in 1usize..=3,
        seed in 0u64..500,
    ) {
        // Gated visits (channels > 1) and dead-link visits read degraded
        // decision blocks, healthy ones around them the healthy block:
        // one run crosses that boundary many times.
        let plan = small_plan(&cfg, seed);
        let run = |mode: RouteMode| observed(&cfg, channels, mode, Some(&plan), 2, seed);
        let (lut, lut_events) = run(RouteMode::Lut);
        let (direct, direct_events) = run(RouteMode::Direct);
        prop_assert_eq!(&lut, &direct);
        prop_assert_eq!(lut_events, direct_events);
        // A bank is named `<fabric>-{k}x`; one channel is the plain name.
        let bank = match channels {
            1 => cfg.name(),
            k => format!("{}-{k}x", cfg.name()),
        };
        prop_assert_eq!(lut.config_name, bank);
    }

    /// Composing everything at once — faults, sink, monitor,
    /// attribution, profile — still matches the bare faulted session's
    /// report and event stream: observation never perturbs.
    #[test]
    fn fully_composed_session_matches_bare(cfg in arb_ft_config(), seed in 0u64..500) {
        let plan = small_plan(&cfg, seed);
        let mut bare_sink = VecSink::new();
        let bare = SimSession::new(&cfg)
            .with_faults(&plan)
            .with_sink(&mut bare_sink)
            .run(&mut BatchSource::random(cfg.n(), 2, seed))
            .unwrap()
            .report;
        let mut sink = VecSink::new();
        let outcome = SimSession::new(&cfg)
            .with_faults(&plan)
            .with_monitor(MonitorConfig::default())
            .with_attribution(AttributionConfig::default())
            .with_profile()
            .with_sink(&mut sink)
            .run(&mut BatchSource::random(cfg.n(), 2, seed))
            .unwrap();
        prop_assert_eq!(&bare, &outcome.report);
        prop_assert_eq!(&bare_sink.events, &sink.events);
        prop_assert!(outcome.monitor.unwrap().summary().injected > 0);
        prop_assert!(outcome.attribution.unwrap().reconciled());
        let dispatched = outcome.profile.unwrap().summary().events_dispatched;
        prop_assert_eq!(dispatched, sink.events.len() as u64);
    }
}
