//! Property-based tests of the Sparse Hamming Graph backend: exact
//! conservation (healthy and under storm fault plans), loss-free
//! delivery on healthy fabrics, and bit-exact determinism of the
//! report *and* the event stream — the same guarantees the torus
//! engines carry, asserted for the first [`Topology`]-trait backend
//! that is not a torus.

use fasttrack_core::fault::{Fault, FaultPlan, StormSpec};
use fasttrack_core::geom::Coord;
use fasttrack_core::queue::InjectQueues;
use fasttrack_core::shg::ShgBackend;
use fasttrack_core::sim::{SimSession, TrafficSource};
use fasttrack_core::topology::{ShgConfig, ShgTopology, Topology};
use fasttrack_core::trace::VecSink;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Valid `(q, delta)` pairs: `2^(delta-1) < q`, kept small enough that
/// 32 cases stay fast.
fn arb_shg_config() -> impl Strategy<Value = ShgConfig> {
    (3u16..=9, any::<u8>()).prop_map(|(q, sel)| {
        let max_delta = (1u16..=3)
            .rev()
            .find(|d| (1u32 << (d - 1)) < u32::from(q))
            .unwrap();
        let delta = 1 + u16::from(sel) % max_delta;
        ShgConfig::new(q, delta).expect("pair is valid by construction")
    })
}

/// One randomized batch of packets, all pushed at cycle 0.
struct RandomBatch {
    items: Vec<(usize, Coord)>,
    pushed: bool,
}

impl RandomBatch {
    fn new(q: u16, per_pe: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let nodes = q as usize * q as usize;
        let mut items = Vec::new();
        for node in 0..nodes {
            for _ in 0..per_pe {
                items.push((node, Coord::new(rng.gen_range(0..q), rng.gen_range(0..q))));
            }
        }
        RandomBatch {
            items,
            pushed: false,
        }
    }
}

impl TrafficSource for RandomBatch {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        if !self.pushed {
            for &(s, d) in &self.items {
                queues.push(s, d, cycle, 0);
            }
            self.pushed = true;
        }
    }
    fn exhausted(&self) -> bool {
        self.pushed
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A healthy SHG delivers every packet: no drops, no truncation,
    /// exact conservation — distance-descent deflection never livelocks
    /// an all-at-once random batch.
    #[test]
    fn healthy_runs_deliver_everything(
        cfg in arb_shg_config(),
        per_pe in 1usize..6,
        seed in 0u64..500,
    ) {
        let mut src = RandomBatch::new(cfg.q(), per_pe, seed);
        let injected = src.items.len() as u64;
        let report = SimSession::with_backend(ShgBackend::new(cfg))
            .run(&mut src)
            .unwrap()
            .report;
        prop_assert!(!report.truncated);
        prop_assert!(report.conserved(), "{:?}", report.stats);
        prop_assert_eq!(report.stats.injected, injected);
        prop_assert_eq!(report.stats.delivered, injected);
        prop_assert_eq!(report.stats.dropped, 0);
    }

    /// Identical inputs produce bit-identical reports *and* event
    /// streams — the determinism contract sweeps, scenario replay, and
    /// the journaled-resume machinery all rely on.
    #[test]
    fn runs_are_bit_deterministic(cfg in arb_shg_config(), seed in 0u64..500) {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut sink = VecSink::new();
            let report = SimSession::with_backend(ShgBackend::new(cfg))
                .with_sink(&mut sink)
                .run(&mut RandomBatch::new(cfg.q(), 3, seed))
                .unwrap()
                .report;
            runs.push((report, sink.events));
        }
        let (a, b) = (runs.remove(0), runs.remove(0));
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    /// A plan whose only window opens after the run has ended arms the
    /// faulted step body, which must then run exactly like the healthy
    /// one (which only unobserved runs take): report and, observed,
    /// event stream.
    #[test]
    fn window_after_the_run_is_bit_identical(cfg in arb_shg_config(), seed in 0u64..500) {
        const LATE: u64 = 1 << 40;
        let topo = ShgTopology::new(cfg);
        let node = seed as usize % topo.num_nodes();
        let out = topo.out_links(node)[0].port;
        for fault in [
            Fault::FailStopRouter { node, at: LATE },
            Fault::StalledInjector { node, from: LATE, until: LATE + 1 },
            Fault::TransientLink { node, out, from: LATE, until: LATE + 1, corrupt: false },
        ] {
            let plan = FaultPlan::new().with(fault);
            let run = |plan: Option<&FaultPlan>| {
                let session = || {
                    let session = SimSession::with_backend(ShgBackend::new(cfg));
                    match plan {
                        Some(plan) => session.with_faults(plan),
                        None => session,
                    }
                };
                let traffic = || RandomBatch::new(cfg.q(), 3, seed);
                let bare = session().run(&mut traffic()).unwrap().report;
                let mut sink = VecSink::new();
                let observed = session().with_sink(&mut sink).run(&mut traffic()).unwrap().report;
                assert_eq!(bare, observed, "{fault}");
                (bare, sink.events)
            };
            let (healthy, healthy_events) = run(None);
            let (armed, armed_events) = run(Some(&plan));
            prop_assert!(!healthy.truncated);
            prop_assert_eq!(&healthy, &armed, "{}", fault);
            prop_assert!(healthy_events == armed_events, "{}", fault);
        }
    }

    /// Seeded storm plans (links dying and healing on a timeline,
    /// fail-stop routers, stalled injectors) never break conservation:
    /// `delivered + in_flight + dropped == injected`, exactly.
    #[test]
    fn storm_plans_conserve_exactly(
        cfg in arb_shg_config(),
        storm_seed in 0u64..500,
        traffic_seed in 0u64..500,
    ) {
        let topo = ShgTopology::new(cfg);
        let storm = FaultPlan::storm(&topo, storm_seed, &StormSpec::default());
        let mut src = RandomBatch::new(cfg.q(), 3, traffic_seed);
        let report = SimSession::with_backend(ShgBackend::new(cfg))
            .with_faults(&storm)
            .run(&mut src)
            .unwrap()
            .report;
        prop_assert!(report.conserved(), "{:?}", report.stats);
    }

    /// The trait-built route LUT always steers along a live productive
    /// slot on a healthy fabric: following `route_slot` greedily from
    /// any source reaches the destination within the BFS hop bound
    /// (strides are a radix decomposition, so greedy is minimal).
    #[test]
    fn greedy_lut_routes_terminate(cfg in arb_shg_config(), seed in 0u64..500) {
        let topo = ShgTopology::new(cfg);
        let nodes = topo.num_nodes();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..8 {
            let (mut at, dst) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            let mut hops = 0usize;
            while at != dst {
                let slot = topo.route_slot(at, dst);
                let links = topo.out_links(at);
                at = links[slot].dst;
                hops += 1;
                prop_assert!(hops <= 4 * usize::from(cfg.q()), "greedy route must not orbit");
            }
        }
    }
}
