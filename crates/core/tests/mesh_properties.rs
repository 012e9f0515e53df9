//! Property-based tests of the buffered mesh: conservation, deadlock
//! freedom, per-flow FIFO ordering, and minimal-path routing.

use fasttrack_core::geom::Coord;
use fasttrack_core::mesh::{MeshConfig, MeshNoc};
use fasttrack_core::packet::Delivery;
use fasttrack_core::queue::InjectQueues;
use fasttrack_core::sim::SimEngine;
use fasttrack_core::trace::NullSink;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn drain(cfg: MeshConfig, batch: &[(usize, Coord)], max: u64) -> (Vec<Delivery>, MeshNoc) {
    let mut noc = MeshNoc::new(cfg);
    let mut q = InjectQueues::new(cfg.num_nodes());
    for &(s, d) in batch {
        q.push(s, d, 0, 0);
    }
    let mut dels = Vec::new();
    for _ in 0..max {
        noc.step_cycle(&mut q, &mut dels, &mut NullSink);
        if q.is_empty() && noc.in_flight() == 0 {
            break;
        }
    }
    (dels, noc)
}

fn random_batch(n: u16, per_pe: usize, seed: u64) -> Vec<(usize, Coord)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes = n as usize * n as usize;
    let mut batch = Vec::new();
    for node in 0..nodes {
        for _ in 0..per_pe {
            batch.push((node, Coord::new(rng.gen_range(0..n), rng.gen_range(0..n))));
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every packet is delivered exactly once (deadlock/livelock/loss
    /// freedom) for arbitrary sizes, depths, and loads.
    #[test]
    fn conservation(
        n in 2u16..9,
        depth in 1usize..6,
        per_pe in 1usize..10,
        seed in any::<u64>(),
    ) {
        let cfg = MeshConfig::new(n, depth).unwrap();
        let batch = random_batch(n, per_pe, seed);
        let (dels, noc) = drain(cfg, &batch, 500_000);
        prop_assert_eq!(dels.len(), batch.len());
        prop_assert_eq!(noc.in_flight(), 0);
        let mut ids = std::collections::HashSet::new();
        for d in &dels {
            prop_assert!(ids.insert(d.packet.id));
            prop_assert_eq!(d.packet.dst.to_node_id(n), d.packet.dst.to_node_id(n));
        }
    }

    /// Buffered XY routing is minimal: every packet's hop count equals
    /// its Manhattan distance (no deflections ever).
    #[test]
    fn minimal_paths(n in 2u16..9, seed in any::<u64>()) {
        let cfg = MeshConfig::new(n, 4).unwrap();
        let batch = random_batch(n, 3, seed);
        let (dels, _) = drain(cfg, &batch, 500_000);
        for d in &dels {
            let (src, dst) = (d.packet.src, d.packet.dst);
            prop_assert_eq!(
                d.packet.short_hops,
                (src.x.abs_diff(dst.x) + src.y.abs_diff(dst.y)) as u32,
                "non-minimal path for {:?}", d.packet
            );
            prop_assert_eq!(d.packet.deflections, 0);
            prop_assert_eq!(d.packet.express_hops, 0);
        }
    }

    /// Per-flow FIFO order: two packets with the same source and
    /// destination are delivered in injection order (XY routing is a
    /// single path, FIFOs preserve order).
    #[test]
    fn per_flow_ordering(n in 2u16..7, seed in any::<u64>()) {
        let cfg = MeshConfig::new(n, 2).unwrap();
        let mut batch = random_batch(n, 4, seed);
        // Duplicate each entry so every flow has >= 2 packets.
        let dup = batch.clone();
        batch.extend(dup);
        let (dels, _) = drain(cfg, &batch, 500_000);
        let mut last_seen: std::collections::HashMap<(Coord, Coord), u64> =
            std::collections::HashMap::new();
        // Deliveries are pushed in cycle order; check ids per flow are
        // increasing given ids are assigned in push order per flow.
        for d in &dels {
            let key = (d.packet.src, d.packet.dst);
            if let Some(&prev) = last_seen.get(&key) {
                prop_assert!(d.packet.id.0 > prev, "flow reordered: {key:?}");
            }
            last_seen.insert(key, d.packet.id.0);
        }
    }

    /// Latency never beats the physical minimum (hops + ejection).
    #[test]
    fn latency_bound(n in 2u16..9, seed in any::<u64>()) {
        let cfg = MeshConfig::new(n, 3).unwrap();
        let batch = random_batch(n, 2, seed);
        let (dels, _) = drain(cfg, &batch, 500_000);
        for d in &dels {
            prop_assert!(d.total_latency() >= (d.packet.short_hops + 1) as u64);
        }
    }

    /// A fully composed mesh session (faults + sink + monitor +
    /// attribution + profile) is indistinguishable from the bare one:
    /// same report, same event stream, for arbitrary sizes and batches.
    #[test]
    fn fully_composed_session_matches_bare(
        n in 2u16..7,
        depth in 1usize..5,
        seed in any::<u64>(),
    ) {
        use fasttrack_core::attribution::AttributionConfig;
        use fasttrack_core::fault::{Fault, FaultPlan};
        use fasttrack_core::monitor::MonitorConfig;
        use fasttrack_core::sim::{SimSession, TrafficSource};
        use fasttrack_core::trace::VecSink;
        use fasttrack_core::mesh::MeshBackend;

        struct Batch {
            items: Vec<(usize, Coord)>,
            pushed: bool,
        }
        impl TrafficSource for Batch {
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

        let cfg = MeshConfig::new(n, depth).unwrap();
        let items = random_batch(n, 2, seed);
        let mk = || Batch { items: items.clone(), pushed: false };
        let plan = FaultPlan::new().with(Fault::StalledInjector { node: 0, from: 0, until: 20 });

        let mut bare_sink = VecSink::new();
        let bare = SimSession::with_backend(MeshBackend::new(&cfg))
            .with_faults(&plan)
            .with_sink(&mut bare_sink)
            .run(&mut mk())
            .unwrap()
            .report;

        let mut sink = VecSink::new();
        let outcome = SimSession::with_backend(MeshBackend::new(&cfg))
            .with_faults(&plan)
            .with_monitor(MonitorConfig::default())
            .with_attribution(AttributionConfig::default())
            .with_profile()
            .with_sink(&mut sink)
            .run(&mut mk())
            .unwrap();

        prop_assert_eq!(&bare, &outcome.report);
        prop_assert_eq!(&bare_sink.events, &sink.events);
        prop_assert_eq!(outcome.monitor.unwrap().summary().delivered, bare.stats.delivered);
        // Exact-sum only: the mesh keeps no `route_decisions` counter for
        // the wire-class reconciliation to check against.
        prop_assert_eq!(outcome.attribution.unwrap().mismatches, 0);
        prop_assert!(outcome.profile.is_some());
    }
}
