//! Conservation invariants over random FastTrack configurations: every
//! injected packet is ejected exactly once (no duplication, no loss), at
//! its destination, having covered at least the DOR distance. The
//! configuration generator only emits valid `FT(N², D, R)` shapes — `R`
//! divides `D` and tiles the ring — so every case exercises express
//! datapaths rather than erroring in the constructor.

use fasttrack_core::prelude::*;
use proptest::prelude::*;

mod common;

use common::{arb_ft_config, random_batch};

/// Drains a batch through a NoC, returning the deliveries.
fn drain(cfg: &NocConfig, batch: &[(usize, Coord)]) -> Vec<Delivery> {
    let mut noc = Noc::new(cfg.clone());
    let mut queues = InjectQueues::new(cfg.num_nodes());
    for &(src, dst) in batch {
        queues.push(src, dst, 0, 0);
    }
    let mut deliveries = Vec::new();
    let mut cycle = 0u64;
    while cycle < 300_000 {
        noc.step(&mut queues, &mut deliveries, None);
        cycle += 1;
        if queues.is_empty() && noc.in_flight() == 0 {
            break;
        }
    }
    deliveries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The generator only produces valid FastTrack shapes.
    #[test]
    fn generator_respects_divisibility(cfg in arb_ft_config()) {
        let (d, r) = (cfg.d(), cfg.r());
        prop_assert!(d >= 1);
        prop_assert!(r >= 1);
        prop_assert_eq!(d % r, 0, "R must divide D in {}", cfg.name());
        prop_assert_eq!(cfg.n() % r, 0, "R must tile the ring in {}", cfg.name());
    }

    /// Exactly-once ejection: every injected packet shows up once in the
    /// delivery stream (by `PacketId`), and nothing else does.
    #[test]
    fn every_injection_ejected_exactly_once(
        cfg in arb_ft_config(),
        per_pe in 1usize..10,
        seed in any::<u64>(),
    ) {
        let batch = random_batch(cfg.n(), per_pe, seed);
        let deliveries = drain(&cfg, &batch);
        prop_assert_eq!(deliveries.len(), batch.len(),
            "lost or phantom packets on {}", cfg.name());
        let mut ids = std::collections::HashSet::new();
        for del in &deliveries {
            prop_assert!(ids.insert(del.packet.id),
                "packet {:?} ejected twice on {}", del.packet.id, cfg.name());
        }
    }

    /// Packets land where they were addressed, and their displacement
    /// (short hops + D x express hops) is at least the DOR distance —
    /// express links can overshoot and wrap, never undershoot.
    #[test]
    fn hops_cover_dor_distance(
        cfg in arb_ft_config(),
        seed in any::<u64>(),
    ) {
        let n = cfg.n();
        let batch = random_batch(n, 4, seed);
        let deliveries = drain(&cfg, &batch);
        prop_assert_eq!(deliveries.len(), batch.len());
        let d_len = cfg.d() as u64;
        for del in &deliveries {
            let p = &del.packet;
            let dor = (p.src.dx_to(p.dst, n) + p.src.dy_to(p.dst, n)) as u64;
            let moved = p.short_hops as u64 + d_len * p.express_hops as u64;
            prop_assert!(moved >= dor,
                "packet covered {moved} < DOR distance {dor} on {}", cfg.name());
            prop_assert!(del.network_latency() >= p.total_hops() as u64,
                "latency below hop count on {}", cfg.name());
        }
    }
}
