//! Property-based tests of the simulation engine: livelock freedom,
//! packet conservation, hop accounting, and deterministic replay across
//! randomized configurations and traffic.

use fasttrack_core::prelude::*;
use fasttrack_core::realtime::zero_load_latency;
use proptest::prelude::*;

mod common;

use common::random_batch;

/// Arbitrary valid NoC configuration on a small torus.
fn arb_config() -> impl Strategy<Value = NocConfig> {
    (2u16..=3, any::<u8>(), any::<bool>(), any::<bool>()).prop_map(
        |(n_exp, sel, full, dedicated)| {
            let n = 1u16 << n_exp; // 4 or 8
            let policy = if full {
                FtPolicy::Full
            } else {
                FtPolicy::Inject
            };
            // Enumerate valid (d, r) pairs for this n and pick one.
            let mut variants = vec![None]; // Hoplite
            for d in 1..=n / 2 {
                for r in 1..=d {
                    if d % r == 0 && n.is_multiple_of(r) {
                        variants.push(Some((d, r)));
                    }
                }
            }
            let choice = variants[sel as usize % variants.len()];
            let cfg = match choice {
                None => NocConfig::hoplite(n).unwrap(),
                Some((d, r)) => NocConfig::fasttrack(n, d, r, policy).unwrap(),
            };
            if dedicated {
                cfg.with_exit_policy(ExitPolicy::Dedicated)
            } else {
                cfg.with_exit_policy(ExitPolicy::SharedWithSouth)
            }
        },
    )
}

/// Drains a batch through a NoC, returning (deliveries, cycles).
fn drain(cfg: &NocConfig, batch: &[(usize, Coord)], max_cycles: u64) -> (Vec<Delivery>, u64) {
    let mut noc = Noc::new(cfg.clone());
    let mut queues = InjectQueues::new(cfg.num_nodes());
    for &(src, dst) in batch {
        queues.push(src, dst, 0, 0);
    }
    let mut deliveries = Vec::new();
    let mut cycle = 0;
    while cycle < max_cycles {
        noc.step(&mut queues, &mut deliveries, None);
        cycle += 1;
        if queues.is_empty() && noc.in_flight() == 0 {
            break;
        }
    }
    (deliveries, cycle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Livelock freedom + conservation: every enqueued packet is
    /// delivered, exactly once, to the right place.
    #[test]
    fn all_packets_delivered_exactly_once(
        cfg in arb_config(),
        per_pe in 1usize..12,
        seed in any::<u64>(),
    ) {
        let n = cfg.n();
        let batch = random_batch(n, per_pe, seed);
        let (deliveries, _) = drain(&cfg, &batch, 300_000);
        prop_assert_eq!(deliveries.len(), batch.len(), "lost packets on {}", cfg.name());
        let mut seen = std::collections::HashSet::new();
        for d in &deliveries {
            prop_assert!(seen.insert(d.packet.id), "duplicate delivery");
        }
        // Delivered to the correct destination.
        let mut expected = batch.clone();
        expected.sort_by_key(|&(s, d)| (s, d));
        let mut got: Vec<(usize, Coord)> = deliveries
            .iter()
            .map(|d| (d.packet.src.to_node_id(n), d.packet.dst))
            .collect();
        got.sort_by_key(|&(s, d)| (s, d));
        prop_assert_eq!(got, expected);
    }

    /// Hop accounting: every packet's total displacement (short hops +
    /// D x express hops) equals its source-destination offset modulo the
    /// ring size in each... summed over both dimensions: the total is
    /// congruent to dx + dy (every deflection adds a full ring lap or a
    /// compensated detour).
    #[test]
    fn hop_displacement_congruence(
        cfg in arb_config(),
        seed in any::<u64>(),
    ) {
        let n = cfg.n();
        let batch = random_batch(n, 4, seed);
        let (deliveries, _) = drain(&cfg, &batch, 300_000);
        let d_len = cfg.d().max(1) as u64;
        for del in &deliveries {
            let p = &del.packet;
            let dist = (p.src.dx_to(p.dst, n) + p.src.dy_to(p.dst, n)) as u64;
            let moved = p.short_hops as u64 + d_len * p.express_hops as u64;
            prop_assert!(moved >= dist || (dist - moved).is_multiple_of(n as u64),
                "impossible displacement: moved {moved}, dist {dist}");
            // Deflection-free packets take no detours at all (their
            // displacement may still wrap on express rings when D does
            // not divide the offset evenly).
            if p.deflections == 0 {
                prop_assert_eq!((moved as i64 - dist as i64).rem_euclid(n as i64), 0,
                    "deflection-free packet with non-congruent path: {:?}", p);
            }
        }
    }

    /// Determinism: identical configuration + identical batch produce
    /// identical makespans and delivery sets.
    #[test]
    fn deterministic_replay(cfg in arb_config(), seed in any::<u64>()) {
        let batch = random_batch(cfg.n(), 5, seed);
        let (d1, c1) = drain(&cfg, &batch, 300_000);
        let (d2, c2) = drain(&cfg, &batch, 300_000);
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(d1, d2);
    }

    /// Latency sanity: no packet is delivered before it could possibly
    /// arrive (injection + at least the express-optimal hop count), and
    /// outside the Full policy none beats a lone packet's zero-load
    /// latency. Under Full a contended packet can: one that turns south
    /// with an odd offset rides the short lane to the end (`N_sh` has no
    /// upgrade), while one deflected a row early turns with an even
    /// offset and boards the express lane.
    #[test]
    fn latency_lower_bound(cfg in arb_config(), seed in any::<u64>()) {
        let n = cfg.n();
        let batch = random_batch(n, 3, seed);
        let (deliveries, _) = drain(&cfg, &batch, 300_000);
        let floored = cfg.ft_policy() != Some(FtPolicy::Full);
        for del in &deliveries {
            let p = &del.packet;
            prop_assert!(del.cycle > p.injected_at);
            let net = del.network_latency();
            prop_assert!(net >= p.total_hops() as u64,
                "latency {net} below hop count {}", p.total_hops());
            let floor = zero_load_latency(&cfg, p.src.to_node_id(n), p.dst.to_node_id(n));
            prop_assert!(!floored || del.total_latency() >= floor,
                "latency {} below the zero-load floor {floor} on {}",
                del.total_latency(), cfg.name());
        }
    }

    /// Multi-channel NoCs obey the same conservation law and never beat
    /// the single-injection bound (one packet per PE per cycle).
    #[test]
    fn multichannel_conservation(
        channels in 1usize..4,
        per_pe in 1usize..8,
        seed in any::<u64>(),
    ) {
        let cfg = NocConfig::hoplite(4).unwrap();
        let batch = random_batch(4, per_pe, seed);
        let mut mnoc = MultiNoc::new(cfg, channels);
        let mut queues = InjectQueues::new(16);
        for &(src, dst) in &batch {
            queues.push(src, dst, 0, 0);
        }
        let mut deliveries = Vec::new();
        let mut cycles = 0u64;
        while cycles < 200_000 {
            mnoc.step_cycle(&mut queues, &mut deliveries, &mut NullSink);
            cycles += 1;
            if queues.is_empty() && mnoc.in_flight() == 0 {
                break;
            }
        }
        prop_assert_eq!(deliveries.len(), batch.len());
        // Injection bound: per_pe packets per PE need at least per_pe
        // injection cycles.
        prop_assert!(cycles >= per_pe as u64);
    }
}
