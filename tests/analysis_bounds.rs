//! Integration tests: the analytical models and the simulator agree on
//! every backend — a lone packet crosses exactly the zero-load path in
//! exactly the zero-load latency, simulated saturation throughput never
//! exceeds the wiring bound and approaches it within the known
//! deflection tax, and the model predicts the FastTrack/Hoplite
//! ordering.

use fasttrack::core::analysis::{channel_loads, permutation_traffic, uniform_traffic};
use fasttrack::core::realtime::zero_load_latency;
use fasttrack::prelude::*;
use fasttrack_bench::runner::{topology_of, NocUnderTest, SpecBackend};

fn spec(s: &str) -> TopologySpec {
    s.parse().unwrap()
}

fn saturated_rate(spec: &TopologySpec, pattern: Pattern, seed: u64) -> f64 {
    let mut src = BernoulliSource::new(spec.side(), pattern, 1.0, 400, seed);
    let session = NocUnderTest::from_spec(spec.clone()).session();
    let report = session.run(&mut src).unwrap().report;
    assert!(!report.truncated);
    report.sustained_rate_per_pe()
}

/// Every ordered pair of every backend, sent one packet at a time
/// through one engine: the zero-load latency is the lone packet's, and
/// a one-hot traffic matrix charges exactly the links that packet
/// crossed, with the engine's short/express split.
#[test]
fn zero_load_matches_engine_exactly() {
    let pipelined = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full)
        .unwrap()
        .with_link_pipeline(LinkPipeline {
            short: 1,
            express: 2,
        });
    let fabrics = [
        "hoplite:4",
        "ft:8:2:1",
        "ft:8:2:2",
        "ft:8:4:2",
        "ftlite:8:2:1",
        "ftlite:8:4:2",
        "ft:10:4:2",
        "shg:4:1",
        "shg:5:2",
        "shg:8:3",
        "mesh:3",
        "mesh:4",
    ]
    .map(|s| (s.to_string(), spec(s)))
    .into_iter()
    .chain([("ft:8:2:1 pipelined".into(), TopologySpec::Torus(pipelined))]);
    for (name, spec) in fabrics {
        let topo = topology_of(&spec);
        let links = topo.links();
        let nodes = topo.num_nodes();
        let mut engine = SpecBackend::new(&spec, 1).build(None).unwrap();
        let mut queues = InjectQueues::new(nodes);
        let mut cycle = 0;
        let mut one_hot = vec![vec![0.0; nodes]; nodes];
        for src in 0..nodes {
            for dst in 0..nodes {
                engine.reset_stats();
                queues.push(src, Coord::from_node_id(dst, spec.side()), cycle, 0);
                let (mut events, mut deliveries) = (VecSink::new(), Vec::new());
                while deliveries.is_empty() {
                    engine.step_cycle(&mut queues, &mut deliveries, &mut events);
                    cycle += 1;
                }
                let case = format!("{name}: {src} -> {dst}");
                let latency = deliveries[0].total_latency();
                assert_eq!(latency, zero_load_latency(&*topo, src, dst), "{case}");

                let mut visited: Vec<usize> = events
                    .events
                    .iter()
                    .filter_map(|e| match *e {
                        SimEvent::Inject { node, .. }
                        | SimEvent::RouteDecision { node, .. }
                        | SimEvent::Eject { node, .. } => Some(node),
                        _ => None,
                    })
                    .collect();
                visited.dedup();
                let mut crossed = vec![0.0; links.len()];
                for hop in visited.windows(2) {
                    let i = links
                        .iter()
                        .position(|l| (l.src, l.dst) == (hop[0], hop[1]));
                    crossed[i.expect("the engine crosses topology links")] += 1.0;
                }
                one_hot[src][dst] = 1.0;
                let loads = channel_loads(&*topo, &one_hot);
                one_hot[src][dst] = 0.0;
                assert_eq!(loads.links, crossed, "{case}");
                let express: f64 = links
                    .iter()
                    .zip(&loads.links)
                    .filter(|(l, _)| l.class == WireClass::Express)
                    .map(|(_, load)| load)
                    .sum();
                let short = loads.links.iter().sum::<f64>() - express;
                let usage = engine.stats_snapshot().link_usage;
                assert_eq!(
                    (short, express),
                    (usage.short_hops as f64, usage.express_hops as f64),
                    "{case}"
                );
            }
        }
    }
}

#[test]
fn simulated_throughput_never_exceeds_wiring_bound() {
    for spec in [
        "hoplite:8",
        "ft:8:2:1",
        "ft:8:2:2",
        "ft:8:4:1",
        "ftlite:8:2:1",
        "shg:8:2",
        "mesh:8:4",
    ]
    .map(spec)
    {
        let topo = topology_of(&spec);
        let loads = channel_loads(&*topo, &uniform_traffic(64));
        let bound = loads.saturation_bound();
        let rate = saturated_rate(&spec, Pattern::Random, 0xb0);
        let (busiest, _) = topo
            .links()
            .into_iter()
            .zip(&loads.links)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert!(
            rate <= bound * 1.02,
            "{}: simulated {rate:.3} exceeds analytic bound {bound:.3} \
             (most-loaded link {busiest:?})",
            spec.display_name()
        );
        // Deflection routing wastes wiring, but not more than ~4x of it
        // on uniform traffic at these sizes.
        assert!(
            rate >= bound / 4.0,
            "{}: simulated {rate:.3} implausibly far below bound {bound:.3}",
            spec.display_name()
        );
    }
}

#[test]
fn analytic_model_predicts_fasttrack_ordering() {
    let uniform = uniform_traffic(64);
    let hoplite = spec("hoplite:8");
    let ft = spec("ft:8:2:1");
    let bound = |s: &TopologySpec| channel_loads(&*topology_of(s), &uniform).saturation_bound();
    let bound_ratio = bound(&ft) / bound(&hoplite);
    let sim_ratio = saturated_rate(&ft, Pattern::Random, 0xb1)
        / saturated_rate(&hoplite, Pattern::Random, 0xb1);
    assert!(
        bound_ratio > 1.3,
        "model must predict an FT win, got {bound_ratio:.2}"
    );
    assert!(
        sim_ratio > 1.3,
        "simulation must confirm, got {sim_ratio:.2}"
    );
}

#[test]
fn transpose_turn_bottleneck_matches_model() {
    // The model pins transpose's bottleneck at the single turn link;
    // simulated Hoplite should sit exactly at that bound (transpose has
    // no contention anywhere else, so deflections are rare).
    let hoplite = spec("hoplite:8");
    let m = permutation_traffic(64, |s| {
        let c = Coord::from_node_id(s, 8);
        Coord::new(c.y, c.x).to_node_id(8)
    });
    let bound = channel_loads(&*topology_of(&hoplite), &m).saturation_bound();
    let rate = saturated_rate(&hoplite, Pattern::Transpose, 0xb2);
    assert!(
        (rate / bound) > 0.8 && rate <= bound * 1.02,
        "transpose: rate {rate:.3} vs bound {bound:.3}"
    );
}

#[test]
fn mean_hop_model_matches_deflection_free_traffic() {
    // At low load there are almost no deflections, so measured hops per
    // packet match the analytic minimal-path mean.
    let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap();
    let loads = channel_loads(&cfg, &uniform_traffic(64));
    let predicted = loads.mean_hops_per_packet(64.0);
    let mut src = BernoulliSource::new(8, Pattern::Random, 0.02, 300, 0xb3);
    let report = SimSession::new(&cfg).run(&mut src).unwrap().report;
    let measured = report.stats.link_usage.total() as f64 / report.stats.delivered as f64;
    assert!(
        (measured - predicted).abs() / predicted < 0.1,
        "hops/packet: measured {measured:.2} vs predicted {predicted:.2}"
    );
}
