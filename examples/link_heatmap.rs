//! Link-utilization heatmaps and packet path tracing: run a hotspot
//! workload through a session with a small counting sink attached, show
//! where the traffic actually flows, and print one packet's full journey
//! from the attribution layer's watch.
//!
//! ```sh
//! cargo run --release --example link_heatmap
//! ```

use fasttrack::prelude::*;

/// Output-port assignments per router: every assignment reaches a sink
/// as exactly one `RouteDecision` (in flight) or `Inject` (from the PE).
struct PortCounts(Vec<[u64; 5]>);

impl EventSink for PortCounts {
    fn emit(&mut self, event: &SimEvent) {
        if let SimEvent::RouteDecision { node, out, .. } | SimEvent::Inject { node, out, .. } =
            *event
        {
            self.0[node][out.index()] += 1;
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 8u16;
    let cfg = NocConfig::fasttrack(n, 2, 1, FtPolicy::Full)?;
    // 60% of every PE's packets aim at the quadrant-center hotspots.
    let mut source = BernoulliSource::new(n, Pattern::Hotspot { percent: 60 }, 0.2, 200, 13);
    let mut counts = PortCounts(vec![[0; 5]; cfg.num_nodes()]);
    let watched = PacketId(97);
    let outcome = SimSession::new(&cfg)
        .with_attribution(AttributionConfig::default().watch(watched))
        .with_sink(&mut counts)
        .run(&mut source)?;
    let cycles = outcome.report.cycles.max(1) as f64;
    let utilization = |node: usize, port: OutPort| counts.0[node][port.index()] as f64 / cycles;

    println!(
        "== {} hotspot run: {} cycles, {} delivered ==\n",
        cfg.name(),
        outcome.report.cycles,
        outcome.report.stats.delivered
    );
    for (label, port) in [
        ("E_sh (short east)", OutPort::EastSh),
        ("E_ex (express east)", OutPort::EastEx),
        ("S_sh (short south)", OutPort::SouthSh),
        ("S_ex (express south)", OutPort::SouthEx),
    ] {
        println!("{label} utilization deciles:");
        for y in 0..n {
            let row: String = (0..n)
                .map(|x| {
                    let u = utilization(Coord::new(x, y).to_node_id(n), port);
                    char::from(b'0' + (u * 10.0).floor().min(9.0) as u8)
                })
                .collect();
            println!("{row}");
        }
        println!();
    }

    let links = (0..cfg.num_nodes()).flat_map(|node| {
        OutPort::ALL
            .into_iter()
            .filter(|&p| p != OutPort::Exit)
            .map(move |p| (node, p))
    });
    if let Some((node, port)) = links.max_by_key(|&(node, p)| counts.0[node][p.index()]) {
        println!(
            "hottest link: {port} out of node {} ({:.0}% utilized)",
            Coord::from_node_id(node, n),
            utilization(node, port) * 100.0
        );
    }

    if let Some(journey) = outcome.attribution.and_then(|a| a.journey) {
        println!("\npacket {} path:", watched.0);
        for event in &journey.events {
            if let SimEvent::RouteDecision {
                cycle, node, out, ..
            }
            | SimEvent::Inject {
                cycle, node, out, ..
            } = *event
            {
                let at = Coord::from_node_id(node, n);
                println!("  cycle {cycle:>5}: {at} -> {out}");
            }
        }
    }
    Ok(())
}
