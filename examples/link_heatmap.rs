//! Link-utilization heatmaps and packet path tracing: step the engine
//! with a probe as its event sink, run a hotspot workload, and visualize
//! where the traffic actually flows — including one sampled packet's
//! full journey.
//!
//! ```sh
//! cargo run --release --example link_heatmap
//! ```

use fasttrack::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 8u16;
    let cfg = NocConfig::fasttrack(n, 2, 1, FtPolicy::Full)?;
    let mut noc = Noc::new(cfg.clone());
    let mut probe = Probe::with_tracing(n, TraceSelect::Sampled(97));

    // Hotspot workload: everyone hammers the node at (6,6), plus
    // background random traffic.
    let mut queues = InjectQueues::new(cfg.num_nodes());
    let mut source = BernoulliSource::new(n, Pattern::Random, 0.2, 200, 13);
    let hotspot = Coord::new(6, 6);
    let mut deliveries = Vec::new();
    let mut cycle = 0u64;
    loop {
        source.pump(cycle, &mut queues);
        if cycle.is_multiple_of(4) && cycle < 800 {
            let src = (cycle as usize * 7) % cfg.num_nodes();
            if src != hotspot.to_node_id(n) {
                queues.push(src, hotspot, cycle, 1);
            }
        }
        noc.step_with_sink(&mut queues, &mut deliveries, None, &mut probe);
        cycle += 1;
        if cycle > 800 && queues.is_empty() && noc.in_flight() == 0 {
            break;
        }
    }

    println!(
        "== {} hotspot run: {} cycles, {} delivered ==\n",
        cfg.name(),
        cycle,
        deliveries.len()
    );
    for (label, port) in [
        ("E_sh (short east)", OutPort::EastSh),
        ("E_ex (express east)", OutPort::EastEx),
        ("S_sh (short south)", OutPort::SouthSh),
        ("S_ex (express south)", OutPort::SouthEx),
    ] {
        println!("{label} utilization deciles:");
        println!("{}", probe.heatmap(port));
    }

    if let Some((node, port, u)) = probe.hottest_link() {
        println!(
            "hottest link: {} out of node {} ({:.0}% utilized)",
            port,
            Coord::from_node_id(node, n),
            u * 100.0
        );
    }

    if let Some(id) = probe.traced_ids().next() {
        println!("\nsampled packet {:?} path:", id.0);
        for step in probe.path(id).unwrap() {
            println!("  cycle {:>5}: {} -> {}", step.cycle, step.at, step.out);
        }
    }
    Ok(())
}
