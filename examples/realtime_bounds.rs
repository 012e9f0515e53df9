//! Real-time characterization (HopliteRT-style, the paper's ref [30]):
//! exact zero-load latency floors per configuration, and how close
//! rate-regulated traffic stays to them — versus the unbounded tail of
//! unregulated deflection routing.
//!
//! ```sh
//! cargo run --release --example realtime_bounds
//! ```

use fasttrack::core::realtime::{zero_load_latency, zero_load_profile};
use fasttrack::core::topology::TorusTopology;
use fasttrack::prelude::*;
use fasttrack::traffic::regulated::RegulatedSource;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let configs = [
        NocConfig::hoplite(8)?,
        NocConfig::fasttrack(8, 2, 2, FtPolicy::Full)?,
        NocConfig::fasttrack(8, 2, 1, FtPolicy::Full)?,
    ];

    println!("== Zero-load latency floors (exact, per config) ==");
    println!(
        "{:<12} {:>10} {:>10} {:>22}",
        "config", "mean", "worst", "corner-to-corner"
    );
    for cfg in &configs {
        let topo = TorusTopology::new(cfg.clone());
        let p = zero_load_profile(&topo);
        let corner = zero_load_latency(&topo, 0, Coord::new(7, 7).to_node_id(8));
        println!(
            "{:<12} {:>10.2} {:>10} {:>22}",
            cfg.name(),
            p.mean,
            p.max,
            corner
        );
    }

    println!("\n== Regulated traffic: worst observed vs zero-load floor ==");
    println!(
        "{:<12} {:>8} {:>14} {:>12} {:>8}",
        "config", "period", "worst observed", "zero-load", "ratio"
    );
    for cfg in &configs {
        let floor = zero_load_profile(&TorusTopology::new(cfg.clone())).max;
        for period in [8u64, 16, 32] {
            let mut src = RegulatedSource::new(8, period, 300, 11);
            let report = SimSession::new(cfg).run(&mut src).unwrap().report;
            assert!(!report.truncated);
            let worst = report.worst_latency();
            println!(
                "{:<12} {:>8} {:>14} {:>12} {:>7.1}x",
                cfg.name(),
                period,
                worst,
                floor,
                worst as f64 / floor as f64
            );
        }
    }
    println!(
        "\nUnder admission control, FastTrack's worst case stays within a \
         small multiple of its (already smaller) zero-load floor — the \
         property a real-time overlay needs."
    );
    Ok(())
}
