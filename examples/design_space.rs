//! Design-space exploration: sweep the FastTrack parameters (express
//! length `D`, depopulation `R`, lane policy) and report the
//! cost/performance frontier — the tuning methodology of paper §IV/§VI.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use fasttrack::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 8u16;
    let width = 128;
    let device = Device::virtex7_485t();

    println!("== FastTrack design space: 8x8 NoC, RANDOM @50% injection, {width}b ==\n");
    println!(
        "{:<16} {:>8} {:>7} {:>8} {:>10} {:>12} {:>12}",
        "config", "LUTs", "wires", "MHz", "rate/PE", "Mpkt/s", "Mpkt/s/kLUT"
    );

    let mut configs = vec![NocConfig::hoplite(n)?];
    for d in [1u16, 2, 3, 4] {
        configs.push(NocConfig::fasttrack(n, d, 1, FtPolicy::Full)?);
        if d > 1 && n.is_multiple_of(d) {
            configs.push(NocConfig::fasttrack(n, d, d, FtPolicy::Full)?);
        }
    }
    configs.push(NocConfig::fasttrack(n, 2, 1, FtPolicy::Inject)?);

    let mut best: Option<(String, f64)> = None;
    for cfg in &configs {
        let mut src = BernoulliSource::new(n, Pattern::Random, 0.5, 1000, 9);
        let report = SimSession::new(cfg).run(&mut src).unwrap().report;
        let cost = noc_cost(cfg, width);
        let Ok(mhz) = noc_frequency_mhz(&device, cfg, width, 1) else {
            println!("{:<16} does not fit the device at {width}b", cfg.name());
            continue;
        };
        let mpkts = report.aggregate_rate() * mhz;
        let efficiency = mpkts / (cost.luts as f64 / 1000.0);
        let label = cfg.name();
        println!(
            "{:<16} {:>8} {:>7} {:>8.0} {:>10.4} {:>12.1} {:>12.2}",
            label,
            cost.luts,
            cost.wire_bundles_per_cut,
            mhz,
            report.sustained_rate_per_pe(),
            mpkts,
            efficiency,
        );
        if best.as_ref().is_none_or(|(_, e)| efficiency > *e) {
            best = Some((label, efficiency));
        }
    }

    if let Some((label, eff)) = best {
        println!("\nBest throughput per kLUT: {label} ({eff:.2} Mpkt/s/kLUT).");
    }
    println!(
        "Choose D ~ 2-3 for an 8x8 system; longer links strand short transfers (paper Fig 17)."
    );
    Ok(())
}
