//! Ablations beyond the paper: exit-port microarchitecture, lane-change
//! policy and extra link pipeline registers, on the same `SweepGrid`.
//! Their claims are this reproduction's own, stated with the margin
//! each mechanism has to show.

use fasttrack_core::config::{ExitPolicy, FtPolicy, LinkPipeline, NocConfig};
use fasttrack_core::topology::topology_of;
use fasttrack_fpga::device::Device;
use fasttrack_fpga::resources::noc_cost;
use fasttrack_fpga::routability::noc_frequency_mhz;
use fasttrack_traffic::pattern::Pattern;

use super::{about, f, hoplite, rate, ratio, report, torus, Col, Outcome, Scale};
use crate::runner::{NocUnderTest, SweepRow};

const RANDOM: [Pattern; 1] = [Pattern::Random];

fn ft(d: u16, r: u16, policy: FtPolicy) -> NocConfig {
    NocConfig::fasttrack(8, d, r, policy).expect("valid 8x8 FastTrack config")
}

pub(super) fn exit(scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let full = |r| ft(2, r, FtPolicy::Full);
    let bases = [NocConfig::hoplite(8).expect("valid"), full(2), full(1)];
    let exits = [
        ("shared S/exit", ExitPolicy::SharedWithSouth),
        ("dedicated", ExitPolicy::Dedicated),
    ];
    let variant = |base: &NocConfig, (name, policy)| {
        torus(
            format!("{} / {name}", base.name()),
            base.clone().with_exit_policy(policy),
        )
    };
    let nuts: Vec<NocUnderTest> = bases
        .iter()
        .flat_map(|b| exits.map(|e| variant(b, e)))
        .collect();
    let rows = out.grid(&nuts, &RANDOM, &[1.0], 5, scale);
    // Per row: the dedicated-exit gain over the shared-exit row before it.
    let gain = |i: usize| rate(&rows[i].report) / rate(&rows[i - 1].report);
    let gain_cell = |i: usize| {
        if i % 2 == 1 {
            format!("{:.2}x", gain(i))
        } else {
            String::new()
        }
    };
    let cols: [Col<(usize, &SweepRow)>; 5] = [
        ("Config", &|(i, _)| bases[i / 2].name()),
        ("Exit", &|(i, _)| exits[i % 2].0.into()),
        ("Rate (pkt/cyc/PE)", &|(_, r)| f(rate(&r.report), 4)),
        ("Avg latency", &|(_, r)| f(r.report.avg_latency(), 1)),
        ("Dedicated-exit gain", &|(i, _)| gain_cell(*i)),
    ];
    out.table("ablation_exit_policy", rows.iter().enumerate(), &cols);
    let [hoplite, ft22, ft21] = [1, 3, 5].map(gain);
    out.holds(
        "the dedicated 5:1 exit mux buys both FastTrack NoCs over 1.2× their shared-exit rate, and \
         more than it buys Hoplite — which is why Fig 9b's router has one and Hoplite's does not",
        format!("Hoplite {hoplite:.2}×, FT(64,2,2) {ft22:.2}×, FT(64,2,1) {ft21:.2}×"),
        ft22.min(ft21) > 1.2 && ft22.min(ft21) > hoplite,
    );
    out
}

pub(super) fn lane(scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let patterns = [Pattern::Random, Pattern::BitComplement];
    // (D, policy) in table order, then Hoplite as the floor.
    let (full, inject) = (FtPolicy::Full, FtPolicy::Inject);
    let variants = [(2u16, full), (2, inject), (4, full), (4, inject)];
    let variant = |(d, policy)| torus(format!("D={d} {policy}"), ft(d, 1, policy));
    let mut nuts = variants.map(variant).to_vec();
    nuts.push(hoplite(8));
    let rows = out.grid(&nuts, &patterns, &[1.0], 3, scale);
    let at = |label: &str, pattern| rate(report(&rows, label, pattern, 1.0));
    let luts = |i: usize| noc_cost(&*topology_of(&nuts[i].topology), 256).luts;
    let cols: [Col<(Pattern, usize)>; 6] = [
        ("Pattern", &|(p, _)| p.name().into()),
        ("D", &|(_, i)| variants[*i].0.to_string()),
        ("Policy", &|(_, i)| variants[*i].1.to_string()),
        ("Rate (pkt/cyc/PE)", &|(p, i)| f(at(&nuts[*i].label, *p), 4)),
        ("NoC LUTs", &|(_, i)| luts(*i).to_string()),
        ("Rate/kLUT", &|(p, i)| {
            f(at(&nuts[*i].label, *p) * 1e6 / luts(*i) as f64, 2)
        }),
    ];
    let cells = patterns
        .iter()
        .flat_map(|&p| (0..variants.len()).map(move |i| (p, i)));
    out.table("ablation_lane_policy", cells, &cols);
    let [full, inject, floor] =
        ["D=2 full", "D=2 inject", "Hoplite"].map(|l| at(l, Pattern::Random));
    out.band(
        "mid-flight lane changes are most of the win: FT(Full) sustains ~2× FTlite(Inject) on \
         RANDOM at D=2",
        ratio(full, inject),
        about(2.0),
    );
    out.holds(
        "FTlite(Inject) still sits strictly between Hoplite and FT(Full)",
        format!("{floor:.4} < {inject:.4} < {full:.4}"),
        floor < inject && inject < full,
    );
    out
}

pub(super) fn pipe(scale: Scale) -> Outcome {
    const WIDTH: u32 = 128;
    let mut out = Outcome::default();
    let device = Device::virtex7_485t();
    let extras = [(0u8, 0u8), (0, 1), (1, 1), (1, 2)];
    let variant = |d, (short, express)| {
        let cfg = ft(d, 1, FtPolicy::Full).with_link_pipeline(LinkPipeline { short, express });
        torus(format!("{} +{short}/{express}", cfg.name()), cfg)
    };
    let nuts: Vec<NocUnderTest> = [2, 4]
        .iter()
        .flat_map(|&d| extras.map(|e| variant(d, e)))
        .collect();
    let rows = out.grid(&nuts, &RANDOM, &[1.0], 17, scale);
    let topo = |i: usize| topology_of(&nuts[i].topology);
    let mhz = |i: usize| noc_frequency_mhz(&device, &*topo(i), WIDTH, 1).expect("8x8 fits at 128b");
    let mpkts = |i: usize| rows[i].report.aggregate_rate() * mhz(i);
    let cols: [Col<usize>; 6] = [
        ("Config", &|&i| topo(i).name()),
        ("Extra regs (sh/ex)", &|&i| {
            format!("{}/{}", extras[i % 4].0, extras[i % 4].1)
        }),
        ("MHz", &|&i| f(mhz(i), 0)),
        ("Rate (pkt/cyc/PE)", &|&i| f(rate(&rows[i].report), 4)),
        ("Avg latency (cyc)", &|&i| {
            f(rows[i].report.avg_latency(), 1)
        }),
        ("Throughput (Mpkt/s)", &|&i| f(mpkts(i), 1)),
    ];
    out.table("ablation_link_pipelining", 0..nuts.len(), &cols);
    // One extra express register against the bare links, per D.
    let (d2, d4) = (ratio(mpkts(1), mpkts(0)), ratio(mpkts(5), mpkts(4)));
    out.holds(
        "one extra register per express link rescues D=4, whose bare wire bottoms out the clock \
         (over 1.3× Mpkt/s), and barely moves D=2, whose wire already runs near the fabric cap \
         (under 1.15×)",
        format!("D=4 {}; D=2 {}", d4.1, d2.1),
        d4.0 > 1.3 && d2.0 < 1.15,
    );
    out
}
