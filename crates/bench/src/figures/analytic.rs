//! Tables I/II and Figures 1, 4, 6, 10: the price list and the
//! `fasttrack-fpga` models, no simulation.

use fasttrack_core::config::{FtPolicy, NocConfig};
use fasttrack_core::resources::router_cost;
use fasttrack_core::router::RouterClass;
use fasttrack_fpga::device::Device;
use fasttrack_fpga::power::PowerModel;
use fasttrack_fpga::published::{PublishedRouter, TABLE1};
use fasttrack_fpga::resources::noc_cost;
use fasttrack_fpga::routability::{noc_frequency_mhz, peak_datawidth, FIG10_WIDTHS};
use fasttrack_fpga::wire::{
    physical_express_mhz, virtual_express_mhz, SWEEP_DISTANCES, SWEEP_HOPS,
};

use super::{about, f, range, span, Col, Outcome, Scale, Verdict};
use crate::table::Table;

pub(super) fn table1(_: Scale) -> Outcome {
    let mut out = Outcome::default();
    let cols: [Col<PublishedRouter>; 6] = [
        ("Router", &|r| r.name.into()),
        ("Device", &|r| r.device.into()),
        ("LUTs", &|r| r.luts.to_string()),
        ("FFs", &|r| {
            if r.ffs == 0 {
                "-".into()
            } else {
                r.ffs.to_string()
            }
        }),
        ("Period (ns)", &|r| f(r.period_ns, 1)),
        ("Peak BW (pkt/ns)", &|r| {
            f(r.peak_bandwidth_pkts_per_ns(), 2)
        }),
    ];
    out.table("table1_router_costs", TABLE1, &cols);
    let depopulated = RouterClass {
        x_express: true,
        y_express: false,
    };
    let model = [
        ("Hoplite", RouterClass::HOPLITE, None),
        ("FT Full", RouterClass::FULL, Some(FtPolicy::Full)),
        ("FTlite Inject", RouterClass::FULL, Some(FtPolicy::Inject)),
        ("FTlite depopulated", depopulated, Some(FtPolicy::Full)),
    ]
    .map(|(name, class, policy)| (name, router_cost(class, policy).at(32)));
    let cols: [Col<(&str, (u64, u64))>; 3] = [
        ("Router variant", &|&(name, _)| name.into()),
        ("LUTs", &|&(_, (luts, _))| luts.to_string()),
        ("FFs", &|&(_, (_, ffs))| ffs.to_string()),
    ];
    out.table("table1_model_costs", model, &cols);
    let luts = model.map(|(_, (luts, _))| luts);
    let claim = "a 32 b Hoplite router costs 78 LUTs (Table I)";
    out.holds(claim, format!("model: {} LUTs", luts[0]), luts[0] == 78);
    out.holds(
        "32 b FastTrack routers cost 191–290 LUTs depending on variant (Table I)",
        format!("model: {:?} LUTs", &luts[1..]),
        luts[1..]
            .iter()
            .all(|&l| range(191.0, 290.0).contains(&(l as f64))),
    );
    out
}

pub(super) fn table2(_: Scale) -> Outcome {
    let device = Device::virtex7_485t();
    let power = PowerModel::default();
    /// A config's name, the paper's [LUTs, FFs, MHz, W] and the model's.
    type Row = (String, [f64; 4], [f64; 4]);
    let ft = |r| NocConfig::fasttrack(8, 2, r, FtPolicy::Full);
    let rows = [
        (NocConfig::hoplite(8), [34e3, 83e3, 344.0, 9.8]),
        (ft(1), [104e3, 150e3, 320.0, 25.1]),
        (ft(2), [69e3, 117e3, 323.0, 19.9]),
    ]
    .map(|(cfg, paper)| {
        let cfg = cfg.expect("Table II configs are valid");
        let cost = noc_cost(&cfg, 256);
        let mhz = noc_frequency_mhz(&device, &cfg, 256, 1).expect("Table II configs fit");
        let watts = power.dynamic_power_w(&device, &cfg, 256, mhz, 1);
        (
            cfg.name(),
            paper,
            [cost.luts as f64, cost.ffs as f64, mhz, watts],
        )
    });
    let base = rows[0].2;
    let mut out = Outcome::default();
    let cols: [Col<&Row>; 7] = [
        ("Config", &|r| r.0.clone()),
        ("LUTs", &|r| format!("{}K", r.2[0] as u64 / 1000)),
        ("FFs", &|r| format!("{}K", r.2[1] as u64 / 1000)),
        ("MHz", &|r| f(r.2[2], 0)),
        ("Power (W)", &|r| f(r.2[3], 1)),
        ("LUT ratio", &|r| format!("{:.1}x", r.2[0] / base[0])),
        ("Power ratio", &|r| format!("{:.1}x", r.2[3] / base[3])),
    ];
    out.table("table2_noc_costs", &rows, &cols);
    // Per check: the columns it covers, their unit and print scale, the
    // tolerance.
    for (claim, columns, unit, scale, tolerance) in [
        (
            "LUT and FF counts match Table II within 2 %",
            0..2,
            "K LUTs/FFs",
            1e3,
            0.02,
        ),
        (
            "clock frequencies match Table II within 2 %",
            2..3,
            "MHz",
            1.0,
            0.02,
        ),
        (
            "dynamic power matches Table II within 10 %",
            3..4,
            "W",
            1.0,
            0.10,
        ),
    ] {
        let cells = rows
            .iter()
            .flat_map(|r| columns.clone().map(move |c| (&r.0, r.2[c], r.1[c])));
        let worst =
            cells.max_by(|a, b| (a.1 / a.2 - 1.0).abs().total_cmp(&(b.1 / b.2 - 1.0).abs()));
        let (name, got, want) = worst.expect("three configs");
        let err = (got / want - 1.0).abs();
        let (got, want) = (got / scale, want / scale);
        let measured = format!(
            "worst {:.1} % off: {name} {got:.1} vs {want:.1} {unit}",
            err * 100.0
        );
        out.holds(claim, measured, err <= tolerance);
    }
    out
}

pub(super) fn fig01(_: Scale) -> Outcome {
    let mut out = Outcome::default();
    let mut rows = TABLE1.to_vec();
    rows.sort_by_key(|r| r.cost_per_switch());
    let cols: [Col<&PublishedRouter>; 3] = [
        ("Router", &|r| r.name.into()),
        ("Cost max(LUTs,FFs)", &|r| r.cost_per_switch().to_string()),
        ("Peak BW (pkt/ns)", &|r| {
            f(r.peak_bandwidth_pkts_per_ns(), 2)
        }),
    ];
    out.table("fig01_area_bandwidth", &rows, &cols);
    let ft = rows
        .iter()
        .find(|r| r.name.starts_with("FastTrack"))
        .expect("in Table I");
    let (ft_bw, ft_cost) = (ft.peak_bandwidth_pkts_per_ns(), ft.cost_per_switch());
    let others = rows.iter().filter(|r| r.name != ft.name);
    let next_best = span(others.map(|r| r.peak_bandwidth_pkts_per_ns())).1;
    out.holds(
        "FastTrack has the highest peak switch bandwidth, 2.5 pkt/ns (Fig 1)",
        format!("{ft_bw:.2} pkt/ns vs {next_best:.2} for the next best"),
        ft_bw > next_best,
    );
    let buffered = rows
        .iter()
        .filter(|r| !r.bufferless)
        .map(|r| r.cost_per_switch());
    let cheapest = buffered.min().expect("Table I lists buffered routers");
    out.holds(
        "every buffered router costs several times FastTrack's max(LUT,FF) = 290 (Fig 1)",
        format!("cheapest buffered router {cheapest} vs {ft_cost}"),
        cheapest > 3 * ft_cost,
    );
    out
}

/// The Figure 4/6 sweep: a row per distance, a column per hop count.
fn wire_table(out: &mut Outcome, slug: &str, column: &str, mhz: impl Fn(u32, u32) -> f64) {
    let mut headers = vec!["Distance (SLICE)".to_string()];
    headers.extend(SWEEP_HOPS.iter().map(|h| format!("{column}={h}")));
    let mut t = Table::new(slug, &headers);
    for d in SWEEP_DISTANCES {
        let cells = SWEEP_HOPS.iter().map(|&h| f(mhz(d, h), 0));
        t.add_row(std::iter::once(d.to_string()).chain(cells).collect());
    }
    out.tables.push(t);
}

pub(super) fn fig04(_: Scale) -> Outcome {
    let device = Device::virtex7_485t();
    let mhz = |d, h| virtual_express_mhz(&device, d, h);
    let mut out = Outcome::default();
    wire_table(&mut out, "fig04_virtual_wires", "h", mhz);
    for (claim, (d, h), paper) in [
        (
            "710 MHz clock ceiling at short distances (Fig 4)",
            (2, 0),
            710.0,
        ),
        (
            "250 MHz across the full chip with no LUT hop (Fig 4)",
            (256, 0),
            250.0,
        ),
        (
            "450 MHz at 128 SLICEs with one LUT hop (Fig 4)",
            (128, 1),
            450.0,
        ),
    ] {
        let got = mhz(d, h);
        let measured = format!("{got:.0} MHz at {d} SLICEs, h={h}");
        out.holds(claim, measured, (got - paper).abs() <= 1.0);
    }
    let multi_hop = |d| SWEEP_HOPS[2..].iter().map(move |&h| mhz(d, h));
    let (lo, hi) = span(SWEEP_DISTANCES.iter().flat_map(|&d| multi_hop(d)));
    out.holds(
        "≈200 MHz, flat in distance, with two or more serial LUT hops (Fig 4)",
        format!("{lo:.0}–{hi:.0} MHz over every distance and h ≥ 2"),
        200.0 * 0.7 <= lo && hi <= 200.0 * 1.3,
    );
    out
}

pub(super) fn fig06(_: Scale) -> Outcome {
    let device = Device::virtex7_485t();
    let mhz = |d, h| physical_express_mhz(&device, d, h);
    let mut out = Outcome::default();
    wire_table(&mut out, "fig06_physical_wires", "bypass", mhz);
    let at = |d: u32| span(SWEEP_HOPS.iter().map(|&h| mhz(d, h)));
    let ((lo32, _), (lo64, hi64)) = (at(32), at(64));
    out.holds(
        "a bypass wire sustains 250 MHz to 32–64 SLICEs for any number of bypassed stages (Fig 6)",
        format!("≥ {lo32:.0} MHz at 32 SLICEs, {lo64:.0}–{hi64:.0} MHz at 64"),
        lo32 >= 250.0 && about(250.0).contains(&lo64) && about(250.0).contains(&hi64),
    );
    // Frequency lost per doubling of distance: one bypassed stage here,
    // against Fig 4's step from one LUT hop to two.
    let steps =
        |drop: &dyn Fn(u32, u32) -> f64| span(SWEEP_DISTANCES.windows(2).map(|w| drop(w[0], w[1])));
    let (gentlest, steepest) = steps(&|near, far| mhz(near, 1) / mhz(far, 1));
    let virt = |d, h| virtual_express_mhz(&device, d, h);
    let (_, fig4) = steps(&|near, far| virt(near, 1) / virt(far, 2));
    out.holds(
        "frequency declines gracefully with distance, without Fig 4's collapse at the second LUT \
         hop (Fig 6)",
        format!(
            "×{gentlest:.2}–{steepest:.2} per distance doubling, vs ×{fig4:.2} for Fig 4's h=1→2"
        ),
        gentlest >= 1.0 && steepest < fig4,
    );
    out
}

pub(super) fn fig10(_: Scale) -> Outcome {
    let device = Device::virtex7_485t();
    let config = |n, d| NocConfig::fasttrack(n, d, 1, FtPolicy::Full).expect("valid Fig 10 config");
    let columns = [
        (4u16, 1u16),
        (4, 2),
        (8, 1),
        (8, 2),
        (8, 4),
        (16, 1),
        (16, 2),
    ];
    let mut headers = vec!["Width (b)".to_string()];
    headers.extend(columns.iter().map(|(n, d)| format!("<{},{d}>", n * n)));
    let mut t = Table::new("fig10_routability", &headers);
    for w in FIG10_WIDTHS {
        let mhz = |&(n, d)| noc_frequency_mhz(&device, &config(n, d), w, 1);
        let cells = columns
            .iter()
            .map(|c| mhz(c).map_or("NA".into(), |mhz| f(mhz, 0)));
        t.add_row(std::iter::once(w.to_string()).chain(cells).collect());
    }
    let mut out = Outcome::default();
    out.tables.push(t);
    let peak = |n, d| peak_datawidth(&device, &config(n, d), 1).unwrap_or(0);
    out.holds(
        "a 4×4 NoC with D=2 express links supports 512 b (§V)",
        format!("<16,2> routes up to {} b", peak(4, 2)),
        peak(4, 2) == 512,
    );
    let (by_size, by_d) = (
        [4, 8, 16].map(|n| peak(n, 2)),
        [1, 2, 4].map(|d| peak(8, d)),
    );
    let shrinks = |w: [u32; 3]| w[0] >= w[1] && w[1] >= w[2] && w[0] > w[2];
    out.holds(
        "the widest routable NoC shrinks with system size and with express length (Fig 10)",
        format!("D=2 at 16/64/256 PEs: {by_size:?} b; 64 PEs at D=1/2/4: {by_d:?} b"),
        shrinks(by_size) && shrinks(by_d),
    );
    out.check(
        "Fig 10 plots <16,·>, <64,·> and <128,·> systems",
        "the <128,·> columns are <256,·> (16×16) here".into(),
        Verdict::Deviates {
            why: "the torus model is square, so the 128-PE system becomes 16×16; the source's \
                  Fig 10 matrix is garbled in extraction, so every cell is model output, not a \
                  digitized value",
        },
    );
    out
}
