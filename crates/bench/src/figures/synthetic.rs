//! Figures 11–14, 16–19 and the simulated Figure 1: Bernoulli traffic
//! on a `SweepGrid`, tabulated by the shared pivot.

use fasttrack_core::config::{FtPolicy, NocConfig};
use fasttrack_core::port::InPort;
use fasttrack_core::sim::SimReport;
use fasttrack_core::topology::{topology_of, TopologySpec};
use fasttrack_fpga::device::Device;
use fasttrack_fpga::power::PowerModel;
use fasttrack_fpga::published::TABLE1;
use fasttrack_fpga::resources::noc_cost;
use fasttrack_fpga::routability::noc_frequency_mhz;
use fasttrack_traffic::pattern::Pattern;

use super::{about, f, ft, hoplite, range, rate, ratio, report, span, trio, Col, Outcome, Scale};
use crate::runner::{NocUnderTest, SweepRow};
use crate::table::Table;

const RANDOM: [Pattern; 1] = [Pattern::Random];
/// The (PEs, side) systems Figures 13 and 17 compare.
const SIZES: [(usize, u16); 3] = [(16, 4), (64, 8), (256, 16)];

/// A NoC under test with its run, as the priced tables read them.
type Run<'a> = (&'a NocUnderTest, &'a SweepRow);

/// Modeled clock of `nut` at `width` bits.
fn mhz(nut: &NocUnderTest, width: u32) -> f64 {
    let (topo, channels) = (topology_of(&nut.topology), nut.channels as u32);
    noc_frequency_mhz(&Device::virtex7_485t(), &*topo, width, channels).expect("8x8 fits")
}

pub(super) fn fig01sim(scale: Scale) -> Outcome {
    const WIDTH: u32 = 32; // Table I compares 32-bit routers
    let mut out = Outcome::default();
    let nuts = [
        NocUnderTest::from_spec(TopologySpec::Mesh { n: 8, depth: 4 }),
        hoplite(8),
        ft(8, 2, 2),
        ft(8, 2, 1),
    ];
    let rows = out.grid(&nuts, &RANDOM, &[1.0], 0x00f1_6010, scale);
    // The buffered mesh is priced and clocked as Table I's CONNECT
    // router, the literature row this figure compares against.
    let connect = TABLE1
        .iter()
        .find(|r| r.name.starts_with("CONNECT"))
        .expect("in Table I");
    let literature = |n: &NocUnderTest| matches!(n.topology, TopologySpec::Mesh { .. });
    let luts = |n: &NocUnderTest| {
        if literature(n) {
            connect.luts.into()
        } else {
            noc_cost(&*topology_of(&n.topology), WIDTH).luts / 64
        }
    };
    let clock = |n: &NocUnderTest| {
        if literature(n) {
            1e3 / connect.period_ns
        } else {
            mhz(n, WIDTH)
        }
    };
    let bw = |(n, r): &Run| rate(&r.report) * clock(n);
    let class = |n: &NocUnderTest| {
        if literature(n) {
            "Buffered mesh (CONNECT-class)".into()
        } else {
            n.label()
        }
    };
    let cols: [Col<Run>; 5] = [
        ("NoC class", &|(n, _)| class(n)),
        ("LUTs/router", &|(n, _)| luts(n).to_string()),
        ("Clock (MHz)", &|(n, _)| f(clock(n), 0)),
        ("Rate (pkt/cyc/PE)", &|(_, r)| f(rate(&r.report), 3)),
        ("BW (Mpkt/s/router)", &|run| f(bw(run), 1)),
    ];
    out.table("fig01_simulated", nuts.iter().zip(&rows), &cols);
    let [mesh, hoplite, _, ft] = [0, 1, 2, 3].map(|i| bw(&(&nuts[i], &rows[i])));
    let per_cycle = ratio(rate(&rows[0].report), rate(&rows[1].report));
    out.holds(
        "per cycle the buffered mesh out-delivers Hoplite (no deflections, bidirectional links)",
        per_cycle.1,
        per_cycle.0 > 1.0,
    );
    out.holds(
        "per nanosecond it loses to both: Hoplite and FastTrack out-deliver it per router at 1/20 \
         and 1/5 of its LUTs",
        format!("mesh {mesh:.1}, Hoplite {hoplite:.1}, FT(64,2,1) {ft:.1} Mpkt/s/router"),
        mesh < hoplite && hoplite < ft,
    );
    out
}

/// The Figure 11/12 grid (both read the same sweep): the trio × the
/// paper's four patterns × the injection-rate ladder, pivoted per
/// pattern on `metric`.
fn pattern_sweep(
    out: &mut Outcome,
    slug: &str,
    metric: Col<SimReport>,
    scale: Scale,
) -> Vec<SweepRow> {
    let rows = out.grid(
        &trio(8),
        &Pattern::PAPER_SET,
        scale.rates(),
        0x00f1_6110,
        scale,
    );
    for pattern in Pattern::PAPER_SET {
        let of_pattern: Vec<&SweepRow> = rows.iter().filter(|r| r.pattern == pattern).collect();
        out.pivot(
            &format!("{slug}_{}", pattern.name().to_lowercase()),
            &of_pattern,
            &[metric],
        );
    }
    rows
}

pub(super) fn fig11(scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let rows = pattern_sweep(
        &mut out,
        "fig11_sustained_rate",
        ("", &|r| f(rate(r), 4)),
        scale,
    );
    let [base, ft21, ft22] = trio(8).map(|n| n.label());
    let at = |label: &str, pattern, inj| rate(report(&rows, label, pattern, inj));
    let gain = |pattern| ratio(at(&ft21, pattern, 1.0), at(&base, pattern, 1.0));
    let [bitcompl, local, random, transpose] = Pattern::PAPER_SET;
    let claim = "FT(64,2,1) sustains ~2.5× Hoplite's rate on RANDOM at saturation (Fig 11)";
    out.band(claim, gain(random), about(2.5));
    out.band("~2× on BITCOMPL (Fig 11)", gain(bitcompl), about(2.0));
    out.known(
        "~1.5× on LOCAL (Fig 11)",
        gain(local),
        about(1.5),
        1.8..=3.2,
        "LOCAL here is uniform within Manhattan radius 3, which leaves more express-aligned \
         distance-2/3 traffic than whatever radius the paper used",
    );
    out.known(
        "≈1× on TRANSPOSE: no gain (Fig 11)",
        gain(transpose),
        about(1.0),
        1.2..=2.4,
        "turning traffic may board the Y express lane, following Fig 8's example path (DESIGN \
         §5b), so TRANSPOSE's one-turn packets ride express links too: ~1.6× at 20–75 % \
         injection, more at 100 %. The seed's EXPERIMENTS.md recorded 1.1×; which change moved \
         it is an open ROADMAP item",
    );
    let low = rows.iter().filter(|r| r.label == ft21 && r.rate < 0.10);
    let (lo, hi) = span(
        low.clone()
            .map(|r| rate(&r.report) / at(&base, r.pattern, r.rate)),
    );
    out.holds(
        "no win below 10 % injection: every NoC delivers the offered load (Fig 11)",
        format!(
            "FT(64,2,1) / Hoplite in {lo:.3}–{hi:.3} over {} points below 10 %",
            low.count()
        ),
        0.95 <= lo && hi <= 1.05,
    );
    let between = Pattern::PAPER_SET.map(|p| {
        let (h, d, f) = (at(&base, p, 1.0), at(&ft22, p, 1.0), at(&ft21, p, 1.0));
        (h < d && d < f, format!("{p} {h:.3} < {d:.3} < {f:.3}"))
    });
    out.holds(
        "the depopulated FT(64,2,2) sits between Hoplite and FT(64,2,1) on every pattern (Fig 11)",
        between.each_ref().map(|b| b.1.as_str()).join("; "),
        between.iter().all(|b| b.0),
    );
    out
}

pub(super) fn fig12(scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let latency: Col<SimReport> = ("", &|r| f(r.avg_latency(), 1));
    let rows = pattern_sweep(&mut out, "fig12_avg_latency", latency, scale);
    let [base, ft21, ft22] = trio(8).map(|n| n.label());
    // Sustained rate at the highest swept injection rate whose average
    // latency stays at or below 100 cycles: the paper's knee metric.
    let knee = |label: &str, pattern: &Pattern| {
        let mut column = rows
            .iter()
            .filter(|r| r.label == label && r.pattern == *pattern);
        column
            .rfind(|r| r.report.avg_latency() <= 100.0)
            .map_or(0.0, |r| rate(&r.report))
    };
    let gain = |p: &Pattern| knee(&ft21, p) / knee(&base, p);
    let cols: [Col<Pattern>; 5] = [
        ("Pattern", &|p| p.name().into()),
        (&base, &|p| f(knee(&base, p), 4)),
        (&ft21, &|p| f(knee(&ft21, p), 4)),
        (&ft22, &|p| f(knee(&ft22, p), 4)),
        ("FT(64,2,1) gain", &|p| format!("{:.1}x", gain(p))),
    ];
    out.table("fig12_saturation_at_100", Pattern::PAPER_SET, &cols);
    out.holds(
        "at 100 cycles average latency FastTrack's saturation throughput is 2–5× Hoplite's (Fig 12)",
        Pattern::PAPER_SET.map(|p| format!("{p} {:.1}×", gain(&p))).join(", "),
        Pattern::PAPER_SET.iter().all(|p| range(2.0, 5.0).contains(&gain(p))),
    );
    let calm = span(
        rows.iter()
            .filter(|r| r.rate <= 0.05)
            .map(|r| r.report.avg_latency()),
    )
    .1;
    out.holds(
        "below saturation every NoC sits at low tens of cycles (Fig 12)",
        format!("worst average latency at ≤ 5 % injection: {calm:.1} cycles"),
        calm < 30.0,
    );
    let past = |label: &str| report(&rows, label, Pattern::Random, 0.5).avg_latency();
    out.band(
        "past Hoplite's knee FastTrack's average latency is a fraction of Hoplite's: under 0.65× \
         on RANDOM at 50 % injection (Fig 12)",
        ratio(past(&ft21), past(&base)),
        0.0..=0.65,
    );
    out
}

pub(super) fn fig13(scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    for (pes, n) in scale.sizes(&SIZES) {
        let nuts = [
            hoplite(n),
            NocUnderTest::hoplite_x(n, 3),
            ft(n, 2, 2),
            ft(n, 2, 1),
        ];
        let rows = out.grid(&nuts, &RANDOM, scale.rates(), 0x00f1_6130, scale);
        let all: Vec<&SweepRow> = rows.iter().collect();
        let metrics: [Col<SimReport>; 2] = [
            ("rate", &|r| f(rate(r), 4)),
            ("lat", &|r| f(r.avg_latency(), 1)),
        ];
        out.pivot(&format!("fig13_multichannel_{pes}pe"), &all, &metrics);
        let at = |nut: &NocUnderTest| rate(report(&rows, &nut.label(), Pattern::Random, 1.0));
        let [hoplite, hoplite3x, _, ft] = nuts.each_ref().map(at);
        let (iso, paper) = (ratio(ft, hoplite3x), range(1.1, 1.4));
        match pes {
            16 => out.known(
                "at 16 PEs FT(16,2,1) sustains 1.1–1.4× Hoplite-3x's rate at equal wiring (Fig 13)",
                iso,
                paper,
                0.9..=1.1,
                "on a 4×4 torus D=2 is half the ring: three independent rings carry RANDOM \
                 traffic as well as one ring plus express lanes that only even-distance \
                 transfers can use",
            ),
            64 => out.band(
                "at 64 PEs FT(64,2,1) sustains 1.1–1.4× Hoplite-3x's rate (Fig 13)",
                iso,
                paper,
            ),
            _ => out.band(
                "at 256 PEs FT(256,2,1) sustains 1.1–1.4× Hoplite-3x's rate (Fig 13)",
                iso,
                paper,
            ),
        }
        if pes == 64 {
            let (replicas, fasttrack) = (hoplite3x / hoplite, ft / hoplite);
            out.holds(
                "both are far ahead of one Hoplite: more than 2× its rate (Fig 13, 64 PEs)",
                format!(
                    "Hoplite-3x {replicas:.2}×, FT(64,2,1) {fasttrack:.2}× Hoplite's {hoplite:.4}"
                ),
                replicas > 2.0 && fasttrack > 2.0,
            );
        }
    }
    out
}

/// Hoplite, its 2x and 3x replicas, and the two FastTrack NoCs: the
/// iso-resource line-up of Figures 14 and 19.
fn replicas_and_fasttrack() -> [NocUnderTest; 5] {
    let replicas = |k| NocUnderTest::hoplite_x(8, k);
    [
        hoplite(8),
        replicas(2),
        replicas(3),
        ft(8, 2, 2),
        ft(8, 2, 1),
    ]
}

pub(super) fn fig14(scale: Scale) -> Outcome {
    const WIDTH: u32 = 256;
    let mut out = Outcome::default();
    let nuts = replicas_and_fasttrack();
    let rows = out.grid(&nuts, &RANDOM, &[1.0], 0x00f1_6140, scale);
    let cost = |n: &NocUnderTest| {
        noc_cost(&*topology_of(&n.topology), WIDTH).replicated(n.channels as u32)
    };
    let mpkts = |(n, r): &Run| r.report.aggregate_rate() * mhz(n, WIDTH);
    let cols: [Col<Run>; 6] = [
        ("Config", &|(n, _)| n.label()),
        ("LUTs", &|(n, _)| cost(n).luts.to_string()),
        ("Wire bundles/cut", &|(n, _)| {
            cost(n).wire_bundles_per_cut.to_string()
        }),
        ("MHz", &|(n, _)| f(mhz(n, WIDTH), 0)),
        ("Rate (pkt/cyc)", &|(_, r)| f(r.report.aggregate_rate(), 2)),
        ("Throughput (Mpkt/s)", &|run| f(mpkts(run), 1)),
    ];
    out.table("fig14_cost_tradeoffs", nuts.iter().zip(&rows), &cols);
    let [hoplite, _, hoplite3x, _, ft] = [0, 1, 2, 3, 4].map(|i| mpkts(&(&nuts[i], &rows[i])));
    let claim = "FT(64,2,1) delivers 2.5–3× Hoplite's throughput in Mpkt/s (Fig 14)";
    out.band(claim, ratio(ft, hoplite), range(2.5, 3.0));
    let claim = "and ~1.2× Hoplite-3x's at the same wire count (Fig 14)";
    out.band(claim, ratio(ft, hoplite3x), about(1.2));
    out.known(
        "with fewer LUTs than Hoplite-3x (Fig 14)",
        ratio(cost(&nuts[4]).luts as f64, cost(&nuts[2]).luts as f64),
        0.0..=0.999,
        1.0..=1.06,
        "the structural model reproduces Table II to the LUT, and Table II's own numbers put \
         FT(64,2,1) at 104 K against 3 × 34 K = 102 K for three Hoplites",
    );
    out
}

pub(super) fn fig16(scale: Scale) -> Outcome {
    const INJECTION: f64 = 0.08; // "< 10 % injection rate"
    let mut out = Outcome::default();
    // Per system size: Hoplite's worst case over each FastTrack's.
    let mut cuts = Vec::new();
    for (pes, n) in scale.sizes(&SIZES[1..]) {
        let rows = out.grid(&trio(n), &RANDOM, &[INJECTION], 0x00f1_6160, scale);
        let shown = [&rows[1], &rows[2], &rows[0]]; // the paper's column order
        let histogram = |r: &SweepRow| r.report.stats.total_latency.histogram().iter().collect();
        let histograms: [Vec<(u64, u64, u64)>; 3] = shown.map(histogram);
        let mut buckets: Vec<(u64, u64)> =
            histograms.iter().flatten().map(|b| (b.0, b.1)).collect();
        buckets.sort_unstable();
        buckets.dedup();
        let mut headers = vec!["Latency bucket (cycles)"];
        headers.extend(shown.iter().map(|r| r.label.as_str()));
        let mut t = Table::new(&format!("fig16_latency_histogram_{pes}pe"), &headers);
        for (lo, hi) in buckets {
            let share = |(row, hist): (&&SweepRow, &Vec<(u64, u64, u64)>)| {
                let count = hist.iter().find(|b| b.0 == lo).map_or(0, |b| b.2);
                format!(
                    "{:.2}%",
                    100.0 * count as f64 / row.report.stats.delivered.max(1) as f64
                )
            };
            let shares = shown.iter().zip(&histograms).map(share);
            t.add_row(
                std::iter::once(format!("[{lo}, {hi})"))
                    .chain(shares)
                    .collect(),
            );
        }
        out.tables.push(t);
        // Worst case only: the histogram's quantiles are bucket upper
        // edges, which can exceed the observed maximum.
        let worst = |r: &SweepRow| r.report.worst_latency() as f64;
        let cols: [Col<&SweepRow>; 3] = [
            ("Config", &|r| r.label.clone()),
            ("Worst (cycles)", &|r| r.report.worst_latency().to_string()),
            ("Hoplite worst / this", &|r| {
                format!("{:.1}x", worst(&rows[0]) / worst(r).max(1.0))
            }),
        ];
        out.table(&format!("fig16_worst_case_{pes}pe"), shown, &cols);
        cuts.push((
            pes,
            worst(&rows[0]) / worst(&rows[1]),
            worst(&rows[0]) / worst(&rows[2]),
        ));
    }
    let shown = |pick: fn(&(usize, f64, f64)) -> f64| {
        let cell = |c| format!("{:.1}× at {} PEs", pick(c), c.0);
        cuts.iter().map(cell).collect::<Vec<_>>().join(", ")
    };
    let small = cuts[0];
    out.known(
        "fully populated express links cut Hoplite's worst-case latency 7× (Fig 16)",
        (small.1, shown(|c| c.1)),
        about(7.0),
        1.5..=5.6,
        "the paper's 7× sits between the 64-PE panel and the 256-PE one, where 8 % injection is \
         past Hoplite's saturation and the reported latency includes source queueing",
    );
    out.known(
        "depopulated ones cut it 3× (Fig 16)",
        (small.2, shown(|c| c.2)),
        about(3.0),
        0.8..=2.4,
        "at 64 PEs and 8 % load FT(64,2,2)'s rare worst packet deflects as often as Hoplite's; \
         the cut appears only with size (see the 256-PE panel)",
    );
    if let [_, big] = cuts[..] {
        out.holds(
            "the cut grows with system size: at 256 PEs both exceed the paper's 7× and 3× (Fig 16 \
             spans 4–256 PEs)",
            format!("{:.0}× full, {:.0}× depopulated at 256 PEs", big.1, big.2),
            big.1 > small.1.max(7.0) && big.2 > small.2.max(3.0),
        );
    }
    out
}

pub(super) fn fig17(scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    for (pes, n) in scale.sizes(&SIZES) {
        // Hoplite, then per D the fully populated NoC and, where R=D
        // tiles the ring, the depopulated one.
        let ds: Vec<u16> = (2..=(n / 2).min(8)).collect();
        let mut nuts = vec![hoplite(n)];
        for &d in &ds {
            nuts.push(ft(n, d, 1));
            nuts.extend((n % d == 0).then(|| ft(n, d, d)));
        }
        let rows = out.grid(&nuts, &RANDOM, &[0.5], 0x00f1_6170, scale);
        let at = |d: u16, r: u16| {
            let cfg = NocConfig::fasttrack(n, d, r, FtPolicy::Full).ok()?;
            let name = TopologySpec::Torus(cfg).display_name();
            let row = rows.iter().find(|row| row.label == name);
            row.map(|row| rate(&row.report))
        };
        let base = rate(&rows[0].report);
        let depopulated = |d: u16| at(d, d).map_or("n/a".into(), |r| f(r, 4));
        let cols: [Col<u16>; 3] = [
            ("D", &|&d| {
                if d == 0 {
                    "0 (Hoplite)".into()
                } else {
                    d.to_string()
                }
            }),
            ("R=1 rate", &|&d| f(at(d, 1).unwrap_or(base), 4)),
            ("R=D rate", &|&d| {
                if d == 0 {
                    f(base, 4)
                } else {
                    depopulated(d)
                }
            }),
        ];
        let slug = format!("fig17_express_length_{pes}pe");
        out.table(&slug, std::iter::once(0).chain(ds.clone()), &cols);
        if pes != 64 {
            continue;
        }
        let [d2, d3, d4] = [2, 3, 4].map(|d| at(d, 1).expect("8x8 sweeps D=2..4"));
        out.holds(
            "on 8×8 the rate peaks at D=2–3 and falls at D=4 (Fig 17)",
            format!("D=2/3/4: {d2:.4} / {d3:.4} / {d4:.4}"),
            d4 < d2 && d4 < d3,
        );
        let tiling = ds.iter().filter_map(|&d| Some((d, at(d, d)?, at(d, 1)?)));
        let between: Vec<(bool, String)> = tiling
            .map(|(d, r_d, r_1)| {
                (
                    base < r_d && r_d < r_1,
                    format!("D={d}: {base:.4} < {r_d:.4} < {r_1:.4}"),
                )
            })
            .collect();
        out.holds(
            "depopulated R=D sits between Hoplite and R=1 (Fig 17, 8×8)",
            between
                .iter()
                .map(|b| b.1.as_str())
                .collect::<Vec<_>>()
                .join("; "),
            between.iter().all(|b| b.0),
        );
    }
    out
}

pub(super) fn fig18(scale: Scale) -> Outcome {
    // Matched offered load just above Hoplite's saturation point: the
    // deflection claim is about routing the *same* workload, which
    // counts at each NoC's own saturation would not show (FastTrack
    // carries ~3x the traffic there).
    const INJECTION: f64 = 0.15;
    let mut out = Outcome::default();
    let nuts = [hoplite(8), ft(8, 2, 2), ft(8, 2, 1)];
    let rows = out.grid(&nuts, &RANDOM, &[INJECTION], 0x00f1_6180, scale);
    let usage = |r: &SweepRow| r.report.stats.link_usage;
    let cols: [Col<&SweepRow>; 5] = [
        ("Config", &|r| r.label.clone()),
        ("Short hops", &|r| usage(r).short_hops.to_string()),
        ("Express hops", &|r| usage(r).express_hops.to_string()),
        ("Total", &|r| usage(r).total().to_string()),
        ("Express %", &|r| {
            format!("{:.1}%", 100.0 * usage(r).express_fraction())
        }),
    ];
    out.table("fig18a_link_usage", &rows, &cols);
    // Misroutes plus express→short demotions.
    let ports = |r: &SweepRow| r.report.stats.ports;
    let at = |r: &SweepRow, port| ports(r).deflections_at(port) + ports(r).demotions_at(port);
    let cols: [Col<&SweepRow>; 6] = [
        ("Config", &|r| r.label.clone()),
        ("W_ex", &|r| at(r, InPort::WestEx).to_string()),
        ("N_ex", &|r| at(r, InPort::NorthEx).to_string()),
        ("W_sh", &|r| at(r, InPort::WestSh).to_string()),
        ("N_sh", &|r| at(r, InPort::NorthSh).to_string()),
        ("Total", &|r| {
            (ports(r).total_deflections() + ports(r).total_demotions()).to_string()
        }),
    ];
    out.table("fig18b_deflections", &rows, &cols);
    let [_, depopulated, full] = [0, 1, 2].map(|i| usage(&rows[i]).express_fraction());
    out.holds(
        "the express share of hops grows as depopulation shrinks, and is a large share — over a \
         quarter — on FT(64,2,1) (Fig 18a)",
        format!(
            "FT(64,2,2) {:.1} % → FT(64,2,1) {:.1} %",
            100.0 * depopulated,
            100.0 * full
        ),
        full > depopulated && full > 0.25,
    );
    let per_packet =
        |r: &SweepRow| ports(r).total_deflections() as f64 / r.report.stats.delivered as f64;
    let [hoplite, depopulated, full] = [0, 1, 2].map(|i| per_packet(&rows[i]));
    out.holds(
        "routing the same workload, deflections per packet drop against Hoplite (Fig 18b)",
        format!("Hoplite {hoplite:.2} → FT(64,2,2) {depopulated:.2} → FT(64,2,1) {full:.2}"),
        full < depopulated && depopulated < hoplite,
    );
    let west = |r: &SweepRow| (at(r, InPort::WestEx) + at(r, InPort::WestSh)) as f64;
    let (from, to) = (west(&rows[1]), west(&rows[2]));
    let fall = 1.0 - to / from;
    out.known(
        "West-input deflections fall ~25 % with full FastTrack (Fig 18b)",
        (
            fall,
            format!(
                "−{:.0} % ({from} → {to}), FT(64,2,2) to FT(64,2,1)",
                100.0 * fall
            ),
        ),
        about(0.25),
        0.3..=0.65,
        "this model's Hoplite never deflects a West input (W→S has priority), so the fall is \
         measured between the two FastTrack NoCs, where it is larger than the paper's",
    );
    out
}

pub(super) fn fig19(scale: Scale) -> Outcome {
    const WIDTH: u32 = 256;
    let mut out = Outcome::default();
    let (device, power) = (Device::virtex7_485t(), PowerModel::default());
    let nuts = replicas_and_fasttrack();
    let rows = out.grid(&nuts, &RANDOM, &[1.0], 0x00f1_6190, scale);
    let mpkts = |(n, r): &Run| r.report.aggregate_rate() * mhz(n, WIDTH);
    let mj = |(n, r): &Run| {
        let (topo, clock, k) = (topology_of(&n.topology), mhz(n, WIDTH), n.channels as u32);
        let (cycles, stats) = (r.report.cycles, &r.report.stats);
        1e3 * power.workload_energy_j(&device, &*topo, WIDTH, clock, k, cycles, stats)
    };
    let base = mj(&(&nuts[0], &rows[0]));
    let cols: [Col<Run>; 6] = [
        ("Config", &|(n, _)| n.label()),
        ("MHz", &|(n, _)| f(mhz(n, WIDTH), 0)),
        ("Rate (pkt/cyc)", &|(_, r)| f(r.report.aggregate_rate(), 2)),
        ("Throughput (Mpkt/s)", &|run| f(mpkts(run), 1)),
        ("Energy (mJ)", &|run| f(mj(run), 3)),
        ("Rel. energy", &|run| format!("{:.2}x", mj(run) / base)),
    ];
    out.table("fig19_energy", nuts.iter().zip(&rows), &cols);
    let seen = [0, 1, 2, 3, 4].map(|i| (mpkts(&(&nuts[i], &rows[i])), mj(&(&nuts[i], &rows[i]))));
    let [hoplite, hoplite2x, hoplite3x, _, ft] = seen;
    out.known(
        "FT(64,2,1) is ~1.8× faster than Hoplite in Mpkt/s (Fig 19)",
        ratio(ft.0, hoplite.0),
        about(1.8),
        2.16..=3.2,
        "the same measurement as Fig 14, whose own claim is 2.5–3×: the modeled clocks (323 vs \
         344 MHz) take little back from FT(64,2,1)'s ~2.9× per-cycle rate",
    );
    out.known(
        "on ~20 % less energy for the workload (Fig 19)",
        ratio(ft.1, hoplite.1),
        about(0.8),
        0.96..=1.1,
        "the power model prices FT(64,2,1) at 2.8× Hoplite's power (Table II: 2.6×), which its \
         2.7× shorter makespan only just offsets; faster on no more energy still holds",
    );
    let claim = "and ~15 % less than Hoplite-3x, which is also slower (Fig 19)";
    out.band(claim, ratio(ft.1, hoplite3x.1), about(0.85));
    let speeds = [hoplite2x.0, hoplite3x.0, ft.0];
    out.holds(
        "replicated Hoplite stays slower than FT(64,2,1) (Fig 19)",
        format!("Hoplite-2x / Hoplite-3x / FT(64,2,1): {speeds:.0?} Mpkt/s"),
        hoplite2x.0 < ft.0 && hoplite3x.0 < ft.0,
    );
    let (x2, x3) = (hoplite2x.1 / base, hoplite3x.1 / base);
    out.known(
        "replicated Hoplite finishes the workload on less energy than one Hoplite (Fig 19)",
        (
            x3,
            format!("Hoplite-2x {x2:.2}×, Hoplite-3x {x3:.2}× the baseline's energy"),
        ),
        0.0..=0.999,
        1.0..=1.3,
        "the static (clock-tree) share of the replicated channels outweighs their shorter \
         makespan in this power model",
    );
    out
}
