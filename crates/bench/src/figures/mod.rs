//! The figure catalog: every table and figure of the paper's evaluation
//! as one [`Figure`] that regenerates its tables *and* executes the
//! paper's shape claims as [`Check`]s. `fasttrack figure` runs entries at
//! [`Scale::Paper`], `tests/paper_shapes.rs` runs all of them at
//! [`Scale::Reduced`], and [`experiments_md`] renders the committed
//! EXPERIMENTS.md, so no number in that file is typed by hand.
//!
//! How a claim becomes a band: a point estimate in the paper ("~2.5×")
//! is read as that value ± 20 % (`about`), a quoted range ("2–5×") as
//! that range with 5 % slack at each edge (`range`). Where the
//! reproduction is known to miss the paper's band the check carries a
//! second band pinned around what the reproduction does, plus the
//! reason, and reports [`Verdict::Deviates`] while the value stays
//! there; outside both bands it fails.

mod ablation;
mod analytic;
mod synthetic;
mod workload;

use std::fmt::Write as _;
use std::ops::RangeInclusive;

use fasttrack_core::sim::SimReport;
use fasttrack_core::sweep::sweep;
use fasttrack_traffic::pattern::Pattern;

use crate::runner::{NocUnderTest, SweepGrid, SweepRow, INJECTION_RATES};
use crate::table::Table;

/// How much work a figure does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's setup: 1 K packets per PE, the full PE ladder and
    /// benchmark suites. What `fasttrack figure` runs.
    Paper,
    /// 100 packets per PE, injection rates from 5 % up, systems up to
    /// 64 PEs and scaled-down workload stand-ins: what `cargo test`
    /// runs. Checks that name a 256-PE result exist at `Paper` only.
    Reduced,
}

impl Scale {
    fn paper(self) -> bool {
        self == Scale::Paper
    }

    fn packets_per_pe(self) -> u64 {
        if self.paper() {
            1000
        } else {
            100
        }
    }

    /// The injection-rate ladder of Figures 11–13. The 1 % and 2 % points
    /// are most of a reduced run's cycles and show nothing 5 % does not.
    fn rates(self) -> &'static [f64] {
        &INJECTION_RATES[if self.paper() { 0 } else { 2 }..]
    }

    /// `(PEs, torus side)` pairs up to the size this scale simulates.
    fn sizes(self, ladder: &[(usize, u16)]) -> Vec<(usize, u16)> {
        let cap = if self.paper() { 256 } else { 64 };
        ladder.iter().copied().filter(|s| s.0 <= cap).collect()
    }
}

/// What executing a [`Check`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The measured value sits in the band the paper's claim implies.
    Holds,
    /// A known deviation: the value sits in the band pinned around what
    /// this reproduction does, for the stated reason.
    Deviates {
        /// Why the reproduction differs from the paper here.
        why: &'static str,
    },
    /// Outside every accepted band (or a run hit its cycle cap).
    Fails,
}

/// One executed shape claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The paper's claim, quoting its number and where it is made.
    pub claim: &'static str,
    /// What this run measured.
    pub measured: String,
    /// Whether the claim held.
    pub verdict: Verdict,
}

impl Check {
    /// `✅`/`⚠`/`✗ claim — measured`, with the reason after a deviation.
    pub fn line(&self) -> String {
        let (mark, why) = match self.verdict {
            Verdict::Holds => ("✅", String::new()),
            Verdict::Deviates { why } => ("⚠", format!(" ({why})")),
            Verdict::Fails => ("✗", String::new()),
        };
        format!("{mark} {} — {}{why}", self.claim, self.measured)
    }
}

/// A measured value and how it reads in a check line.
type Measured = (f64, String);

/// The band a point estimate ("~2.5×") implies: ± 20 %.
fn about(x: f64) -> RangeInclusive<f64> {
    x * 0.8..=x * 1.2
}

/// The band a quoted range ("2–5×") implies: 5 % slack at each edge.
fn range(lo: f64, hi: f64) -> RangeInclusive<f64> {
    lo * 0.95..=hi * 1.05
}

/// `a / b`, shown with its operands.
fn ratio(a: f64, b: f64) -> Measured {
    let num = |v: f64| match v.abs() {
        x if x >= 100.0 => format!("{v:.0}"),
        x if x >= 10.0 => format!("{v:.1}"),
        _ => format!("{v:.4}"),
    };
    (a / b, format!("{:.2}× ({} / {})", a / b, num(a), num(b)))
}

/// `(min, max)` of `values`.
fn span(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let fold = |(lo, hi): (f64, f64), v: f64| (lo.min(v), hi.max(v));
    values.into_iter().fold((f64::MAX, f64::MIN), fold)
}

/// A table column: header and cell formatter.
type Col<'a, T> = (&'a str, &'a dyn Fn(&T) -> String);

/// What one figure produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The figure's tables, each titled with the slug that is its CSV
    /// stem.
    pub tables: Vec<Table>,
    /// The executed shape claims.
    pub checks: Vec<Check>,
}

impl Outcome {
    /// Adds the table `slug`: a row per item, a column per `cols` entry.
    fn table<T>(&mut self, slug: &str, rows: impl IntoIterator<Item = T>, cols: &[Col<T>]) {
        let headers: Vec<&str> = cols.iter().map(|c| c.0).collect();
        let mut t = Table::new(slug, &headers);
        for row in rows {
            t.add_row(cols.iter().map(|c| c.1(&row)).collect());
        }
        self.tables.push(t);
    }

    fn check(&mut self, claim: &'static str, measured: String, verdict: Verdict) {
        self.checks.push(Check {
            claim,
            measured,
            verdict,
        });
    }

    /// A claim that holds when `ok`.
    fn holds(&mut self, claim: &'static str, measured: String, ok: bool) {
        let verdict = if ok { Verdict::Holds } else { Verdict::Fails };
        self.check(claim, measured, verdict);
    }

    /// A claim that holds while the value is inside the paper's band.
    fn band(&mut self, claim: &'static str, m: Measured, paper: RangeInclusive<f64>) {
        self.holds(claim, m.1, paper.contains(&m.0));
    }

    /// A shape the reproduction is known to miss: [`Verdict::Deviates`]
    /// inside `pinned`, [`Verdict::Holds`] if it ever lands in `paper`.
    fn known(
        &mut self,
        claim: &'static str,
        m: Measured,
        paper: RangeInclusive<f64>,
        pinned: RangeInclusive<f64>,
        why: &'static str,
    ) {
        if paper.contains(&m.0) || !pinned.contains(&m.0) {
            self.band(claim, m, paper);
        } else {
            self.check(claim, m.1, Verdict::Deviates { why });
        }
    }

    /// Records `config` hitting its cycle cap: numbers from a truncated
    /// run are not measurements, so the figure fails.
    fn truncated(&mut self, config: &str) {
        let claim = "every run drains its workload inside the cycle cap";
        self.holds(claim, format!("{config} was truncated"), false);
    }

    /// Runs `nuts × patterns × rates` through the one sweep runner at
    /// `scale`'s packet quota; a truncated point fails the figure. Each
    /// NoC is its own grid under the same base seed, so a `(pattern,
    /// rate)` point draws the same traffic on every NoC and the figure's
    /// ratios compare like with like; the pool fans out over the NoCs.
    fn grid(
        &mut self,
        nuts: &[NocUnderTest],
        patterns: &[Pattern],
        rates: &[f64],
        seed: u64,
        scale: Scale,
    ) -> Vec<SweepRow> {
        let per_nut = sweep(nuts.to_vec(), threads(), |_, nut| {
            let grid = SweepGrid::cross(&[nut], patterns, rates, seed);
            grid.with_packets_per_pe(scale.packets_per_pe()).run(1)
        });
        let rows: Vec<SweepRow> = per_nut.into_iter().flatten().collect();
        for r in rows.iter().filter(|r| r.report.truncated) {
            self.truncated(&format!("{} {} @{}", r.label, r.pattern, r.rate));
        }
        rows
    }

    /// Adds the shared pivot `slug` of `rows` (one pattern of a grid, so
    /// NoC-major with the same rates under every NoC): a row per
    /// injection rate, a column per NoC label and metric.
    fn pivot(&mut self, slug: &str, rows: &[&SweepRow], metrics: &[Col<SimReport>]) {
        let mut labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        labels.dedup();
        let per_label = rows.len() / labels.len();
        let mut headers = vec!["Injection rate".to_string()];
        for (label, metric) in labels
            .iter()
            .flat_map(|l| metrics.iter().map(move |m| (l, m.0)))
        {
            headers.push(format!("{label} {metric}").trim_end().to_string());
        }
        let mut t = Table::new(slug, &headers);
        for i in 0..per_label {
            let column = rows.iter().skip(i).step_by(per_label);
            let cells = column.flat_map(|r| metrics.iter().map(|m| m.1(&r.report)));
            t.add_row(std::iter::once(f(rows[i].rate, 2)).chain(cells).collect());
        }
        self.tables.push(t);
    }
}

/// One table or figure of the evaluation.
#[derive(Debug)]
pub struct Figure {
    /// Catalog id (`fig11`, `table2`, `abl-exit`, …).
    pub id: &'static str,
    /// Heading.
    pub title: &'static str,
    /// What the paper reports for it, with the section.
    pub paper: &'static str,
    /// Regenerates the tables and executes the checks.
    pub run: fn(Scale) -> Outcome,
}

/// Every table and figure, in the paper's order, then the ablations.
pub fn catalog() -> &'static [Figure] {
    const fn fig(
        id: &'static str,
        title: &'static str,
        paper: &'static str,
        run: fn(Scale) -> Outcome,
    ) -> Figure {
        Figure {
            id,
            title,
            paper,
            run,
        }
    }
    static CATALOG: [Figure; 23] = [
        fig(
            "table1",
            "Table I — 32-bit router costs",
            "§II Table I: Hoplite costs 78 LUTs per 32 b router, FastTrack 191–290; buffered \
             routers (CONNECT, Split-Merge, Qsys, OpenSMART) cost 1.5–3.7 K LUTs.",
            analytic::table1,
        ),
        fig(
            "table2",
            "Table II — 8×8 256-bit NoC on the Virtex-7 485T",
            "§V Table II (LUTs / FFs / MHz / W): Hoplite 34K / 83K / 344 / 9.8; FT(64,2,1) \
             104K / 150K / 320 / 25.1; FT(64,2,2) 69K / 117K / 323 / 19.9.",
            analytic::table2,
        ),
        fig(
            "fig01",
            "Figure 1 — area vs bandwidth of published routers",
            "§I Fig 1: FastTrack sits top-left of the scatter — 2.5 pkt/ns peak switch \
             bandwidth at max(LUT,FF) = 290 — with buffered routers bottom-right.",
            analytic::fig01,
        ),
        fig(
            "fig01sim",
            "Figure 1, simulated companion — cost vs measured saturation bandwidth",
            "Not in the paper: Fig 1's argument (a buffered router's per-cycle win does not \
             survive its clock and area on a wire-rich, LUT-poor FPGA) measured on this repo's \
             buffered mesh, priced with Table I's CONNECT row.",
            synthetic::fig01sim,
        ),
        fig(
            "fig04",
            "Figure 4 — virtual express links (serial LUT hops)",
            "§III Fig 4: 710 MHz ceiling at short distances; 250 MHz across the chip with no \
             LUT hop; 450 MHz at 128 SLICEs with one hop; ≈200 MHz flat with two or more.",
            analytic::fig04,
        ),
        fig(
            "fig06",
            "Figure 6 — physical express bypass links",
            "§III Fig 6: frequency declines gracefully with distance and sustains 250 MHz to \
             32–64 SLICEs however many LUT-FF stages the wire bypasses.",
            analytic::fig06,
        ),
        fig(
            "fig10",
            "Figure 10 — peak frequency vs datawidth",
            "§V Fig 10: the widest NoC that routes shrinks with system size and express \
             length; a 4×4 D=2 NoC supports 512 b.",
            analytic::fig10,
        ),
        fig(
            "fig11",
            "Figure 11 — sustained rate vs injection rate, 64 PEs",
            "§VI Fig 11: FT(64,2,1) sustains up to ~2.5× Hoplite on RANDOM, ~2× on BITCOMPL, \
             ~1.5× on LOCAL and ≈1× on TRANSPOSE; no win below 10 % injection; the \
             depopulated FT(64,2,2) sits between the two.",
            synthetic::fig11,
        ),
        fig(
            "fig12",
            "Figure 12 — average latency vs injection rate, 64 PEs",
            "§VI Fig 12: measured at 100 cycles average latency, FastTrack moves the \
             saturation knee right by 2–5×; below it every NoC sits at low tens of cycles.",
            synthetic::fig12,
        ),
        fig(
            "fig13",
            "Figure 13 — replicated Hoplite vs FastTrack at equal wiring",
            "§VI Fig 13: FT(N,2,1) sustains 1.1–1.4× the rate of Hoplite-3x on RANDOM at \
             identical wiring, at 16, 64 and 256 PEs; both are far ahead of one Hoplite.",
            synthetic::fig13,
        ),
        fig(
            "fig14",
            "Figure 14 — throughput vs LUT and wire cost, 8×8 RANDOM",
            "§VI Fig 14: FT(64,2,1) delivers 2.5–3× Hoplite's throughput and ~1.2× \
             Hoplite-3x's at the same wiring, with fewer LUTs than Hoplite-3x.",
            synthetic::fig14,
        ),
        fig(
            "fig15a",
            "Figure 15a — SpMV accelerator traces",
            "§VI Fig 15a: speedups grow with PE count, up to ~2.5× at 256 PEs; hamm_memplus, \
             dominated by local coupling, neither needs nor gains from the faster NoC.",
            workload::fig15a,
        ),
        fig(
            "fig15b",
            "Figure 15b — graph analytics traces",
            "§VI Fig 15b: scale-free graphs gain up to ~2.8× at 256 PEs; roadNet-CA (local) \
             stays near 1×.",
            workload::fig15b,
        ),
        fig(
            "fig15c",
            "Figure 15c — token LU-factorization dataflow",
            "§VI Fig 15c: modest speedups, up to ~1.4×, most of them at 256 PEs where PE \
             serialization stops masking NoC latency.",
            workload::fig15c,
        ),
        fig(
            "fig15d",
            "Figure 15d — multi-processor overlay (PARSEC), 32 PEs",
            "§VI Fig 15d: up to ~2× for the communication-heavy benchmarks (x264, dedup); \
             freqmine, predominantly local, near 1×.",
            workload::fig15d,
        ),
        fig(
            "fig16",
            "Figure 16 — latency histogram, RANDOM below 10 % injection",
            "§VI Fig 16: express links cut deflection routing's worst-case latency 7× fully \
             populated and 3× depopulated.",
            synthetic::fig16,
        ),
        fig(
            "fig17",
            "Figure 17 — express-link length sweep, RANDOM at 50 % injection",
            "§VI Fig 17: on 8×8 the rate peaks at D=2–3 and falls at D=4 (links too long for \
             short transfers); depopulated R=D sits between Hoplite and R=1.",
            synthetic::fig17,
        ),
        fig(
            "fig18",
            "Figure 18 — link usage and deflections, 64 PEs RANDOM",
            "§VI Fig 18: the express share of hops grows as depopulation shrinks; total \
             deflections drop against Hoplite; West-input deflections fall ~25 %.",
            synthetic::fig18,
        ),
        fig(
            "fig19",
            "Figure 19 — throughput vs energy, 64 PEs RANDOM",
            "§VI Fig 19: FT(64,2,1) is ~1.8× faster than Hoplite on ~20 % less energy and \
             needs ~15 % less than Hoplite-3x; replicated Hoplite also lands below the \
             baseline's energy but stays slower than FT(64,2,1).",
            synthetic::fig19,
        ),
        fig(
            "abl-exit",
            "Ablation — exit-port microarchitecture",
            "Not in the paper: Hoplite shares its exit with the south output, Fig 9b's \
             FastTrack router has a dedicated 5:1 exit mux; what does that mux buy?",
            ablation::exit,
        ),
        fig(
            "abl-lane",
            "Ablation — lane-change policy, FT(Full) vs FTlite(Inject)",
            "§IV describes FTlite(Inject), which boards express lanes at injection only, as \
             the cheaper switch; the paper gives no throughput figure for it.",
            ablation::lane,
        ),
        fig(
            "abl-pipe",
            "Ablation — extra link pipeline registers",
            "§V: \"we can also insert a configurable number of additional registers along the \
             NoC links if an even faster frequency is desired\" — not evaluated there.",
            ablation::pipe,
        ),
        fig(
            "abl-serial",
            "Ablation — cacheline serialization vs datawidth",
            "§VI-B: a wide NoC sends an x86 cacheline as one packet; where wiring does not \
             allow the width \"a cacheline transfer must be serialized\" — not measured there.",
            workload::serial,
        ),
    ];
    &CATALOG
}

/// Sweep workers: one per core. Results do not depend on the count.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(2, usize::from)
}

fn hoplite(n: u16) -> NocUnderTest {
    NocUnderTest::hoplite(n)
}

fn ft(n: u16, d: u16, r: u16) -> NocUnderTest {
    NocUnderTest::fasttrack(n, d, r)
}

/// Hoplite, FT(n²,2,1) and FT(n²,2,2): the trio most figures compare.
fn trio(n: u16) -> [NocUnderTest; 3] {
    [hoplite(n), ft(n, 2, 1), ft(n, 2, 2)]
}

/// `v` with `prec` decimals.
fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// The paper's "sustained rate": delivered packets per cycle per PE.
fn rate(r: &SimReport) -> f64 {
    r.sustained_rate_per_pe()
}

/// The report of the grid point `(label, pattern, rate)`.
fn report<'a>(rows: &'a [SweepRow], label: &str, pattern: Pattern, rate: f64) -> &'a SimReport {
    let hit = |r: &&SweepRow| r.label == label && r.pattern == pattern && r.rate == rate;
    let row = rows.iter().find(hit);
    &row.unwrap_or_else(|| panic!("grid has no point {label} {pattern} @{rate}"))
        .report
}

/// Tables above this many cells are referenced by CSV name in
/// EXPERIMENTS.md instead of printed inline.
const MAX_INLINE_CELLS: usize = 70;

const PREAMBLE: &str = "\
# EXPERIMENTS — paper vs. reproduction

Generated by `fasttrack figure --all --out <dir>` (which also writes one
`<slug>.csv` per table) from the catalog in `crates/bench/src/figures/`;
CI regenerates it and fails on any difference, so edit the catalog, not
this file. Runs use the paper's 1 K packets per PE; every NoC of a figure
sees the same seeded traffic; output is byte-reproducible at any worker
count.

We do not chase absolute numbers — the substrate is a cycle-level
simulator plus calibrated analytic FPGA models, not the authors' Vivado
flow — but the *shape* of every result (who wins, by roughly what
factor, where crossovers fall) is an executed check: each line below
quotes the paper's claim, then what this run measured. A point estimate
in the paper (\"~2.5×\") is read as that value ± 20 %, a quoted range
(\"2–5×\") as that range ± 5 % at its edges. `cargo test` evaluates the
same checks at reduced scale (100 packets per PE, up to 64 PEs).

Legend: ✅ measured value inside the paper's band · ⚠ known deviation:
outside the paper's band, inside a band pinned around what this
reproduction does, reason in parentheses · ✗ outside both (CI fails).
";

const REPRODUCING: &str = "
## Reproducing

```sh
cargo build --release
target/release/fasttrack figure --all --out target/figures   # everything, < 1 min
target/release/fasttrack figure fig11 fig12                  # some figures, to stdout
cmp target/figures/EXPERIMENTS.md EXPERIMENTS.md             # what CI checks
```
";

/// Renders EXPERIMENTS.md, whole file, from executed figures.
pub fn experiments_md(results: &[(&Figure, Outcome)]) -> String {
    let mut md = String::from(PREAMBLE);
    let mut deviations = String::new();
    for (fig, outcome) in results {
        let _ = write!(md, "\n## {} (`{}`)\n\n{}\n\n", fig.title, fig.id, fig.paper);
        for table in &outcome.tables {
            let _ = match table.cells() <= MAX_INLINE_CELLS {
                true => writeln!(md, "{}", table.to_markdown()),
                false => writeln!(md, "`{}.csv` — {} rows.\n", table.title(), table.len()),
            };
        }
        for check in &outcome.checks {
            let _ = writeln!(md, "- {}", check.line());
            if let Verdict::Deviates { why } = check.verdict {
                let (id, claim, measured) = (fig.id, check.claim, &check.measured);
                let _ = writeln!(deviations, "- `{id}`: {claim} — {measured}. Why: {why}.");
            }
        }
    }
    md + "\n## Known deviations\n\n" + &deviations + REPRODUCING
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_follow_the_stated_reading() {
        assert!(about(2.5).contains(&2.0) && about(2.5).contains(&3.0));
        assert!(!about(2.5).contains(&3.01));
        assert!(range(2.0, 5.0).contains(&1.9) && !range(2.0, 5.0).contains(&5.3));
        let mut out = Outcome::default();
        // Pinned band, back inside the paper's band, outside both.
        for v in [1.93, 1.1, 3.0] {
            out.known("c", ratio(v, 1.0), about(1.0), 1.3..=2.3, "because");
        }
        let verdicts: Vec<Verdict> = out.checks.iter().map(|c| c.verdict).collect();
        let deviates = Verdict::Deviates { why: "because" };
        assert_eq!(verdicts, [deviates, Verdict::Holds, Verdict::Fails]);
        let line = out.checks[0].line();
        assert!(line.starts_with("⚠ c — 1.93×"), "{line}");
        assert!(line.ends_with("(because)"), "{line}");
    }

    #[test]
    fn a_truncated_grid_point_fails_its_figure_by_config() {
        let mut out = Outcome::default();
        let nuts = [NocUnderTest::hoplite(4), NocUnderTest::fasttrack(4, 2, 1)];
        let rows = out.grid(&nuts, &[Pattern::Random], &[0.1, 0.5], 1, Scale::Reduced);
        assert!(
            rows.iter().all(|r| !r.report.truncated)
                && !out.checks.iter().any(|c| c.verdict == Verdict::Fails)
        );
        // Both NoCs drew the same traffic for each (pattern, rate) point.
        assert_eq!((rows[0].seed, rows[1].seed), (rows[2].seed, rows[3].seed));
        let all: Vec<&SweepRow> = rows.iter().collect();
        out.pivot("t", &all, &[("rate", &|r| f(rate(r), 2))]);
        let csv = out.tables[0].to_csv();
        let head = "Injection rate,Hoplite 4x4 rate,\"FT(16,2,1) rate\"\n0.10,";
        assert!(csv.starts_with(head), "{csv}");
        out.truncated("Hoplite RANDOM @0.5");
        assert!(out.checks.iter().any(|c| c.verdict == Verdict::Fails));
        let line = out.checks[0].line();
        assert!(line.contains("Hoplite RANDOM @0.5 was truncated"), "{line}");
    }
}
