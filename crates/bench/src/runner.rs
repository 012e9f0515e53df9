//! Shared experiment plumbing: the NoCs under test and the
//! deterministic sweep grid every experiment — the CLI's `sweep` /
//! `storm` / `compare` and the figure catalog — runs through.

use fasttrack_core::attribution::{AttributionReport, LatencyComponent};
use fasttrack_core::config::{FtPolicy, NocConfig};
use fasttrack_core::fallback::{FallbackConfig, FallbackError};
use fasttrack_core::fault::{FaultError, FaultPlan, StormSpec};
use fasttrack_core::mesh::MeshConfig;
use fasttrack_core::monitor::HealthSummary;
use fasttrack_core::sim::{
    SimOptions, SimOutcome, SimReport, SimSession, SpecBackend, TrafficSource,
};
use fasttrack_core::sweep::{retry_seed, splitmix64, sweep_fallible, SweepError};
use fasttrack_core::topology::{ShgConfig, TopologySpec};
use fasttrack_traffic::pattern::Pattern;
use fasttrack_traffic::source::BernoulliSource;

/// The injection rates swept in Figures 11–13 (log-spaced 1%..100%).
pub const INJECTION_RATES: [f64; 9] = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0];

/// Forwarded for the repo benchmark (`benchmark/src/plan.rs` and
/// `benchmark/src/traced.rs` import it from here); ROADMAP item 1 PR B
/// moves those imports to `fasttrack_core::topology` and deletes this.
pub use fasttrack_core::topology::topology_of;

/// A NoC under test: a topology plus a channel count (for the
/// replicated-Hoplite comparisons; channels apply to torus NoCs only).
#[derive(Debug, Clone)]
pub struct NocUnderTest {
    /// Label used in tables (e.g. `Hoplite-3x`).
    pub label: String,
    /// The topology this NoC instantiates.
    pub topology: TopologySpec,
    /// Parallel physical channels (1 = single NoC).
    pub channels: usize,
}

impl NocUnderTest {
    /// Baseline Hoplite.
    pub fn hoplite(n: u16) -> Self {
        NocUnderTest {
            label: "Hoplite".into(),
            topology: TopologySpec::Torus(NocConfig::hoplite(n).expect("valid n")),
            channels: 1,
        }
    }

    /// Replicated Hoplite with `channels` physical channels.
    pub fn hoplite_x(n: u16, channels: usize) -> Self {
        NocUnderTest {
            label: format!("Hoplite-{channels}x"),
            topology: TopologySpec::Torus(NocConfig::hoplite(n).expect("valid n")),
            channels,
        }
    }

    /// FastTrack `FT(n², d, r)` with the Full lane policy.
    pub fn fasttrack(n: u16, d: u16, r: u16) -> Self {
        let config = NocConfig::fasttrack(n, d, r, FtPolicy::Full).expect("valid config");
        NocUnderTest {
            label: config.name(),
            topology: TopologySpec::Torus(config),
            channels: 1,
        }
    }

    /// A Sparse Hamming Graph `SHG(q², δ)` under test.
    pub fn shg(q: u16, delta: u16) -> Self {
        let cfg = ShgConfig::new(q, delta).expect("valid SHG config");
        NocUnderTest {
            label: cfg.name(),
            topology: TopologySpec::Shg(cfg),
            channels: 1,
        }
    }

    /// A buffered `n × n` mesh with `depth`-flit input FIFOs under test.
    pub fn mesh(n: u16, depth: usize) -> Self {
        let cfg = MeshConfig::new(n, depth).expect("valid mesh config");
        NocUnderTest {
            label: cfg.name(),
            topology: TopologySpec::Mesh { n, depth },
            channels: 1,
        }
    }

    /// A NoC under test from any parsed [`TopologySpec`], labeled with
    /// its display name.
    pub fn from_spec(spec: TopologySpec) -> Self {
        NocUnderTest {
            label: spec.display_name(),
            topology: spec,
            channels: 1,
        }
    }

    /// Grid side length (torus/mesh `n`, SHG `q`) — every built-in
    /// topology is a square grid, which is what the synthetic traffic
    /// generators key on.
    pub fn side(&self) -> u16 {
        self.topology.side()
    }

    /// The [`SimSession`] over this NoC — the one way the harness runs
    /// anything. Callers compose options, faults, fallback chains, and
    /// observers with the session's own builder.
    pub(crate) fn session(&self) -> SimSession<'static, SpecBackend> {
        SimSession::with_backend(SpecBackend::new(&self.topology, self.channels))
    }

    /// Runs a traffic source to completion on this NoC.
    pub fn run<S: TrafficSource>(&self, source: &mut S, opts: SimOptions) -> SimReport {
        no_faults(self.session().options(opts).run(source)).report
    }
}

fn no_faults(outcome: Result<SimOutcome, FaultError>) -> SimOutcome {
    outcome.expect("no fault plan attached")
}

/// One point of a sweep grid: a NoC under test × pattern × rate. The
/// point's RNG seed is *not* stored here — it is derived from the grid
/// base seed and the point's index at run time, which is what makes the
/// parallel run byte-identical to the serial one.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The NoC (configuration + channel count) this point simulates.
    pub nut: NocUnderTest,
    /// Synthetic traffic pattern.
    pub pattern: Pattern,
    /// Injection rate (Bernoulli probability per PE per cycle).
    pub rate: f64,
}

impl SweepPoint {
    /// The point's Bernoulli traffic for `seed`.
    fn source(&self, seed: u64, packets: u64) -> BernoulliSource {
        BernoulliSource::new(self.nut.side(), self.pattern, self.rate, packets, seed)
    }

    /// The row recording that this point, run with `seed`, produced
    /// `report`.
    fn row(&self, seed: u64, report: SimReport) -> SweepRow {
        SweepRow {
            label: self.nut.label.clone(),
            channels: self.nut.channels,
            pattern: self.pattern,
            rate: self.rate,
            seed,
            report,
        }
    }
}

/// The result of one executed [`SweepPoint`].
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Label of the NoC under test (e.g. `FT(64,2,1)`).
    pub label: String,
    /// Physical channel count.
    pub channels: usize,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Injection rate.
    pub rate: f64,
    /// The SplitMix64-derived seed this point ran with.
    pub seed: u64,
    /// The finished simulation report.
    pub report: SimReport,
}

impl SweepRow {
    /// Delivered fraction (`delivered / injected`; 1.0 when idle).
    pub fn delivered_fraction(&self) -> f64 {
        let s = &self.report.stats;
        if s.injected == 0 {
            1.0
        } else {
            s.delivered as f64 / s.injected as f64
        }
    }
}

/// A sweep grid: an ordered list of points plus the deterministic
/// seeding scheme. Identical grids produce identical [`SweepRow`]s (and
/// identical [`sweep_csv`] bytes) at any thread count.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// The points, in canonical (serial) order.
    pub points: Vec<SweepPoint>,
    /// Base seed every per-point seed is derived from.
    pub base_seed: u64,
    /// Packets each PE injects per run.
    pub packets_per_pe: u64,
}

impl SweepGrid {
    /// The cross product `nuts × patterns × rates` in row-major order
    /// (NoC slowest, rate fastest), at the paper's 1 K packets per PE.
    pub fn cross(
        nuts: &[NocUnderTest],
        patterns: &[Pattern],
        rates: &[f64],
        base_seed: u64,
    ) -> Self {
        let mut points = Vec::with_capacity(nuts.len() * patterns.len() * rates.len());
        for nut in nuts {
            for &pattern in patterns {
                for &rate in rates {
                    points.push(SweepPoint {
                        nut: nut.clone(),
                        pattern,
                        rate,
                    });
                }
            }
        }
        SweepGrid {
            points,
            base_seed,
            packets_per_pe: 1000,
        }
    }

    /// Overrides the per-PE packet quota.
    pub fn with_packets_per_pe(mut self, packets: u64) -> Self {
        self.packets_per_pe = packets;
        self
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The one sweep runner: runs the grid points `indices` names on
    /// `opts.threads` workers and returns their results in that order.
    ///
    /// Each attempt of point `i` draws its seed with [`retry_seed`]
    /// (attempt 0 is [`point_seed`](fasttrack_core::sweep::point_seed),
    /// so rows never depend on whether retries were armed), builds the
    /// point's traffic source and session — capped at
    /// `opts.cycle_budget` cycles when one is set — and hands
    /// `(i, seed, point, session, source)` to `drive`, which composes
    /// whatever faults and observers it needs, runs the session and
    /// returns the report plus a typed sidecar. A panicking attempt is
    /// caught and a run truncated under the budget becomes
    /// [`SweepError::BudgetExceeded`]; either is retried up to
    /// `opts.retries` times. `done(i, &result)` runs once per point, on
    /// its worker, as soon as the final result is known. Results depend
    /// only on the grid and `indices`, never on `opts.threads`.
    pub(crate) fn run_each<R, F, H>(
        &self,
        indices: Vec<usize>,
        opts: &FallibleSweepOptions,
        drive: F,
        done: H,
    ) -> Vec<Result<(SweepRow, R), SweepError>>
    where
        R: Send,
        F: Fn(usize, u64, &SweepPoint, PointSession, &mut BernoulliSource) -> (SimReport, R) + Sync,
        H: Fn(usize, &Result<(SweepRow, R), SweepError>) + Sync,
    {
        let budget = opts.cycle_budget;
        let attempt = |_, attempt, &i: &usize| {
            let p = &self.points[i];
            let seed = retry_seed(self.base_seed, i, attempt);
            let mut session = p.nut.session();
            if let Some(max_cycles) = budget {
                session = session.max_cycles(max_cycles);
            }
            let (report, sidecar) = drive(
                i,
                seed,
                p,
                session,
                &mut p.source(seed, self.packets_per_pe),
            );
            match budget {
                Some(budget) if report.truncated => Err(SweepError::BudgetExceeded { budget }),
                _ => Ok((p.row(seed, report), sidecar)),
            }
        };
        let finished = |&i: &usize, result: &Result<_, _>| done(i, result);
        sweep_fallible(indices, opts.threads, opts.retries, attempt, finished)
    }

    /// Every point, unobserved, on `threads` workers. Results come back
    /// in point order with per-point derived seeds, so the output is
    /// independent of `threads` (1 is the serial golden run).
    ///
    /// # Panics
    ///
    /// Panics, naming the point, when a point panicked; the other points
    /// still run to completion first.
    pub fn run(&self, threads: usize) -> Vec<SweepRow> {
        let opts = FallibleSweepOptions {
            threads,
            ..FallibleSweepOptions::default()
        };
        let drive = |_, _, _: &SweepPoint, session: PointSession, source: &mut BernoulliSource| {
            (no_faults(session.run(source)).report, ())
        };
        expect_all(self.run_each(self.all(), &opts, drive, |_, _| {})).0
    }

    /// [`SweepGrid::run`] under a seeded fault storm: every point runs
    /// with a per-point storm plan (express links dying and healing on a
    /// schedule derived from the point seed) and the given fallback
    /// chains. Rows are in point-index order and byte-identical at any
    /// thread count; [`SloSpec::met`] judges each against availability
    /// thresholds.
    ///
    /// # Errors
    ///
    /// Returns the first [`FallbackError`] when the chains fail
    /// validation against a point's topology (non-torus topologies
    /// admit only the inert configuration — see
    /// [`fasttrack_core::topology::Topology::validate_fallback`]);
    /// storm plans themselves are valid by construction.
    pub fn run_storm(
        &self,
        threads: usize,
        storm: &StormSpec,
        fallback: &FallbackConfig,
    ) -> Result<Vec<SweepRow>, FallbackError> {
        for p in &self.points {
            topology_of(&p.nut.topology).validate_fallback(fallback)?;
        }
        let opts = FallibleSweepOptions {
            threads,
            ..FallibleSweepOptions::default()
        };
        let drive =
            |_, seed, p: &SweepPoint, session: PointSession, source: &mut BernoulliSource| {
                let plan = FaultPlan::storm(
                    &*topology_of(&p.nut.topology),
                    splitmix64(seed ^ STORM_SALT),
                    storm,
                );
                let report = session
                    .with_fallback(fallback)
                    .expect("chains validated before the sweep")
                    .with_faults(&plan)
                    .run(source)
                    .expect("storm plans are valid by construction")
                    .report;
                (report, ())
            };
        let results = self.run_each(self.all(), &opts, drive, |_, _| {});
        Ok(expect_all(results).0)
    }

    /// Every grid index, in order.
    fn all(&self) -> Vec<usize> {
        (0..self.points.len()).collect()
    }
}

/// Rows and sidecars of a sweep in which every point must succeed.
fn expect_all<R>(results: Vec<Result<(SweepRow, R), SweepError>>) -> (Vec<SweepRow>, Vec<R>) {
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|e| panic!("sweep point {i} failed: {e}")))
        .unzip()
}

/// The session `SweepGrid::run_each` hands each point's closure.
pub(crate) type PointSession = SimSession<'static, SpecBackend>;

/// Per-point wall-clock timings of one sweep run, aggregated across
/// worker threads into nearest-rank percentiles (`sweep --profile`).
/// Strictly a sidecar: rows and CSV bytes are untouched by timing.
#[derive(Debug, Clone, Default)]
pub struct SweepTiming {
    sorted: Vec<f64>,
}

impl SweepTiming {
    /// Wraps raw per-point timings, in any order.
    pub fn new(mut per_point_secs: Vec<f64>) -> Self {
        per_point_secs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        SweepTiming {
            sorted: per_point_secs,
        }
    }

    /// Number of timed points.
    pub(crate) fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Sum of per-point seconds (total per-point work, not wall clock
    /// when threads > 1).
    pub(crate) fn total(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// Mean per-point seconds (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.total() / self.sorted.len() as f64
        }
    }

    /// Slowest point (0 when empty).
    pub(crate) fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Nearest-rank percentile over per-point seconds (0 when empty).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=100.0`.
    pub(crate) fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil().max(1.0) as usize;
        self.sorted[rank.min(self.sorted.len()) - 1]
    }

    /// One-line human summary (for `--profile` stderr output).
    pub fn render_text(&self) -> String {
        format!(
            "sweep timing: {} points, total {:.3}s, mean {:.4}s, p50 {:.4}s, \
             p90 {:.4}s, p99 {:.4}s, max {:.4}s",
            self.len(),
            self.total(),
            self.mean(),
            self.percentile(50.0),
            self.percentile(90.0),
            self.percentile(99.0),
            self.max(),
        )
    }
}

/// How `SweepGrid::run_each` runs its points.
#[derive(Debug, Clone, Copy)]
pub struct FallibleSweepOptions {
    /// Worker threads (0 is treated as 1).
    pub threads: usize,
    /// Retries after a failed attempt (0 = single attempt per point).
    pub retries: u32,
    /// Per-point cycle budget: a point still running at this many cycles
    /// is aborted with [`SweepError::BudgetExceeded`]. `None` keeps the
    /// default [`SimOptions::max_cycles`] cap (truncation is then
    /// reported in the row, not as an error).
    pub cycle_budget: Option<u64>,
}

impl Default for FallibleSweepOptions {
    fn default() -> Self {
        FallibleSweepOptions {
            threads: 1,
            retries: 0,
            cycle_budget: None,
        }
    }
}

/// Seed salt separating a point's storm-plan draw from its traffic
/// draw (`b"STORM"` as an integer).
const STORM_SALT: u64 = 0x53_54_4F_52_4D;

/// Availability SLO thresholds for the rows of [`SweepGrid::run_storm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Minimum delivered fraction (`delivered / injected`) a point must
    /// reach to meet the SLO.
    pub min_delivered_fraction: f64,
    /// Maximum p99 end-to-end latency in cycles (0 = no latency SLO).
    pub max_p99_latency: u64,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            min_delivered_fraction: 0.95,
            max_p99_latency: 0,
        }
    }
}

impl SloSpec {
    /// Whether `row` meets the thresholds.
    pub fn met(&self, row: &SweepRow) -> bool {
        row.delivered_fraction() >= self.min_delivered_fraction
            && (self.max_p99_latency == 0 || row.report.p99_latency() <= self.max_p99_latency)
    }
}

/// Writes the fields naming sweep point `index` — grid index, NoC
/// label, pattern, rate and seed — that open each JSON sidecar entry.
fn write_point_identity(out: &mut String, index: usize, row: &SweepRow) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"index\":{index},\"config\":\"{}\",\"pattern\":\"{}\",\"rate\":{},\"seed\":{}",
        row.label, row.pattern, row.rate, row.seed
    );
}

/// Serializes storm rows (every grid point, in index order) with their
/// availability verdicts under `slo` as one deterministic JSON array
/// (the storm companion of [`health_json`]).
pub fn storm_json(rows: &[SweepRow], slo: &SloSpec) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("[");
    for (index, row) in rows.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        write_point_identity(&mut out, index, row);
        let (r, s) = (&row.report, &row.report.stats);
        let _ = write!(
            out,
            ",\"injected\":{},\"delivered\":{},\"dropped\":{},\"rerouted\":{},\
             \"fallback_demotions\":{},\"fallback_channel_switches\":{},\
             \"delivered_fraction\":{:.6},\"p99_latency\":{},\"conserved\":{},\"slo_met\":{}}}",
            s.injected,
            s.delivered,
            s.dropped,
            s.rerouted,
            s.fallback_demotions,
            s.fallback_channel_switches,
            row.delivered_fraction(),
            r.p99_latency(),
            r.conserved(),
            slo.met(row),
        );
    }
    out.push(']');
    out
}

/// Serializes per-point health summaries, each with its point's grid
/// index and row, as one deterministic JSON array in the given order
/// (the companion of [`sweep_csv`]).
pub fn health_json(points: &[(usize, &SweepRow, &HealthSummary)]) -> String {
    let mut out = String::from("[");
    for (i, &(index, row, health)) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_point_identity(&mut out, index, row);
        out.push_str(",\"health\":");
        out.push_str(&health.to_json());
        out.push('}');
    }
    out.push(']');
    out
}

/// Serializes per-point attribution reports, each with its point's grid
/// index and row, as a deterministic sidecar CSV in the given order —
/// the companion of [`sweep_csv`], which stays byte-identical whether
/// or not attribution ran.
pub fn attribution_csv(points: &[(usize, &SweepRow, &AttributionReport)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "index,config,pattern,rate,seed,packets,queue_wait_cycles,express_cycles,\
         ring_cycles,deflect_cycles,reroute_cycles,eject_cycles,total_cycles,\
         express_traffic_fraction,express_decisions,ring_decisions,exit_decisions,\
         route_decisions,reconciled\n",
    );
    for &(index, row, a) in points {
        let _ = write!(
            out,
            "{},{},{},{:.6},{},{}",
            index, row.label, row.pattern, row.rate, row.seed, a.delivered
        );
        for c in LatencyComponent::ALL {
            let _ = write!(out, ",{}", a.component(c));
        }
        let _ = writeln!(
            out,
            ",{},{:.6},{},{},{},{},{}",
            a.total_cycles(),
            a.express_traffic_fraction(),
            a.express_decisions,
            a.ring_decisions,
            a.exit_decisions,
            a.route_decisions,
            a.reconciled()
        );
    }
    out
}

/// The CSV header line [`sweep_csv`] rows are written under (with the
/// trailing newline).
pub(crate) fn sweep_csv_header() -> &'static str {
    "config,channels,pattern,rate,seed,cycles,injected,delivered,\
     rate_per_pe,avg_latency,p99_latency,worst_latency,deflections,\
     short_hops,express_hops,dropped,rerouted\n"
}

/// One [`SweepRow`] as a CSV line (with the trailing newline). Field
/// formatting is fully determined by the row values — no timestamps, no
/// ambient state — which is what lets the crash-safe journal store rows
/// verbatim and still reproduce a byte-identical [`sweep_csv`].
pub(crate) fn sweep_csv_row(row: &SweepRow) -> String {
    let r = &row.report;
    format!(
        "{},{},{},{},{},{},{},{},{:.6},{:.6},{},{},{},{},{},{},{}\n",
        row.label,
        row.channels,
        row.pattern,
        row.rate,
        row.seed,
        r.cycles,
        r.stats.injected,
        r.stats.delivered,
        r.sustained_rate_per_pe(),
        r.avg_latency(),
        r.p99_latency(),
        r.worst_latency(),
        r.stats.ports.total_deflections(),
        r.stats.link_usage.short_hops,
        r.stats.link_usage.express_hops,
        r.stats.dropped,
        r.stats.rerouted,
    )
}

/// Serializes sweep rows as CSV (`sweep_csv_header` +
/// `sweep_csv_row` per row): two runs of the same grid yield
/// byte-identical output.
pub fn sweep_csv(rows: &[SweepRow]) -> String {
    let mut out = String::from(sweep_csv_header());
    for row in rows {
        out.push_str(&sweep_csv_row(row));
    }
    out
}

/// The PE-count ladder of Figure 15 (4..256 PEs) mapped to torus sides.
pub(crate) const PE_LADDER: [(usize, u16); 4] = [(4, 2), (16, 4), (64, 8), (256, 16)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_configs_have_labels() {
        assert_eq!(NocUnderTest::hoplite(8).label, "Hoplite");
        assert_eq!(NocUnderTest::hoplite_x(8, 3).label, "Hoplite-3x");
        assert_eq!(NocUnderTest::fasttrack(8, 2, 1).label, "FT(64,2,1)");
    }

    #[test]
    fn run_pattern_produces_complete_run() {
        let nut = NocUnderTest::hoplite(4);
        let mut src = BernoulliSource::new(4, Pattern::Random, 0.5, 50, 1);
        let report = nut.run(&mut src, SimOptions::default());
        assert!(!report.truncated);
        assert_eq!(report.stats.delivered, 16 * 50);
    }

    #[test]
    fn sweep_timing_uses_nearest_rank_percentiles() {
        let t = SweepTiming::new(vec![0.3, 0.1, 0.2, 0.4]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.max(), 0.4);
        assert!((t.total() - 1.0).abs() < 1e-12);
        assert!((t.mean() - 0.25).abs() < 1e-12);
        // Nearest-rank: p50 of 4 samples is the 2nd sorted value.
        assert_eq!(t.percentile(50.0), 0.2);
        assert_eq!(t.percentile(99.0), 0.4);
        assert_eq!(t.percentile(0.0), 0.1);
        let text = t.render_text();
        assert!(text.contains("4 points"), "{text}");
        assert!(text.contains("p99"), "{text}");
        assert_eq!(SweepTiming::default().percentile(50.0), 0.0);
    }

    /// A grid with one point per backend kind: single torus, torus
    /// bank, FastTrack, SHG, and buffered mesh.
    fn mixed_grid(base_seed: u64) -> SweepGrid {
        let nuts = [
            NocUnderTest::hoplite(4),
            NocUnderTest::hoplite_x(4, 2),
            NocUnderTest::fasttrack(4, 2, 1),
            NocUnderTest::shg(4, 2),
            NocUnderTest::mesh(4, 2),
        ];
        SweepGrid::cross(&nuts, &[Pattern::Random], &[0.2, 1.0], base_seed).with_packets_per_pe(40)
    }

    #[test]
    fn run_each_hands_every_point_its_seed_session_and_source() {
        // The primitive itself: closures see (index, derived seed,
        // point) in the order asked for at any thread count, and running
        // the handed session over the handed source is the plain sweep.
        let grid = mixed_grid(0xC0FFEE);
        let plain = grid.run(1);
        let backwards: Vec<usize> = grid.all().into_iter().rev().collect();
        for threads in [1, 2, 8] {
            let opts = FallibleSweepOptions {
                threads,
                ..FallibleSweepOptions::default()
            };
            let drive = |i, seed, p: &SweepPoint, session: PointSession, source: &mut _| {
                let report = no_faults(session.run(source)).report;
                (report, (i, seed, p.nut.label.clone()))
            };
            let out = grid.run_each(backwards.clone(), &opts, drive, |_, _| {});
            for (&i, result) in backwards.iter().zip(out) {
                let (row, (index, seed, label)) = result.expect("healthy point");
                assert_eq!(
                    sweep_csv_row(&row),
                    sweep_csv_row(&plain[i]),
                    "{threads} threads"
                );
                assert_eq!(index, i);
                assert_eq!(seed, fasttrack_core::sweep::point_seed(grid.base_seed, i));
                assert_eq!(label, grid.points[i].nut.label);
            }
        }
    }

    /// One closure with the monitor and the attribution layer attached
    /// and a timer around the run, under a cycle budget and `retries`.
    #[allow(clippy::type_complexity)]
    fn observed(
        grid: &SweepGrid,
        threads: usize,
        retries: u32,
        seeds: &std::sync::Mutex<Vec<(usize, u64)>>,
    ) -> Vec<Result<(SweepRow, (HealthSummary, AttributionReport, f64)), SweepError>> {
        use fasttrack_core::attribution::AttributionConfig;
        use fasttrack_core::monitor::MonitorConfig;
        let opts = FallibleSweepOptions {
            threads,
            retries,
            cycle_budget: Some(2000),
        };
        let drive = |index, seed, _: &SweepPoint, session: PointSession, source: &mut _| {
            seeds.lock().unwrap().push((index, seed));
            let started = std::time::Instant::now();
            let outcome = no_faults(
                session
                    .with_monitor(MonitorConfig::default())
                    .with_attribution(AttributionConfig::default())
                    .run(source),
            );
            let secs = started.elapsed().as_secs_f64();
            let health = outcome.monitor.expect("monitored").summary();
            let attribution = outcome.attribution.expect("attributed");
            (outcome.report, (health, attribution, secs))
        };
        grid.run_each(grid.all(), &opts, drive, |_, _| {})
    }

    #[test]
    fn observers_timing_and_hardening_leave_rows_identical() {
        // The intentional panics below unwind on this (named) test
        // thread or on unnamed sweep workers; keep them off stderr.
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let ours = std::thread::current()
                    .name()
                    .is_none_or(|n| n.contains("leave_rows_identical"));
                if !ours {
                    prev(info);
                }
            }));
        });
        let grid = mixed_grid(0xBEEF);
        let plain: Vec<String> = grid.run(1).iter().map(sweep_csv_row).collect();
        // Point 2 panics (zero channels trips the bank's assert); point
        // 8 is so slow it cannot finish inside the cycle budget.
        let mut broken = grid.clone();
        broken.points[2].nut.channels = 0;
        broken.points[8].rate = 0.004;
        let seeds = std::sync::Mutex::new(Vec::new());
        type Sidecar = (HealthSummary, AttributionReport, f64);
        let sidecars = |points: &[(usize, &(SweepRow, Sidecar))]| {
            let health: Vec<_> = points.iter().map(|&(i, (row, s))| (i, row, &s.0)).collect();
            let attribution: Vec<_> = points.iter().map(|&(i, (row, s))| (i, row, &s.1)).collect();
            (health_json(&health), attribution_csv(&attribution))
        };

        let golden = observed(&grid, 1, 0, &seeds);
        let ok: Vec<(usize, &(SweepRow, _))> = golden
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.as_ref().expect("no point fails on the healthy grid")))
            .collect();
        let golden_sidecars = sidecars(&ok);
        for threads in [1, 2, 8] {
            // Observed and timed: rows byte-identical to the plain run,
            // sidecars thread-invariant.
            let out = observed(&grid, threads, 0, &seeds);
            let ran: Vec<_> = out.iter().map(|r| r.as_ref().unwrap()).collect();
            let rows: Vec<String> = ran.iter().map(|(row, _)| sweep_csv_row(row)).collect();
            assert_eq!(rows, plain, "observers changed rows at {threads} threads");
            let points: Vec<_> = ran.iter().copied().enumerate().collect();
            assert_eq!(sidecars(&points), golden_sidecars, "{threads} threads");
            assert!(ran.iter().all(|(_, s)| s.2 >= 0.0));

            // Hardened: the two bad points fail in their slots, after
            // exactly two attempts each on deterministic retry seeds; the
            // rest keep their plain rows and their sidecar entries.
            seeds.lock().unwrap().clear();
            let out = observed(&broken, threads, 1, &seeds);
            assert!(
                matches!(&out[2], Err(SweepError::Panicked { message, attempts: 2 })
                    if message.contains("at least one channel")),
                "{:?}",
                out[2].as_ref().err()
            );
            assert_eq!(
                out[8].as_ref().err(),
                Some(&SweepError::BudgetExceeded { budget: 2000 })
            );
            let mut tried = seeds.lock().unwrap().clone();
            tried.sort_unstable();
            for i in grid.all() {
                let attempts: Vec<u64> = tried.iter().filter(|t| t.0 == i).map(|t| t.1).collect();
                let expect: Vec<u64> = match i {
                    2 | 8 => (0..2).map(|a| retry_seed(grid.base_seed, i, a)).collect(),
                    _ => vec![retry_seed(grid.base_seed, i, 0)],
                };
                let mut expect = expect;
                expect.sort_unstable();
                assert_eq!(attempts, expect, "point {i} at {threads} threads");
            }
            let survivors: Vec<_> = out
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().ok().map(|r| (i, r)))
                .collect();
            assert_eq!(survivors.len(), grid.len() - 2);
            for &(i, (row, _)) in &survivors {
                assert_eq!(sweep_csv_row(row), plain[i], "point {i}");
            }
            let golden_kept: Vec<_> = ok
                .iter()
                .copied()
                .filter(|&(i, _)| i != 2 && i != 8)
                .collect();
            assert_eq!(
                sidecars(&survivors),
                sidecars(&golden_kept),
                "{threads} threads"
            );
        }

        // What each sidecar says about the healthy grid.
        let (json, csv) = &golden_sidecars;
        assert!(json.starts_with('[') && json.ends_with(']'));
        for p in &grid.points {
            let label = &p.nut.label;
            assert!(json.contains(&format!("\"config\":\"{label}\"")), "{label}");
        }
        assert!(csv.starts_with("index,config,pattern,rate,seed,packets,"));
        assert_eq!(csv.lines().count(), grid.len() + 1);
        for (i, line) in csv.lines().skip(1).enumerate() {
            assert!(line.starts_with(&format!("{i},")), "{line}");
        }
        for &(i, (row, (health, a, _))) in &ok {
            assert_eq!(health.injected, health.delivered);
            // The mesh engine keeps no `route_decisions` counter, so its
            // wire-class reconciliation has nothing to check against;
            // the exact-sum invariant holds on every backend.
            let mesh = matches!(grid.points[i].nut.topology, TopologySpec::Mesh { .. });
            assert_eq!(a.reconciled(), !mesh, "point {i}");
            assert_eq!(a.mismatches, 0, "point {i}");
            assert_eq!(a.delivered, row.report.stats.delivered);
        }
        // FastTrack points attribute cycles to express lanes; Hoplite
        // points must not.
        let express = |i: usize| &(ok[i].1).1 .1;
        assert!(express(4).component(LatencyComponent::Express) > 0);
        assert_eq!(express(0).component(LatencyComponent::Express), 0);
        assert_eq!(express(0).express_decisions, 0);
    }

    #[test]
    fn multichannel_run_uses_channels() {
        let nut = NocUnderTest::hoplite_x(4, 2);
        let mut src = BernoulliSource::new(4, Pattern::Random, 1.0, 30, 2);
        let report = nut.run(&mut src, SimOptions::default());
        assert!(report.config_name.contains("2x"));
        assert_eq!(report.stats.delivered, 16 * 30);
    }

    #[test]
    fn ladder_covers_paper_sizes() {
        assert_eq!(PE_LADDER[0], (4, 2));
        assert_eq!(PE_LADDER[3], (256, 16));
    }

    #[test]
    fn sweep_grid_deterministic_across_threads() {
        let nuts = [NocUnderTest::hoplite(4), NocUnderTest::fasttrack(4, 2, 1)];
        let grid = SweepGrid::cross(&nuts, &[Pattern::Random], &[0.1, 0.5], 0xFEED)
            .with_packets_per_pe(30);
        assert_eq!(grid.len(), 4);
        assert!(!grid.is_empty());
        let serial = sweep_csv(&grid.run(1));
        assert_eq!(serial, sweep_csv(&grid.run(3)), "thread count leaked in");
        assert!(serial.starts_with("config,"));
        assert_eq!(serial.lines().count(), 1 + grid.len());
    }

    #[test]
    fn storm_sweep_is_deterministic_and_conserved() {
        let nuts = [NocUnderTest::fasttrack(4, 2, 1)];
        let grid =
            SweepGrid::cross(&nuts, &[Pattern::Random], &[0.3], 0xAB).with_packets_per_pe(40);
        let storm = StormSpec {
            kills_per_kcycle: 20,
            heal_after: (50, 150),
            duration: 1500,
        };
        let fallback = FallbackConfig::standard();
        let slo = SloSpec::default();
        let rows1 = grid.run_storm(1, &storm, &fallback).unwrap();
        for threads in [2, 8] {
            let rows = grid.run_storm(threads, &storm, &fallback).unwrap();
            assert_eq!(
                sweep_csv(&rows1),
                sweep_csv(&rows),
                "thread count leaked in"
            );
            assert_eq!(storm_json(&rows1, &slo), storm_json(&rows, &slo));
        }
        // An empty storm under inert chains is the plain sweep.
        let calm = StormSpec {
            duration: 0,
            ..storm
        };
        let calm_rows = grid.run_storm(2, &calm, &FallbackConfig::none()).unwrap();
        assert_eq!(sweep_csv(&calm_rows), sweep_csv(&grid.run(1)));
        for row in &rows1 {
            let (r, s) = (&row.report, &row.report.stats);
            assert!(r.conserved(), "conservation must hold under the storm");
            assert_eq!(s.delivered + s.dropped + (r.in_flight as u64), s.injected);
        }
        let json = storm_json(&rows1, &slo);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"delivered_fraction\""));
        assert!(json.contains("\"slo_met\""));
    }

    #[test]
    fn storm_chains_deliver_strictly_more_on_ft64() {
        // The PR's acceptance point: under a seeded storm on FT(64,2,2)
        // the chains must deliver a strictly higher packet fraction
        // than the chains-off drop baseline at equal seeds — via
        // express demotion on the Inject policy (one channel) and via
        // channel switching on the Full policy (two channels).
        let inject = NocUnderTest {
            label: "FTlite(64,2,2)".into(),
            topology: TopologySpec::Torus(NocConfig::fasttrack(8, 2, 2, FtPolicy::Inject).unwrap()),
            channels: 1,
        };
        let full = NocUnderTest {
            label: "FT(64,2,2) 2x".into(),
            topology: TopologySpec::Torus(NocConfig::fasttrack(8, 2, 2, FtPolicy::Full).unwrap()),
            channels: 2,
        };
        let grid = SweepGrid::cross(&[inject, full], &[Pattern::Random], &[0.3], 0x57)
            .with_packets_per_pe(100);
        let storm = StormSpec {
            kills_per_kcycle: 8,
            heal_after: (200, 600),
            duration: 4_000,
        };
        let on = grid
            .run_storm(1, &storm, &FallbackConfig::standard())
            .unwrap();
        let off = grid.run_storm(1, &storm, &FallbackConfig::none()).unwrap();
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.seed, b.seed, "comparison must use equal seeds");
            assert_eq!(
                a.report.stats.injected, b.report.stats.injected,
                "equal seeds, equal traffic"
            );
            assert!(a.report.conserved() && b.report.conserved());
            assert!(
                a.delivered_fraction() > b.delivered_fraction(),
                "{}: chains {:.4} must beat drop baseline {:.4}",
                a.label,
                a.delivered_fraction(),
                b.delivered_fraction(),
            );
        }
        assert!(
            on[0].report.stats.fallback_demotions > 0,
            "Inject point must demote"
        );
        assert!(
            on[1].report.stats.fallback_channel_switches > 0,
            "two-channel point must switch channels"
        );
        assert_eq!(
            off[0].report.stats.fallback_demotions + off[1].report.stats.fallback_channel_switches,
            0
        );
    }

    #[test]
    fn storm_rejects_invalid_chains() {
        use fasttrack_core::fallback::FallbackAction;
        let nuts = [NocUnderTest::fasttrack(4, 2, 1)];
        let grid = SweepGrid::cross(&nuts, &[Pattern::Random], &[0.2], 1).with_packets_per_pe(10);
        let bad = FallbackConfig::none().with_chain(0, vec![FallbackAction::DemoteToRing]);
        assert!(grid.run_storm(1, &StormSpec::default(), &bad).is_err());
    }

    #[test]
    fn sweep_grid_seeds_differ_per_point() {
        let grid = SweepGrid::cross(
            &[NocUnderTest::hoplite(4)],
            &[Pattern::Random],
            &[0.2, 0.2],
            7,
        )
        .with_packets_per_pe(10);
        let rows = grid.run(1);
        assert_ne!(rows[0].seed, rows[1].seed);
    }
}
