//! CLI subcommand implementations. Each returns its report as a string
//! so the logic is unit-testable; `main` only prints.

use fasttrack_bench::csv_field;
use fasttrack_bench::figures::{catalog, experiments_md, Scale, Verdict};
use fasttrack_bench::fuzz::{fuzz, FuzzConfig};
use fasttrack_bench::journal::run_journaled;
use fasttrack_bench::runner::{
    attribution_csv, health_json, storm_json, FallibleSweepOptions, NocUnderTest, SloSpec,
    SweepGrid, SweepTiming, INJECTION_RATES,
};
use fasttrack_core::attribution::{AttributionConfig, LatencyComponent, PacketJourney};
use fasttrack_core::export::{epochs_to_csv, ChromeTraceSink, NdjsonSink};
use fasttrack_core::fallback::FallbackConfig;
use fasttrack_core::fault::StormSpec;
use fasttrack_core::metrics::WindowedMetrics;
use fasttrack_core::monitor::{DetectorConfig, FlightRecorder, MonitorConfig};
use fasttrack_core::packet::PacketId;
use fasttrack_core::sim::{SimOutcome, SimReport, TrafficSource};
use fasttrack_core::topology::{topology_of, TopologySpec};
use fasttrack_core::trace::{EventSink, SimEvent};
use fasttrack_fpga::device::Device;
use fasttrack_fpga::power::PowerModel;
use fasttrack_fpga::resources::noc_cost;
use fasttrack_fpga::routability::noc_frequency_mhz;
use fasttrack_traffic::dataflow::{lu_dag, DataflowSource};
use fasttrack_traffic::graph::graph_source;
use fasttrack_traffic::graph_gen::rmat;
use fasttrack_traffic::matrix::circuit;
use fasttrack_traffic::multiproc::{parsec_benchmarks, parsec_trace};
use fasttrack_traffic::partition::Partition;
use fasttrack_traffic::scenario::{Expectation, RecordingSource, ScenarioHeader};
use fasttrack_traffic::spmv::spmv_source;

use crate::args::{ArgError, Flags};
use crate::run_spec::{
    channels_flag, conserved_or_err, fault_plan, float_flag, load_replay, note, pattern_flag,
    range_flag, write_file, Observer, Run, RunSpec,
};
pub use crate::run_spec::{replay_session, SingleRun};
use crate::spec::{check_pattern_side, parse_grid, parse_pattern, parse_topology, SpecError};

/// Any CLI failure.
#[derive(Debug)]
pub enum CliError {
    /// Argument-level problem.
    Args(ArgError),
    /// Spec-level problem.
    Spec(SpecError),
    /// Subcommand unknown.
    UnknownCommand(String),
    /// I/O failure (trace file).
    Io(String),
    /// Anything else (trace parse, infeasible config...).
    Other(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Spec(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => write!(f, "unknown command {c:?} (try `help`)"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Other(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        CliError::Spec(e)
    }
}

/// Usage text.
pub const USAGE: &str = "\
fasttrack — FastTrack/Hoplite NoC simulator (ISCA 2018 reproduction)

USAGE:
  fasttrack simulate --noc <spec> [--pattern <p>] [--rate <r>]
                     [--packets <n>] [--seed <s>] [--channels <k>]
  fasttrack monitor  --noc <spec> [--pattern <p>] [--rate <r>]
                     [--packets <n>] [--seed <s>] [--channels <k>]
                     [--snapshot <cycles>] [--flight-recorder <K>]
                     [--max-reports <n>] [--livelock-multiple <x>]
                     [--stall-streak <n>] [--hotspot-watermark <u>]
                     [--health <path>] [--metrics <path>] [--profile]
  fasttrack sweep    --noc <spec> [--pattern <p>]
                     [--threads <t>] [--out table|csv]
                     [--packets <n>] [--seed <s>] [--health <path>]
                     [--attribution <path>] [--retries <n>]
                     [--cycle-budget <cycles>] [--resume <journal>] [--profile]
  fasttrack sweep    --grid <g>
                     [--threads <t>] [--out table|csv]
                     [--packets <n>] [--seed <s>] [--health <path>]
                     [--attribution <path>] [--retries <n>]
                     [--cycle-budget <cycles>] [--resume <journal>] [--profile]
  fasttrack compare  [--topologies <t1,t2,...>] [--pattern <p>] [--rate <r>]
                     [--packets <n>] [--seed <s>] [--out <csv>]
  fasttrack faults   --noc <spec> [--pattern <p>] [--rate <r>]
                     [--packets <n>] [--seed <s>] [--fault-seed <s>]
                     [--dead-links <n>] [--transient-links <n>]
                     [--fail-stop <n>] [--stalled-injectors <n>]
                     [--down-links <n>] [--window <from:until>]
                     [--channels <k>] [--health <path>] [--profile] [--json]
  fasttrack storm    [--noc <spec>] [--pattern <p>] [--rate <r>]
                     [--packets <n>] [--seed <s>] [--threads <t>] [--channels <k>]
                     [--kills <per-kcycle>] [--heal <lo:hi>] [--duration <c>]
                     [--min-delivered <frac>] [--max-p99 <cycles>]
                     [--out <path>] [--json]
  fasttrack storm    --grid <g>
                     [--packets <n>] [--seed <s>] [--threads <t>] [--channels <k>]
                     [--kills <per-kcycle>] [--heal <lo:hi>] [--duration <c>]
                     [--min-delivered <frac>] [--max-p99 <cycles>]
                     [--out <path>] [--json]
  fasttrack profile  [--noc <spec>] [--pattern <p>] [--rate <r>]
                     [--packets <n>] [--seed <s>] [--out <prefix>] [--json]
  fasttrack attribute --noc <spec> [--pattern <p>] [--rate <r>]
                     [--packets <n>] [--seed <s>] [--channels <k>]
                     [--metrics <path>] [--json]
  fasttrack attribute --trace <path> [--metrics <path>] [--json]
  fasttrack explain  <packet-id> --noc <spec> [--pattern <p>] [--rate <r>]
                     [--packets <n>] [--seed <s>] [--channels <k>]
                     [--flight-recorder <K>]
  fasttrack explain  <packet-id> --trace <path> [--flight-recorder <K>]
  fasttrack cost     --noc <spec> [--width <bits>] [--channels <k>]
  fasttrack trace    --noc <spec> --file <path>
  fasttrack trace    [--noc <spec>] [--pattern <p>] [--rate <r>]
                     [--packets <n>] [--seed <s>] [--epoch <cycles>]
                     [--flight-recorder <K>] [--out <prefix>]
  fasttrack record   --out <path> --noc <spec> [--pattern <p>] [--rate <r>]
                     [--packets <n>] [--seed <s>] [--channels <k>] [--max-cycles <c>]
                     [--fault-seed <s>] [--dead-links <n>] [--transient-links <n>]
                     [--fail-stop <n>] [--stalled-injectors <n>] [--window <from:until>]
  fasttrack record   --out <path> --workload spmv|graph|dataflow|multiproc
                     [--noc <spec>] [--seed <s>] [--channels <k>] [--max-cycles <c>]
                     [--fault-seed <s>] [--dead-links <n>] [--transient-links <n>]
                     [--fail-stop <n>] [--stalled-injectors <n>] [--window <from:until>]
  fasttrack replay   --file <path>
  fasttrack fuzz     [--iters <n>] [--seed <s>] [--threads <t>]
                     [--max-cycles <c>] [--out <dir>]
  fasttrack figure   (<id>... | --all) [--out <dir>]
  fasttrack help

SPECS:
  NoC:     hoplite:<n> | ft:<n>:<d>:<r> | ftlite:<n>:<d>:<r>
           | shg:<q>:<delta> | mesh:<n>:<depth>
           (every command accepts all five; cost and compare price,
            wire and clock each from its links)
  Pattern: random | bitcompl | transpose | tornado | shuffle | bitrev
           | local:<radius> | hotspot:<percent>
  Grid:    <noc>[,<noc>...];<pattern>[,<pattern>...];<rate>[,<rate>...]
           (sweep runs the full cross product; per-point seeds are
            derived from --seed, so any --threads count is bit-exact)

TRACE OUTPUTS (synthetic-traffic mode):
  <prefix>.events.ndjson  one JSON object per engine event
  <prefix>.epochs.csv     per-epoch throughput/latency/deflection series
  <prefix>.chrome.json    Chrome trace-event JSON (chrome://tracing, Perfetto)
  with --flight-recorder <K>, also the last K events per router:
  <prefix>.flight.ndjson / <prefix>.flight.chrome.json

MONITOR:
  Runs one simulation with the online health monitor attached: periodic
  snapshot lines, the usual report, and a final verdict from the
  livelock / starvation / hotspot detectors. --health writes the
  summary JSON; --metrics writes a Prometheus-style text exposition.
  sweep --health writes one health summary per sweep point (the CSV
  rows are byte-identical with or without it, at any --threads).

FAULTS:
  Draws a seeded fault plan (dead express links, transient link
  drop/corruption windows, fail-stop routers, stalled injectors,
  down-then-recover links via --down-links) from --fault-seed, runs the
  healthy baseline and the faulted fabric on the same traffic, and
  reports packets dropped/rerouted, the degraded throughput ratio, the
  exact conservation check (delivered + in-flight + dropped ==
  injected), and the health verdict. Dead and down links are drawn
  from the fabric's express links, so a mesh, which has none, draws
  none. --window bounds the cycles transient faults are drawn from.
  --json emits the accounting as one JSON object; either way the exit
  code is nonzero when the conservation invariant is violated.

STORM:
  `storm` measures availability under a seeded fault storm: express
  links die at --kills per thousand cycles and heal after a --heal
  delay, for --duration cycles. Every point runs twice — with the
  standard fallback chains (stranded express packets demote to the
  shared ring; allocation losers switch channels) and with chains off
  (today's drop behavior) — and the report shows delivered fraction,
  p99 tail latency, demotions, and the SLO verdict per point. Exit is
  nonzero when a chained point misses --min-delivered / --max-p99 or
  breaks conservation. --out writes the machine-readable SLO report;
  per-point storms derive from --seed, so any --threads count is
  bit-exact.

COMPARE:
  `compare` is the iso-resource harness: it runs identical traffic on
  every listed topology (default ft:8:2:2,shg:8:2,mesh:8:4), prices
  each with the shared first-order FPGA resource model (LUTs + FFs),
  and reports sustained throughput per thousand logic cells, relative
  to the first topology. --out writes the comparison as CSV.

PROFILE:
  `profile` runs one simulation with the engine's self-profiler: a span
  tree over the session phases (build, LUT construction, fault
  validation, drive loop) with per-phase self time, plus hot-path
  counters (cycles/sec, packets/sec, route decisions, pool-slot reuse,
  deflections). --out <prefix> writes <prefix>.chrome.json (Chrome
  trace-event format); --json emits the summary as JSON. --profile on
  monitor/faults attaches the same profiler to those runs (with a
  monitor, the fasttrack_profile_* series ride the --metrics
  exposition); sweep --profile prints per-point timing percentiles to
  stderr while the CSV stays byte-identical.

ATTRIBUTION:
  `attribute` answers \"where did the cycles go?\": it runs one
  simulation (synthetic traffic, or a recorded scenario via --trace)
  with the streaming latency-attribution layer attached and prints the
  per-component cycle accounting — source-queue wait, express-lane
  transit, shared-ring transit, deflection penalty, fault-reroute
  penalty, and the final eject cycle. Components sum exactly to every
  packet's end-to-end latency, and express + ring + exit decisions
  reconcile with the engine's route-decision counter; both verdicts are
  printed. --metrics writes the fasttrack_attrib_* cells (totals,
  per-component histograms with quantile samples, traffic-weighted
  express fraction) as a Prometheus exposition; --json emits the
  aggregate report as JSON. `explain <packet-id>` reconstructs one
  packet's journey cycle by cycle — injection, every routing decision,
  deflections, express hops, fault events, eject — with its latency
  decomposition and a flight-recorder excerpt around its final router.
  sweep --attribution <path> writes one accounting row per sweep point
  as a sidecar CSV (the sweep CSV stays byte-identical, at any
  --threads).

SCENARIO CORPUS:
  `record` captures the realized injection schedule of any run —
  workload preset or synthetic, healthy or faulted — as a versioned,
  checksummed scenario trace whose header embeds the NoC spec, fault
  plan, and realized outcome. `replay` feeds the schedule back through
  the engine byte-identically and fails (exit 1) if the outcome
  diverges from the embedded expectation. `fuzz` drives seeded random
  scenarios (topology x traffic x faults) in parallel, checks exact
  conservation and the health detectors on every run, delta-minimizes
  each failure class, and writes the minimized traces to --out as
  self-contained corpus entries; the same --seed is bit-exact at any
  --threads count.

PAPER FIGURES:
  `figure` regenerates tables and figures of the paper's evaluation
  from the checked catalog (table1 table2 fig01 fig01sim fig04 fig06
  fig10..fig14 fig15a..fig15d fig16..fig19 abl-exit abl-lane abl-pipe
  abl-serial) at the paper's scale and executes each one's shape claims:
  one line per check, \u{2705} inside the paper's band, \u{26a0} a known deviation
  with its reason, \u{2717} a failure (exit 1). Without --out the tables go to
  stdout; with it each table is written as <dir>/<slug>.csv and, under
  --all, <dir>/EXPERIMENTS.md is the whole generated report (the file
  checked in at the repo root). Byte-reproducible at any core count.

CRASH-SAFE SWEEPS:
  sweep --resume <journal> appends every finished point to an
  append-only journal (flushed per point) and emits CSV. If the file
  already exists, recorded points are restored instead of re-run and
  the merged CSV is byte-identical to an uninterrupted run; a journal
  from a different grid is refused. --retries re-runs a panicked or
  over-budget point with a fresh derived seed; --cycle-budget fails
  points that exceed the given cycle count instead of hanging the grid.
  Under any of the three a failed point is reported on stderr and left
  out of the CSV and the sidecars; without them it fails the sweep.
  Every sweep flag composes with every other, except that --resume
  takes neither --health/--attribution nor --out table.

EXAMPLES:
  fasttrack simulate --noc ft:8:2:1 --pattern random --rate 0.5
  fasttrack cost --noc ft:8:2:1 --width 256
  fasttrack sweep --noc hoplite:8 --pattern bitcompl
  fasttrack sweep --grid \"hoplite:8,ft:8:2:1;random;0.1,0.5\" --threads 8 --out csv
  fasttrack sweep --grid \"ft:8:2:2,shg:8:2,mesh:8:4;random;0.3\" --out csv
  fasttrack compare --topologies ft:8:2:2,shg:8:2,mesh:8:4 --rate 0.5 --out iso.csv
  fasttrack monitor --noc ft:8:2:2 --rate 1.0 --snapshot 500 --health health.json
  fasttrack faults --noc ft:8:2:2 --rate 0.3 --dead-links 2 --fault-seed 42
  fasttrack faults --noc ftlite:8:4:1 --rate 0.5 --dead-links 4 --json
  fasttrack faults --noc shg:8:2 --rate 0.3 --transient-links 2 --down-links 2
  fasttrack storm --noc ft:8:2:2 --rate 0.3 --kills 8 --heal 200:600 --out slo.json
  fasttrack sweep --grid \"ft:8:2:1;random;0.1,0.5\" --resume run.journal
  fasttrack trace --noc ft:8:2:2 --pattern random --rate 0.2
  fasttrack profile --noc ft:8:2:2 --rate 0.5 --out prof
  fasttrack attribute --noc ft:8:2:2 --rate 1.0 --metrics attrib.prom
  fasttrack explain 42 --trace spmv.trace
  fasttrack sweep --grid \"ft:8:2:1;random;0.5\" --attribution attrib.csv
  fasttrack record --workload spmv --out spmv.trace
  fasttrack record --noc ftlite:8:4:1 --pattern hotspot:60 --rate 0.8 --dead-links 4 --out hot.trace
  fasttrack replay --file spmv.trace
  fasttrack fuzz --iters 200 --seed 7 --threads 4 --out corpus/
  fasttrack figure fig11 fig13
  fasttrack figure --all --out target/figures
";

fn render_report(report: &SimReport) -> String {
    format!(
        "{}: {} delivered in {} cycles\n  sustained rate {:.4} pkt/cyc/PE\n  \
         latency avg {:.1} / p99 {} / worst {} cycles\n  deflections {} \
         ({} short + {} express hops){}",
        report.config_name,
        report.stats.delivered,
        report.cycles,
        report.sustained_rate_per_pe(),
        report.avg_latency(),
        report.p99_latency(),
        report.worst_latency(),
        report.stats.ports.total_deflections(),
        report.stats.link_usage.short_hops,
        report.stats.link_usage.express_hops,
        if report.truncated {
            "\n  WARNING: truncated at max cycles"
        } else {
            ""
        },
    )
}

/// `simulate`, `monitor`, `profile`, `attribute` and `trace --file` —
/// one run with its row's observers attached (`--profile` adds the
/// profiler), on the traffic [`SingleRun::new`] reads, printed by
/// [`render_outcome`].
fn cmd_run(flags: &Flags, run: Run) -> Result<String, CliError> {
    let SingleRun {
        mut session,
        mut source,
        ..
    } = SingleRun::new(flags, run)?;
    let Run(.., observers) = run;
    if observers.contains(&Observer::Attribution) {
        session = session.with_attribution(AttributionConfig::default());
    }
    if observers.contains(&Observer::Monitor) {
        session = session.with_monitor(monitor_config(flags)?);
    }
    if observers.contains(&Observer::Profile) || flags.switch("profile") {
        session = session.with_profile();
    }
    let outcome = session
        .run(&mut source)
        .map_err(|e| CliError::Other(e.to_string()))?;
    render_outcome(flags, &outcome)
}

/// The health monitor `monitor`'s flags configure: a snapshot line
/// every `--snapshot` cycles, `--flight-recorder` events of context per
/// report, and the detector thresholds.
fn monitor_config(flags: &Flags) -> Result<MonitorConfig, CliError> {
    let snapshot: u64 = flags.numeric("snapshot", 1000)?;
    let flight: usize = flags.numeric("flight-recorder", 32)?;
    if snapshot == 0 {
        return Err(CliError::Other("--snapshot must be positive".into()));
    }
    if flight == 0 {
        return Err(CliError::Other("--flight-recorder must be positive".into()));
    }
    let defaults = DetectorConfig::default();
    let detectors = DetectorConfig {
        livelock_multiple: float_flag(
            flags,
            "livelock-multiple",
            defaults.livelock_multiple,
            "(0,inf)",
            |x| x > 0.0 && x.is_finite(),
        )?,
        starvation_streak: flags.numeric("stall-streak", defaults.starvation_streak)?,
        hotspot_watermark: float_flag(
            flags,
            "hotspot-watermark",
            defaults.hotspot_watermark,
            "(0,1]",
            |x| x > 0.0 && x <= 1.0,
        )?,
        ..defaults
    };
    Ok(MonitorConfig {
        detectors,
        flight_capacity: flight,
        max_reports: flags.numeric("max-reports", MonitorConfig::default().max_reports)?,
        snapshot_every: Some(snapshot),
    })
}

/// Prints one single run: the sections its observers fill, in a fixed
/// order — monitor snapshots, report, health verdict, profile table,
/// attribution table — then a note per file written: `--health` (the
/// monitor summary JSON), `--metrics` (the run's Prometheus exposition,
/// `fasttrack_profile_*` rows included under `--profile`) and `--out`
/// (`<prefix>.chrome.json`, the profile's Chrome trace). Under `--json`
/// stdout is the attached observer's JSON alone and the notes go to
/// stderr.
fn render_outcome(flags: &Flags, outcome: &SimOutcome) -> Result<String, CliError> {
    let mut notes = Vec::new();
    if let (Some(path), Some(monitor)) = (flags.optional("health"), &outcome.monitor) {
        write_file(path, monitor.summary().to_json() + "\n")?;
        notes.push(format!("  health json -> {path}"));
    }
    if let Some(path) = flags.optional("metrics") {
        write_file(path, outcome.metrics.to_prometheus())?;
        notes.push(format!("  metrics exposition -> {path}"));
    }
    if let (Some(prefix), Some(profile)) = (flags.optional("out"), &outcome.profile) {
        let path = format!("{prefix}.chrome.json");
        write_file(&path, profile.chrome_trace())?;
        notes.push(format!("chrome trace -> {path}"));
    }
    if flags.switch("json") {
        for line in &notes {
            note(line);
        }
        let json = match (&outcome.attribution, &outcome.profile) {
            (Some(attribution), _) => attribution.to_json(),
            (None, Some(profile)) => profile.to_json(),
            (None, None) => String::new(),
        };
        return Ok(json + "\n");
    }
    let monitor = outcome.monitor.as_ref();
    let mut out = String::new();
    for line in monitor.map_or(&[][..], |m| m.snapshots()) {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&render_report(&outcome.report));
    out.push('\n');
    if let Some(monitor) = monitor {
        out.push_str(&monitor.summary().render_text());
    }
    if let Some(profile) = &outcome.profile {
        out.push_str(&profile.render_text());
    }
    if let Some(attribution) = &outcome.attribution {
        out.push_str(&attribution.render_text());
    }
    for note in notes {
        out.push_str(&note);
        out.push('\n');
    }
    Ok(out)
}

/// `faults` — one faulted run against a healthy baseline of the same
/// traffic.
///
/// The fault plan is drawn deterministically from `--fault-seed` (dead
/// express links deflect traffic onto the plain ring; transient link
/// windows and fail-stop routers lose packets, exactly accounted;
/// stalled injectors delay without loss). The report contrasts the
/// faulted run with the baseline: packets dropped and rerouted, the
/// degraded throughput ratio and the exact conservation check, after
/// the faulted run as `render_outcome` prints it (with the online
/// monitor's health verdict and `--health` summary JSON). Every
/// topology takes a plan: a fabric draws the faults it has links for.
pub fn cmd_faults(flags: &Flags) -> Result<String, CliError> {
    let topology = parse_topology(flags.required("noc")?)?;
    let run = RunSpec::on(topology, flags, 0.5, 1000)?.with_channels(flags)?;
    let (fault_seed, plan) = fault_plan(
        flags,
        &*topology_of(&run.topology),
        run.seed,
        flags.numeric("down-links", 0)?,
    )?;

    let baseline = run.session().run(&mut run.source()).unwrap().report;

    let mut session = run
        .session()
        .with_faults(&plan)
        .with_monitor(MonitorConfig::default());
    if flags.switch("profile") {
        session = session.with_profile();
    }
    let outcome = session
        .run(&mut run.source())
        .map_err(|e| CliError::Other(e.to_string()))?;
    let report = &outcome.report;

    if flags.switch("json") {
        use std::fmt::Write as _;
        let mut json = String::from("{");
        let _ = write!(
            json,
            "\"noc\":\"{}\",\"fault_seed\":{fault_seed}",
            run.topology.bank_name(run.channels)
        );
        json.push_str(",\"faults\":[");
        for (i, f) in plan.faults().iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(json, "\"{f}\"");
        }
        json.push(']');
        let _ = write!(
            json,
            ",\"baseline\":{{\"delivered\":{},\"cycles\":{}}}",
            baseline.stats.delivered, baseline.cycles
        );
        let _ = write!(
            json,
            ",\"faulted\":{{\"injected\":{},\"delivered\":{},\"dropped\":{},\
             \"rerouted\":{},\"fallback_demotions\":{},\"fallback_channel_switches\":{},\
             \"in_flight\":{},\"cycles\":{},\"truncated\":{}}}",
            report.stats.injected,
            report.stats.delivered,
            report.stats.dropped,
            report.stats.rerouted,
            report.stats.fallback_demotions,
            report.stats.fallback_channel_switches,
            report.in_flight,
            report.cycles,
            report.truncated
        );
        let _ = write!(
            json,
            ",\"throughput_ratio\":{:.6},\"conserved\":{}}}",
            report.degraded_throughput_ratio(&baseline),
            report.conserved()
        );
        json.push('\n');
        return conserved_or_err(json, report);
    }

    let mut out = String::new();
    if plan.is_empty() {
        out.push_str("fault plan: empty (nothing drawn; the faulted run is the baseline)\n");
    } else {
        out.push_str(&format!(
            "fault plan: {} faults (fault seed {fault_seed})\n",
            plan.len()
        ));
        for f in plan.faults() {
            out.push_str(&format!("  - {f}\n"));
        }
    }
    out.push_str("healthy baseline:\n");
    out.push_str(&render_report(&baseline));
    out.push_str("\nfaulted fabric:\n");
    out.push_str(&render_outcome(flags, &outcome)?);
    out.push_str(&format!(
        "  degraded: {} packets dropped, {} rerouted around dead links\n  \
         throughput {:.1}% of baseline\n",
        report.stats.dropped,
        report.stats.rerouted,
        100.0 * report.degraded_throughput_ratio(&baseline),
    ));
    if report.conserved() {
        out.push_str(&format!(
            "  conservation: exact ({} delivered + {} in flight + {} dropped == {} injected)\n",
            report.stats.delivered, report.in_flight, report.stats.dropped, report.stats.injected,
        ));
    } else {
        out.push_str(&format!(
            "  conservation: VIOLATED ({} delivered + {} in flight + {} dropped != {} injected)\n",
            report.stats.delivered, report.in_flight, report.stats.dropped, report.stats.injected,
        ));
    }
    conserved_or_err(out, report)
}

/// The most link kills one `storm` schedule may hold: each is a
/// `Fault::DownLink` the plan materialises for every grid point, and
/// the default spec schedules 16. `faults` and `record` hold their
/// drawn `--transient-links` and `--down-links` to it too.
pub(crate) const MAX_STORM_EVENTS: u64 = 100_000;

/// `storm` — availability under a seeded fault storm, with and without
/// the fallback chains.
///
/// Draws a per-point storm (express links dying at `--kills` per
/// thousand cycles and healing after a `--heal` delay, for `--duration`
/// cycles), runs every grid point twice — once with the standard
/// fallback chains armed, once with chains disabled (today's
/// drop-at-dead-link behavior) — and reports each point's delivered
/// fraction, p99 tail latency, and SLO verdict. Exit is nonzero when
/// any chained point misses the SLO thresholds or breaks exact
/// conservation. `--out <path>` writes the machine-readable SLO report;
/// `--json` prints it instead of the table.
pub fn cmd_storm(flags: &Flags) -> Result<String, CliError> {
    // FT(64,2,2): the paper's depopulated 8x8 reference point. With
    // --grid only the run's packets and seed are read (and declared).
    let noc = parse_topology(flags.optional("noc").unwrap_or("ft:8:2:2"))?;
    let run = RunSpec::on(noc, flags, 0.3, 500)?;
    let seed = run.seed;
    let threads: usize = flags.numeric("threads", 1)?;
    let storm = StormSpec {
        kills_per_kcycle: flags.numeric("kills", StormSpec::default().kills_per_kcycle)?,
        heal_after: range_flag(flags, "heal", ("lo", "hi"), StormSpec::default().heal_after)?,
        duration: flags.numeric("duration", StormSpec::default().duration)?,
    };
    if storm.kill_events() > MAX_STORM_EVENTS {
        return Err(CliError::Other(format!(
            "--kills {} over --duration {} schedules {} link kills, above the \
             {MAX_STORM_EVENTS}-event cap",
            storm.kills_per_kcycle,
            storm.duration,
            storm.kill_events(),
        )));
    }
    let slo = SloSpec {
        min_delivered_fraction: float_flag(flags, "min-delivered", 0.95, "[0,1]", |x| {
            (0.0..=1.0).contains(&x)
        })?,
        max_p99_latency: flags.numeric("max-p99", 0)?,
    };
    // Two channels by default: the chain's alternate-channel step needs
    // a sibling to evict to. In a single channel a post-allocation
    // stranded loser has physically nowhere to go (bufferless router,
    // fewer live outputs than inputs), so only express demotion helps.
    let channels = channels_flag(flags, 2)?;
    if channels == 0 {
        return Err(CliError::Other("--channels must be positive".into()));
    }
    // Channel replication (and the fallback chains that exploit it) is
    // a torus feature; SHG/mesh points run single-channel with inert
    // chains, so a mixed grid still validates.
    let nut_for = |topology: TopologySpec| NocUnderTest {
        channels: if matches!(topology, TopologySpec::Torus(_)) {
            channels
        } else {
            1
        },
        topology,
    };
    let grid = match flags.optional("grid") {
        Some(spec) => {
            let g = parse_grid(spec)?;
            let nuts: Vec<NocUnderTest> = g.nocs.into_iter().map(nut_for).collect();
            SweepGrid::cross(&nuts, &g.patterns, &g.rates, seed)
        }
        None => SweepGrid::cross(&[nut_for(run.topology)], &[run.pattern], &[run.rate], seed),
    }
    .with_packets_per_pe(run.packets);

    let all_torus = grid
        .points
        .iter()
        .all(|p| matches!(p.nut.topology, TopologySpec::Torus(_)));
    let chains = if all_torus {
        FallbackConfig::standard()
    } else {
        FallbackConfig::none()
    };
    let rows = grid
        .run_storm(threads, &storm, &chains)
        .map_err(|e| CliError::Other(e.to_string()))?;
    let bare = grid
        .run_storm(threads, &storm, &FallbackConfig::none())
        .map_err(|e| CliError::Other(e.to_string()))?;

    let report_json = {
        use std::fmt::Write as _;
        let mut json = String::from("{");
        let _ = write!(
            json,
            "\"kills_per_kcycle\":{},\"heal_after\":[{},{}],\"duration\":{},\
             \"min_delivered_fraction\":{:.6},\"max_p99_latency\":{}",
            storm.kills_per_kcycle,
            storm.heal_after.0,
            storm.heal_after.1,
            storm.duration,
            slo.min_delivered_fraction,
            slo.max_p99_latency
        );
        let _ = write!(json, ",\"points\":{}", storm_json(&rows, &slo));
        let _ = write!(json, ",\"chains_off\":{}", storm_json(&bare, &slo));
        json.push('}');
        json.push('\n');
        json
    };
    if let Some(path) = flags.optional("out") {
        write_file(path, &report_json)?;
    }

    let mut out = String::new();
    if flags.switch("json") {
        out.push_str(&report_json);
    } else {
        out.push_str(&format!(
            "storm: {} kill(s)/kcycle, heal after {}..{} cycles, {} cycles (seed {seed})\n",
            storm.kills_per_kcycle, storm.heal_after.0, storm.heal_after.1, storm.duration,
        ));
        for (row, b) in rows.iter().zip(&bare) {
            let s = &row.report.stats;
            out.push_str(&format!(
                "  {} {} rate {:.2}: delivered {:.1}% (chains off: {:.1}%), p99 {} cycles, \
                 {} demoted, {} switched, {} rerouted — SLO {}\n",
                row.label,
                row.pattern,
                row.rate,
                100.0 * row.delivered_fraction(),
                100.0 * b.delivered_fraction(),
                row.report.p99_latency(),
                s.fallback_demotions,
                s.fallback_channel_switches,
                s.rerouted,
                if slo.met(row) { "met" } else { "MISSED" },
            ));
        }
        let met = rows.iter().filter(|row| slo.met(row)).count();
        out.push_str(&format!(
            "SLO: {met}/{} point(s) met (min delivered {:.1}%{})\n",
            rows.len(),
            100.0 * slo.min_delivered_fraction,
            if slo.max_p99_latency > 0 {
                format!(", p99 <= {}", slo.max_p99_latency)
            } else {
                String::new()
            },
        ));
        if let Some(path) = flags.optional("out") {
            out.push_str(&format!("  slo report -> {path}\n"));
        }
    }

    let broken = rows.iter().any(|row| !row.report.conserved());
    let missed = rows.iter().any(|row| !slo.met(row));
    if broken {
        Err(CliError::Other(format!(
            "{out}conservation invariant violated under the storm"
        )))
    } else if missed {
        Err(CliError::Other(format!("{out}availability SLO missed")))
    } else {
        Ok(out)
    }
}

/// Table II's datapath width: `cost`'s default and `compare`'s price.
const DATAPATH_WIDTH: u32 = 256;

/// `compare` — iso-resource comparison across topologies.
///
/// Runs the same traffic (pattern, rate, packets-per-PE, seed) on every
/// topology in `--topologies`, prices each from the one price list
/// ([`fasttrack_core::topology::Topology::resource_cost`]) at
/// `DATAPATH_WIDTH`, clocks it with the FPGA model, and reports Mpkt/s
/// per thousand LUT+FF — the per-nanosecond, iso-resource figure the
/// paper's Figs 1 and 14 turn on. A fabric that does not fit the device
/// at that width has no clock, so its per-ns columns read `NA`. The
/// first topology is the baseline the `vs base` column is relative to.
/// `--out <path>` writes the table as CSV, its label quoted when it
/// holds a comma.
pub fn cmd_compare(flags: &Flags) -> Result<String, CliError> {
    let spec_list = flags
        .optional("topologies")
        .unwrap_or("ft:8:2:2,shg:8:2,mesh:8:4");
    let runs: Vec<RunSpec> = spec_list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| RunSpec::on(parse_topology(s)?, flags, 0.5, 1000))
        .collect::<Result<_, _>>()?;
    if runs.len() < 2 {
        return Err(CliError::Other(
            "compare needs at least two comma-separated topologies".into(),
        ));
    }

    let mut csv = String::from(
        "label,nodes,luts,ffs,cells,mhz,delivered,cycles,rate_per_pe,avg_latency,\
         p99_latency,mpkts_per_kcell,vs_base\n",
    );
    let traffic = &runs[0];
    let mut out = format!(
        "iso-resource compare: {} topologies, {} rate {:.2}, {} pkt/PE (seed {})\n",
        runs.len(),
        traffic.pattern,
        traffic.rate,
        traffic.packets,
        traffic.seed,
    );
    let device = Device::virtex7_485t();
    let na = |value: Option<f64>, prec: usize| value.map_or("NA".into(), |v| format!("{v:.prec$}"));
    let mut base = None;
    for run in &runs {
        use std::fmt::Write as _;
        let label = run.topology.display_name();
        let nodes = run.topology.num_nodes();
        let topo = topology_of(&run.topology);
        let cost = noc_cost(&*topo, DATAPATH_WIDTH);
        let cells = cost.luts + cost.ffs;
        let mhz = noc_frequency_mhz(&device, &*topo, DATAPATH_WIDTH, 1).ok();
        let report = run.session().run(&mut run.source()).unwrap().report;
        let rate_per_pe = report.sustained_rate_per_pe();
        // Packets per cycle over the fabric, times Mcycles per second.
        let per_kcell = mhz.map(|mhz| rate_per_pe * nodes as f64 * mhz / (cells as f64 / 1e3));
        let p99 = report.p99_latency();
        // The first topology is the baseline.
        let base = *base.get_or_insert(per_kcell);
        let vs_base = per_kcell
            .zip(base)
            .map(|(x, base)| if base > 0.0 { x / base } else { 0.0 });
        let _ = writeln!(
            csv,
            "{},{nodes},{},{},{cells},{},{},{},{rate_per_pe:.6},{:.2},{p99},{},{}",
            csv_field(&label),
            cost.luts,
            cost.ffs,
            na(mhz, 1),
            report.stats.delivered,
            report.cycles,
            report.avg_latency(),
            na(per_kcell, 6),
            na(vs_base, 4),
        );
        let _ = writeln!(
            out,
            "  {label:<22} {nodes:>5} nodes  {cells:>8} cells ({} LUT + {} FF)  rate/PE {rate_per_pe:.4}  \
             p99 {p99:>4}  {} MHz  Mpkt/s/kcell {} ({}x base)",
            cost.luts,
            cost.ffs,
            na(mhz, 0),
            na(per_kcell, 4),
            na(vs_base, 2),
        );
    }
    if let Some(path) = flags.optional("out") {
        write_file(path, &csv)?;
        out.push_str(&format!("  iso-resource csv -> {path}\n"));
    }
    Ok(out)
}

/// `sweep` — run a grid of simulation points on the deterministic
/// parallel sweep engine.
///
/// The grid is either `--grid <nocs;patterns;rates>` (full cross
/// product) or the legacy `--noc <spec> [--pattern <p>]` form, which
/// expands to the Figure-11 injection-rate ladder. `--threads N` fans
/// the points out over a work-stealing pool; every point's seed is
/// derived from `--seed` and the point index, so output is
/// byte-identical at any thread count (`--threads 1` is the golden
/// serial run). `--out csv` emits machine-readable CSV (and reports
/// the row x column shape on stderr).
///
/// Every flag below composes on the one run: `--health <path>` and
/// `--attribution <path>` attach a health monitor and the attribution
/// layer to every point and write their per-point sidecars
/// (the rows — and hence the CSV bytes — are unchanged by observing),
/// and `--profile` prints per-point timing percentiles to stderr.
/// Hardening: `--retries <n>` re-runs a panicked or over-budget point
/// up to `n` times with fresh derived seeds, `--cycle-budget <c>` turns
/// a point that exceeds `c` cycles into a per-point error instead of
/// stalling the grid, and `--resume <journal>` appends each finished
/// point to a crash-safe journal — re-running against an existing
/// journal restores recorded points and produces CSV byte-identical to
/// an uninterrupted run. Under any of the three a failed point is
/// reported on stderr and left out of the CSV and the sidecars; without
/// them it fails the command.
pub fn cmd_sweep(flags: &Flags) -> Result<String, CliError> {
    let packets: u64 = flags.numeric("packets", 1000)?;
    let seed: u64 = flags.numeric("seed", 1)?;
    let opts = FallibleSweepOptions {
        threads: flags.numeric("threads", 1)?,
        retries: flags.numeric("retries", 0)?,
        cycle_budget: match flags.optional("cycle-budget") {
            Some(_) => Some(flags.numeric("cycle-budget", 0u64)?),
            None => None,
        },
    };
    let resume = flags.optional("resume");
    let out_fmt = flags
        .optional("out")
        .unwrap_or(if resume.is_some() { "csv" } else { "table" });
    // Refused before any point runs or any sidecar is written.
    if !matches!(out_fmt, "csv" | "table") {
        return Err(CliError::Other(format!(
            "unknown --out format {out_fmt:?} (expected table or csv)"
        )));
    }

    let grid = match flags.optional("grid") {
        Some(spec) => {
            let g = parse_grid(spec)?;
            let nuts: Vec<NocUnderTest> = g.nocs.into_iter().map(NocUnderTest::from_spec).collect();
            SweepGrid::cross(&nuts, &g.patterns, &g.rates, seed)
        }
        None => {
            let topology = parse_topology(flags.required("noc")?)?;
            let pattern = parse_pattern(pattern_flag(flags))?;
            check_pattern_side(pattern, &topology)?;
            let nut = NocUnderTest::from_spec(topology);
            SweepGrid::cross(&[nut], &[pattern], &INJECTION_RATES, seed)
        }
    }
    .with_packets_per_pe(packets);

    let (health, attribution) = (flags.optional("health"), flags.optional("attribution"));
    if resume.is_some() {
        if health.is_some() || attribution.is_some() {
            return Err(CliError::Other(
                "--resume cannot be combined with --health/--attribution \
                 (journals record rows only)"
                    .into(),
            ));
        }
        if out_fmt != "csv" {
            return Err(CliError::Other(format!(
                "--resume emits CSV only (got --out {out_fmt}); drop --out or pass --out csv"
            )));
        }
    }

    let outcome = run_journaled(
        &grid,
        &opts,
        resume.map(std::path::Path::new),
        |_, _, _, mut session, source| {
            if health.is_some() {
                session = session.with_monitor(MonitorConfig::default());
            }
            if attribution.is_some() {
                session = session.with_attribution(AttributionConfig::default());
            }
            let started = std::time::Instant::now();
            let outcome = session.run(source).expect("no fault plan attached");
            let secs = started.elapsed().as_secs_f64();
            let health = outcome.monitor.map(|monitor| monitor.summary());
            (outcome.report, (health, outcome.attribution, secs))
        },
    )
    .map_err(|e| CliError::Other(e.to_string()))?;

    let errors: Vec<_> = outcome.errors().collect();
    let hardened = resume.is_some() || opts.retries > 0 || opts.cycle_budget.is_some();
    if let (false, Some((i, e))) = (hardened, errors.first()) {
        return Err(CliError::Other(format!("sweep point {i} failed: {e}")));
    }
    for (i, e) in &errors {
        note(format_args!("sweep point {i} failed: {e}"));
    }
    if let Some(path) = health {
        let points: Vec<_> = outcome
            .ran()
            .filter_map(|(i, row, s)| Some((i, row, s.0.as_ref()?)))
            .collect();
        write_file(path, health_json(&points) + "\n")?;
        let unhealthy = points.iter().filter(|(.., h)| !h.healthy()).count();
        note(format_args!(
            "sweep health: {} points ({unhealthy} unhealthy) -> {path}",
            points.len()
        ));
    }
    if let Some(path) = attribution {
        let points: Vec<_> = outcome
            .ran()
            .filter_map(|(i, row, s)| Some((i, row, s.1.as_ref()?)))
            .collect();
        write_file(path, attribution_csv(&points))?;
        let unreconciled = points.iter().filter(|(.., a)| !a.reconciled()).count();
        note(format_args!(
            "sweep attribution: {} points ({unreconciled} unreconciled) -> {path}",
            points.len()
        ));
    }
    if flags.switch("profile") {
        // Timing lives in a stderr sidecar; the rows — and the CSV
        // bytes — are identical to an unprofiled run.
        let timing = SweepTiming::new(outcome.ran().map(|(.., s)| s.2).collect());
        note(timing.render_text());
    }

    if out_fmt == "csv" {
        let csv = outcome.csv();
        match resume {
            Some(path) => note(format_args!(
                "sweep journal: {} points ({} restored, {} failed) -> {path}",
                grid.len(),
                outcome.restored,
                errors.len(),
            )),
            None => {
                let columns = csv.lines().next().map_or(0, |h| h.split(',').count());
                let rows = outcome.ran().count();
                note(format_args!(
                    "sweep csv: {rows} data rows x {columns} columns"
                ));
            }
        }
        return Ok(csv);
    }
    // The config column is as wide as its longest name.
    let width = outcome
        .ran()
        .map(|(_, row, _)| row.label.len())
        .fold("config".len(), usize::max);
    let mut out = format!(
        "{:<width$} pattern      rate    sustained  avg-lat   worst\n",
        "config"
    );
    for (_, row, _) in outcome.ran() {
        out.push_str(&format!(
            "{:<width$} {:<12} {:<7.2} {:<10.4} {:<9.1} {}\n",
            row.label,
            row.pattern.to_string(),
            row.rate,
            row.report.sustained_rate_per_pe(),
            row.report.avg_latency(),
            row.report.worst_latency()
        ));
    }
    Ok(out)
}

/// `cost` — the FPGA implementation picture of any fabric.
pub fn cmd_cost(flags: &Flags) -> Result<String, CliError> {
    let spec = parse_topology(flags.required("noc")?)?;
    let width: u32 = flags.numeric("width", DATAPATH_WIDTH)?;
    if width == 0 {
        return Err(CliError::Other("--width must be positive".into()));
    }
    let channels = channels_flag(flags, 1)?.max(1) as u32;
    let device = Device::virtex7_485t();
    let topo = topology_of(&spec);
    let cost = noc_cost(&*topo, width).replicated(channels);
    let mut out = format!(
        "{} @{width}b on {}\n  LUTs {}  FFs {}  wire bundles/cut {}\n",
        spec.bank_name(channels as usize),
        device.name,
        cost.luts,
        cost.ffs,
        cost.wire_bundles_per_cut
    );
    match noc_frequency_mhz(&device, &*topo, width, channels) {
        Ok(mhz) => {
            let power =
                PowerModel::default().dynamic_power_w(&device, &*topo, width, mhz, channels);
            out.push_str(&format!("  frequency {mhz:.0} MHz  power {power:.1} W\n"));
        }
        Err(e) => out.push_str(&format!("  DOES NOT FIT: {e}\n")),
    }
    Ok(out)
}

/// `trace` — run synthetic traffic with the observability stack
/// attached, exporting an NDJSON event log, a per-epoch CSV, and a Chrome
/// trace-event JSON. (`trace --file` is a plain [`cmd_run`].)
fn cmd_trace(flags: &Flags) -> Result<String, CliError> {
    let SingleRun {
        topology,
        session,
        mut source,
        ..
    } = SingleRun::new(flags, Run(Some("ft:8:2:1"), 0.1, 200, &[]))?;
    let (side, nodes) = (topology.side(), topology.num_nodes());
    let epoch: u64 = flags.numeric("epoch", 64)?;
    if epoch == 0 {
        return Err(CliError::Other("--epoch must be positive".into()));
    }
    let flight: usize = flags.numeric("flight-recorder", 0)?;
    let prefix = flags.optional("out").unwrap_or("fasttrack_trace");

    // Sink tuples compose pairwise, so the flight recorder nests beside
    // the three exporters (capacity 1 when unused — the events are
    // dropped on the floor either way).
    let mut sink = (
        (
            NdjsonSink::new(),
            ChromeTraceSink::new(side),
            WindowedMetrics::new(nodes, epoch),
        ),
        FlightRecorder::new(nodes, flight.max(1)),
    );
    let report = session
        .with_sink(&mut sink)
        .run(&mut source)
        .map_err(|e| CliError::Other(e.to_string()))?
        .report;
    let ((ndjson, chrome, metrics), recorder) = sink;

    let steady = metrics.steady_state_epoch();
    let suggested = metrics.suggested_warmup();
    let epochs = metrics.finish();

    let events_path = format!("{prefix}.events.ndjson");
    let csv_path = format!("{prefix}.epochs.csv");
    let chrome_path = format!("{prefix}.chrome.json");
    write_file(&events_path, ndjson.as_str())?;
    write_file(&csv_path, epochs_to_csv(&epochs, nodes))?;
    write_file(&chrome_path, chrome.finish())?;

    let mut out = render_report(&report);
    out.push_str(&format!(
        "\n  events {} -> {events_path}\n  epochs {} x {epoch} cyc -> {csv_path}\n  \
         chrome trace -> {chrome_path}\n",
        ndjson.lines(),
        epochs.len(),
    ));
    match (steady, suggested) {
        (Some(e), Some(w)) => {
            out.push_str(&format!(
                "  steady state from epoch {e} (suggested warmup {w} cycles)\n"
            ));
        }
        _ => out.push_str("  steady state not detected (run longer or shrink --epoch)\n"),
    }
    if flight > 0 {
        // Replay the recorded excerpt (last K events per router, merged
        // in cycle order) through fresh exporters: the same file
        // formats, but bounded to what a post-mortem actually needs.
        let mut replay_nd = NdjsonSink::new();
        let mut replay_chrome = ChromeTraceSink::new(side);
        let events = recorder.dump_all();
        for e in &events {
            replay_nd.emit(e);
            replay_chrome.emit(e);
        }
        let flight_nd = format!("{prefix}.flight.ndjson");
        let flight_chrome = format!("{prefix}.flight.chrome.json");
        write_file(&flight_nd, replay_nd.as_str())?;
        write_file(&flight_chrome, replay_chrome.finish())?;
        out.push_str(&format!(
            "  flight recorder K={flight}: {} events retained -> {flight_nd}, {flight_chrome}\n",
            events.len(),
        ));
    }
    Ok(out)
}

/// `record` — run a generator (workload preset or synthetic) and write
/// the realized injection schedule as a versioned scenario trace.
///
/// `--workload spmv|graph|dataflow|multiproc` selects one of the four
/// paper case studies (the same setups as the integration tests);
/// without it, the usual `--noc/--pattern/--rate/--packets` synthetic
/// flags apply. Fault flags mirror `faults`: the drawn plan is active
/// during recording and embedded in the trace header, so replay
/// reproduces the faulted run. The header also embeds the realized
/// outcome, making the file a self-checking corpus entry.
pub fn cmd_record(flags: &Flags) -> Result<String, CliError> {
    let out_path = flags.required("out")?;
    let workload = flags.optional("workload");
    let noc_spec = match workload {
        // The presets default to the torus the paper's case studies
        // use; --noc still overrides.
        Some("multiproc") => flags.optional("noc").unwrap_or("ft:6:2:1").to_string(),
        Some(_) => flags.optional("noc").unwrap_or("ft:4:2:1").to_string(),
        None => flags.required("noc")?.to_string(),
    };
    // A workload preset replaces the run's traffic; its fabric, seed,
    // and channel count still apply, and it sizes itself to the side.
    let run = RunSpec::on(parse_topology(&noc_spec)?, flags, 0.5, 1000)?.with_channels(flags)?;
    let (seed, side) = (run.seed, run.topology.side());
    // The LU dataflow DAG serializes heavily; give it the same budget
    // the integration tests need.
    let default_budget: u64 = if workload == Some("dataflow") {
        5_000_000
    } else {
        2_000_000
    };
    let max_cycles: u64 = flags.numeric("max-cycles", default_budget)?;
    let (_, plan) = fault_plan(flags, &*topology_of(&run.topology), seed, 0)?;

    let (source, generator): (Box<dyn TrafficSource>, String) = match workload {
        Some("spmv") => (
            Box::new(spmv_source(
                &circuit(1000, 4, 2, 3, seed),
                side,
                Partition::Cyclic,
            )),
            "spmv".into(),
        ),
        Some("graph") => (
            Box::new(graph_source(
                &rmat(11, 15_000, 0.57, 0.19, 0.19, seed),
                side,
                Partition::Cyclic,
            )),
            "graph".into(),
        ),
        Some("dataflow") => (
            Box::new(DataflowSource::new(lu_dag(1200, 48, 2.0, seed), side, 3)),
            "dataflow".into(),
        ),
        Some("multiproc") => {
            let profiles = parsec_benchmarks();
            let label = format!("multiproc:{}", profiles[0].name);
            (Box::new(parsec_trace(&profiles[0], side, seed)), label)
        }
        Some(other) => {
            return Err(CliError::Other(format!(
                "unknown workload {other:?} (expected spmv, graph, dataflow, or multiproc)"
            )))
        }
        None => (
            Box::new(run.source()),
            format!("bernoulli:{}", pattern_flag(flags)),
        ),
    };

    let mut header = ScenarioHeader::new(&noc_spec, &generator);
    header.channels = run.channels;
    header.max_cycles = max_cycles;
    header.faults = plan.faults().to_vec();
    let mut rec = RecordingSource::new(side, source);
    let report = header
        .session()
        .map_err(|e| CliError::Other(e.to_string()))?
        .run(&mut rec)
        .map_err(|e| CliError::Other(e.to_string()))?
        .report;
    header.expect = Some(Expectation::from(&report));
    let trace = rec.into_trace(header);
    write_file(out_path, trace.encode())?;

    let mut out = render_report(&report);
    out.push_str(&format!(
        "\n  recorded {} pushes -> {out_path}\n",
        trace.records.len()
    ));
    Ok(out)
}

/// `replay` — decode a scenario trace and feed its schedule back
/// through the engine, reconstructing the NoC, fault plan, channel
/// count, and cycle budget from the header. When the trace embeds an
/// expectation, a divergent outcome is a nonzero exit.
pub fn cmd_replay(flags: &Flags) -> Result<String, CliError> {
    let path = flags.required("file")?;
    let SingleRun {
        session,
        mut source,
        recorded,
        ..
    } = load_replay(path)?;
    let (header, pushes) = recorded.expect("a replayed run carries its header");

    let report = session
        .run(&mut source)
        .map_err(|e| CliError::Other(e.to_string()))?
        .report;

    let mut out = render_report(&report);
    out.push_str(&format!(
        "\n  replayed {pushes} pushes from {path} (generator {})\n",
        header.generator,
    ));
    if let Some(expect) = header.expect {
        let got = Expectation::from(&report);
        if got == expect {
            out.push_str("  expectation verified: delivered/cycles/dropped/truncated match\n");
        } else {
            return Err(CliError::Other(format!(
                "replay diverged from recorded expectation:\n  \
                 expected delivered {} cycles {} dropped {} truncated {}\n  \
                 got      delivered {} cycles {} dropped {} truncated {}",
                expect.delivered,
                expect.cycles,
                expect.dropped,
                expect.truncated,
                got.delivered,
                got.cycles,
                got.dropped,
                got.truncated,
            )));
        }
    }
    Ok(out)
}

/// One journey line for `explain`: what happened to the packet at this
/// event.
fn journey_line(event: &SimEvent) -> String {
    match event {
        SimEvent::Inject {
            cycle,
            node,
            out,
            queue_wait,
            ..
        } => format!("cycle {cycle:>6}  node {node:>4}  inject -> {out} (queue wait {queue_wait})"),
        SimEvent::RouteDecision {
            cycle,
            node,
            in_port,
            out,
            hops,
            ..
        } => {
            let from = in_port.map_or_else(|| "PE".to_string(), |p| p.to_string());
            format!("cycle {cycle:>6}  node {node:>4}  route {from} -> {out} (hops so far {hops})")
        }
        SimEvent::Deflect {
            cycle, node, out, ..
        } => {
            format!("cycle {cycle:>6}  node {node:>4}  deflected -> {out}")
        }
        SimEvent::ExpressHop {
            cycle, node, span, ..
        } => format!("cycle {cycle:>6}  node {node:>4}  express hop spanning {span} routers"),
        SimEvent::FaultReroute {
            cycle,
            node,
            avoided,
            ..
        } => format!("cycle {cycle:>6}  node {node:>4}  rerouted around faulty {avoided}"),
        SimEvent::FaultDrop {
            cycle,
            node,
            link,
            corrupted,
            ..
        } => {
            let cause = match (link, corrupted) {
                (Some(l), true) => format!("corrupted on {l}"),
                (Some(l), false) => format!("dropped on {l}"),
                (None, _) => "dropped at a failed router".to_string(),
            };
            format!("cycle {cycle:>6}  node {node:>4}  FAULT: {cause}")
        }
        SimEvent::Eject {
            cycle,
            node,
            delivery,
        } => format!(
            "cycle {cycle:>6}  node {node:>4}  eject (consumed by PE @{})",
            delivery.cycle
        ),
        other => format!("cycle {:>6}  {}", other.cycle(), other.kind()),
    }
}

/// Renders the watched packet's journey plus its attribution verdict.
fn render_journey(journey: &PacketJourney) -> String {
    let mut out = String::new();
    let id = journey.packet.0;
    if let Some(SimEvent::Inject { node, dst, .. }) = journey
        .events
        .iter()
        .find(|e| matches!(e, SimEvent::Inject { .. }))
    {
        out.push_str(&format!(
            "packet {id}: injected at node {node}, destined for {dst}\n"
        ));
    }
    out.push_str("journey:\n");
    for e in &journey.events {
        out.push_str("  ");
        out.push_str(&journey_line(e));
        out.push('\n');
    }
    match (&journey.attribution, journey.dropped) {
        (Some(a), _) => {
            let parts: Vec<String> = LatencyComponent::ALL
                .iter()
                .map(|&c| format!("{} {}", c.label(), a.component(c)))
                .collect();
            out.push_str(&format!(
                "attribution: {} == {} end-to-end [{}]\n",
                parts.join(" | "),
                a.latency(),
                if a.exact() { "exact" } else { "MISMATCH" },
            ));
        }
        (None, true) => {
            out.push_str(&format!(
                "packet {id} was dropped by a fault (see journey)\n"
            ));
        }
        (None, false) => {
            out.push_str(&format!(
                "packet {id} was still in flight when the run ended\n"
            ));
        }
    }
    out
}

/// `explain <packet-id>` — reconstructs one packet's full journey from
/// a live run or a recorded scenario trace: every injection, routing
/// decision, deflection, express hop, fault event, and the final eject,
/// cycle by cycle, with the packet's latency decomposition and a
/// flight-recorder excerpt around its final router for cross-checking.
pub fn cmd_explain(flags: &Flags) -> Result<String, CliError> {
    let Some(id_str) = flags.positionals().first() else {
        return Err(CliError::Other(
            "explain needs a packet id: \
             fasttrack explain <packet-id> (--trace <path> | --noc <spec> ...)"
                .into(),
        ));
    };
    let id: u64 = id_str
        .parse()
        .map_err(|_| CliError::Other(format!("packet id must be a number, got {id_str:?}")))?;
    let flight: usize = flags.numeric("flight-recorder", 16)?;
    if flight == 0 {
        return Err(CliError::Other("--flight-recorder must be positive".into()));
    }
    let mcfg = MonitorConfig {
        flight_capacity: flight,
        snapshot_every: None,
        ..MonitorConfig::default()
    };
    let acfg = AttributionConfig::default().watch(PacketId(id));
    let SingleRun {
        session,
        mut source,
        ..
    } = SingleRun::new(flags, ATTRIBUTE)?;
    let outcome = session
        .with_attribution(acfg)
        .with_monitor(mcfg)
        .run(&mut source)
        .map_err(|e| CliError::Other(e.to_string()))?;
    let attribution = outcome
        .attribution
        .expect("session was built with `with_attribution`");
    let journey = attribution
        .journey
        .as_ref()
        .expect("session was built with a watched packet");
    if journey.events.is_empty() {
        return Err(CliError::Other(format!(
            "packet {id} never appeared in this run ({} packets were injected; \
             ids are assigned in injection order)",
            outcome.report.stats.injected,
        )));
    }
    let mut out = render_journey(journey);
    let last_node = journey.events.last().and_then(|e| e.node());
    if let (Some(monitor), Some(node)) = (&outcome.monitor, last_node) {
        let excerpt = monitor.recorder().excerpt(node);
        out.push_str(&format!(
            "flight recorder @ node {node} (last {} events, * = packet {id}):\n",
            excerpt.len(),
        ));
        for e in &excerpt {
            let mine = journey.events.contains(e);
            out.push_str(if mine { "  * " } else { "    " });
            out.push_str(&journey_line(e));
            out.push('\n');
        }
    }
    Ok(out)
}

/// `fuzz` — the seeded scenario fuzzer: randomized NoC/traffic/fault
/// scenarios on the work-stealing pool, conservation and health checks
/// on every run, and delta-minimized failures written as replayable
/// trace files. Exit is nonzero only for bug classes (panic or
/// conservation violation); detected livelock/stranded classes are
/// reported and archived but expected under injected faults.
pub fn cmd_fuzz(flags: &Flags) -> Result<String, CliError> {
    let cfg = FuzzConfig {
        iters: flags.numeric("iters", 100)?,
        seed: flags.numeric("seed", 0)?,
        threads: flags.numeric("threads", 1)?,
        max_cycles: flags.numeric("max-cycles", 30_000)?,
    };
    if cfg.iters == 0 {
        return Err(CliError::Other("--iters must be positive".into()));
    }
    let outcome = fuzz(&cfg);
    let mut out = format!(
        "fuzz: {} scenarios (seed {}, {} thread(s)): {} failing, {} minimized class(es)\n",
        outcome.iters,
        cfg.seed,
        cfg.threads.max(1),
        outcome.failing_iters,
        outcome.failures.len(),
    );
    for f in &outcome.failures {
        out.push_str(&format!(
            "  [{}] scenario #{}: {} (minimized {} -> {} records, {} fault(s))\n",
            f.class.tag(),
            f.index,
            f.summary,
            f.original_records,
            f.trace.records.len(),
            f.trace.header.faults.len(),
        ));
    }
    if let Some(dir) = flags.optional("out") {
        std::fs::create_dir_all(dir).map_err(|e| CliError::Io(format!("{dir}: {e}")))?;
        for f in &outcome.failures {
            let path = format!("{dir}/{}_{}.trace", f.class.tag(), cfg.seed);
            write_file(&path, f.trace.encode())?;
            out.push_str(&format!("  minimized trace -> {path}\n"));
        }
    }
    if outcome.found_bug() {
        Err(CliError::Other(format!(
            "{out}fuzzing found a bug-class failure (replay the minimized trace to reproduce)"
        )))
    } else {
        out.push_str(if outcome.clean() {
            "  all scenarios ran clean\n"
        } else {
            "  no bug-class failures (detected classes above are expected under faults)\n"
        });
        Ok(out)
    }
}

/// `figure <id>... | --all [--out <dir>]` — regenerates catalog entries
/// at the paper's scale and executes their checks. Exit is nonzero when
/// an id is unknown, a check fails, or `--out` cannot be written.
pub fn cmd_figure(flags: &Flags) -> Result<String, CliError> {
    let (ids, all) = (flags.positionals(), flags.switch("all"));
    let known: Vec<&str> = catalog().iter().map(|f| f.id).collect();
    let bad = ids.iter().find(|id| !known.contains(&id.as_str()));
    if all != ids.is_empty() || bad.is_some() {
        let what = bad.map_or("figure takes either figure ids or --all".into(), |id| {
            format!("unknown figure {id:?}")
        });
        return Err(CliError::Other(format!("{what}; ids: {}", known.join(" "))));
    }
    let dir = flags.optional("out");
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| CliError::Io(format!("{dir}: {e}")))?;
    }
    let (mut out, mut failed, mut results) = (String::new(), String::new(), Vec::new());
    for fig in catalog()
        .iter()
        .filter(|f| all || ids.iter().any(|id| id == f.id))
    {
        let outcome = (fig.run)(Scale::Paper);
        out.push_str(&format!("# {} ({})\n", fig.title, fig.id));
        for table in &outcome.tables {
            match dir {
                Some(dir) => {
                    let path = format!("{dir}/{}.csv", table.title());
                    write_file(&path, table.to_csv())?;
                    out.push_str(&format!("  {path}\n"));
                }
                None => out.push_str(&format!("{}\n", table.render())),
            }
        }
        for check in &outcome.checks {
            out.push_str(&format!("{}\n", check.line()));
            if check.verdict == Verdict::Fails {
                failed.push_str(&format!("\n  {}: {}", fig.id, check.line()));
            }
        }
        out.push('\n');
        results.push((fig, outcome));
    }
    if let (Some(dir), true) = (dir, all) {
        let path = format!("{dir}/EXPERIMENTS.md");
        write_file(&path, experiments_md(&results))?;
        out.push_str(&format!("report -> {path}\n"));
    }
    if failed.is_empty() {
        Ok(out)
    } else {
        Err(CliError::Other(format!("{out}failing checks:{failed}")))
    }
}

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the failure; `main` prints it and
/// exits nonzero.
pub fn run(args: Vec<String>) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(USAGE.to_string());
    };
    // An unknown command is reported as such whatever follows it.
    let Some((cmd, values, switches, positionals)) = command_table(command, rest) else {
        return match command.as_str() {
            "help" | "--help" | "-h" => Ok(USAGE.to_string()),
            other => Err(CliError::UnknownCommand(other.to_string())),
        };
    };
    cmd(&Flags::parse(rest.to_vec(), values, switches, positionals)?)
}

type Command = fn(&Flags) -> Result<String, CliError>;
/// Groups of flag names, as [`Flags::parse`] takes them.
type FlagGroups = &'static [&'static [&'static str]];

/// A bare run on the required `--noc`: `simulate` and `trace --file`.
const BARE: Run = Run(None, 1.0, 1000, &[]);
/// `attribute` and `explain`: an attributed run on `--noc`, or the
/// recording at `--trace`.
const ATTRIBUTE: Run = Run(None, 1.0, 1000, &[Observer::Attribution]);

/// What [`RunSpec::on`] reads.
const RUN_FLAGS: &[&str] = &["pattern", "rate", "packets", "seed"];
/// What [`fault_plan`] reads.
const FAULT_FLAGS: &[&str] = &[
    "fault-seed",
    "dead-links",
    "transient-links",
    "fail-stop",
    "stalled-injectors",
    "window",
];
/// What `sweep` reads in both of its forms.
const SWEEP_FLAGS: &[&str] = &[
    "packets",
    "seed",
    "threads",
    "out",
    "health",
    "attribution",
    "retries",
    "cycle-budget",
    "resume",
];
/// What `storm` reads in both of its forms.
const STORM_FLAGS: &[&str] = &[
    "threads",
    "channels",
    "out",
    "kills",
    "heal",
    "duration",
    "min-delivered",
    "max-p99",
];
/// What `record` reads in both of its forms.
const RECORD_FLAGS: &[&str] = &["out", "noc", "channels", "max-cycles"];

/// A command's body plus every value flag and switch it reads and how
/// many positional arguments it takes: [`Flags::parse`] rejects the
/// rest, so a flag listed here must be read and a flag read must be
/// listed (USAGE is checked against this table by a test). A command
/// whose forms read different flags has one row per form, selected by
/// the flag that names the form, so a flag the chosen form ignores is
/// rejected like any other unknown flag.
fn command_table(
    command: &str,
    args: &[String],
) -> Option<(Command, FlagGroups, &'static [&'static str], usize)> {
    // `explain` takes its packet id, `figure` any number of figure ids.
    let positionals = match command {
        "explain" => 1,
        "figure" => usize::MAX,
        _ => 0,
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let (cmd, values, switches): (Command, FlagGroups, &[&str]) = match command {
        "simulate" => (
            |f| cmd_run(f, BARE),
            &[RUN_FLAGS, &["noc", "channels"]],
            &[],
        ),
        "monitor" => (
            |f| cmd_run(f, Run(None, 1.0, 1000, &[Observer::Monitor])),
            &[
                RUN_FLAGS,
                &[
                    "noc",
                    "channels",
                    "snapshot",
                    "flight-recorder",
                    "max-reports",
                ],
                &["livelock-multiple", "stall-streak", "hotspot-watermark"],
                &["health", "metrics"],
            ],
            &["profile"],
        ),
        // `--grid` names its own NoCs, patterns and rates.
        "sweep" if has("--grid") => (cmd_sweep, &[SWEEP_FLAGS, &["grid"]], &["profile"]),
        "sweep" => (cmd_sweep, &[SWEEP_FLAGS, &["noc", "pattern"]], &["profile"]),
        "compare" => (cmd_compare, &[RUN_FLAGS, &["topologies", "out"]], &[]),
        "faults" => (
            cmd_faults,
            &[
                RUN_FLAGS,
                FAULT_FLAGS,
                &["noc", "channels", "down-links", "health"],
            ],
            &["profile", "json"],
        ),
        "storm" if has("--grid") => (
            cmd_storm,
            &[STORM_FLAGS, &["grid", "packets", "seed"]],
            &["json"],
        ),
        "storm" => (cmd_storm, &[RUN_FLAGS, STORM_FLAGS, &["noc"]], &["json"]),
        "profile" => (
            |f| cmd_run(f, Run(Some("ft:8:2:2"), 0.5, 1000, &[Observer::Profile])),
            &[RUN_FLAGS, &["noc", "out"]],
            &["json"],
        ),
        // `--trace` replays a recorded scenario: fabric, channels and
        // traffic all come from its header.
        "attribute" if has("--trace") => (
            |f| cmd_run(f, ATTRIBUTE),
            &[&["trace", "metrics"]],
            &["json"],
        ),
        "attribute" => (
            |f| cmd_run(f, ATTRIBUTE),
            &[RUN_FLAGS, &["noc", "channels", "metrics"]],
            &["json"],
        ),
        "explain" if has("--trace") => (cmd_explain, &[&["trace", "flight-recorder"]], &[]),
        "explain" => (
            cmd_explain,
            &[RUN_FLAGS, &["noc", "channels", "flight-recorder"]],
            &[],
        ),
        "figure" => (cmd_figure, &[&["out"]], &["all"]),
        "cost" => (cmd_cost, &[&["noc", "width", "channels"]], &[]),
        // `--file` selects the text-trace replay, which reads nothing else.
        "trace" if has("--file") => (|f| cmd_run(f, BARE), &[&["noc", "file"]], &[]),
        "trace" => (
            cmd_trace,
            &[RUN_FLAGS, &["noc", "epoch", "flight-recorder", "out"]],
            &[],
        ),
        // A `--workload` preset brings its own traffic.
        "record" if has("--workload") => (
            cmd_record,
            &[RECORD_FLAGS, FAULT_FLAGS, &["workload", "seed"]],
            &[],
        ),
        "record" => (cmd_record, &[RUN_FLAGS, RECORD_FLAGS, FAULT_FLAGS], &[]),
        "replay" => (cmd_replay, &[&["file"]], &[]),
        "fuzz" => (
            cmd_fuzz,
            &[&["iters", "seed", "threads", "max-cycles", "out"]],
            &[],
        ),
        _ => return None,
    };
    Some((cmd, values, switches, positionals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasttrack_traffic::scenario::ScenarioTrace;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn end_to_end_simulate() {
        let out = run(argv("simulate --noc ft:4:2:1 --rate 0.5 --packets 50")).unwrap();
        assert!(out.contains("FT(16,2,1)"));
        assert!(out.contains("800 delivered"));
        assert!(out.contains("sustained rate"));
    }

    #[test]
    fn multichannel_simulate() {
        let out = run(argv("simulate --noc hoplite:4 --packets 20 --channels 2")).unwrap();
        assert!(out.contains("2x"));
    }

    #[test]
    fn cost_reports_fit_and_na() {
        let ok = run(argv("cost --noc hoplite:8 --width 256")).unwrap();
        assert!(ok.contains("33664") || ok.contains("LUTs 33664"));
        assert!(ok.contains("MHz"));
        let na = run(argv("cost --noc ft:16:2:1 --width 1024")).unwrap();
        assert!(na.contains("DOES NOT FIT"));
    }

    /// `cost` reads `--channels` like every other command: 0 is a plain
    /// single NoC, not an all-zero price list.
    #[test]
    fn cost_reads_zero_channels_as_one() {
        let zero = run(argv("cost --noc hoplite:8 --channels 0")).unwrap();
        assert_eq!(zero, run(argv("cost --noc hoplite:8")).unwrap());
        assert!(
            zero.starts_with("Hoplite 8x8 @256b on ") && zero.contains("LUTs 33664"),
            "{zero}"
        );
    }

    #[test]
    fn cost_refuses_channels_above_the_cap() {
        let err = run(argv("cost --noc hoplite:8 --channels 17")).unwrap_err();
        assert!(matches!(err, CliError::Other(_)), "{err:?}");
        assert!(err.to_string().contains("16-channel cap"), "{err}");
    }

    #[test]
    fn cost_refuses_a_zero_bit_noc() {
        let err = run(argv("cost --noc ft:8:2:2 --width 0")).unwrap_err();
        assert!(matches!(err, CliError::Other(_)), "{err:?}");
        assert!(err.to_string().contains("--width"), "{err}");
    }

    #[test]
    fn sweep_prints_rate_table() {
        let out = run(argv("sweep --noc hoplite:4 --packets 30")).unwrap();
        assert!(out.contains("0.01"));
        assert!(out.contains("1.00") || out.contains("1.0"));
        assert_eq!(out.lines().count(), 1 + 9);
    }

    #[test]
    fn sweep_grid_csv_golden_run_matches_parallel() {
        let base = "sweep --grid hoplite:4,ft:4:2:1;random,transpose;0.1,0.5 \
                    --packets 25 --seed 9 --out csv";
        let serial = run(argv(&format!("{base} --threads 1"))).unwrap();
        let parallel = run(argv(&format!("{base} --threads 8"))).unwrap();
        assert_eq!(serial, parallel, "parallel sweep diverged from golden run");
        assert!(serial.starts_with("config,channels,pattern,rate,seed,"));
        // 2 NoCs x 2 patterns x 2 rates + header.
        assert_eq!(serial.lines().count(), 1 + 8);
        assert!(serial.contains("FT(16,2,1)"));
    }

    #[test]
    fn sweep_grid_accepts_shg_and_mesh_points() {
        let out = run(argv(
            "sweep --grid ft:4:2:1,shg:4:2,mesh:4:2;random;0.3 --packets 25 --seed 3 --out csv",
        ))
        .unwrap();
        assert!(out.contains("FT(16,2,1)"));
        assert!(out.contains("SHG"), "SHG row missing: {out}");
        assert!(out.contains("Mesh 4x4"), "mesh row missing: {out}");
        // 3 topologies x 1 pattern x 1 rate + header.
        assert_eq!(out.lines().count(), 1 + 3);
    }

    /// One fabric, one name: every command that prints a fabric prints
    /// the name `NocUnderTest::label` derives, and no two fabrics share
    /// one. `sweep` and `compare` run single channels only.
    #[test]
    fn every_command_prints_one_name_per_fabric() {
        let cases = [
            ("hoplite:4", 1, "Hoplite 4x4"),
            ("ft:4:2:1", 1, "FT(16,2,1)"),
            ("ftlite:4:2:1", 1, "FTlite(16,2,1)"),
            ("shg:4:1", 1, "SHG(16,1)"),
            ("mesh:4:2", 1, "Mesh 4x4 (depth 2)"),
            ("ft:4:2:1", 2, "FT(16,2,1)-2x"),
        ];
        let json_str = |json: &str, key: &str| {
            let at = json.find(&format!("\"{key}\":\"")).expect(key) + key.len() + 4;
            json[at..].split('"').next().unwrap().to_string()
        };
        let dir = std::env::temp_dir().join("fasttrack_cli_one_name");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("compare.csv").display().to_string();
        let singles: Vec<&str> = cases.iter().filter(|c| c.1 == 1).map(|c| c.0).collect();
        let sweep = run(argv(&format!(
            "sweep --grid {};random;0.3 --packets 5 --out csv",
            singles.join(",")
        )))
        .unwrap();
        let sweep: Vec<Vec<String>> = sweep.lines().map(csv_fields).collect();
        run(argv(&format!(
            "compare --topologies {} --packets 5 --out {csv_path}",
            singles.join(",")
        )))
        .unwrap();
        let compare = std::fs::read_to_string(&csv_path).unwrap();
        let compare: Vec<Vec<String>> = compare.lines().map(csv_fields).collect();
        for (i, &(spec, channels, name)) in cases.iter().enumerate() {
            let flags = format!("--noc {spec} --channels {channels} --packets 5");
            let simulate = run(argv(&format!("simulate {flags}"))).unwrap();
            let storm = run(argv(&format!("storm {flags} --min-delivered 0 --json"))).unwrap();
            let faults = run(argv(&format!("faults {flags} --json"))).unwrap();
            let cost = run(argv(&format!("cost --noc {spec} --channels {channels}"))).unwrap();
            let nut = NocUnderTest {
                channels,
                ..NocUnderTest::from_spec(parse_topology(spec).unwrap())
            };
            let mut seen = vec![
                ("simulate", simulate.split(": ").next().unwrap().to_string()),
                ("storm --json", json_str(&storm, "config")),
                ("faults --json", json_str(&faults, "noc")),
                ("cost", cost.split(" @").next().unwrap().to_string()),
                ("NocUnderTest::label", nut.label()),
            ];
            if channels == 1 {
                assert_eq!(
                    sweep[i + 1].len(),
                    sweep[0].len(),
                    "{spec}: {:?}",
                    sweep[i + 1]
                );
                assert_eq!(compare[i + 1].len(), compare[0].len(), "{spec}");
                seen.push(("sweep --out csv", sweep[i + 1][0].clone()));
                seen.push(("compare --out", compare[i + 1][0].clone()));
            }
            for (source, printed) in seen {
                assert_eq!(printed, name, "{spec} x{channels} in {source}");
            }
        }
        let mut names: Vec<&str> = cases.iter().map(|c| c.2).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cases.len(), "distinct specs, distinct names");
    }

    #[test]
    fn compare_reports_iso_resource_table_and_csv() {
        let dir = std::env::temp_dir().join("fasttrack_cli_compare");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("iso.csv").display().to_string();
        let out = run(argv(&format!(
            "compare --topologies ft:4:2:1,shg:4:2,mesh:4:2 --rate 0.3 \
             --packets 25 --seed 3 --out {csv_path}"
        )))
        .unwrap();
        assert!(out.contains("iso-resource compare: 3 topologies"));
        assert!(out.contains("FT(16,2,1)"));
        assert!(out.contains("Mpkt/s/kcell"));
        assert!(out.contains("1.00x base"), "baseline row is 1.00x: {out}");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("label,nodes,luts,ffs,cells,mhz,"));
        assert_eq!(csv.lines().count(), 1 + 3);
        let header = csv_fields(csv.lines().next().unwrap());
        // Every row has the header's fields, whatever commas its label
        // holds, and prices to a positive cell count.
        for line in csv.lines().skip(1) {
            let fields = csv_fields(line);
            assert_eq!(fields.len(), header.len(), "{line}");
            let cells: u64 = fields[4].parse().unwrap();
            assert!(cells > 0, "{line}");
        }
        assert_eq!(csv_fields(csv.lines().nth(1).unwrap())[0], "FT(16,2,1)");
    }

    /// Splits one CSV line into its fields, honouring double quotes
    /// (no label holds a quote of its own).
    fn csv_fields(line: &str) -> Vec<String> {
        let (mut fields, mut field, mut quoted) = (Vec::new(), String::new(), false);
        for c in line.chars() {
            match c {
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
        fields.push(field);
        fields
    }

    /// `compare` and `cost` read one price list: every torus row is
    /// `noc_cost` at 256 b, the SHG pays for its all-to-all switch, and
    /// the mesh for its FIFOs. A fabric that does not fit at 256 b has
    /// no clock, so its per-ns columns read `NA`.
    #[test]
    fn compare_prices_every_fabric_from_the_one_list() {
        let dir = std::env::temp_dir().join("fasttrack_cli_compare_prices");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("prices.csv").display().to_string();
        let rows = |specs: &str| {
            run(argv(&format!(
                "compare --topologies {specs} --packets 2 --out {csv_path}"
            )))
            .unwrap();
            let csv = std::fs::read_to_string(&csv_path).unwrap();
            csv.lines().skip(1).map(csv_fields).collect::<Vec<_>>()
        };
        let cells =
            |row: &[String]| -> (u64, u64) { (row[2].parse().unwrap(), row[3].parse().unwrap()) };
        let specs = ["hoplite:4", "ft:4:2:1", "ftlite:4:2:2"];
        for (spec, row) in specs.iter().zip(rows(&specs.join(","))) {
            let topo = topology_of(&parse_topology(spec).unwrap());
            let cost = noc_cost(&*topo, DATAPATH_WIDTH);
            assert_eq!(cells(&row), (cost.luts, cost.ffs), "{spec}");
        }
        let rows_of = rows("ft:8:2:1,shg:8:2,mesh:8:4");
        let luts: Vec<u64> = rows_of.iter().map(|row| cells(row).0).collect();
        assert_eq!(luts, [104_064, 136_832, 79_744]);
        for row in rows("ft:16:2:1,shg:16:4") {
            assert_eq!(row[5..].iter().filter(|f| *f == "NA").count(), 3, "{row:?}");
        }
    }

    #[test]
    fn compare_rejects_single_topology() {
        assert!(matches!(
            run(argv("compare --topologies ft:4:2:1 --packets 5")),
            Err(CliError::Other(_))
        ));
    }

    #[test]
    fn attribute_runs_on_shg() {
        let out = run(argv(
            "attribute --noc shg:4:2 --pattern random --rate 0.3 --packets 30 --seed 2",
        ))
        .unwrap();
        assert!(out.contains("SHG"), "{out}");
        assert!(out.contains("where the cycles went"), "{out}");
    }

    #[test]
    fn attribute_rejects_channels_on_non_torus() {
        for cmd in [
            "attribute --noc shg:4:2",
            "simulate --noc shg:4:1",
            "monitor --noc mesh:4:2",
        ] {
            let err = run(argv(&format!("{cmd} --channels 2 --packets 5"))).unwrap_err();
            assert!(matches!(err, CliError::Other(_)), "{cmd}: {err:?}");
            assert!(
                err.to_string().contains("torus fabrics only"),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn simulate_and_monitor_accept_shg_and_mesh() {
        for (noc, name) in [("shg:4:1", "SHG(16,1)"), ("mesh:4:2", "Mesh 4x4")] {
            let out = run(argv(&format!(
                "simulate --noc {noc} --rate 0.3 --packets 20"
            )))
            .unwrap();
            assert!(out.contains(name), "{out}");
            assert!(out.contains("320 delivered"), "{out}");
            let out = run(argv(&format!(
                "monitor --noc {noc} --rate 0.3 --packets 20 --snapshot 100000"
            )))
            .unwrap();
            assert!(out.contains("320 delivered"), "{out}");
            assert!(out.contains("health: "), "{out}");
        }
    }

    /// Every command on the run builder (plus what else it needs to
    /// start; `@` is a scratch path prefix) with the defaults it
    /// documents: rate, packets, and anything beyond `--pattern random
    /// --seed 1` (`1x` = `--channels 1`).
    const RUN_COMMANDS: [(&str, &str, u32, &str); 12] = [
        ("simulate --noc hoplite:4", "1.0", 1000, "1x"),
        ("monitor --noc hoplite:4", "1.0", 1000, "1x"),
        ("faults --noc hoplite:4", "0.5", 1000, "1x"),
        ("compare --topologies hoplite:4,mesh:4:2", "0.5", 1000, ""),
        ("storm", "0.3", 500, "--noc ft:8:2:2 --channels 2"),
        ("trace --noc hoplite:4 --out @trace", "0.1", 200, ""),
        ("profile", "0.5", 1000, "--noc ft:8:2:2"),
        ("profile --noc shg:4:2", "0.5", 1000, ""),
        ("trace --noc mesh:4:2 --out @t", "0.1", 200, ""),
        ("record --noc hoplite:4 --out @rec.trace", "0.5", 1000, "1x"),
        ("attribute --noc hoplite:4", "1.0", 1000, "1x"),
        ("explain 0 --noc hoplite:4", "1.0", 1000, "1x"),
    ];

    fn run_with(cmd: &str, rest: &str) -> Result<String, CliError> {
        let tmp = std::env::temp_dir().join("fasttrack_cli_run_");
        let cmd = cmd.replace('@', &tmp.display().to_string());
        run(argv(&format!("{cmd} {rest}")))
    }

    #[test]
    fn out_of_range_rate_is_a_typed_error_not_a_panic() {
        for (cmd, ..) in RUN_COMMANDS {
            for bad in ["0", "2", "-1", "nan"] {
                let err = run_with(cmd, &format!("--rate {bad}")).unwrap_err();
                assert!(matches!(err, CliError::Other(_)), "{cmd} {bad}: {err:?}");
                assert!(
                    err.to_string().contains("out of (0,1]"),
                    "{cmd} {bad}: {err}"
                );
            }
        }
    }

    /// A bit permutation on a side that is not a power of two is refused
    /// where pattern and fabric first meet, on every surface where the
    /// traffic source used to panic on its first draw.
    #[test]
    fn a_bit_pattern_on_a_side_it_cannot_permute_is_a_typed_error() {
        for (cmd, side) in [
            ("simulate --noc hoplite:3 --pattern bitrev", 3),
            ("simulate --noc mesh:5 --pattern shuffle", 5),
            ("simulate --noc shg:6:2 --pattern bitrev", 6),
            ("faults --noc ft:6:2:1 --pattern shuffle", 6),
            ("trace --noc hoplite:6 --pattern bitrev --out @bits", 6),
            (
                "record --noc hoplite:6 --pattern shuffle --out @bits.trace",
                6,
            ),
            ("compare --topologies hoplite:6,mesh:6 --pattern bitrev", 6),
            ("sweep --grid hoplite:3;bitrev;0.5", 3),
            ("sweep --noc hoplite:3 --pattern shuffle", 3),
            ("storm --grid hoplite:6;shuffle;0.5", 6),
        ] {
            let err = run_with(cmd, "--packets 5").unwrap_err();
            assert!(matches!(err, CliError::Spec(_)), "{cmd}: {err:?}");
            assert!(
                err.to_string()
                    .contains(&format!("power-of-two side, not {side}")),
                "{cmd}: {err}"
            );
        }
        run(argv(
            "simulate --noc hoplite:8 --pattern bitrev --packets 5",
        ))
        .unwrap();
    }

    /// The `--flags` a USAGE or EXAMPLES line mentions.
    fn flags_in(line: &str) -> Vec<String> {
        line.split_whitespace()
            .map(|w| w.trim_start_matches(['[', '(']))
            .filter(|w| w.starts_with("--"))
            .map(|w| {
                w.chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect()
            })
            .collect()
    }

    /// What a command declares it reads, as `--flag` strings.
    fn declared(command: &str, args: &[String]) -> std::collections::BTreeSet<String> {
        let (_, values, switches, _) = command_table(command, args).expect(command);
        values
            .iter()
            .flat_map(|group| group.iter())
            .chain(switches)
            .map(|f| format!("--{f}"))
            .collect()
    }

    /// Words random argv is drawn from: every form-selecting flag, flags
    /// with and without values, near-miss spellings, the empty word, and
    /// values the spec parsers must refuse with a typed error.
    const ARGV_WORDS: &str = "--noc --grid --trace --file --workload --pattern --rate \
        --packets --json --all --profile --out -- - --- --noc=x hoplite:4 ft:8:2:1 shg:4:2 \
        mesh:0:0 hoplite:65535 ft:8:9:1 random local:0 bitrev 0.5 nan -1 \
        18446744073709551616 é 3 hoplite:4;random;0.5 ;; ,;,;, shg:4:2;tornado;1e-300  ";
    const COMMAND_NAMES: &str = "simulate monitor sweep compare faults storm profile \
        attribute explain figure cost trace record replay fuzz";

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// Random argv never panics the flag parser, nor the spec parsers
        /// the commands hand its values to.
        #[test]
        fn random_argv_never_panics_the_flag_parser(
            command in proptest::prelude::any::<usize>(),
            words in proptest::array::uniform4((0usize..64, 0usize..64)),
            count in 0usize..=4,
        ) {
            let vocab: Vec<&str> = ARGV_WORDS.split(' ').collect();
            let commands: Vec<&str> = COMMAND_NAMES.split(' ').collect();
            let args: Vec<String> = words[..count]
                .iter()
                .flat_map(|&(a, b)| [vocab[a % vocab.len()], vocab[b % vocab.len()]])
                .map(String::from)
                .collect();
            let command = commands[command % commands.len()];
            let (_, values, switches, positionals) = command_table(command, &args).unwrap();
            if let Ok(flags) = Flags::parse(args, values, switches, positionals) {
                let _ = flags.optional("noc").map(parse_topology);
                let _ = flags.optional("pattern").map(parse_pattern);
                let _ = flags.optional("grid").map(parse_grid);
                let _ = flags.numeric::<f64>("rate", 1.0);
                let _ = flags.numeric::<u64>("packets", 1);
                let _ = (flags.switch("json"), flags.positionals());
            }
        }
    }

    #[test]
    fn a_flag_the_command_does_not_read_is_a_typed_error() {
        // The ROADMAP's three: a typo must not run at the default rate,
        // and a flag another command owns is not dropped without a word.
        for (args, flag) in [
            ("simulate --noc hoplite:4 --rat 0.1", "--rat"),
            ("trace --noc hoplite:4 --channels 2", "--channels"),
            ("profile --channels 2", "--channels"),
            ("trace --noc hoplite:4 --file x.trace --rate 0.3", "--rate"),
            ("explain 3 --noc hoplite:4 --metrics m.prom", "--metrics"),
            ("replay --file x.trace --seed 3", "--seed"),
            ("cost --noc hoplite:4 --json", "--json"),
            // The long-form spelling of `--noc` is gone.
            ("trace --topology ft --n 8 --d 2 --r 2", "--topology"),
        ] {
            match run(argv(args)) {
                Err(CliError::Args(ArgError::UnknownFlag(f))) => assert_eq!(f, flag, "{args}"),
                other => panic!("{args}: {other:?}"),
            }
        }
        // Nor does one form of a command take what only its other form
        // reads.
        for (form, ignored) in [
            ("sweep --grid hoplite:4;random;0.5", "--noc --pattern"),
            ("storm --grid ft:8:2:2;random;0.3", "--noc --pattern --rate"),
            (
                "record --workload spmv --out x.trace",
                "--pattern --rate --packets",
            ),
            (
                "attribute --trace x.trace",
                "--noc --channels --pattern --rate --packets --seed",
            ),
            (
                "explain 3 --trace x.trace",
                "--noc --channels --pattern --rate --packets --seed",
            ),
        ] {
            for flag in ignored.split_whitespace() {
                match run(argv(&format!("{form} {flag} 1"))) {
                    Err(CliError::Args(ArgError::UnknownFlag(f))) => assert_eq!(f, flag, "{form}"),
                    other => panic!("{form} {flag}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_command_reads() {
        // One entry per `fasttrack <command>` line of the USAGE block,
        // continuation lines folded in.
        let block = USAGE.split("USAGE:").nth(1).unwrap();
        let block = block.split("SPECS:").next().unwrap();
        let mut entries: Vec<(String, Vec<String>)> = Vec::new();
        for line in block.lines() {
            if let Some(rest) = line.strip_prefix("  fasttrack ") {
                let command = rest.split_whitespace().next().unwrap();
                entries.push((command.to_string(), Vec::new()));
            }
            if let Some((_, flags)) = entries.last_mut() {
                flags.extend(flags_in(line));
            }
        }
        assert!(entries.len() >= 15, "USAGE block not found: {entries:?}");
        // The flag naming a form sits in its entry, so `declared` picks
        // that form's row.
        let mut rows = std::collections::BTreeMap::<&str, std::collections::BTreeSet<_>>::new();
        for (command, flags) in &entries {
            if command == "help" {
                continue;
            }
            let listed: std::collections::BTreeSet<String> = flags.iter().cloned().collect();
            assert_eq!(listed, declared(command, flags), "{command}");
            rows.entry(command.as_str()).or_default().insert(listed);
        }
        // Every per-form row has its own entry; the rest have one.
        let split = ["sweep", "storm", "attribute", "explain", "trace", "record"];
        for (command, forms) in rows {
            let expected = if split.contains(&command) { 2 } else { 1 };
            assert_eq!(forms.len(), expected, "{command}");
        }
    }

    #[test]
    fn every_usage_example_uses_declared_flags() {
        let examples = USAGE.split("EXAMPLES:").nth(1).unwrap();
        let mut seen = 0;
        for line in examples.lines() {
            let Some(rest) = line.strip_prefix("  fasttrack ") else {
                continue;
            };
            let listed: std::collections::BTreeSet<String> = flags_in(rest).into_iter().collect();
            let command = rest.split_whitespace().next().unwrap();
            let all: Vec<String> = listed.iter().cloned().collect();
            let known = declared(command, &all);
            assert!(listed.is_subset(&known), "{line}: {listed:?}");
            seen += 1;
        }
        assert!(seen >= 20, "EXAMPLES block not found");
    }

    #[test]
    fn bare_invocation_equals_its_spelled_out_defaults() {
        for (cmd, rate, packets, more) in RUN_COMMANDS {
            let bare = run_with(cmd, "").unwrap();
            let more = more.replace("1x", "--channels 1");
            let full = run_with(
                cmd,
                &format!("--pattern random --rate {rate} --packets {packets} --seed 1 {more}"),
            )
            .unwrap();
            // `profile` appends wall-clock timings; its four-line report
            // is the deterministic part.
            let keep = if cmd.starts_with("profile") {
                4
            } else {
                usize::MAX
            };
            let head = |s: &str| s.lines().take(keep).collect::<Vec<_>>().join("\n");
            assert_eq!(head(&bare), head(&full), "{cmd}");
        }
    }

    #[test]
    fn sweep_rejects_unknown_output_format() {
        assert!(matches!(
            run(argv("sweep --noc hoplite:4 --packets 5 --out xml")),
            Err(CliError::Other(_))
        ));
    }

    #[test]
    fn sweep_rejects_bad_grid() {
        assert!(matches!(
            run(argv("sweep --grid hoplite:4;random")),
            Err(CliError::Spec(_))
        ));
    }

    #[test]
    fn sweep_and_storm_grids_refuse_an_invalid_depopulation() {
        // A grid string reaches `NocUnderTest::from_spec` only after
        // `parse_grid` built (and so validated) its fabric.
        for args in [
            "sweep --grid ft:8:3:2;random;0.5",
            "storm --grid ft:8:3:2;random;0.3",
        ] {
            let err = run(argv(args)).unwrap_err().to_string();
            assert_eq!(
                err,
                "invalid configuration: depopulation r=2 invalid for d=3, \
                 need 1 <= r <= d and d % r == 0",
                "{args}"
            );
        }
    }

    #[test]
    fn trace_replays_file() {
        let dir = std::env::temp_dir().join("fasttrack_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        std::fs::write(&path, "0 0 5\n3 1 6\n").unwrap();
        let out = run(argv(&format!(
            "trace --noc hoplite:4 --file {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("2 delivered"));
    }

    #[test]
    fn trace_exports_synthetic_run() {
        let dir = std::env::temp_dir().join("fasttrack_cli_trace_export");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("t").display().to_string();
        let out = run(argv(&format!(
            "trace --noc ft:8:2:2 --pattern random --rate 0.2 \
             --packets 20 --out {prefix}"
        )))
        .unwrap();
        assert!(out.contains("FT(64,2,2)"));
        assert!(out.contains(".events.ndjson"));
        let nd = std::fs::read_to_string(format!("{prefix}.events.ndjson")).unwrap();
        assert!(!nd.is_empty());
        assert!(nd.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let csv = std::fs::read_to_string(format!("{prefix}.epochs.csv")).unwrap();
        assert!(csv.starts_with("epoch,"));
        assert!(csv.lines().count() >= 2);
        let chrome = std::fs::read_to_string(format!("{prefix}.chrome.json")).unwrap();
        assert!(chrome.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn monitor_detects_hotspot_above_saturation() {
        let dir = std::env::temp_dir().join("fasttrack_cli_monitor");
        std::fs::create_dir_all(&dir).unwrap();
        let health = dir.join("health.json").display().to_string();
        let metrics = dir.join("metrics.prom").display().to_string();
        // FT(64,2,2) RANDOM at rate 1.0 is far above saturation; with
        // starvation muted the retained reports are hot links.
        let out = run(argv(&format!(
            "monitor --noc ft:8:2:2 --pattern random --rate 1.0 --packets 100 \
             --seed 7 --snapshot 200 --stall-streak 1000000 \
             --health {health} --metrics {metrics}"
        )))
        .unwrap();
        assert!(out.contains("[monitor] cycle="), "snapshots missing: {out}");
        assert!(out.contains("FT(64,2,2)"));
        assert!(
            out.contains("hotspot"),
            "saturated run must trip the hotspot detector: {out}"
        );
        let json = std::fs::read_to_string(&health).unwrap();
        assert!(json.contains("\"healthy\":false"));
        assert!(json.ends_with("\n"), "health JSON ends with a newline");
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("fasttrack_injected_total"));
        assert!(prom.contains("fasttrack_delivery_latency_cycles_count"));
    }

    #[test]
    fn monitor_healthy_run_reports_ok() {
        let out = run(argv(
            "monitor --noc hoplite:4 --pattern random --rate 0.05 --packets 20 \
             --snapshot 100000",
        ))
        .unwrap();
        assert!(out.contains("health: OK"), "{out}");
    }

    #[test]
    fn monitor_rejects_degenerate_knobs() {
        assert!(matches!(
            run(argv("monitor --noc hoplite:4 --snapshot 0")),
            Err(CliError::Other(_))
        ));
        assert!(matches!(
            run(argv("monitor --noc hoplite:4 --flight-recorder 0")),
            Err(CliError::Other(_))
        ));
    }

    #[test]
    fn sweep_health_sidecar_is_deterministic_and_rows_unchanged() {
        let dir = std::env::temp_dir().join("fasttrack_cli_sweep_health");
        std::fs::create_dir_all(&dir).unwrap();
        let h1 = dir.join("h1.json").display().to_string();
        let h8 = dir.join("h8.json").display().to_string();
        let base = "sweep --grid hoplite:4;random;0.1,1.0 --packets 25 --seed 3 --out csv";
        let plain = run(argv(&format!("{base} --threads 1"))).unwrap();
        let with1 = run(argv(&format!("{base} --threads 1 --health {h1}"))).unwrap();
        let with8 = run(argv(&format!("{base} --threads 8 --health {h8}"))).unwrap();
        assert_eq!(plain, with1, "health sidecar changed the CSV");
        assert_eq!(plain, with8, "thread count leaked into the CSV");
        assert!(plain.ends_with('\n') && !plain.ends_with("\n\n"));
        let j1 = std::fs::read_to_string(&h1).unwrap();
        let j8 = std::fs::read_to_string(&h8).unwrap();
        assert_eq!(j1, j8, "health JSON must be thread-count independent");
        assert!(j1.starts_with('[') && j1.ends_with("]\n"));
        assert!(j1.contains("\"health\":"));
    }

    #[test]
    fn trace_flight_recorder_replays_excerpt() {
        let dir = std::env::temp_dir().join("fasttrack_cli_flight");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("f").display().to_string();
        let out = run(argv(&format!(
            "trace --noc hoplite:4 --pattern random --rate 0.3 --packets 30 \
             --flight-recorder 16 --out {prefix}"
        )))
        .unwrap();
        assert!(out.contains("flight recorder K=16"), "{out}");
        let nd = std::fs::read_to_string(format!("{prefix}.flight.ndjson")).unwrap();
        assert!(!nd.is_empty());
        assert!(nd.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        // Every line the flight recorder kept is also in the full log.
        let full = std::fs::read_to_string(format!("{prefix}.events.ndjson")).unwrap();
        let full: std::collections::HashSet<&str> = full.lines().collect();
        assert!(nd.lines().all(|l| full.contains(l)));
        let chrome = std::fs::read_to_string(format!("{prefix}.flight.chrome.json")).unwrap();
        assert!(chrome.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn trace_rejects_unknown_topology() {
        assert!(matches!(
            run(argv("trace --noc ring:4")),
            Err(CliError::Spec(_))
        ));
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            run(argv("bogus")),
            Err(CliError::UnknownCommand(_))
        ));
        // The `bench` trajectory stack is gone; `benchmark/` measures.
        assert!(matches!(
            run(argv("bench snapshot")),
            Err(CliError::UnknownCommand(_))
        ));
        assert!(matches!(run(argv("simulate")), Err(CliError::Args(_))));
        assert!(matches!(
            run(argv("simulate --noc ring:4")),
            Err(CliError::Spec(_))
        ));
        assert!(matches!(
            run(argv("trace --noc hoplite:4 --file /definitely/not/here")),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn faults_dead_links_degrade_gracefully() {
        let out = run(argv(
            "faults --noc ft:8:2:2 --pattern random --rate 0.3 --packets 40 \
             --seed 5 --dead-links 2 --fault-seed 11",
        ))
        .unwrap();
        assert!(out.contains("fault plan: 2 faults"), "{out}");
        assert!(out.contains("dead link"), "{out}");
        assert!(out.contains("healthy baseline:"), "{out}");
        assert!(out.contains("faulted fabric:"), "{out}");
        // Traffic deflects around the dead express links (stranded
        // packets at a full router may still drop — exactly accounted).
        assert!(out.contains("rerouted around dead links"), "{out}");
        assert!(out.contains("conservation: exact"), "{out}");
        assert!(out.contains("throughput"), "{out}");
    }

    #[test]
    fn faults_fail_stop_drops_and_conserves() {
        let dir = std::env::temp_dir().join("fasttrack_cli_faults");
        std::fs::create_dir_all(&dir).unwrap();
        let health = dir.join("health.json").display().to_string();
        let out = run(argv(&format!(
            "faults --noc hoplite:4 --pattern random --rate 0.5 --packets 60 \
             --seed 3 --fail-stop 1 --window 20:200 --health {health}"
        )))
        .unwrap();
        assert!(out.contains("fail-stop router"), "{out}");
        assert!(out.contains("conservation: exact"), "{out}");
        let json = std::fs::read_to_string(&health).unwrap();
        assert!(json.contains("\"dropped\":"), "{json}");
    }

    #[test]
    fn faults_health_monitor_rides_a_multichannel_bank() {
        let dir = std::env::temp_dir().join("fasttrack_cli_faults_bank");
        std::fs::create_dir_all(&dir).unwrap();
        let health = dir.join("health.json").display().to_string();
        let _ = std::fs::remove_file(&health);
        let out = run(argv(&format!(
            "faults --noc hoplite:8 --channels 3 --fail-stop 1 --packets 40 --health {health}"
        )))
        .unwrap();
        assert!(out.contains("-3x: "), "{out}");
        assert!(out.contains("conservation: exact"), "{out}");
        assert!(out.contains("health: "), "{out}");
        assert!(out.contains(&format!("health json -> {health}")), "{out}");
        let json = std::fs::read_to_string(&health).unwrap();
        assert!(json.contains("\"dropped\":"), "{json}");
    }

    /// SHG and the mesh take a drawn plan too, each the faults it has
    /// links for, and conserve every packet.
    #[test]
    fn faults_run_on_shg_and_mesh() {
        for (cmd, faults) in [
            (
                "faults --noc shg:4:2 --transient-links 2 --fail-stop 1 --down-links 2",
                5,
            ),
            (
                "faults --noc mesh:4:2 --transient-links 2 --fail-stop 1 --stalled-injectors 1",
                4,
            ),
        ] {
            let out = run(argv(&format!("{cmd} --packets 40"))).unwrap();
            assert!(
                out.contains(&format!("fault plan: {faults} faults")),
                "{cmd}: {out}"
            );
            assert!(out.contains("conservation: exact"), "{cmd}: {out}");
        }
    }

    #[test]
    fn faults_empty_plan_is_the_baseline() {
        let out = run(argv("faults --noc hoplite:4 --rate 0.2 --packets 20")).unwrap();
        assert!(out.contains("fault plan: empty"), "{out}");
        assert!(out.contains("throughput 100.0% of baseline"), "{out}");
        assert!(
            out.contains("degraded: 0 packets dropped, 0 rerouted"),
            "{out}"
        );
    }

    #[test]
    fn faults_rejects_bad_window() {
        assert!(matches!(
            run(argv("faults --noc hoplite:4 --window 50:50")),
            Err(CliError::Other(_))
        ));
        assert!(matches!(
            run(argv("faults --noc hoplite:4 --window nonsense")),
            Err(CliError::Other(_))
        ));
    }

    #[test]
    fn sweep_resume_restores_and_matches_golden_csv() {
        let dir = std::env::temp_dir().join("fasttrack_cli_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let golden = dir.join("golden.journal");
        let partial = dir.join("partial.journal");
        let _ = std::fs::remove_file(&golden);
        let base = "sweep --grid hoplite:4,ft:4:2:1;random;0.1,0.5 --packets 25 --seed 9";
        let full = run(argv(&format!("{base} --resume {}", golden.display()))).unwrap();
        assert!(full.starts_with("config,channels,"), "{full}");
        assert_eq!(full.lines().count(), 1 + 4);

        // Kill the run mid-grid: keep the header plus two records, with
        // a torn tail, then resume against the truncated journal.
        let text = std::fs::read_to_string(&golden).unwrap();
        let kept: Vec<&str> = text.lines().take(3).collect();
        std::fs::write(&partial, format!("{}\nok 2 torn", kept.join("\n"))).unwrap();
        let resumed = run(argv(&format!("{base} --resume {}", partial.display()))).unwrap();
        assert_eq!(resumed, full, "resumed CSV must be byte-identical");

        // A different grid is refused outright.
        let other = format!(
            "sweep --grid hoplite:4,ft:4:2:1;random;0.1,0.5 --packets 25 --seed 10 \
             --resume {}",
            partial.display()
        );
        let err = run(argv(&other)).unwrap_err();
        assert!(err.to_string().contains("refusing to resume"), "{err}");

        // Resume output is CSV; a table cannot be reconstructed.
        assert!(matches!(
            run(argv(&format!(
                "{base} --resume {} --out table",
                golden.display()
            ))),
            Err(CliError::Other(_))
        ));
    }

    #[test]
    fn sweep_cycle_budget_turns_slow_points_into_errors() {
        // A 5-cycle budget truncates every point: the CSV is just the
        // header, and each point failed with a typed error (on stderr).
        let out = run(argv(
            "sweep --grid hoplite:4;random;0.5 --packets 50 --cycle-budget 5 --out csv",
        ))
        .unwrap();
        assert_eq!(out.lines().count(), 1, "{out}");
        // With a generous budget the rows come back.
        let ok = run(argv(
            "sweep --grid hoplite:4;random;0.5 --packets 50 --cycle-budget 2000000 \
             --retries 1 --out csv",
        ))
        .unwrap();
        assert_eq!(ok.lines().count(), 2, "{ok}");
        let plain = run(argv(
            "sweep --grid hoplite:4;random;0.5 --packets 50 --out csv",
        ))
        .unwrap();
        assert_eq!(ok, plain, "hardened run must not perturb healthy rows");
    }

    #[test]
    fn help_and_empty_print_usage() {
        assert!(run(vec![]).unwrap().contains("USAGE"));
        assert!(run(argv("help")).unwrap().contains("EXAMPLES"));
    }

    #[test]
    fn profile_emits_span_tree_and_chrome_trace() {
        let dir = std::env::temp_dir().join("fasttrack_cli_profile");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("p").display().to_string();
        // The acceptance workload: an FT(64,2,2) run.
        let out = run(argv(&format!(
            "profile --noc ft:8:2:2 --rate 0.3 --packets 50 --out {prefix}"
        )))
        .unwrap();
        assert!(out.contains("FT(64,2,2)"), "{out}");
        assert!(out.contains("session.drive"), "{out}");
        assert!(out.contains("cycles/s"), "{out}");
        assert!(out.contains("route decisions"), "{out}");
        let chrome = std::fs::read_to_string(format!("{prefix}.chrome.json")).unwrap();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"name\":\"session.drive\""));
        // --json keeps stdout machine-readable.
        let json = run(argv("profile --noc hoplite:4 --packets 20 --json")).unwrap();
        assert!(json.starts_with('{') && json.ends_with('\n'), "{json}");
        assert!(json.contains("\"schema\":\"fasttrack-profile-v1\""));
        assert!(json.contains("\"phases\":["));
    }

    #[test]
    fn profile_defaults_to_the_paper_fabric() {
        let out = run(argv("profile --packets 10")).unwrap();
        assert!(out.contains("FT(64,2,2)"), "{out}");
    }

    /// Under `--json` stdout is one JSON object and a newline: the note
    /// for each file written goes to stderr.
    #[test]
    fn json_output_is_one_object_whatever_files_are_written() {
        let dir = std::env::temp_dir().join("fasttrack_cli_json_notes");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f").display().to_string();
        for (cmd, written) in [
            (
                "attribute --noc ft:4:2:1 --packets 20 --metrics",
                path.clone(),
            ),
            (
                "profile --noc hoplite:4 --packets 20 --out",
                format!("{path}.chrome.json"),
            ),
        ] {
            let _ = std::fs::remove_file(&written);
            let out = run(argv(&format!("{cmd} {path} --json"))).unwrap();
            assert!(out.starts_with('{') && out.ends_with("}\n"), "{cmd}: {out}");
            assert_eq!(out.lines().count(), 1, "{cmd}: {out}");
            assert!(std::path::Path::new(&written).exists(), "{cmd}");
        }
    }

    /// `cost` prices, wires and clocks every fabric from its links: the
    /// SHG's stride-2 wires clock like FT(64,2,1)'s, its stride-4 wires
    /// slower and wider, and the mesh by its router's LUT stages.
    #[test]
    fn cost_runs_on_every_fabric() {
        let cost = |spec: &str, width: u32| {
            run(argv(&format!("cost --noc {spec} --width {width}"))).unwrap()
        };
        let shg2 = cost("shg:8:2", 256);
        assert!(shg2.contains("wire bundles/cut 3"), "{shg2}");
        assert!(shg2.contains("frequency 323 MHz"), "{shg2}");
        assert!(cost("ft:8:2:1", 256).contains("frequency 323 MHz"));
        let shg3 = cost("shg:8:3", 32);
        assert!(shg3.contains("wire bundles/cut 7"), "{shg3}");
        assert!(shg3.contains("frequency 220 MHz"), "{shg3}");
        assert!(cost("shg:8:3", 256).contains("DOES NOT FIT"));
        let mesh = cost("mesh:8:4", 256);
        let mhz: f64 = mesh.split("frequency ").nth(1).unwrap()[..3]
            .parse()
            .unwrap();
        assert!((104.0..=230.0).contains(&mhz), "{mesh}");
    }

    #[test]
    fn sweep_profile_leaves_csv_byte_identical() {
        let base = "sweep --grid hoplite:4;random;0.1,0.5 --packets 25 --seed 9 --out csv";
        let plain = run(argv(base)).unwrap();
        let profiled = run(argv(&format!("{base} --profile"))).unwrap();
        assert_eq!(plain, profiled, "--profile must not perturb the CSV");
    }

    #[test]
    fn monitor_profile_series_ride_the_metrics_exposition() {
        let dir = std::env::temp_dir().join("fasttrack_cli_monitor_profile");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("metrics.prom").display().to_string();
        let out = run(argv(&format!(
            "monitor --noc hoplite:4 --rate 0.1 --packets 20 --snapshot 100000 \
             --profile --metrics {metrics}"
        )))
        .unwrap();
        assert!(out.contains("session.drive"), "{out}");
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("fasttrack_profile_cycles_per_sec"), "{prom}");
        assert!(prom.contains("fasttrack_profile_route_decisions_total"));
        assert!(prom.contains("fasttrack_injected_total"));
    }

    #[test]
    fn faults_profile_appends_phase_summary() {
        let out = run(argv(
            "faults --noc hoplite:4 --rate 0.2 --packets 20 --dead-links 1 \
             --fault-seed 3 --profile",
        ))
        .unwrap();
        assert!(out.contains("session.build.fault_validate"), "{out}");
        assert!(out.contains("conservation: exact"), "{out}");
    }

    #[test]
    fn record_then_replay_verifies_expectation() {
        let dir = std::env::temp_dir().join("fasttrack_cli_record");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("synthetic.trace").display().to_string();
        let out = run(argv(&format!(
            "record --noc ft:4:2:1 --pattern hotspot:60 --rate 0.5 --packets 30 --seed 9 --out {path}"
        )))
        .unwrap();
        assert!(out.contains("recorded"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("fasttrack-scenario-trace v1\n"));
        assert!(text.contains("\"generator\":\"bernoulli:hotspot:60\""));
        let replayed = run(argv(&format!("replay --file {path}"))).unwrap();
        assert!(replayed.contains("expectation verified"), "{replayed}");
    }

    #[test]
    fn record_then_replay_round_trips_on_shg_and_mesh() {
        let dir = std::env::temp_dir().join("fasttrack_cli_record_backends");
        std::fs::create_dir_all(&dir).unwrap();
        for noc in ["shg:4:2", "mesh:4:2"] {
            let file = format!("{}.trace", noc.replace(':', "_"));
            let path = dir.join(file).display().to_string();
            let out = run(argv(&format!(
                "record --noc {noc} --rate 0.3 --packets 30 --seed 4 \
                 --transient-links 2 --fail-stop 1 --out {path}"
            )))
            .unwrap();
            assert!(out.contains("recorded"), "{noc}: {out}");
            let trace = ScenarioTrace::decode(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(trace.header.faults.len(), 3, "{noc}");
            let replayed = run(argv(&format!("replay --file {path}"))).unwrap();
            assert!(
                replayed.contains("expectation verified"),
                "{noc}: {replayed}"
            );
        }
    }

    #[test]
    fn record_faulted_workload_replays_identically() {
        let dir = std::env::temp_dir().join("fasttrack_cli_record_faults");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spmv.trace").display().to_string();
        let out = run(argv(&format!(
            "record --workload spmv --dead-links 2 --fault-seed 5 --out {path}"
        )))
        .unwrap();
        assert!(out.contains("recorded"), "{out}");
        let trace = ScenarioTrace::decode(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(trace.header.faults.len(), 2);
        assert_eq!(trace.header.generator, "spmv");
        let replayed = run(argv(&format!("replay --file {path}"))).unwrap();
        assert!(replayed.contains("expectation verified"), "{replayed}");
    }

    #[test]
    fn replay_rejects_corrupt_and_missing_files() {
        let dir = std::env::temp_dir().join("fasttrack_cli_replay_bad");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            run(argv("replay --file /not/here.trace")),
            Err(CliError::Io(_))
        ));
        let path = dir.join("bad.trace");
        std::fs::write(&path, "not a scenario trace\n").unwrap();
        let err = run(argv(&format!("replay --file {}", path.display()))).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    /// A bank allocates per channel, so a count from outside is held
    /// to `MAX_CHANNELS` wherever it enters: both of these aborted the
    /// process on a 824 TB allocation.
    #[test]
    fn a_huge_channel_count_is_a_typed_error_not_an_abort() {
        for cmd in ["simulate --noc hoplite:4", "storm --noc hoplite:4"] {
            let err = run(argv(&format!("{cmd} --channels 1000000000000"))).unwrap_err();
            assert!(matches!(err, CliError::Other(_)), "{cmd}: {err:?}");
            assert!(err.to_string().contains("16-channel cap"), "{cmd}: {err}");
        }
        // Checksum-valid, so only the header can refuse it.
        let dir = std::env::temp_dir().join("fasttrack_cli_huge_channels");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("huge.trace").display().to_string();
        let text = "fasttrack-scenario-trace v1\n\
                    {\"schema\":2,\"noc\":\"hoplite:4\",\"channels\":1000000000000}\n\
                    m 0 0 5 0\nend 1 95ab5216fec8a82b\n";
        std::fs::write(&path, text).unwrap();
        for cmd in ["replay --file", "attribute --trace", "explain 0 --trace"] {
            let err = run(argv(&format!("{cmd} {path}"))).unwrap_err();
            assert!(err.to_string().contains("bad trace header"), "{cmd}: {err}");
        }
    }

    /// Every engine allocates per router and a side is squared: each of
    /// these aborted the process on a 34 GB allocation.
    #[test]
    fn a_huge_side_is_a_typed_error_not_an_abort() {
        for noc in ["hoplite:65535", "mesh:65535:4", "shg:65535:2"] {
            let cmd = format!("simulate --noc {noc} --rate 0.001 --packets 1");
            let err = run(argv(&cmd)).unwrap_err();
            assert!(matches!(err, CliError::Spec(_)), "{noc}: {err:?}");
            assert!(
                err.to_string().contains("1024-per-side cap"),
                "{noc}: {err}"
            );
        }
    }

    /// The `end <count> <checksum>` line digests the whole body, so
    /// these four lines pin every byte the presets record at seed 7.
    /// Taken from the build before the codec and the recorder handled
    /// records as integers; CI checks the multiproc one on the binary.
    #[test]
    fn preset_recordings_keep_their_pinned_trailers() {
        let dir = std::env::temp_dir().join("fasttrack_cli_pinned_trailers");
        std::fs::create_dir_all(&dir).unwrap();
        // Line 2 is the header, which carries `drained_at` and the
        // realized outcome; the trailer digests the body.
        for (workload, header, trailer) in [
            (
                "spmv",
                r#"{"schema":2,"noc":"ft:4:2:1","channels":1,"max_cycles":2000000,"warmup":0,"generator":"spmv","faults":"","drained_at":0,"expect_delivered":8239,"expect_cycles":2025,"expect_dropped":0,"expect_truncated":false}"#,
                "end 8239 8da21458e508b274",
            ),
            (
                "graph",
                r#"{"schema":2,"noc":"ft:4:2:1","channels":1,"max_cycles":2000000,"warmup":0,"generator":"graph","faults":"","drained_at":0,"expect_delivered":12821,"expect_cycles":6173,"expect_dropped":0,"expect_truncated":false}"#,
                "end 12821 24d7faa6e3657b18",
            ),
            (
                "dataflow",
                r#"{"schema":2,"noc":"ft:4:2:1","channels":1,"max_cycles":5000000,"warmup":0,"generator":"dataflow","faults":"","drained_at":806,"expect_delivered":2460,"expect_cycles":807,"expect_dropped":0,"expect_truncated":false}"#,
                "end 2460 9dc31ecf65444ef7",
            ),
            (
                "multiproc",
                r#"{"schema":2,"noc":"ft:6:2:1","channels":1,"max_cycles":2000000,"warmup":0,"generator":"multiproc:x264","faults":"","drained_at":10463,"expect_delivered":144000,"expect_cycles":20512,"expect_dropped":0,"expect_truncated":false}"#,
                "end 144000 24bb931a5e7872a7",
            ),
        ] {
            let path = dir.join(format!("{workload}.trace")).display().to_string();
            run(argv(&format!(
                "record --workload {workload} --seed 7 --out {path}"
            )))
            .unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(text.lines().nth(1), Some(header), "{workload}");
            assert_eq!(text.lines().last(), Some(trailer), "{workload}");
        }
    }

    #[test]
    fn record_rejects_unknown_workload() {
        let err = run(argv("record --workload lapack --out /tmp/x.trace")).unwrap_err();
        assert!(err.to_string().contains("unknown workload"), "{err}");
    }

    #[test]
    fn storm_end_to_end_reports_both_runs() {
        let out = run(argv(
            "storm --noc ft:4:2:1 --channels 2 --rate 0.3 --packets 60 \
             --kills 20 --duration 1500 --threads 2 --min-delivered 0.0",
        ))
        .unwrap();
        assert!(out.contains("storm: 20 kill(s)/kcycle"), "{out}");
        assert!(out.contains("chains off:"), "{out}");
        assert!(out.contains("SLO: 1/1 point(s) met"), "{out}");
    }

    #[test]
    fn storm_json_writes_slo_report() {
        let path = std::env::temp_dir().join("fasttrack_cli_storm_slo.json");
        let _ = std::fs::remove_file(&path);
        let out = run(argv(&format!(
            "storm --noc ft:4:2:1 --rate 0.3 --packets 60 --kills 20 \
             --duration 1500 --min-delivered 0.0 --json --out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("\"points\":["), "{out}");
        assert!(out.contains("\"chains_off\":["), "{out}");
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, out, "--out must write exactly the --json report");
        assert!(written.contains("\"delivered_fraction\":"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn storm_mixed_grid_runs_non_torus_points_chainless() {
        // A grid containing SHG and mesh points still validates: the
        // torus-only fallback chains are dropped for the whole grid.
        let out = run(argv(
            "storm --grid ft:4:2:1,shg:4:2,mesh:4:2;random;0.3 --packets 40 \
             --kills 20 --duration 1500 --channels 1 --min-delivered 0.0",
        ))
        .unwrap();
        assert!(out.contains("SHG(16,2)"), "{out}");
        assert!(out.contains("Mesh 4x4"), "{out}");
        assert!(out.contains("SLO: 3/3 point(s) met"), "{out}");
    }

    #[test]
    fn storm_gate_exits_nonzero_when_slo_missed() {
        let err = run(argv(
            "storm --noc ft:4:2:1 --rate 0.3 --packets 60 --kills 20 \
             --duration 1500 --max-p99 1",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("availability SLO missed"), "{err}");
    }

    /// A schedule is one `Fault::DownLink` per kill: both of these were
    /// accepted (74 s and 5.5 GB for the first form at a tenth of this
    /// rate; the second wrapped the multiply and never returned).
    #[test]
    fn storm_refuses_a_schedule_above_the_event_cap() {
        for oversized in [
            "--duration 100 --kills 4000000000",
            "--duration 18446744073709551615 --kills 4",
        ] {
            let started = std::time::Instant::now();
            let err = run(argv(&format!(
                "storm --noc ft:4:2:1 --packets 5 {oversized}"
            )))
            .unwrap_err();
            assert!(err.to_string().contains("100000-event cap"), "{err}");
            assert!(started.elapsed().as_secs() < 1, "{oversized}: refused late");
        }
    }

    /// Every transient or down link a `faults` or `record` plan draws is
    /// one fault: these aborted (exit 134) or printed a 5-million-line
    /// plan.
    #[test]
    fn fault_counts_above_the_event_cap_are_refused() {
        for args in [
            "faults --noc ft:8:2:2 --down-links 18446744073709551615",
            "faults --noc ft:8:2:2 --transient-links 18446744073709551615",
            "faults --noc ft:8:2:2 --down-links 5000000",
            "record --workload spmv --out x.trace --transient-links 18446744073709551615",
        ] {
            let err = run(argv(args)).unwrap_err();
            assert!(
                err.to_string().contains("100000-event cap"),
                "{args}: {err}"
            );
        }
        let at_cap = "faults --noc ft:4:2:1 --packets 5 --down-links 100000 --json";
        assert!(run(argv(at_cap)).is_ok());
    }

    #[test]
    fn sweep_rejects_a_bad_out_format_before_running_anything() {
        let sidecar = std::env::temp_dir().join("fasttrack_cli_bad_out_health.json");
        let _ = std::fs::remove_file(&sidecar);
        let err = run(argv(&format!(
            "sweep --grid hoplite:4;random;0.1 --out json --health {}",
            sidecar.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("unknown --out format"), "{err}");
        assert!(!sidecar.exists(), "the sweep ran before --out was checked");
    }

    #[test]
    fn faults_json_reports_conservation_and_fallback_counters() {
        let out = run(argv(
            "faults --noc ftlite:8:4:1 --rate 0.5 --packets 100 \
             --dead-links 4 --down-links 2 --json",
        ))
        .unwrap();
        assert!(out.starts_with('{') && out.ends_with("}\n"), "{out}");
        assert!(out.contains("\"conserved\":true"), "{out}");
        assert!(out.contains("\"fallback_demotions\":"), "{out}");
        assert!(out.contains("\"baseline\":"), "{out}");
    }

    #[test]
    fn fuzz_smoke_runs_clean_and_writes_no_bug_traces() {
        let dir = std::env::temp_dir().join("fasttrack_cli_fuzz");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run(argv(&format!(
            "fuzz --iters 20 --seed 11 --threads 2 --out {}",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("20 scenarios"), "{out}");
        assert!(
            out.contains("no bug-class") || out.contains("ran clean"),
            "{out}"
        );
        // Every archived trace decodes and replays through the library.
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let text = std::fs::read_to_string(entry.path()).unwrap();
            let trace = ScenarioTrace::decode(&text).unwrap();
            assert!(trace.header.noc_config().is_ok());
        }
    }

    #[test]
    fn attribute_synthetic_reports_exact_accounting() {
        let out = run(argv(
            "attribute --noc ft:4:2:1 --pattern random --rate 0.8 --packets 40 --seed 3",
        ))
        .unwrap();
        assert!(out.contains("where the cycles went"), "{out}");
        assert!(out.contains("queue-wait"), "{out}");
        assert!(out.contains("express traffic fraction"), "{out}");
        assert!(out.contains("route decisions [ok]"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
    }

    #[test]
    fn attribute_json_and_metrics_outputs() {
        let dir = std::env::temp_dir().join("fasttrack_cli_attribute");
        std::fs::create_dir_all(&dir).unwrap();
        let prom = dir.join("attrib.prom");
        let out = run(argv(&format!(
            "attribute --noc hoplite:4 --rate 0.5 --packets 30 --seed 5 --json --metrics {}",
            prom.display()
        )))
        .unwrap();
        assert!(
            out.contains("\"schema\":\"fasttrack-attribution-v1\""),
            "{out}"
        );
        let exposition = std::fs::read_to_string(&prom).unwrap();
        assert!(
            exposition.contains("fasttrack_attrib_packets_total"),
            "{exposition}"
        );
        assert!(
            exposition.contains("fasttrack_attrib_queue_wait_cycles{quantile=\"0.99\"}"),
            "{exposition}"
        );
        // Hoplite has no express wires: every transit cycle is ring-class.
        assert!(
            exposition.contains("fasttrack_attrib_express_cycles_total 0"),
            "{exposition}"
        );
    }

    #[test]
    fn attribute_and_explain_round_trip_a_recorded_trace() {
        let dir = std::env::temp_dir().join("fasttrack_cli_attribute_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("run.trace");
        run(argv(&format!(
            "record --noc ft:4:2:1 --pattern transpose --rate 0.6 --packets 25 --seed 8 --out {}",
            trace.display()
        )))
        .unwrap();
        let out = run(argv(&format!("attribute --trace {}", trace.display()))).unwrap();
        assert!(out.contains("route decisions [ok]"), "{out}");
        let explained = run(argv(&format!("explain 0 --trace {}", trace.display()))).unwrap();
        assert!(explained.contains("journey:"), "{explained}");
        assert!(explained.contains("inject ->"), "{explained}");
        assert!(explained.contains("flight recorder @"), "{explained}");
        // Packet 0's accounting is exact, or the packet never delivered —
        // either way the journey is rendered without a mismatch.
        assert!(!explained.contains("MISMATCH"), "{explained}");
    }

    #[test]
    fn explain_argument_errors() {
        let err = run(argv("explain")).unwrap_err();
        assert!(err.to_string().contains("packet id"), "{err}");
        let err = run(argv("explain banana --noc ft:4:2:1")).unwrap_err();
        assert!(err.to_string().contains("must be a number"), "{err}");
        let err = run(argv("explain 999999 --noc ft:4:2:1 --packets 5 --seed 1")).unwrap_err();
        assert!(err.to_string().contains("never appeared"), "{err}");
        let err = run(argv("explain 0")).unwrap_err();
        assert!(err.to_string().contains("--trace <path> or --noc"), "{err}");
    }

    #[test]
    fn figure_prints_tables_and_executed_checks() {
        let out = run(argv("figure table2")).unwrap();
        // The Table II row the fpga crate's doctest pins (104 064 LUTs).
        assert!(out.contains("FT(64,2,1)   104K  150K"), "{out}");
        assert!(
            out.contains("\u{2705} LUT and FF counts match Table II"),
            "{out}"
        );
        // Analytic figures with --out: one CSV per table, no report file.
        let dir = std::env::temp_dir().join("fasttrack_cli_figure_out");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run(argv(&format!(
            "figure table1 fig10 --out {}",
            dir.display()
        )))
        .unwrap();
        for slug in [
            "table1_router_costs",
            "table1_model_costs",
            "fig10_routability",
        ] {
            let csv = std::fs::read_to_string(dir.join(format!("{slug}.csv"))).unwrap();
            assert!(csv.lines().count() > 1, "{slug}");
            assert!(out.contains(&format!("{slug}.csv")), "{out}");
        }
        assert!(!dir.join("EXPERIMENTS.md").exists());
        assert!(out.contains("\u{26a0} Fig 10 plots"), "{out}");
    }

    #[test]
    fn figure_argument_and_io_errors_are_typed() {
        let err = run(argv("figure nosuch")).unwrap_err();
        assert!(matches!(err, CliError::Other(_)), "{err:?}");
        let text = err.to_string();
        assert!(text.contains("unknown figure \"nosuch\""), "{text}");
        for fig in catalog() {
            assert!(text.contains(fig.id), "{text} lacks {}", fig.id);
        }
        // Neither ids nor --all, or both.
        assert!(run(argv("figure"))
            .unwrap_err()
            .to_string()
            .contains("ids:"));
        assert!(matches!(
            run(argv("figure table1 --all")),
            Err(CliError::Other(_))
        ));
        // The old knobs are not flags.
        for flag in ["--list", "--quick", "--seed", "--threads"] {
            assert!(matches!(
                run(argv(&format!("figure table1 {flag}"))),
                Err(CliError::Args(ArgError::UnknownFlag(_)))
            ));
        }
        // An unwritable --out is an I/O error, not a dropped write.
        let file = std::env::temp_dir().join("fasttrack_cli_figure_not_a_dir");
        std::fs::write(&file, "x").unwrap();
        let err = run(argv(&format!("figure table1 --out {}", file.display()))).unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err:?}");
    }

    #[test]
    fn sweep_attribution_sidecar_keeps_rows_identical() {
        let dir = std::env::temp_dir().join("fasttrack_cli_sweep_attrib");
        std::fs::create_dir_all(&dir).unwrap();
        let sidecar = dir.join("attrib.csv");
        let plain = run(argv(
            "sweep --grid hoplite:4,ft:4:2:1;random;0.5 --packets 60 --seed 4 --out csv",
        ))
        .unwrap();
        let with = run(argv(&format!(
            "sweep --grid hoplite:4,ft:4:2:1;random;0.5 --packets 60 --seed 4 --out csv --attribution {}",
            sidecar.display()
        )))
        .unwrap();
        assert_eq!(plain, with, "sweep CSV must not change with --attribution");
        let csv = std::fs::read_to_string(&sidecar).unwrap();
        let mut lines = csv.lines();
        assert!(
            lines.next().unwrap().starts_with("index,config,pattern"),
            "{csv}"
        );
        assert_eq!(lines.count(), 2, "one sidecar row per sweep point: {csv}");
        assert!(!csv.contains(",false"), "all points reconcile: {csv}");
    }

    #[test]
    fn sweep_observers_and_hardening_compose() {
        let dir = std::env::temp_dir().join("fasttrack_cli_sweep_compose");
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str| dir.join(name).display().to_string();
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
        // Point 0 cannot finish inside a 2000-cycle budget; point 1 can.
        let base = "sweep --grid hoplite:4;random;0.004,0.5 --packets 25 --seed 5 --out csv";
        let plain = run(argv(base)).unwrap();
        let (h, a) = (file("h.json"), file("a.csv"));
        let solo_health = run(argv(&format!("{base} --health {h}"))).unwrap();
        let solo_health_json = read("h.json");
        let solo_attribution = run(argv(&format!("{base} --attribution {a}"))).unwrap();
        let solo_attribution_csv = read("a.csv");
        assert_eq!((&solo_health, &solo_attribution), (&plain, &plain));

        // Both observers on one run: each sidecar equals its solo run's.
        let both = run(argv(&format!(
            "{base} --threads 2 --health {h} --attribution {a} --profile"
        )))
        .unwrap();
        assert_eq!(both, plain, "observers and timing must not perturb the CSV");
        assert_eq!(read("h.json"), solo_health_json);
        assert_eq!(read("a.csv"), solo_attribution_csv);

        // Hardened: the CSV is the hardened run's, and each sidecar holds
        // exactly the surviving point, as the solo run wrote it.
        let hardening = "--retries 1 --cycle-budget 2000";
        let hardened = run(argv(&format!("{base} {hardening}"))).unwrap();
        assert_eq!(hardened.lines().count(), 2, "{hardened}");
        assert_eq!(hardened.lines().nth(1), plain.lines().nth(2));
        let observed = run(argv(&format!(
            "{base} {hardening} --health {h} --attribution {a} --profile"
        )))
        .unwrap();
        assert_eq!(observed, hardened);
        let health = read("h.json");
        assert!(health.contains("\"index\":1,") && !health.contains("\"index\":0,"));
        assert!(
            solo_health_json.ends_with(&format!(",{}", &health[1..])),
            "{health}"
        );
        let attribution = read("a.csv");
        let solo: Vec<&str> = solo_attribution_csv.lines().collect();
        assert_eq!(attribution.lines().collect::<Vec<_>>(), [solo[0], solo[2]]);

        // A journal composes with timing, not with sidecars.
        let journal = dir.join("j.journal");
        let _ = std::fs::remove_file(&journal);
        let resume = format!("{base} --resume {}", journal.display());
        assert_eq!(run(argv(&format!("{resume} --profile"))).unwrap(), plain);
        let err = run(argv(&format!("{resume} --attribution {a}"))).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
    }

    /// Each float flag is range-checked like `--rate`: NaN, infinities and
    /// values outside the range are typed errors, not a silent verdict.
    #[test]
    fn float_flags_out_of_range_are_typed_errors() {
        let storm = "storm --noc ft:4:2:1 --packets 2";
        let monitor = "monitor --noc hoplite:4 --packets 2";
        for (cmd, flag, range, bad, good) in [
            (
                storm,
                "min-delivered",
                "[0,1]",
                &["-1", "1.01", "nan", "inf"][..],
                "0",
            ),
            (
                monitor,
                "hotspot-watermark",
                "(0,1]",
                &["-1", "0", "2", "nan", "inf"],
                "1",
            ),
            (
                monitor,
                "livelock-multiple",
                "(0,inf)",
                &["-1", "0", "nan", "inf"],
                "0.5",
            ),
        ] {
            for value in bad {
                let err = run(argv(&format!("{cmd} --{flag} {value}"))).unwrap_err();
                assert!(
                    matches!(err, CliError::Other(_)),
                    "--{flag} {value}: {err:?}"
                );
                let text = err.to_string();
                assert!(text.contains(&format!("--{flag}")), "{text}");
                assert!(text.contains(&format!("out of {range}")), "{text}");
            }
            run(argv(&format!("{cmd} --{flag} {good}"))).unwrap();
        }
    }
}
