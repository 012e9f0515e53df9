//! The traced run of one workload (`--trace 1`): the per-layer numbers.
//!
//! Every job is rebuilt at library level from [`crate::plan`] and driven
//! through the real `SimSession::run` with a [`TimedSource`] wrapped
//! round the traffic source, so spans are recorded from the benchmark's
//! own files with no change to the product. Three kinds of slot run
//! round-robin, like the end-to-end jobs:
//!
//! * *traced* job mirrors record the span tree (kept from each job's
//!   fastest pass) and the deterministic work counts;
//! * *untraced* job mirrors run the same code without clock reads, which
//!   gives the tracing overhead;
//! * *probes* price single layers by differentials (a session with and
//!   without an observer, a grid at 1 and `nproc` threads, engines built
//!   with and without their fault plan, ...).
//!
//! A one-off *census* pass first runs every session with a counting sink
//! teed in (event volume, busy router visits) and checks that each
//! mirrored session reproduces the counts its CLI job printed.

use std::collections::BTreeMap;
use std::time::Instant;

use fasttrack_bench::fuzz::{fuzz, FuzzConfig};
use fasttrack_bench::runner::{sweep_csv, topology_of, SweepGrid, SweepRow};
use fasttrack_cli::spec::parse_topology;
use fasttrack_core::fault::Fault;
use fasttrack_core::kernel::RouteLut;
use fasttrack_core::monitor::MonitorConfig;
use fasttrack_core::profile::EventCounter;
use fasttrack_core::sim::{SimOptions, SimOutcome, SimReport, TrafficSource};
use fasttrack_core::sweep::point_seed;
use fasttrack_core::topology::{ShgTopology, TopoRouteLut, TopologySpec};
use fasttrack_core::trace::{EventSink, NullSink, SimEvent};
use fasttrack_traffic::pattern::Pattern;
use fasttrack_traffic::scenario::{Expectation, RecordingSource, ScenarioHeader};
use fasttrack_traffic::source::BernoulliSource;

use crate::checks::{parse_output, SimCounts, Tally};
use crate::endtoend::{run_job, Outcome, RunOptions};
use crate::env;
use crate::estimator::{median, round_robin, timed, Samples};
use crate::json::Json;
use crate::plan::{
    parse_specs, replay_plan, sessions, spec_count, sweep_grid, Observer, SessionPlan, TimedSource,
    Traffic,
};
use crate::span::SpanTree;
use crate::workloads::{Ctx, Job, Preset, Workload};

/// `fuzz`'s per-scenario cycle budget default.
const FUZZ_MAX_CYCLES: u64 = 30_000;
/// LUT builds take microseconds; each probe sample repeats them.
const LUT_REPEATS: u32 = 10;
/// So do one-packet grid points.
const OVERHEAD_REPEATS: u32 = 5;

/// Deterministic work of the sessions that stepped one engine layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LayerWork {
    sessions: u64,
    router_cycles: u64,
    route_decisions: u64,
    deflections: u64,
    pool_reuse: u64,
    injected: u64,
}

/// Deterministic counts of one job mirror (or, summed, of a workload).
#[derive(Debug, Clone, Default, PartialEq)]
struct Counters {
    layers: BTreeMap<&'static str, LayerWork>,
    pumps: u64,
    pushed: u64,
    timed_deliveries: u64,
    rerouted: u64,
    dropped: u64,
    demotions: u64,
    channel_switches: u64,
    fault_epochs: u64,
    parses: u64,
    csv_bytes: u64,
    encoded_bytes: u64,
    decoded_bytes: u64,
    fpga_configs: u64,
    fuzz_iters: u64,
    fuzz_failing: u64,
    fuzz_bug_classes: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        for (k, w) in &o.layers {
            let e = self.layers.entry(k).or_default();
            e.sessions += w.sessions;
            e.router_cycles += w.router_cycles;
            e.route_decisions += w.route_decisions;
            e.deflections += w.deflections;
            e.pool_reuse += w.pool_reuse;
            e.injected += w.injected;
        }
        self.pumps += o.pumps;
        self.pushed += o.pushed;
        self.timed_deliveries += o.timed_deliveries;
        self.rerouted += o.rerouted;
        self.dropped += o.dropped;
        self.demotions += o.demotions;
        self.channel_switches += o.channel_switches;
        self.fault_epochs += o.fault_epochs;
        self.parses += o.parses;
        self.csv_bytes += o.csv_bytes;
        self.encoded_bytes += o.encoded_bytes;
        self.decoded_bytes += o.decoded_bytes;
        self.fpga_configs += o.fpga_configs;
        self.fuzz_iters += o.fuzz_iters;
        self.fuzz_failing += o.fuzz_failing;
        self.fuzz_bug_classes += o.fuzz_bug_classes;
    }

    fn session(&mut self, plan: &SessionPlan, report: &SimReport) {
        let s = &report.stats;
        let w = self.layers.entry(plan.engine_layer()).or_default();
        w.sessions += 1;
        w.router_cycles += report.cycles * plan.routers();
        w.route_decisions += s.route_decisions;
        w.deflections += s.ports.total_deflections();
        w.pool_reuse += s.pool_reuse;
        w.injected += s.injected;
        self.rerouted += s.rerouted;
        self.dropped += s.dropped;
        self.demotions += s.fallback_demotions;
        self.channel_switches += s.fallback_channel_switches;
        self.fault_epochs += fault_epochs(plan);
    }

    fn router_cycles(&self) -> u64 {
        self.layers.values().map(|w| w.router_cycles).sum()
    }

    fn sessions(&self) -> u64 {
        self.layers.values().map(|w| w.sessions).sum()
    }
}

/// Epoch boundaries at which the engine re-patches its dead-link table:
/// the distinct ends of the plan's down-link windows.
fn fault_epochs(plan: &SessionPlan) -> u64 {
    let mut bounds: Vec<u64> = plan
        .faults
        .iter()
        .flat_map(|p| p.faults())
        .filter_map(|f| match *f {
            Fault::DownLink { from, until, .. } => Some([from, until]),
            _ => None,
        })
        .flatten()
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    bounds.len() as u64
}

/// Records one job's spans against one clock.
struct Recorder {
    tree: SpanTree,
    epoch: Instant,
    job: String,
}

impl Recorder {
    fn new(job: &str) -> Self {
        Recorder {
            tree: SpanTree::default(),
            epoch: Instant::now(),
            job: job.to_string(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; its end stays open until [`Recorder::close`].
    fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.at(Instant::now());
        self.tree.add(name, &self.job, parent, now, u64::MAX, 1)
    }

    fn close(&mut self, id: usize) {
        self.tree.spans[id].end_ns = self.at(Instant::now());
    }
}

/// How a job mirror is run: with spans and clock reads, or bare.
enum Mode<'r> {
    Traced(&'r mut Recorder),
    Untraced,
}

impl Mode<'_> {
    /// Runs `f` inside a span called `name` (or just runs it).
    fn span<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        match self {
            Mode::Traced(rec) => {
                let id = rec.open(name, parent);
                let out = f();
                rec.close(id);
                rec.tree.spans[id].count = calls;
                out
            }
            Mode::Untraced => f(),
        }
    }
}

/// What one pass over a job mirror produced.
#[derive(Default)]
struct Mirror {
    counters: Counters,
    /// Seconds inside `SimSession::run` calls, measured in untraced mode
    /// only (one pair of clock reads per session).
    sessions_secs: f64,
}

/// Drives one planned session. Traced: wraps the source in a
/// [`TimedSource`] and records `session > {build, drive > {pump, step,
/// on_delivery}, collect}`. Returns the outcome and the source.
fn drive_session<S: TrafficSource>(
    mode: &mut Mode,
    parent: Option<usize>,
    plan: &SessionPlan,
    source: S,
    mirror: &mut Mirror,
) -> Result<(SimOutcome, S), String> {
    let counters = &mut mirror.counters;
    let Mode::Traced(rec) = mode else {
        let mut source = source;
        let (outcome, secs) = timed(|| plan.run(plan.observer, &mut source));
        let outcome = outcome?;
        mirror.sessions_secs += secs;
        counters.session(plan, &outcome.report);
        return Ok((outcome, source));
    };
    // `on_delivery` does work only in the closed-loop preset sources.
    let time_deliveries = matches!(plan.traffic, Traffic::Preset { .. });
    let mut source = TimedSource::new(source, time_deliveries);
    let sid = rec.open("core.sim.session", parent);
    let outcome = plan.run(plan.observer, &mut source)?;
    rec.close(sid);
    counters.session(plan, &outcome.report);

    let t = source.times();
    counters.pumps += t.pumps;
    counters.pushed += t.pushed;
    if time_deliveries {
        counters.timed_deliveries += t.deliveries;
    }
    if let Some((first, last)) = source.drive_window() {
        let (start, end) = (rec.tree.spans[sid].start_ns, rec.tree.spans[sid].end_ns);
        let (first, last) = (rec.at(first), rec.at(last));
        let job = rec.job.clone();
        rec.tree
            .add("core.sim.build", &job, Some(sid), start, first, 1);
        let drive = rec
            .tree
            .add("core.sim.drive", &job, Some(sid), first, last, 1);
        let step = format!("{}.step", plan.engine_layer());
        rec.tree.add_aggregated(
            &job,
            drive,
            &[
                ("traffic.source.pump", t.pump_ns, t.pumps),
                (&step, t.step_ns, t.pumps),
                ("traffic.source.on_delivery", t.on_delivery_ns, t.deliveries),
            ],
        );
        rec.tree
            .add("core.sim.collect", &job, Some(sid), last, end, 1);
    }
    Ok((outcome, source.into_inner()))
}

fn sweep_row(plan: &SessionPlan, report: SimReport) -> SweepRow {
    let Traffic::Bernoulli {
        pattern,
        rate,
        seed,
        ..
    } = plan.traffic
    else {
        unreachable!("sweep points are synthetic")
    };
    SweepRow {
        label: plan.topology.display_name(),
        channels: plan.channels.unwrap_or(1),
        pattern,
        rate,
        seed,
        report,
    }
}

/// Rebuilds `job` at library level, the way its CLI command does.
fn mirror_job(job: &Job, ctx: &Ctx, mode: &mut Mode) -> Result<Mirror, String> {
    let mut mirror = Mirror::default();
    let root = match mode {
        Mode::Traced(rec) => Some(rec.open("job", None)),
        Mode::Untraced => None,
    };
    // Spec parsing, as the command does it before anything else. The
    // plans re-parse (they must be self-contained for the set-up pass);
    // this span prices the parse alone.
    let specs = spec_count(job);
    mode.span("cli.spec.parse", root, specs, || parse_specs(job))?;
    mirror.counters.parses += specs;

    match *job {
        Job::Sweep { .. } => {
            let plans = mode.span("bench.runner.grid_build", root, 1, || sessions(job, ctx))?;
            let mut rows = Vec::with_capacity(plans.len());
            for plan in &plans {
                let (outcome, _) = drive_session(mode, root, plan, plan.source(), &mut mirror)?;
                rows.push(sweep_row(plan, outcome.report));
            }
            // (The health / attribution sidecars are not re-formatted.)
            let csv = mode.span("bench.runner.csv_format", root, 1, || sweep_csv(&rows));
            mirror.counters.csv_bytes += csv.len() as u64;
        }
        Job::Compare { topologies, .. } => {
            for (plan, spec) in sessions(job, ctx)?.iter().zip(topologies.split(',')) {
                let spec = parse_topology(spec).map_err(|e| e.to_string())?;
                mode.span("fpga.cost", root, 1, || {
                    std::hint::black_box(topology_of(&spec).resource_cost());
                });
                mirror.counters.fpga_configs += 1;
                drive_session(mode, root, plan, plan.source(), &mut mirror)?;
            }
        }
        Job::Simulate { .. } | Job::Storm { .. } | Job::Faults { .. } | Job::Monitor { .. } => {
            for plan in &sessions(job, ctx)? {
                drive_session(mode, root, plan, plan.source(), &mut mirror)?;
            }
        }
        Job::Record { preset } => {
            let plan = sessions(job, ctx)?
                .pop()
                .expect("one session per record job");
            let gen = format!("traffic.gen.{}", preset.name());
            let inner = mode.span(&gen, root, 1, || plan.source());
            let recording = RecordingSource::new(plan.side(), inner);
            let (outcome, recording) = drive_session(mode, root, &plan, recording, &mut mirror)?;
            let report = outcome.report;
            let path = ctx.tmp_file(&format!("mirror.{}.trace", preset.name()));
            let text = mode.span("traffic.scenario.encode", root, 1, || {
                let mut header = ScenarioHeader::new(preset.default_noc(), preset.name());
                header.max_cycles = plan.max_cycles;
                header.expect = Some(Expectation {
                    delivered: report.stats.delivered,
                    cycles: report.cycles,
                    dropped: report.stats.dropped,
                    truncated: report.truncated,
                });
                recording.into_trace(header).encode()
            });
            mirror.counters.encoded_bytes += text.len() as u64;
            mode.span("io.write", root, 1, || std::fs::write(&path, &text))
                .map_err(|e| format!("{path}: {e}"))?;
        }
        Job::Replay { trace } => {
            let path = ctx.trace_path(trace);
            let text = mode
                .span("io.read", root, 1, || std::fs::read_to_string(&path))
                .map_err(|e| format!("{path}: {e}"))?;
            mirror.counters.decoded_bytes += text.len() as u64;
            let plan = mode
                .span("traffic.scenario.decode", root, 1, || replay_plan(&text))
                .map_err(|e| format!("{path}: {e}"))?;
            drive_session(mode, root, &plan, plan.source(), &mut mirror)?;
        }
        Job::Fuzz { iters } => {
            let cfg = fuzz_config(ctx, ctx.scale(iters));
            let outcome = mode.span("bench.fuzz.run", root, cfg.iters, || fuzz(&cfg));
            let c = &mut mirror.counters;
            c.fuzz_iters += outcome.iters;
            c.fuzz_failing += outcome.failing_iters;
            c.fuzz_bug_classes +=
                outcome.failures.iter().filter(|f| f.class.is_bug()).count() as u64;
        }
    }
    if let (Mode::Traced(rec), Some(root)) = (mode, root) {
        rec.close(root);
    }
    Ok(mirror)
}

fn fuzz_config(ctx: &Ctx, iters: u64) -> FuzzConfig {
    FuzzConfig {
        iters,
        seed: Job::Fuzz { iters }.seed(ctx),
        threads: 1,
        max_cycles: FUZZ_MAX_CYCLES,
    }
}

/// Counts events by what they mean for the per-layer ratios. A router
/// visit is *busy* when the router decided or injected something that
/// cycle; `(channel, node)` identifies a router in a bank.
#[derive(Debug, Default)]
struct CountingSink {
    events: u64,
    busy_visits: u64,
    channel: usize,
    /// Per `(channel, node)`: last busy cycle, plus one.
    last_busy: Vec<Vec<u64>>,
}

impl EventSink for CountingSink {
    fn emit(&mut self, event: &SimEvent) {
        self.events += 1;
        let (cycle, node) = match *event {
            SimEvent::RouteDecision { cycle, node, .. } | SimEvent::Inject { cycle, node, .. } => {
                (cycle, node)
            }
            _ => return,
        };
        if self.last_busy.len() <= self.channel {
            self.last_busy.resize(self.channel + 1, Vec::new());
        }
        let seen = &mut self.last_busy[self.channel];
        if seen.len() <= node {
            seen.resize(node + 1, 0);
        }
        if seen[node] != cycle + 1 {
            seen[node] = cycle + 1;
            self.busy_visits += 1;
        }
    }

    fn set_channel(&mut self, channel: usize) {
        self.channel = channel;
    }
}

/// Event volume of the sessions that stepped one engine layer.
#[derive(Debug, Clone, Copy, Default)]
struct LayerEvents {
    events: u64,
    busy_visits: u64,
}

/// The one-off counting pass: every session with a [`CountingSink`]
/// teed in, each checked against what its CLI job printed.
struct Census {
    events: BTreeMap<&'static str, LayerEvents>,
    /// `(plan, report)` of every session, by job.
    sessions: Vec<Vec<(SessionPlan, SimReport)>>,
    /// Scenario indices at which `fuzz` first hit each failure class.
    fuzz_failure_indices: Vec<u64>,
}

fn census(
    workload: &Workload,
    ctx: &Ctx,
    printed: &[Vec<SimCounts>],
    tally: &mut Tally,
) -> Result<Census, String> {
    let mut out = Census {
        events: BTreeMap::new(),
        sessions: Vec::new(),
        fuzz_failure_indices: Vec::new(),
    };
    for ((label, job), printed) in workload.jobs.iter().zip(printed) {
        let mut done = Vec::new();
        for plan in sessions(job, ctx).map_err(|e| format!("{label}: {e}"))? {
            let mut sink = CountingSink::default();
            let report = plan
                .run_with(plan.observer, &mut plan.source(), &mut sink)
                .map_err(|e| format!("{label}: {e}"))?
                .report;
            tally.check(report.conserved(), || {
                format!("{label}: mirrored session breaks conservation")
            });
            let e = out.events.entry(plan.engine_layer()).or_default();
            e.events += sink.events;
            e.busy_visits += sink.busy_visits;
            done.push((plan, report));
        }
        if let Job::Fuzz { iters } = *job {
            let outcome = fuzz(&fuzz_config(ctx, ctx.scale(iters)));
            tally.check(!outcome.found_bug(), || {
                format!("{label}: fuzz found a bug-class failure")
            });
            out.fuzz_failure_indices = outcome.failures.iter().map(|f| f.index).collect();
        }
        // The mirror must reproduce what the job printed, session by
        // session (jobs that print no per-run counts are skipped).
        if printed.len() == done.len() {
            for (i, (p, (_, r))) in printed.iter().zip(&done).enumerate() {
                let same = p.delivered == r.stats.delivered
                    && p.cycles.is_none_or(|c| c == r.cycles)
                    && p.injected.is_none_or(|n| n == r.stats.injected);
                tally.check(same, || {
                    format!(
                        "{label}: mirrored session {i} delivered {} in {} cycles, the job printed {} in {:?}",
                        r.stats.delivered, r.cycles, p.delivered, p.cycles
                    )
                });
            }
        } else {
            tally.check(printed.is_empty(), || {
                format!(
                    "{label}: job printed {} runs, its mirror has {} sessions",
                    printed.len(),
                    done.len()
                )
            });
        }
        out.sessions.push(done);
    }
    Ok(out)
}

/// The ways the observer probe runs its one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Watch {
    Bare,
    Counter,
    Monitor,
    Recorder,
    Attribution,
}

/// One round-robin slot of the traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Traced(usize),
    Untraced(usize),
    /// The probe grid through `SweepGrid::run` at this many threads.
    Grid(usize),
    /// The runner's fixed cost per point, on the probe grid cut to one
    /// packet per PE so that sessions are nearly empty: the whole
    /// `SweepGrid::run(1)`, or only the `NocUnderTest::run` calls in it.
    GridOverhead {
        sessions_only: bool,
    },
    Watch(Watch),
    TorusLuts,
    ShgLuts,
    /// Set-up of the fault-carrying sessions, with or without the plan.
    FaultSetUp {
        with_faults: bool,
    },
    /// The fault probe session unobserved, with or without its plan.
    FaultedRun {
        with_faults: bool,
    },
    /// The record jobs' sessions without the `RecordingSource` wrapper.
    BarePresets,
    /// `fuzz` over the first `iters` scenarios.
    FuzzPrefix(u64),
}

/// Everything the slots need that does not change between passes.
struct Probes {
    /// The sweep job whose grid the `core.sweep` / `point_overhead`
    /// probes run: the one that offers the most packets.
    grid_job: Option<usize>,
    /// The session the observer differentials run (first monitored
    /// session of the workload).
    watched: Option<SessionPlan>,
    torus: Vec<fasttrack_core::config::NocConfig>,
    shg: Vec<fasttrack_core::topology::ShgConfig>,
    faulted: Vec<SessionPlan>,
    /// The session the faulted-vs-healthy step ratio runs: the first
    /// synthetic single-channel torus session that carries faults.
    fault_probe: Option<SessionPlan>,
    presets: Vec<SessionPlan>,
}

impl Probes {
    /// The probe grid, at the job's packet quota or an explicit one.
    fn grid(
        &self,
        workload: &Workload,
        ctx: &Ctx,
        packets: Option<u64>,
    ) -> Result<SweepGrid, String> {
        let job = &workload.jobs[self.grid_job.expect("grid slots need a probe grid")].1;
        let Job::Sweep {
            grid,
            packets: quota,
            ..
        } = *job
        else {
            unreachable!("the probe grid is a sweep job")
        };
        sweep_grid(
            grid,
            packets.unwrap_or_else(|| ctx.scale(quota)),
            job.seed(ctx),
        )
    }
}

fn probes(workload: &Workload, census: &Census) -> Probes {
    let plans = || census.sessions.iter().flatten().map(|(p, _)| p);
    // Offered packets: a static stand-in for "the slowest sweep", so the
    // choice cannot flip between runs.
    let offered = |j: usize| -> u64 {
        census.sessions[j]
            .iter()
            .map(|(p, _)| match p.traffic {
                Traffic::Bernoulli { packets, .. } => packets * p.nodes() as u64,
                _ => 0,
            })
            .sum()
    };
    let grid_job = (0..workload.jobs.len())
        .filter(|&j| matches!(workload.jobs[j].1, Job::Sweep { .. }))
        .max_by_key(|&j| offered(j));
    let watched = plans()
        .find(|p| matches!(p.observer, Observer::Monitor(_)))
        .or_else(|| plans().find(|p| p.observer != Observer::None))
        .cloned();
    let mut torus = Vec::new();
    let mut shg = Vec::new();
    for p in plans() {
        match &p.topology {
            TopologySpec::Torus(cfg) if !torus.contains(cfg) => torus.push(cfg.clone()),
            TopologySpec::Shg(cfg) if !shg.contains(cfg) => shg.push(*cfg),
            _ => {}
        }
    }
    let faulted: Vec<SessionPlan> = plans()
        .filter(|p| p.faults.as_ref().is_some_and(|f| !f.is_empty()))
        .cloned()
        .collect();
    Probes {
        grid_job,
        watched,
        torus,
        shg,
        fault_probe: faulted
            .iter()
            .find(|p| {
                p.channels.is_none()
                    && matches!(p.topology, TopologySpec::Torus(_))
                    && matches!(p.traffic, Traffic::Bernoulli { .. })
            })
            .cloned(),
        faulted,
        presets: plans()
            .filter(|p| matches!(p.traffic, Traffic::Preset { .. }))
            .cloned()
            .collect(),
    }
}

fn slots(workload: &Workload, probes: &Probes, census: &Census) -> Vec<Slot> {
    let n = workload.jobs.len();
    // A job's traced and untraced mirrors run back to back, so both see
    // the same phase of the host.
    let mut s: Vec<Slot> = (0..n)
        .flat_map(|j| [Slot::Traced(j), Slot::Untraced(j)])
        .collect();
    if probes.grid_job.is_some() {
        s.push(Slot::Grid(1));
        s.push(Slot::Grid(env::sweep_threads()));
        s.push(Slot::GridOverhead {
            sessions_only: false,
        });
        s.push(Slot::GridOverhead {
            sessions_only: true,
        });
    }
    if probes.watched.is_some() {
        s.extend(
            [
                Watch::Bare,
                Watch::Counter,
                Watch::Monitor,
                Watch::Recorder,
                Watch::Attribution,
            ]
            .map(Slot::Watch),
        );
    }
    if !probes.torus.is_empty() {
        s.push(Slot::TorusLuts);
    }
    if !probes.shg.is_empty() {
        s.push(Slot::ShgLuts);
    }
    if !probes.faulted.is_empty() {
        s.push(Slot::FaultSetUp { with_faults: true });
        s.push(Slot::FaultSetUp { with_faults: false });
    }
    if probes.fault_probe.is_some() {
        s.push(Slot::FaultedRun { with_faults: true });
        s.push(Slot::FaultedRun { with_faults: false });
    }
    if !probes.presets.is_empty() {
        s.push(Slot::BarePresets);
    }
    // T(i+1) - T(i) around each first-failure index i is that class's
    // minimisation (plus one scenario's scan): see README.
    let mut prefixes: Vec<u64> = census
        .fuzz_failure_indices
        .iter()
        .flat_map(|&i| [i, i + 1])
        .collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    s.extend(prefixes.into_iter().map(Slot::FuzzPrefix));
    s
}

/// What the fastest pass of each slot left behind, beyond its time.
#[derive(Default)]
struct Best {
    /// Per job: span tree and counters of its fastest traced pass.
    traced: Vec<Option<(SpanTree, Counters)>>,
    /// Per job: fastest `sessions_secs` of the untraced mirror.
    untraced_sessions: Vec<f64>,
    /// Fastest collect phase (last `exhausted` to `run` return) per watch.
    collect_ns: BTreeMap<Watch, u64>,
    watched_events: u64,
    lut_entries: u64,
    /// Fastest step time per cycle of the fault probe: `[healthy, faulted]`.
    fault_step_ns_per_cycle: [f64; 2],
}

fn run_slot(
    slot: Slot,
    workload: &Workload,
    ctx: &Ctx,
    probes: &Probes,
    best: &mut Best,
) -> Result<f64, String> {
    match slot {
        Slot::Traced(j) => {
            let (label, job) = &workload.jobs[j];
            let mut rec = Recorder::new(label);
            let mirror = mirror_job(job, ctx, &mut Mode::Traced(&mut rec))
                .map_err(|e| format!("{label}: {e}"))?;
            let ns = rec.tree.root_duration_ns();
            let faster = best.traced[j]
                .as_ref()
                .is_none_or(|(t, _)| ns < t.root_duration_ns());
            if faster {
                best.traced[j] = Some((rec.tree, mirror.counters));
            }
            Ok(ns as f64 / 1e9)
        }
        Slot::Untraced(j) => {
            let (label, job) = &workload.jobs[j];
            let (mirror, secs) = timed(|| mirror_job(job, ctx, &mut Mode::Untraced));
            let mirror = mirror.map_err(|e| format!("{label}: {e}"))?;
            let s = &mut best.untraced_sessions[j];
            *s = s.min(mirror.sessions_secs);
            Ok(secs)
        }
        Slot::Grid(threads) => {
            let grid = probes.grid(workload, ctx, None)?;
            let (rows, secs) = timed(|| grid.run(threads));
            std::hint::black_box(rows);
            Ok(secs)
        }
        Slot::GridOverhead { sessions_only } => {
            let grid = probes.grid(workload, ctx, Some(1))?;
            let mut secs = 0.0;
            for _ in 0..OVERHEAD_REPEATS {
                if sessions_only {
                    for (i, p) in grid.points.iter().enumerate() {
                        let seed = point_seed(grid.base_seed, i);
                        let mut source =
                            BernoulliSource::new(p.nut.side(), p.pattern, p.rate, 1, seed);
                        let (report, s) = timed(|| p.nut.run(&mut source, SimOptions::default()));
                        std::hint::black_box(report);
                        secs += s;
                    }
                } else {
                    let (rows, s) = timed(|| grid.run(1));
                    std::hint::black_box(rows);
                    secs += s;
                }
            }
            Ok(secs / f64::from(OVERHEAD_REPEATS))
        }
        Slot::Watch(watch) => {
            let plan = probes.watched.as_ref().expect("slot");
            let observer = match watch {
                Watch::Bare | Watch::Counter => Observer::None,
                Watch::Monitor => Observer::Monitor(MonitorConfig::default()),
                Watch::Recorder => Observer::Recorder(MonitorConfig::default().flight_capacity),
                Watch::Attribution => Observer::Attribution,
            };
            // Every variant carries the same TimedSource, so its cost
            // cancels in the differentials.
            let mut source = TimedSource::new(plan.source(), false);
            let mut counter = EventCounter::default();
            let t0 = Instant::now();
            if watch == Watch::Counter {
                plan.run_with(observer, &mut source, &mut counter)?;
            } else {
                plan.run_with(observer, &mut source, &mut NullSink)?;
            }
            let end = Instant::now();
            if watch == Watch::Counter {
                best.watched_events = counter.events;
            }
            if let Some((_, last)) = source.drive_window() {
                let collect = end.duration_since(last).as_nanos() as u64;
                let e = best.collect_ns.entry(watch).or_insert(u64::MAX);
                *e = (*e).min(collect);
            }
            Ok(end.duration_since(t0).as_secs_f64())
        }
        Slot::TorusLuts => {
            let t0 = Instant::now();
            let mut entries = 0;
            for _ in 0..LUT_REPEATS {
                entries = 0;
                for cfg in &probes.torus {
                    entries += std::hint::black_box(RouteLut::build(cfg)).len() as u64;
                }
            }
            best.lut_entries = entries;
            Ok(t0.elapsed().as_secs_f64() / f64::from(LUT_REPEATS))
        }
        Slot::ShgLuts => {
            let t0 = Instant::now();
            for _ in 0..LUT_REPEATS {
                for cfg in &probes.shg {
                    std::hint::black_box(TopoRouteLut::build(&ShgTopology::new(*cfg)));
                }
            }
            Ok(t0.elapsed().as_secs_f64() / f64::from(LUT_REPEATS))
        }
        Slot::FaultSetUp { with_faults } => {
            let t0 = Instant::now();
            for plan in &probes.faulted {
                if with_faults {
                    plan.set_up()?;
                } else {
                    SessionPlan {
                        faults: None,
                        ..plan.clone()
                    }
                    .set_up()?;
                }
            }
            Ok(t0.elapsed().as_secs_f64())
        }
        Slot::FaultedRun { with_faults } => {
            let mut plan = probes.fault_probe.clone().expect("slot");
            if !with_faults {
                plan.faults = None;
            }
            let mut source = TimedSource::new(plan.source(), false);
            let (outcome, secs) = timed(|| plan.run(Observer::None, &mut source));
            let per_cycle = source.times().step_ns as f64 / outcome?.report.cycles as f64;
            let best = &mut best.fault_step_ns_per_cycle[usize::from(with_faults)];
            *best = best.min(per_cycle);
            Ok(secs)
        }
        Slot::BarePresets => {
            let mut secs = 0.0;
            for plan in &probes.presets {
                let mut source = plan.source();
                let (out, s) = timed(|| plan.run(plan.observer, &mut source));
                out?;
                secs += s;
            }
            Ok(secs)
        }
        Slot::FuzzPrefix(iters) => {
            let (outcome, secs) = timed(|| fuzz(&fuzz_config(ctx, iters)));
            std::hint::black_box(outcome);
            Ok(secs)
        }
    }
}

/// Mean absolute % error of simulated FT(64,2,1) / Hoplite sustained
/// rate at 100 % injection against the gains the paper claims (Fig 11;
/// EXPERIMENTS.md). `None` unless the workload swept both NoCs on all
/// four patterns at rate 1.0.
fn fig11_gain_err_pct(census: &Census) -> Option<f64> {
    const CLAIMED: [(Pattern, f64); 4] = [
        (Pattern::Random, 2.5),
        (Pattern::BitComplement, 2.0),
        (Pattern::Local { radius: 3 }, 1.5),
        (Pattern::Transpose, 1.0),
    ];
    let rate_of = |noc: &str, pattern: Pattern| {
        census
            .sessions
            .iter()
            .flatten()
            .find_map(|(p, r)| match p.traffic {
                Traffic::Bernoulli {
                    pattern: pat, rate, ..
                } if pat == pattern && rate == 1.0 && p.topology.to_string() == noc => {
                    Some(r.sustained_rate_per_pe())
                }
                _ => None,
            })
    };
    let mut err = 0.0;
    for (pattern, claimed) in CLAIMED {
        let gain = rate_of("ft:8:2:1", pattern)? / rate_of("hoplite:8", pattern)?;
        err += (gain / claimed - 1.0).abs() * 100.0;
    }
    Some(err / CLAIMED.len() as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn run(workload: &Workload, opts: &RunOptions) -> Result<Outcome, String> {
    let ctx = opts.ctx(workload)?;
    let jobs = workload.jobs;
    let mut tally = Tally::default();

    // The CLI jobs run once: they write the traces the replay mirrors
    // read, and what they print is what the mirrors must reproduce.
    let mut printed = Vec::with_capacity(jobs.len());
    for (label, job) in jobs {
        let out = run_job(job, &ctx)
            .0
            .map_err(|e| format!("{label}: job failed: {e}"))?;
        tally.passed();
        printed.push(parse_output(job.output_kind(), label, &out, &mut tally));
    }
    let census = census(workload, &ctx, &printed, &mut tally)?;
    let probes = probes(workload, &census);
    let slots = slots(workload, &probes, &census);

    let mut best = Best {
        traced: vec![None; jobs.len()],
        untraced_sessions: vec![f64::INFINITY; jobs.len()],
        fault_step_ns_per_cycle: [f64::INFINITY; 2],
        ..Best::default()
    };
    let samples = round_robin(slots.len(), opts.budget(), |s| {
        run_slot(slots[s], workload, &ctx, &probes, &mut best)
    })?;

    // One workload-wide tree: each job's fastest pass, laid end to end.
    let mut tree = SpanTree::default();
    let mut counters = Counters::default();
    let total: u64 = best
        .traced
        .iter()
        .flatten()
        .map(|(t, _)| t.root_duration_ns())
        .sum();
    let root = tree.add("workload", workload.name, None, 0, total, 1);
    let mut at = 0;
    for (t, c) in best.traced.iter().flatten() {
        tree.graft(t, Some(root), at);
        at += t.root_duration_ns();
        counters.add(c);
    }
    let self_sum: u64 = tree.self_ns().iter().sum();
    tally.check(self_sum == total, || {
        format!("span self times sum to {self_sum} ns, the traced jobs took {total} ns")
    });

    let metrics = layer_metrics(&LayerInputs {
        workload,
        tree: &tree,
        counters: &counters,
        census: &census,
        samples: &samples,
        slots: &slots,
        best: &best,
        probes: &probes,
    });
    for (name, value) in &metrics {
        tally.check(value.is_finite() && *value >= 0.0, || {
            format!("metric {name} is {value}")
        });
    }

    let trace_path = env::out_dir().join(format!("{}.trace.json", workload.name));
    std::fs::write(&trace_path, tree.chrome_json().pretty())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let by_name = tree.by_name();
    let table = Json::Arr(
        by_name
            .iter()
            .map(|(name, &(own, total, calls))| {
                Json::obj([
                    ("span", Json::str(name)),
                    ("self_s", Json::Num(own as f64 / 1e9)),
                    ("total_s", Json::Num(total as f64 / 1e9)),
                    ("calls", Json::Num(calls as f64)),
                ])
            })
            .collect(),
    );
    let detail = Json::obj([
        ("passes", Json::Num(samples.passes() as f64)),
        ("traced_jobs_s", Json::Num(total as f64 / 1e9)),
        ("self_time_by_span", table),
        ("chrome_trace", Json::str(trace_path.to_string_lossy())),
    ]);
    Ok(Outcome {
        tally,
        metrics,
        detail,
    })
}

struct LayerInputs<'a> {
    workload: &'a Workload,
    tree: &'a SpanTree,
    counters: &'a Counters,
    census: &'a Census,
    samples: &'a Samples,
    slots: &'a [Slot],
    best: &'a Best,
    probes: &'a Probes,
}

/// Derives every catalogued per-layer metric from the spans, the
/// counters and the probe minima. A layer the workload does not run
/// reports 0.
fn layer_metrics(x: &LayerInputs) -> Vec<(&'static str, f64)> {
    let n = x.workload.jobs.len();
    let by_name = x.tree.by_name();
    let total_s = |name: &str| by_name.get(name).map_or(0, |v| v.1) as f64 / 1e9;
    let slot_min = |want: Slot| {
        x.slots
            .iter()
            .position(|s| *s == want)
            .map(|i| x.samples.min(i))
    };
    let work = |layer: &str| x.counters.layers.get(layer).copied().unwrap_or_default();
    let events = |layer: &str| x.census.events.get(layer).copied().unwrap_or_default();

    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut put = |name: &'static str, value: f64| m.push((name, value));

    put("cli.spec.parse_us", total_s("cli.spec.parse") * 1e6);
    put("cli.spec.parses", x.counters.parses as f64);

    put(
        "bench.runner.grid_build_us",
        total_s("bench.runner.grid_build") * 1e6,
    );
    // `SweepGrid::run(1)` minus the sessions inside it, per point, on
    // near-empty sessions so the difference is not lost in their time.
    let point_overhead = x.probes.grid_job.and_then(|j| {
        let points = x.census.sessions[j].len() as f64;
        let whole = slot_min(Slot::GridOverhead {
            sessions_only: false,
        })?;
        let sessions = slot_min(Slot::GridOverhead {
            sessions_only: true,
        })?;
        Some((whole - sessions).max(0.0) * 1e6 / points)
    });
    put(
        "bench.runner.point_overhead_us",
        point_overhead.unwrap_or(0.0),
    );
    put(
        "bench.runner.csv_format_us",
        total_s("bench.runner.csv_format") * 1e6,
    );
    put("bench.runner.csv_bytes", x.counters.csv_bytes as f64);

    let threads = env::sweep_threads();
    let speedup = match (slot_min(Slot::Grid(1)), slot_min(Slot::Grid(threads))) {
        (Some(serial), Some(parallel)) => serial / parallel,
        _ => 0.0,
    };
    put("core.sweep.threads", threads as f64);
    put("core.sweep.par_speedup", speedup);
    put("core.sweep.par_efficiency", speedup / threads as f64);

    let drive_s = total_s("core.sim.drive");
    let drive_self = by_name.get("core.sim.drive").map_or(0, |v| v.0) as f64 / 1e9;
    put("core.sim.sessions", x.counters.sessions() as f64);
    put(
        "core.sim.build_us_per_session",
        ratio(
            total_s("core.sim.build") * 1e6,
            x.counters.sessions() as f64,
        ),
    );
    put("core.sim.drive_s", drive_s);
    put("core.sim.drive_self_frac", ratio(drive_self, drive_s));

    put(
        "core.kernel.lut_build_us",
        slot_min(Slot::TorusLuts).unwrap_or(0.0) * 1e6,
    );
    put("core.kernel.lut_entries", x.best.lut_entries as f64);
    put(
        "core.shg.lut_build_us",
        slot_min(Slot::ShgLuts).unwrap_or(0.0) * 1e6,
    );

    let noc = work("core.noc");
    let noc_step_ns = total_s("core.noc.step") * 1e9;
    put("core.noc.router_cycles", noc.router_cycles as f64);
    put("core.noc.route_decisions", noc.route_decisions as f64);
    put(
        "core.noc.step_ns_per_router_cycle",
        ratio(noc_step_ns, noc.router_cycles as f64),
    );
    put(
        "core.noc.step_ns_per_route_decision",
        ratio(noc_step_ns, noc.route_decisions as f64),
    );
    put(
        "core.noc.decisions_per_router_cycle",
        ratio(noc.route_decisions as f64, noc.router_cycles as f64),
    );
    put(
        "core.noc.busy_router_frac",
        ratio(
            events("core.noc").busy_visits as f64,
            noc.router_cycles as f64,
        ),
    );
    put(
        "core.noc.deflection_ratio",
        ratio(noc.deflections as f64, noc.route_decisions as f64),
    );
    put(
        "core.noc.pool_reuse_ratio",
        ratio(noc.pool_reuse as f64, noc.injected as f64),
    );

    for (layer, names) in [
        (
            "core.multichannel",
            [
                "core.multichannel.router_cycles",
                "core.multichannel.step_ns_per_router_cycle",
                "core.multichannel.decisions_per_router_cycle",
            ],
        ),
        (
            "core.shg",
            [
                "core.shg.router_cycles",
                "core.shg.step_ns_per_router_cycle",
                "core.shg.decisions_per_router_cycle",
            ],
        ),
        (
            "mesh.noc",
            // The mesh never counts route decisions.
            [
                "mesh.noc.router_cycles",
                "mesh.noc.step_ns_per_router_cycle",
                "",
            ],
        ),
    ] {
        let w = work(layer);
        let step_ns = total_s(&format!("{layer}.step")) * 1e9;
        put(names[0], w.router_cycles as f64);
        put(names[1], ratio(step_ns, w.router_cycles as f64));
        if !names[2].is_empty() {
            put(
                names[2],
                ratio(w.route_decisions as f64, w.router_cycles as f64),
            );
        }
    }

    let compile = match (
        slot_min(Slot::FaultSetUp { with_faults: true }),
        slot_min(Slot::FaultSetUp { with_faults: false }),
    ) {
        (Some(with), Some(without)) => {
            (with - without).max(0.0) * 1e6 / x.probes.faulted.len() as f64
        }
        _ => 0.0,
    };
    put("core.fault.plan_compile_us", compile);
    put("core.fault.epochs", x.counters.fault_epochs as f64);
    put(
        "core.fault.faulted_step_ratio",
        match x.best.fault_step_ns_per_cycle {
            [healthy, faulted] if healthy.is_finite() && faulted.is_finite() => faulted / healthy,
            _ => 0.0,
        },
    );
    put("core.fault.reroutes", x.counters.rerouted as f64);
    put("core.fault.dropped", x.counters.dropped as f64);
    put("core.fallback.demotions", x.counters.demotions as f64);
    put(
        "core.fallback.channel_switches",
        x.counters.channel_switches as f64,
    );

    let all_events: u64 = x.census.events.values().map(|e| e.events).sum();
    put("core.trace.events", all_events as f64);
    put(
        "core.trace.events_per_router_cycle",
        ratio(all_events as f64, x.counters.router_cycles() as f64),
    );
    let watch = |w: Watch| slot_min(Slot::Watch(w));
    let per_event = |w: Watch| match (watch(w), watch(Watch::Bare)) {
        (Some(t), Some(bare)) => ratio((t - bare).max(0.0) * 1e9, x.best.watched_events as f64),
        _ => 0.0,
    };
    let drive_ratio = |w: Watch| match (watch(w), watch(Watch::Bare)) {
        (Some(t), Some(bare)) => t / bare,
        _ => 0.0,
    };
    put("core.trace.emit_ns_per_event", per_event(Watch::Counter));
    put("core.monitor.cost_ns_per_event", per_event(Watch::Monitor));
    put("core.monitor.drive_ratio", drive_ratio(Watch::Monitor));
    put(
        "core.monitor.recorder_cost_ns_per_event",
        per_event(Watch::Recorder),
    );
    put(
        "core.attribution.cost_ns_per_event",
        per_event(Watch::Attribution),
    );
    put(
        "core.attribution.drive_ratio",
        drive_ratio(Watch::Attribution),
    );
    let collect = |w: Watch| x.best.collect_ns.get(&w).copied();
    put(
        "core.attribution.assemble_us",
        match (collect(Watch::Attribution), collect(Watch::Bare)) {
            (Some(a), Some(b)) => a.saturating_sub(b) as f64 / 1e3,
            _ => 0.0,
        },
    );

    let pump_ns = total_s("traffic.source.pump") * 1e9;
    put(
        "traffic.source.pump_ns_per_cycle",
        ratio(pump_ns, x.counters.pumps as f64),
    );
    put(
        "traffic.source.pump_ns_per_packet",
        ratio(pump_ns, x.counters.pushed as f64),
    );
    put("traffic.source.pump_share", ratio(pump_ns / 1e9, drive_s));
    put(
        "traffic.source.on_delivery_ns_per_packet",
        ratio(
            total_s("traffic.source.on_delivery") * 1e9,
            x.counters.timed_deliveries as f64,
        ),
    );

    put(
        "traffic.scenario.encode_mb_per_s",
        ratio(
            x.counters.encoded_bytes as f64 / 1e6,
            total_s("traffic.scenario.encode"),
        ),
    );
    put(
        "traffic.scenario.decode_mb_per_s",
        ratio(
            x.counters.decoded_bytes as f64 / 1e6,
            total_s("traffic.scenario.decode"),
        ),
    );
    put(
        "traffic.scenario.trace_bytes",
        x.counters.encoded_bytes as f64,
    );
    let recorded: f64 = (0..n)
        .filter(|&j| matches!(x.workload.jobs[j].1, Job::Record { .. }))
        .map(|j| x.best.untraced_sessions[j])
        .sum();
    put(
        "traffic.scenario.record_overhead_ratio",
        slot_min(Slot::BarePresets).map_or(0.0, |bare| ratio(recorded, bare)),
    );

    for (name, preset) in [
        ("traffic.gen.spmv_ms", Preset::Spmv),
        ("traffic.gen.graph_ms", Preset::Graph),
        ("traffic.gen.dataflow_ms", Preset::Dataflow),
        ("traffic.gen.multiproc_ms", Preset::Multiproc),
    ] {
        put(
            name,
            total_s(&format!("traffic.gen.{}", preset.name())) * 1e3,
        );
    }

    let fuzz_s = total_s("bench.fuzz.run");
    put(
        "bench.fuzz.scenarios_per_s",
        ratio(x.counters.fuzz_iters as f64, fuzz_s),
    );
    let minimize: f64 = x
        .census
        .fuzz_failure_indices
        .iter()
        .filter_map(|&i| Some(slot_min(Slot::FuzzPrefix(i + 1))? - slot_min(Slot::FuzzPrefix(i))?))
        .map(|d| d.max(0.0))
        .sum();
    put(
        "bench.fuzz.minimize_share",
        ratio(minimize, fuzz_s).min(1.0),
    );
    put("bench.fuzz.failing", x.counters.fuzz_failing as f64);
    put("bench.fuzz.bug_class", x.counters.fuzz_bug_classes as f64);

    put(
        "fpga.cost_us_per_config",
        ratio(total_s("fpga.cost") * 1e6, x.counters.fpga_configs as f64),
    );
    put(
        "paper.fig11_gain_err_pct",
        fig11_gain_err_pct(x.census).unwrap_or(0.0),
    );

    // Slots 2j and 2j+1 are job j traced and untraced. The overhead is
    // the median over passes of the pass's traced / untraced time: a slow
    // phase of the host scales both sides of one pass alike.
    let traced = || (0..n).map(|j| 2 * j);
    let per_pass: Vec<f64> = (0..x.samples.passes())
        .map(|k| {
            let sum = |odd: usize| -> f64 { traced().map(|s| x.samples.times[s + odd][k]).sum() };
            sum(0) / sum(1)
        })
        .collect();
    put(
        "benchmark.trace_overhead_frac",
        (median(&per_pass) - 1.0).max(0.0),
    );
    put("benchmark.job_spread_max", x.samples.spread_max(traced()));
    put(
        "benchmark.slow_phase_frac",
        x.samples.slow_phase_frac(traced()),
    );
    put("benchmark.passes", x.samples.passes() as f64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn counting_sink_counts_each_busy_router_once_per_cycle() {
        use fasttrack_core::geom::Coord;
        use fasttrack_core::packet::PacketId;
        use fasttrack_core::port::OutPort;
        let inject = |cycle, node| SimEvent::Inject {
            cycle,
            node,
            packet: PacketId(1),
            dst: Coord::new(0, 0),
            out: OutPort::Exit,
            queue_wait: 0,
        };
        let mut sink = CountingSink::default();
        sink.emit(&inject(0, 3));
        sink.emit(&inject(0, 3));
        sink.emit(&inject(1, 3));
        sink.emit(&SimEvent::WarmupReset { cycle: 1 });
        sink.set_channel(1);
        sink.emit(&inject(1, 3));
        assert_eq!(sink.events, 5);
        assert_eq!(sink.busy_visits, 3);
    }

    #[test]
    fn every_slot_kind_appears_where_its_layer_runs() {
        // Slot lists are decided from plans alone; a quick census of the
        // smallest workload would cost seconds, so this checks the rule
        // on hand-made inputs.
        let census = Census {
            events: BTreeMap::new(),
            sessions: vec![Vec::new(); WORKLOADS[0].jobs.len()],
            fuzz_failure_indices: vec![4, 9],
        };
        let probes = Probes {
            grid_job: Some(0),
            watched: None,
            torus: Vec::new(),
            shg: Vec::new(),
            faulted: Vec::new(),
            fault_probe: None,
            presets: Vec::new(),
        };
        let s = slots(&WORKLOADS[0], &probes, &census);
        let n = WORKLOADS[0].jobs.len();
        for j in 0..n {
            assert_eq!(s[2 * j..2 * j + 2], [Slot::Traced(j), Slot::Untraced(j)]);
        }
        assert!(s.contains(&Slot::Grid(1)));
        assert!(!s.iter().any(|x| matches!(x, Slot::Watch(_))));
        let prefixes: Vec<u64> = s
            .iter()
            .filter_map(|x| match x {
                Slot::FuzzPrefix(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(prefixes, [4, 5, 9, 10]);
    }
}
