//! Library-level mirror of the workload jobs: which simulation sessions
//! a CLI job creates, rebuilt from the same public functions the CLI
//! calls. The end-to-end run uses it for `setup_s` (everything up to the
//! first `pump`); the traced run drives the sessions through the real
//! `SimSession::run` with a [`TimedSource`] to see inside them.
//!
//! The mirror duplicates a handful of CLI constants (preset generator
//! parameters, the storm seed salt). The traced run checks every
//! mirrored session's delivered/cycle counts against what the job itself
//! printed, so a drift between the two fails loudly instead of skewing
//! the per-layer numbers.

use std::cell::Cell;
use std::time::Instant;

use fasttrack_bench::runner::{topology_of, NocUnderTest, SweepGrid};
use fasttrack_cli::spec::{parse_grid, parse_noc, parse_pattern, parse_topology};
use fasttrack_core::attribution::AttributionConfig;
use fasttrack_core::fallback::FallbackConfig;
use fasttrack_core::fault::{FaultPlan, FaultSpec, StormSpec};
use fasttrack_core::monitor::{FlightRecorder, HealthMonitor, MonitorConfig};
use fasttrack_core::multichannel::MultiNoc;
use fasttrack_core::noc::Noc;
use fasttrack_core::packet::Delivery;
use fasttrack_core::queue::InjectQueues;
use fasttrack_core::shg::ShgBackend;
use fasttrack_core::sim::{SessionBackend, SimOutcome, SimSession, TrafficSource};
use fasttrack_core::sweep::{point_seed, splitmix64};
use fasttrack_core::topology::TopologySpec;
use fasttrack_core::trace::EventSink;
use fasttrack_mesh::{MeshBackend, MeshConfig};
use fasttrack_traffic::dataflow::{lu_dag, DataflowSource};
use fasttrack_traffic::graph::graph_source;
use fasttrack_traffic::graph_gen::rmat;
use fasttrack_traffic::matrix::circuit;
use fasttrack_traffic::multiproc::{parsec_benchmarks, parsec_trace};
use fasttrack_traffic::partition::Partition;
use fasttrack_traffic::pattern::Pattern;
use fasttrack_traffic::scenario::ScenarioTrace;
use fasttrack_traffic::source::BernoulliSource;
use fasttrack_traffic::spmv::spmv_source;

use crate::workloads::{
    Ctx, Job, Preset, Sidecar, StormTarget, FAULT_DEAD_LINKS, FAULT_DOWN_LINKS, FAULT_FAIL_STOP,
    STORM_HEAL, STORM_KILLS,
};

/// `fasttrack_bench::runner`'s private storm salt (`b"STORM"`), needed to
/// draw the same per-point storm the `storm` command draws.
const STORM_SALT: u64 = 0x53_54_4F_52_4D;
/// `simulate`/`record`/`monitor` cap runs at the driver default.
const DEFAULT_MAX_CYCLES: u64 = 2_000_000;
/// `record --workload dataflow` raises the cap (the LU DAG serializes).
const DATAFLOW_MAX_CYCLES: u64 = 5_000_000;

/// Where a session's packets come from.
#[derive(Debug, Clone)]
pub enum Traffic {
    Bernoulli {
        pattern: Pattern,
        rate: f64,
        packets: u64,
        seed: u64,
    },
    /// A case-study generator, as `record --workload` builds it.
    Preset { preset: Preset, seed: u64 },
    /// A decoded scenario trace fed back, as `replay` does.
    Replay(ScenarioTrace),
}

/// What watches the session's event stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Observer {
    None,
    /// `SimSession::with_monitor` (sweep `--health`, `monitor`).
    Monitor(MonitorConfig),
    /// A `HealthMonitor` attached as a plain sink (`faults`).
    MonitorSink,
    /// `SimSession::with_attribution` (sweep `--attribution`).
    Attribution,
    /// A bare `FlightRecorder` sink with this many events per router.
    Recorder(usize),
}

/// One simulation session a job creates.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    pub topology: TopologySpec,
    /// `Some(k)`: an explicit `k`-channel bank (torus only).
    pub channels: Option<usize>,
    pub traffic: Traffic,
    pub faults: Option<FaultPlan>,
    /// Standard fallback chains armed (torus only).
    pub fallback: bool,
    pub observer: Observer,
    pub max_cycles: u64,
    pub warmup: u64,
}

impl SessionPlan {
    fn synthetic(topology: TopologySpec, traffic: Traffic) -> Self {
        SessionPlan {
            topology,
            channels: None,
            traffic,
            faults: None,
            fallback: false,
            observer: Observer::None,
            max_cycles: DEFAULT_MAX_CYCLES,
            warmup: 0,
        }
    }

    /// Grid side the traffic generators key on.
    pub fn side(&self) -> u16 {
        self.topology
            .monitor_shape()
            .grid_side
            .expect("built-in topologies are square grids")
    }

    pub fn nodes(&self) -> usize {
        self.topology.num_nodes()
    }

    /// Routers stepped per simulated cycle (nodes x channels).
    pub fn routers(&self) -> u64 {
        (self.nodes() * self.channels.unwrap_or(1)) as u64
    }

    /// The layer whose `step` this session runs.
    pub fn engine_layer(&self) -> &'static str {
        match (&self.topology, self.channels) {
            (TopologySpec::Torus(_), None) => "core.noc",
            (TopologySpec::Torus(_), Some(_)) => "core.multichannel",
            (TopologySpec::Shg(_), _) => "core.shg",
            (TopologySpec::Mesh { .. }, _) => "mesh.noc",
        }
    }

    /// Builds the traffic source (for presets this is where the matrix,
    /// graph, DAG or multiprocessor trace is generated).
    pub fn source(&self) -> Box<dyn TrafficSource> {
        let n = self.side();
        match &self.traffic {
            Traffic::Bernoulli {
                pattern,
                rate,
                packets,
                seed,
            } => Box::new(BernoulliSource::new(n, *pattern, *rate, *packets, *seed)),
            Traffic::Preset { preset, seed } => preset_source(*preset, n, *seed),
            Traffic::Replay(trace) => Box::new(
                trace
                    .replay_source()
                    .expect("the header parsed when the plan was made"),
            ),
        }
    }

    /// Everything a session does before its first `pump`: engine
    /// (topology, route LUT, fault-plan validation and compilation) and
    /// traffic source. The results are dropped; only the time matters.
    pub fn set_up(&self) -> Result<(), String> {
        let faults = self.faults.as_ref();
        let err = |e: fasttrack_core::fault::FaultError| e.to_string();
        match (&self.topology, self.channels) {
            (TopologySpec::Torus(cfg), None) => {
                std::hint::black_box(match faults {
                    Some(plan) => Noc::with_faults(cfg.clone(), plan).map_err(err)?,
                    None => Noc::new(cfg.clone()),
                });
            }
            (TopologySpec::Torus(cfg), Some(k)) => {
                std::hint::black_box(match faults {
                    Some(plan) => MultiNoc::with_faults(cfg.clone(), k, plan).map_err(err)?,
                    None => MultiNoc::new(cfg.clone(), k),
                });
            }
            (TopologySpec::Shg(cfg), _) => {
                std::hint::black_box(ShgBackend::new(*cfg).build(faults).map_err(err)?);
            }
            (TopologySpec::Mesh { n, depth }, _) => {
                let cfg = MeshConfig::new(*n, *depth).map_err(|e| e.to_string())?;
                std::hint::black_box(MeshBackend::new(&cfg).build(faults).map_err(err)?);
            }
        }
        std::hint::black_box(self.source());
        Ok(())
    }

    /// Drives `source` through the real `SimSession::run` with this
    /// plan's faults, chains, channels and `observer`.
    pub fn run<T: TrafficSource>(
        &self,
        observer: Observer,
        source: &mut T,
    ) -> Result<SimOutcome, String> {
        self.run_with(observer, source, &mut fasttrack_core::trace::NullSink)
    }

    /// [`SessionPlan::run`] with an extra caller-owned sink teed in.
    pub fn run_with<T: TrafficSource, K: EventSink>(
        &self,
        observer: Observer,
        source: &mut T,
        sink: &mut K,
    ) -> Result<SimOutcome, String> {
        match &self.topology {
            TopologySpec::Torus(cfg) => {
                let mut s = SimSession::new(cfg);
                if let Some(k) = self.channels {
                    s = s.channels(k);
                }
                if self.fallback {
                    s = s
                        .with_fallback(&FallbackConfig::standard())
                        .map_err(|e| e.to_string())?;
                }
                self.finish(s, observer, source, sink)
            }
            TopologySpec::Shg(cfg) => self.finish(
                SimSession::with_backend(ShgBackend::new(*cfg)),
                observer,
                source,
                sink,
            ),
            TopologySpec::Mesh { n, depth } => {
                let cfg = MeshConfig::new(*n, *depth).map_err(|e| e.to_string())?;
                self.finish(
                    SimSession::with_backend(MeshBackend::new(&cfg)),
                    observer,
                    source,
                    sink,
                )
            }
        }
    }

    fn finish<B: SessionBackend, T: TrafficSource, K: EventSink>(
        &self,
        session: SimSession<'static, B>,
        observer: Observer,
        source: &mut T,
        sink: &mut K,
    ) -> Result<SimOutcome, String> {
        let mut s = session.max_cycles(self.max_cycles);
        if self.warmup > 0 {
            s = s.warmup_cycles(self.warmup);
        }
        if let Some(plan) = &self.faults {
            s = s.with_faults(plan);
        }
        let shape = self
            .topology
            .monitor_shape()
            .with_channels(self.channels.unwrap_or(1));
        // A statically disabled sink (`NullSink`) costs nothing teed in, so
        // every observer takes the same shape with or without one.
        let outcome = match observer {
            Observer::None => s.with_sink(sink).run(source),
            Observer::Monitor(mcfg) => s.with_monitor(mcfg).with_sink(sink).run(source),
            Observer::Attribution => s
                .with_attribution(AttributionConfig::default())
                .with_sink(sink)
                .run(source),
            Observer::MonitorSink => {
                let mut monitor = HealthMonitor::new(shape, MonitorConfig::default());
                s.with_sink(&mut (&mut monitor, sink)).run(source)
            }
            Observer::Recorder(capacity) => {
                let mut recorder = FlightRecorder::new(self.nodes(), capacity);
                s.with_sink(&mut (&mut recorder, sink)).run(source)
            }
        };
        outcome.map_err(|e| e.to_string())
    }
}

fn preset_source(preset: Preset, n: u16, seed: u64) -> Box<dyn TrafficSource> {
    match preset {
        Preset::Spmv => Box::new(spmv_source(
            &circuit(1000, 4, 2, 3, seed),
            n,
            Partition::Cyclic,
        )),
        Preset::Graph => Box::new(graph_source(
            &rmat(11, 15_000, 0.57, 0.19, 0.19, seed),
            n,
            Partition::Cyclic,
        )),
        Preset::Dataflow => Box::new(DataflowSource::new(lu_dag(1200, 48, 2.0, seed), n, 3)),
        Preset::Multiproc => Box::new(parsec_trace(&parsec_benchmarks()[0], n, seed)),
    }
}

fn storm_spec() -> StormSpec {
    StormSpec {
        kills_per_kcycle: STORM_KILLS,
        heal_after: STORM_HEAL,
        ..StormSpec::default()
    }
}

fn spec_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The grid a sweep/storm job runs, built the way the CLI builds it.
pub fn sweep_grid(grid: &str, packets: u64, seed: u64) -> Result<SweepGrid, String> {
    let g = parse_grid(grid).map_err(spec_err)?;
    let nuts: Vec<NocUnderTest> = g.nocs.into_iter().map(NocUnderTest::from_spec).collect();
    Ok(SweepGrid::cross(&nuts, &g.patterns, &g.rates, seed).with_packets_per_pe(packets))
}

/// A spec string a command parses before it does anything else.
enum Spec {
    Noc(&'static str),
    Pattern(&'static str),
    Grid(&'static str),
}

fn specs(job: &Job) -> Vec<Spec> {
    match *job {
        Job::Sweep { grid, .. }
        | Job::Storm {
            target: StormTarget::Grid(grid),
            ..
        } => vec![Spec::Grid(grid)],
        Job::Storm {
            target: StormTarget::Noc { noc, .. },
            ..
        }
        | Job::Simulate { noc, .. }
        | Job::Faults { noc, .. }
        | Job::Monitor { noc, .. } => vec![Spec::Noc(noc), Spec::Pattern("random")],
        Job::Compare { topologies, .. } => topologies
            .split(',')
            .map(Spec::Noc)
            .chain([Spec::Pattern("random")])
            .collect(),
        Job::Record { preset } => vec![Spec::Noc(preset.default_noc())],
        Job::Replay { .. } | Job::Fuzz { .. } => Vec::new(),
    }
}

/// How many spec strings [`parse_specs`] parses for `job` (a grid counts
/// each of its elements).
pub fn spec_count(job: &Job) -> u64 {
    specs(job)
        .iter()
        .map(|s| match s {
            Spec::Grid(g) => g.split([';', ',']).count() as u64,
            _ => 1,
        })
        .sum()
}

/// Parses every spec string of `job`, and nothing else.
pub fn parse_specs(job: &Job) -> Result<(), String> {
    for spec in specs(job) {
        match spec {
            Spec::Noc(s) => parse_topology(s).map(drop),
            Spec::Pattern(s) => parse_pattern(s).map(drop),
            Spec::Grid(s) => parse_grid(s).map(drop),
        }
        .map_err(spec_err)?;
    }
    Ok(())
}

/// The sessions `job` creates, in the order it runs them. Parses every
/// spec string and decodes every trace the job would (that is part of
/// set-up); `fuzz` draws its scenarios privately and yields none.
pub fn sessions(job: &Job, ctx: &Ctx) -> Result<Vec<SessionPlan>, String> {
    let seed = job.seed(ctx);
    Ok(match *job {
        Job::Sweep {
            grid,
            packets,
            sidecar,
        } => {
            let observer = match sidecar {
                Sidecar::None => Observer::None,
                Sidecar::Health => Observer::Monitor(MonitorConfig::default()),
                Sidecar::Attribution => Observer::Attribution,
            };
            sweep_grid(grid, ctx.scale(packets), seed)?
                .points
                .into_iter()
                .enumerate()
                .map(|(i, p)| SessionPlan {
                    observer,
                    ..SessionPlan::synthetic(
                        p.nut.topology,
                        Traffic::Bernoulli {
                            pattern: p.pattern,
                            rate: p.rate,
                            packets: ctx.scale(packets),
                            seed: point_seed(seed, i),
                        },
                    )
                })
                .collect()
        }
        Job::Simulate {
            noc,
            channels,
            rate,
            packets,
        } => {
            let cfg = parse_noc(noc).map_err(spec_err)?;
            vec![SessionPlan {
                channels: (channels > 1).then_some(channels),
                ..SessionPlan::synthetic(
                    TopologySpec::Torus(cfg),
                    bernoulli("random", rate, ctx.scale(packets), seed)?,
                )
            }]
        }
        Job::Compare {
            topologies,
            rate,
            packets,
        } => topologies
            .split(',')
            .map(|t| {
                Ok(SessionPlan::synthetic(
                    parse_topology(t).map_err(spec_err)?,
                    bernoulli("random", rate, ctx.scale(packets), seed)?,
                ))
            })
            .collect::<Result<_, String>>()?,
        Job::Storm { target, packets } => {
            let points: Vec<(TopologySpec, Pattern, f64)> = match target {
                StormTarget::Grid(grid) => {
                    let g = parse_grid(grid).map_err(spec_err)?;
                    let mut v = Vec::new();
                    for noc in &g.nocs {
                        for &p in &g.patterns {
                            for &r in &g.rates {
                                v.push((noc.clone(), p, r));
                            }
                        }
                    }
                    v
                }
                StormTarget::Noc { noc, rate } => vec![(
                    parse_topology(noc).map_err(spec_err)?,
                    parse_pattern("random").map_err(spec_err)?,
                    rate,
                )],
            };
            let all_torus = points
                .iter()
                .all(|(t, _, _)| matches!(t, TopologySpec::Torus(_)));
            let storm = storm_spec();
            // The command runs the whole grid with chains, then again
            // without (non-torus grids run chainless both times).
            let mut plans = Vec::new();
            for chains in [all_torus, false] {
                for (i, (topology, pattern, rate)) in points.iter().enumerate() {
                    let pseed = point_seed(seed, i);
                    let storm_seed = splitmix64(pseed ^ STORM_SALT);
                    let (channels, faults) = match topology {
                        // `storm` defaults to two channels so the chain's
                        // alternate-channel step has a sibling.
                        TopologySpec::Torus(cfg) => {
                            (Some(2), FaultPlan::storm(cfg, storm_seed, &storm))
                        }
                        other => (
                            None,
                            FaultPlan::storm_topo(&*topology_of(other), storm_seed, &storm),
                        ),
                    };
                    plans.push(SessionPlan {
                        channels,
                        faults: Some(faults),
                        fallback: chains,
                        ..SessionPlan::synthetic(
                            topology.clone(),
                            Traffic::Bernoulli {
                                pattern: *pattern,
                                rate: *rate,
                                packets: ctx.scale(packets),
                                seed: pseed,
                            },
                        )
                    });
                }
            }
            plans
        }
        Job::Faults { noc, rate, packets } => {
            let cfg = parse_noc(noc).map_err(spec_err)?;
            let spec = FaultSpec {
                dead_links: FAULT_DEAD_LINKS,
                down_links: FAULT_DOWN_LINKS,
                fail_stop_routers: FAULT_FAIL_STOP,
                ..FaultSpec::default()
            };
            let plan = FaultPlan::random(&cfg, ctx.fault_seed(), &spec);
            let traffic = bernoulli("random", rate, ctx.scale(packets), seed)?;
            let baseline = SessionPlan::synthetic(TopologySpec::Torus(cfg), traffic);
            let faulted = SessionPlan {
                faults: Some(plan),
                observer: Observer::MonitorSink,
                ..baseline.clone()
            };
            vec![baseline, faulted]
        }
        Job::Monitor {
            noc,
            rate,
            flight,
            packets,
        } => {
            let cfg = parse_noc(noc).map_err(spec_err)?;
            vec![SessionPlan {
                observer: Observer::Monitor(MonitorConfig {
                    flight_capacity: flight,
                    snapshot_every: Some(1000),
                    ..MonitorConfig::default()
                }),
                ..SessionPlan::synthetic(
                    TopologySpec::Torus(cfg),
                    bernoulli("random", rate, ctx.scale(packets), seed)?,
                )
            }]
        }
        Job::Record { preset } => {
            let cfg = parse_noc(preset.default_noc()).map_err(spec_err)?;
            vec![SessionPlan {
                // `record` always attaches its (here empty) drawn plan.
                faults: Some(FaultPlan::new()),
                max_cycles: if preset == Preset::Dataflow {
                    DATAFLOW_MAX_CYCLES
                } else {
                    DEFAULT_MAX_CYCLES
                },
                ..SessionPlan::synthetic(TopologySpec::Torus(cfg), Traffic::Preset { preset, seed })
            }]
        }
        Job::Replay { trace } => {
            let path = ctx.trace_path(trace);
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            vec![replay_plan(&text).map_err(|e| format!("{path}: {e}"))?]
        }
        Job::Fuzz { .. } => Vec::new(),
    })
}

/// Decodes a scenario trace into the session `replay` runs for it:
/// `ScenarioTrace::replay_setup` minus the source, which
/// [`SessionPlan::source`] builds.
pub fn replay_plan(text: &str) -> Result<SessionPlan, String> {
    let trace = ScenarioTrace::decode(text).map_err(spec_err)?;
    let cfg = trace.header.noc_config().map_err(spec_err)?;
    let plan = trace
        .header
        .faults
        .iter()
        .fold(FaultPlan::new(), |p, &f| p.with(f));
    Ok(SessionPlan {
        channels: (trace.header.channels > 1).then_some(trace.header.channels),
        faults: Some(plan),
        max_cycles: trace.header.max_cycles,
        warmup: trace.header.warmup,
        ..SessionPlan::synthetic(TopologySpec::Torus(cfg), Traffic::Replay(trace))
    })
}

fn bernoulli(pattern: &str, rate: f64, packets: u64, seed: u64) -> Result<Traffic, String> {
    Ok(Traffic::Bernoulli {
        pattern: parse_pattern(pattern).map_err(spec_err)?,
        rate,
        packets,
        seed,
    })
}

/// One set-up pass over a job list: plan and set up every session,
/// stopping before the first `pump`. Returns how many sessions it set up.
pub fn set_up_all(jobs: &[(&str, Job)], ctx: &Ctx) -> Result<usize, String> {
    let mut n = 0;
    for (label, job) in jobs {
        for plan in sessions(job, ctx).map_err(|e| format!("{label}: {e}"))? {
            plan.set_up().map_err(|e| format!("{label}: {e}"))?;
            n += 1;
        }
    }
    Ok(n)
}

/// Where a traced session's time went, all in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceTimes {
    /// `pump` calls, one per simulated cycle.
    pub pumps: u64,
    pub pump_ns: u64,
    /// Packets the source pushed into the injection queues.
    pub pushed: u64,
    /// `pump` end to the loop's `exhausted` call, minus timed
    /// `on_delivery` calls: the engine's `step_cycle` plus the loop's
    /// own few instructions.
    pub step_ns: u64,
    pub deliveries: u64,
    /// Zero unless delivery timing was requested.
    pub on_delivery_ns: u64,
}

/// Wraps any source and times the calls the drive loop makes into it.
///
/// The loop calls `pump`, steps the engine, reports deliveries, then
/// asks `exhausted` once per cycle, so the gap between a `pump`'s end
/// and the next `exhausted` brackets `step_cycle` on every backend, with
/// faults, fallback chains and observers armed, without touching the
/// engine. Timing `on_delivery` costs two clock reads per packet, so it
/// is on only for closed-loop sources that do work there.
pub struct TimedSource<S> {
    inner: S,
    time_deliveries: bool,
    times: SourceTimes,
    first_pump: Option<Instant>,
    pump_end: Instant,
    cycle_delivery_ns: u64,
    // `exhausted` takes `&self`.
    step_ns: Cell<u64>,
    stepping: Cell<bool>,
    last_exhausted: Cell<Option<Instant>>,
}

impl<S: TrafficSource> TimedSource<S> {
    pub fn new(inner: S, time_deliveries: bool) -> Self {
        TimedSource {
            inner,
            time_deliveries,
            times: SourceTimes::default(),
            first_pump: None,
            pump_end: Instant::now(),
            cycle_delivery_ns: 0,
            step_ns: Cell::new(0),
            stepping: Cell::new(false),
            last_exhausted: Cell::new(None),
        }
    }

    pub fn times(&self) -> SourceTimes {
        SourceTimes {
            step_ns: self.step_ns.get(),
            ..self.times
        }
    }

    /// When the drive loop first pumped and last asked `exhausted`.
    pub fn drive_window(&self) -> Option<(Instant, Instant)> {
        Some((self.first_pump?, self.last_exhausted.get()?))
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

impl<S: TrafficSource> TrafficSource for TimedSource<S> {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        let t0 = Instant::now();
        self.first_pump.get_or_insert(t0);
        let before = queues.total_enqueued();
        self.inner.pump(cycle, queues);
        let t1 = Instant::now();
        self.times.pumps += 1;
        self.times.pump_ns += ns(t0, t1);
        self.times.pushed += queues.total_enqueued() - before;
        self.pump_end = t1;
        self.cycle_delivery_ns = 0;
        self.stepping.set(true);
    }

    fn on_delivery(&mut self, delivery: &Delivery) {
        self.times.deliveries += 1;
        if self.time_deliveries {
            let t0 = Instant::now();
            self.inner.on_delivery(delivery);
            let dt = ns(t0, Instant::now());
            self.times.on_delivery_ns += dt;
            self.cycle_delivery_ns += dt;
        } else {
            self.inner.on_delivery(delivery);
        }
    }

    fn exhausted(&self) -> bool {
        // Wrappers may ask more than once per cycle; only the first call
        // after a pump closes the step interval.
        if self.stepping.replace(false) {
            let now = Instant::now();
            let gap = ns(self.pump_end, now).saturating_sub(self.cycle_delivery_ns);
            self.step_ns.set(self.step_ns.get() + gap);
            self.last_exhausted.set(Some(now));
        }
        self.inner.exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::path::PathBuf;

    fn ctx(quick: bool) -> Ctx {
        Ctx {
            seed: 7,
            quick,
            tmp: PathBuf::from("/nonexistent"),
            corpus: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/corpus")),
        }
    }

    #[test]
    fn every_job_but_fuzz_and_recorded_replays_plans_sessions() {
        let ctx = ctx(true);
        for w in &WORKLOADS {
            for (label, job) in w.jobs {
                let recorded = matches!(
                    job,
                    Job::Replay {
                        trace: crate::workloads::TraceFile::Recorded(_)
                    }
                );
                if recorded {
                    continue; // needs the record job's file
                }
                let plans = sessions(job, &ctx).unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(
                    plans.is_empty(),
                    matches!(job, Job::Fuzz { .. }),
                    "{}/{label}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn storm_jobs_run_every_point_with_and_without_chains() {
        let ctx = ctx(true);
        let plans = sessions(&WORKLOADS[3].jobs[0].1, &ctx).unwrap();
        assert_eq!(plans.len(), 8);
        assert!(plans[..4]
            .iter()
            .all(|p| p.fallback && p.channels == Some(2)));
        assert!(plans[4..].iter().all(|p| !p.fallback));
        assert_eq!(plans[0].faults, plans[4].faults);
        let shg = sessions(&WORKLOADS[3].jobs[1].1, &ctx).unwrap();
        assert_eq!(shg.len(), 2);
        assert!(shg.iter().all(|p| !p.fallback && p.channels.is_none()));
    }

    #[test]
    fn timed_source_accounts_every_cycle_without_changing_the_run() {
        let ctx = ctx(true);
        let plan = &sessions(&WORKLOADS[1].jobs[1].1, &ctx).unwrap()[1];
        let bare = plan.run(Observer::None, &mut plan.source()).unwrap().report;
        let mut timed = TimedSource::new(plan.source(), true);
        let t0 = Instant::now();
        let traced = plan.run(Observer::None, &mut timed).unwrap().report;
        let total = ns(t0, Instant::now());
        assert_eq!(bare, traced);
        let t = timed.times();
        assert_eq!(t.pumps, traced.cycles);
        assert_eq!(t.deliveries, traced.stats.delivered);
        assert_eq!(t.pushed, traced.stats.enqueued);
        let (first, last) = timed.drive_window().unwrap();
        assert!(t.pump_ns + t.step_ns + t.on_delivery_ns <= ns(first, last));
        assert!(ns(first, last) <= total);
        assert!(
            t.step_ns > t.pump_ns,
            "step dominates a saturated torus run"
        );
    }

    #[test]
    fn set_up_covers_every_backend() {
        let ctx = ctx(true);
        let n = set_up_all(WORKLOADS[2].jobs, &ctx).unwrap();
        assert_eq!(n, 4 + 4 + 1 + 1 + 3);
    }
}
