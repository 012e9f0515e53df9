//! The simulation driver: one composable [`SimSession`] wires a traffic
//! source to any engine — single torus, multi-channel bank, Sparse
//! Hamming Graph or buffered mesh — runs it to completion, and produces
//! a [`SimReport`].
//!
//! Tracing, health monitoring, and fault injection *compose* on the
//! session instead of multiplying entry points:
//!
//! ```
//! use fasttrack_core::prelude::*;
//!
//! # struct Batch(bool);
//! # impl TrafficSource for Batch {
//! #     fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
//! #         if !self.0 { queues.push(1, Coord::new(0, 0), cycle, 0); self.0 = true; }
//! #     }
//! #     fn exhausted(&self) -> bool { self.0 }
//! # }
//! let cfg = NocConfig::hoplite(4)?;
//! let outcome = SimSession::new(&cfg)
//!     .max_cycles(10_000)
//!     .with_monitor(MonitorConfig::default())
//!     .run(&mut Batch(false))
//!     .expect("no fault plan attached");
//! assert_eq!(outcome.report.stats.delivered, 1);
//! assert!(outcome.monitor.unwrap().healthy());
//! # Ok::<(), fasttrack_core::config::ConfigError>(())
//! ```

use crate::attribution::{AttributionConfig, AttributionReport, AttributionSink};
use crate::config::NocConfig;
use crate::fallback::{CompiledFallback, FallbackConfig, FallbackError};
use crate::fault::{FaultError, FaultPlan};
use crate::kernel::RouteMode;
use crate::mesh::{MeshBackend, MeshConfig, MeshNoc};
use crate::monitor::MetricsRegistry;
use crate::monitor::{HealthMonitor, MonitorConfig};
use crate::multichannel::MultiNoc;
use crate::noc::Noc;
use crate::packet::Delivery;
use crate::profile::{self, EventCounter, SessionProfile};
use crate::queue::InjectQueues;
use crate::shg::{ShgBackend, ShgNoc};
use crate::stats::SimStats;
use crate::topology::{MonitorShape, Topology, TopologySpec};
use crate::trace::{EventSink, NullSink, SimEvent};

/// A workload that feeds the NoC.
///
/// The driver calls [`TrafficSource::pump`] once per cycle *before*
/// routing, then reports every delivery. Dependency-driven workloads
/// (e.g. token dataflow) release new packets from
/// [`TrafficSource::on_delivery`] state at the next `pump`.
pub trait TrafficSource {
    /// Called once per cycle; push any packets that become available this
    /// cycle into `queues`.
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues);

    /// Notification of a delivered packet.
    fn on_delivery(&mut self, delivery: &Delivery) {
        let _ = delivery;
    }

    /// True when the source will never generate another packet.
    fn exhausted(&self) -> bool;
}

/// Boxed sources forward to their contents, so heterogeneous source
/// sets (e.g. a fuzzer drawing one of several generator families) can
/// be driven through `Box<dyn TrafficSource>`.
impl<T: TrafficSource + ?Sized> TrafficSource for Box<T> {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        (**self).pump(cycle, queues)
    }

    fn on_delivery(&mut self, delivery: &Delivery) {
        (**self).on_delivery(delivery)
    }

    fn exhausted(&self) -> bool {
        (**self).exhausted()
    }
}

/// Driver options.
///
/// Construct with [`Default`] (or [`SimOptions::with_max_cycles`]) and
/// refine with the consuming setters; the struct is `#[non_exhaustive]`
/// so future knobs are not breaking changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct SimOptions {
    /// Hard cap on simulated cycles; the run is marked truncated if hit.
    pub max_cycles: u64,
    /// Statistics are reset after this many cycles (steady-state
    /// measurement for open-loop traffic). 0 measures everything.
    pub warmup_cycles: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_cycles: 2_000_000,
            warmup_cycles: 0,
        }
    }
}

impl SimOptions {
    /// Options with a custom cycle cap.
    pub fn with_max_cycles(max_cycles: u64) -> Self {
        SimOptions::default().max_cycles(max_cycles)
    }

    /// Sets the hard cap on simulated cycles.
    pub(crate) fn max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Sets the warmup period after which statistics reset.
    pub fn warmup_cycles(mut self, warmup_cycles: u64) -> Self {
        self.warmup_cycles = warmup_cycles;
        self
    }
}

/// The outcome of one simulation run.
///
/// `#[non_exhaustive]`: constructed by the driver; downstream code reads
/// fields but builds reports via [`Default`] plus struct update only
/// inside this crate.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct SimReport {
    /// Human-readable configuration name (e.g. `FT(64,2,1)`).
    pub config_name: String,
    /// PEs in the system.
    pub nodes: usize,
    /// Cycles simulated after warmup (the makespan for closed workloads).
    pub cycles: u64,
    /// Aggregated statistics (measured after warmup).
    pub stats: SimStats,
    /// True if the run hit `max_cycles` before the workload drained.
    pub truncated: bool,
    /// Packets still on NoC links when the run ended (non-zero only for
    /// truncated runs; part of the conservation accounting).
    pub in_flight: usize,
}

impl SimReport {
    /// Delivered packets per cycle per PE — the paper's "sustained rate".
    pub fn sustained_rate_per_pe(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stats.delivered as f64 / self.cycles as f64 / self.nodes as f64
        }
    }

    /// Delivered packets per cycle across the whole NoC.
    pub fn aggregate_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stats.delivered as f64 / self.cycles as f64
        }
    }

    /// Mean end-to-end latency (including source queueing).
    pub fn avg_latency(&self) -> f64 {
        self.stats.total_latency.mean()
    }

    /// Worst-case end-to-end latency.
    pub fn worst_latency(&self) -> u64 {
        self.stats.total_latency.max()
    }

    /// 99th-percentile end-to-end latency (0 when nothing was
    /// delivered); see `crate::stats::Histogram::percentile`.
    pub fn p99_latency(&self) -> u64 {
        self.stats
            .total_latency
            .histogram()
            .percentile(99.0)
            .unwrap_or(0)
    }

    /// Exact packet conservation: every injected packet is delivered,
    /// still on a link, or was dropped by an injected fault. Holds for
    /// every run without a warmup reset, faulted or not, truncated or
    /// not. (A warmup reset excludes pre-warmup injections from the
    /// measured stats while their deliveries still count, so only
    /// `warmup_cycles == 0` runs are exactly conserved.)
    pub fn conserved(&self) -> bool {
        self.stats.delivered + self.in_flight as u64 + self.stats.dropped == self.stats.injected
    }

    /// Throughput of this (typically faulted) run relative to a baseline
    /// run of the healthy fabric: `1.0` means no degradation, `0.0`
    /// means nothing got through. Returns `1.0` when the baseline moved
    /// no traffic either.
    pub fn degraded_throughput_ratio(&self, baseline: &SimReport) -> f64 {
        let base = baseline.sustained_rate_per_pe();
        if base == 0.0 {
            1.0
        } else {
            self.sustained_rate_per_pe() / base
        }
    }
}

/// A steppable cycle-accurate engine the shared drive loop can run.
///
/// Implemented by [`Noc`], [`MultiNoc`], [`ShgNoc`] and [`MeshNoc`];
/// one generic `drive_engine` loop replaces the near-identical
/// per-engine drivers the crate used to carry.
pub trait SimEngine {
    /// PEs in the system (sizes the injection queues and the report).
    fn num_nodes(&self) -> usize;

    /// The configuration name the report should carry.
    fn report_name(&self) -> String;

    /// Advances the engine by one cycle, pulling injections from
    /// `queues`, pushing deliveries, and emitting events into `sink`.
    fn step_cycle<S: EventSink>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    );

    /// Packets currently on links (or in router buffers).
    fn in_flight(&self) -> usize;

    /// Clears accumulated statistics (warmup reset).
    fn reset_stats(&mut self);

    /// See `Noc::only_failed_injectors_pending`.
    fn only_failed_injectors_pending(&self, queues: &InjectQueues) -> bool;

    /// A copy of the accumulated statistics (merged across channels for
    /// banked engines).
    fn stats_snapshot(&self) -> SimStats;
}

impl SimEngine for Noc {
    fn num_nodes(&self) -> usize {
        self.config().num_nodes()
    }

    fn report_name(&self) -> String {
        self.config().name()
    }

    fn step_cycle<S: EventSink>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
        self.step_with_sink(queues, deliveries, None, sink);
    }

    fn in_flight(&self) -> usize {
        Noc::in_flight(self)
    }

    fn reset_stats(&mut self) {
        Noc::reset_stats(self);
    }

    fn only_failed_injectors_pending(&self, queues: &InjectQueues) -> bool {
        Noc::only_failed_injectors_pending(self, queues)
    }

    fn stats_snapshot(&self) -> SimStats {
        self.stats().clone()
    }
}

impl SimEngine for MultiNoc {
    fn num_nodes(&self) -> usize {
        self.config().num_nodes()
    }

    fn report_name(&self) -> String {
        self.config().spec().bank_name(self.num_channels())
    }

    fn step_cycle<S: EventSink>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
        self.step_with_sink(queues, deliveries, sink);
    }

    fn in_flight(&self) -> usize {
        MultiNoc::in_flight(self)
    }

    fn reset_stats(&mut self) {
        MultiNoc::reset_stats(self);
    }

    fn only_failed_injectors_pending(&self, queues: &InjectQueues) -> bool {
        MultiNoc::only_failed_injectors_pending(self, queues)
    }

    fn stats_snapshot(&self) -> SimStats {
        self.merged_stats()
    }
}

/// The generic drive loop: pumps the source, steps the engine, routes
/// deliveries back, and assembles the [`SimReport`]. In addition to the
/// engine's per-cycle events it emits [`SimEvent::WarmupReset`] when
/// statistics are cleared and [`SimEvent::Truncated`] when the cycle cap
/// cuts the workload short.
pub(crate) fn drive_engine<E: SimEngine, T: TrafficSource, K: EventSink>(
    engine: &mut E,
    source: &mut T,
    opts: SimOptions,
    sink: &mut K,
) -> SimReport {
    let mut queues = InjectQueues::new(engine.num_nodes());
    let mut deliveries: Vec<Delivery> = Vec::new();
    let mut measured_from = 0u64;
    let mut cycle = 0u64;
    let mut truncated = true;

    while cycle < opts.max_cycles {
        if cycle == opts.warmup_cycles && cycle != 0 {
            engine.reset_stats();
            measured_from = cycle;
            if K::ENABLED {
                sink.emit(&SimEvent::WarmupReset { cycle });
            }
        }
        source.pump(cycle, &mut queues);
        deliveries.clear();
        engine.step_cycle(&mut queues, &mut deliveries, sink);
        for d in &deliveries {
            source.on_delivery(d);
        }
        cycle += 1;
        if source.exhausted()
            && engine.in_flight() == 0
            && (queues.is_empty() || engine.only_failed_injectors_pending(&queues))
        {
            truncated = false;
            break;
        }
    }
    if truncated && K::ENABLED {
        sink.emit(&SimEvent::Truncated { cycle });
    }

    let mut stats = engine.stats_snapshot();
    stats.enqueued = queues.total_enqueued();
    SimReport {
        config_name: engine.report_name(),
        nodes: engine.num_nodes(),
        cycles: cycle - measured_from,
        stats,
        truncated,
        in_flight: engine.in_flight(),
    }
}

/// A factory for the engine a [`SimSession`] drives, plus the metadata
/// the session needs to size an attached [`HealthMonitor`].
pub trait SessionBackend {
    /// The engine this backend builds.
    type Engine: SimEngine;

    /// Builds the engine, compiling `faults` into it when given.
    fn build(&self, faults: Option<&FaultPlan>) -> Result<Self::Engine, FaultError>;

    /// The topology-derived sizing an attached monitor uses: node
    /// count, flat link-key table width, the optional
    /// grid side for DOR-distance references, and the channel count
    /// hotspot utilization normalizes by. Topology-backed backends
    /// derive this from [`crate::topology::Topology::monitor_shape`].
    fn monitor_shape(&self) -> MonitorShape;

    /// True when the backend carries armed (non-inert) fallback chains;
    /// the run's [`SimOutcome::metrics`] then carry the
    /// `fasttrack_fallback_*` rows. Chain-less backends keep their
    /// exact row set.
    fn fallback_armed(&self) -> bool {
        false
    }

    /// Installs per-router-class fallback chains (see
    /// [`SimSession::with_fallback`]). The default mirrors
    /// [`crate::topology::Topology::validate_fallback`]: only the inert
    /// configuration is accepted, because chains are defined over the
    /// torus express/shared lane pairing.
    fn set_fallback(&mut self, fallback: &FallbackConfig) -> Result<(), FallbackError> {
        if fallback.is_empty() {
            Ok(())
        } else {
            Err(FallbackError::UnsupportedTopology)
        }
    }
}

/// Evaluates `$body` with `$x` bound to whichever variant of the enum
/// `$ty` the value `$this` holds; each variant wraps one engine or
/// backend.
macro_rules! delegate {
    ($ty:ident { $($variant:ident),+ }, $this:expr, $x:ident => $body:expr) => {
        match $this {
            $($ty::$variant($x) => $body,)+
        }
    };
}

/// Backend for the torus engines: a single [`Noc`], or a [`MultiNoc`]
/// bank when a channel count is set on the session.
#[derive(Debug, Clone)]
pub struct TorusBackend {
    cfg: NocConfig,
    channels: Option<usize>,
    route: RouteMode,
    fallback: CompiledFallback,
}

impl TorusBackend {
    /// A single-channel torus backend with the default route mode.
    pub fn new(cfg: &NocConfig) -> Self {
        TorusBackend {
            cfg: cfg.clone(),
            channels: None,
            route: RouteMode::default(),
            fallback: CompiledFallback::default(),
        }
    }

    /// Builds a `channels`-way replicated bank instead of a single NoC
    /// (see [`SimSession::channels`]).
    pub fn channels(mut self, channels: usize) -> Self {
        self.channels = Some(channels);
        self
    }
}

/// The engine a [`TorusBackend`] builds. Single-channel sessions drive
/// a plain [`Noc`]; sessions with an explicit channel count drive a
/// [`MultiNoc`] even for one channel, because the bank names its report
/// `…-1x` and arbitrates through the shared-PE gates.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // engines are built once per session, never stored in bulk
pub enum TorusEngine {
    /// A single NoC channel.
    Single(Noc),
    /// A replicated multi-channel bank.
    Multi(MultiNoc),
}

impl SimEngine for TorusEngine {
    fn num_nodes(&self) -> usize {
        delegate!(TorusEngine { Single, Multi }, self, e => e.num_nodes())
    }

    fn report_name(&self) -> String {
        delegate!(TorusEngine { Single, Multi }, self, e => e.report_name())
    }

    fn step_cycle<S: EventSink>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
        delegate!(TorusEngine { Single, Multi }, self, e => e.step_cycle(queues, deliveries, sink))
    }

    fn in_flight(&self) -> usize {
        delegate!(TorusEngine { Single, Multi }, self, e => SimEngine::in_flight(e))
    }

    fn reset_stats(&mut self) {
        delegate!(TorusEngine { Single, Multi }, self, e => SimEngine::reset_stats(e))
    }

    fn only_failed_injectors_pending(&self, queues: &InjectQueues) -> bool {
        delegate!(TorusEngine { Single, Multi }, self, e => {
            SimEngine::only_failed_injectors_pending(e, queues)
        })
    }

    fn stats_snapshot(&self) -> SimStats {
        delegate!(TorusEngine { Single, Multi }, self, e => e.stats_snapshot())
    }
}

impl SessionBackend for TorusBackend {
    type Engine = TorusEngine;

    fn build(&self, faults: Option<&FaultPlan>) -> Result<TorusEngine, FaultError> {
        match self.channels {
            None => {
                let mut noc = match faults {
                    Some(plan) => Noc::with_faults(self.cfg.clone(), plan)?,
                    None => Noc::new(self.cfg.clone()),
                };
                noc.set_route_mode(self.route);
                noc.set_fallback(self.fallback);
                Ok(TorusEngine::Single(noc))
            }
            Some(k) => {
                let mut bank = match faults {
                    Some(plan) => MultiNoc::with_faults(self.cfg.clone(), k, plan)?,
                    None => MultiNoc::new(self.cfg.clone(), k),
                };
                bank.set_route_mode(self.route);
                bank.set_fallback(self.fallback);
                Ok(TorusEngine::Multi(bank))
            }
        }
    }

    fn monitor_shape(&self) -> MonitorShape {
        MonitorShape::torus(self.cfg.n()).with_channels(self.channels.unwrap_or(1))
    }

    fn fallback_armed(&self) -> bool {
        !self.fallback.is_inert()
    }

    fn set_fallback(&mut self, fallback: &FallbackConfig) -> Result<(), FallbackError> {
        use crate::topology::Topology;
        self.cfg.validate_fallback(fallback)?;
        self.fallback = fallback.compile();
        Ok(())
    }
}

/// The one [`SessionBackend`] over every fabric kind: any
/// [`TopologySpec`] plus a channel count, so every NoC a spec names runs
/// through one concrete [`SimSession`] type. A new kind is registered
/// here and in [`crate::topology::topology_of`].
#[derive(Debug, Clone)]
pub enum SpecBackend {
    /// Hoplite / FastTrack torus: a single NoC or a replicated bank.
    Torus(TorusBackend),
    /// Sparse Hamming Graph.
    Shg(ShgBackend),
    /// Buffered mesh.
    Mesh(MeshBackend),
}

impl SpecBackend {
    /// The backend for `spec`. One channel drives a plain single NoC;
    /// any other count a replicated bank (channels apply to torus NoCs
    /// only, matching how `Hoplite` vs `Hoplite-3x` read).
    pub fn new(spec: &TopologySpec, channels: usize) -> Self {
        match spec {
            TopologySpec::Torus(cfg) => {
                let backend = TorusBackend::new(cfg);
                SpecBackend::Torus(if channels == 1 {
                    backend
                } else {
                    backend.channels(channels)
                })
            }
            TopologySpec::Shg(cfg) => SpecBackend::Shg(ShgBackend::new(*cfg)),
            TopologySpec::Mesh { n, depth } => SpecBackend::Mesh(MeshBackend::new(
                &MeshConfig::new(*n, *depth).expect("specs are validated"),
            )),
        }
    }
}

impl SessionBackend for SpecBackend {
    type Engine = SpecEngine;

    fn build(&self, faults: Option<&FaultPlan>) -> Result<SpecEngine, FaultError> {
        Ok(match self {
            SpecBackend::Torus(b) => SpecEngine::Torus(b.build(faults)?),
            SpecBackend::Shg(b) => SpecEngine::Shg(b.build(faults)?),
            SpecBackend::Mesh(b) => SpecEngine::Mesh(b.build(faults)?),
        })
    }

    fn monitor_shape(&self) -> MonitorShape {
        delegate!(SpecBackend { Torus, Shg, Mesh }, self, b => b.monitor_shape())
    }

    fn fallback_armed(&self) -> bool {
        delegate!(SpecBackend { Torus, Shg, Mesh }, self, b => b.fallback_armed())
    }

    fn set_fallback(&mut self, fallback: &FallbackConfig) -> Result<(), FallbackError> {
        delegate!(SpecBackend { Torus, Shg, Mesh }, self, b => b.set_fallback(fallback))
    }
}

/// The engine a [`SpecBackend`] builds.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // engines are built once per session, never stored in bulk
pub enum SpecEngine {
    /// A torus NoC or bank.
    Torus(TorusEngine),
    /// A Sparse Hamming Graph NoC.
    Shg(ShgNoc),
    /// A buffered mesh NoC.
    Mesh(MeshNoc),
}

impl SimEngine for SpecEngine {
    fn num_nodes(&self) -> usize {
        delegate!(SpecEngine { Torus, Shg, Mesh }, self, e => e.num_nodes())
    }

    fn report_name(&self) -> String {
        delegate!(SpecEngine { Torus, Shg, Mesh }, self, e => e.report_name())
    }

    fn step_cycle<S: EventSink>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
        delegate!(SpecEngine { Torus, Shg, Mesh }, self, e => {
            e.step_cycle(queues, deliveries, sink)
        })
    }

    fn in_flight(&self) -> usize {
        delegate!(SpecEngine { Torus, Shg, Mesh }, self, e => SimEngine::in_flight(e))
    }

    fn reset_stats(&mut self) {
        delegate!(SpecEngine { Torus, Shg, Mesh }, self, e => SimEngine::reset_stats(e))
    }

    fn only_failed_injectors_pending(&self, queues: &InjectQueues) -> bool {
        delegate!(SpecEngine { Torus, Shg, Mesh }, self, e => {
            SimEngine::only_failed_injectors_pending(e, queues)
        })
    }

    fn stats_snapshot(&self) -> SimStats {
        delegate!(SpecEngine { Torus, Shg, Mesh }, self, e => e.stats_snapshot())
    }
}

/// What a [`SimSession`] run produced: the report, the metric rows of
/// everything that observed it, plus each attached observer.
#[derive(Debug)]
pub struct SimOutcome {
    /// The simulation report.
    pub report: SimReport,
    /// The run's metrics, assembled once after the drive loop: each
    /// attached observer's rows (`fasttrack_*` counters and latency
    /// histogram for the monitor, `fasttrack_attrib_*`,
    /// `fasttrack_profile_*`) and `fasttrack_fallback_*` when chains
    /// are armed. Empty for an unobserved, chain-less run.
    pub metrics: MetricsRegistry,
    /// The health monitor, when the session attached one.
    pub monitor: Option<HealthMonitor>,
    /// The profiling artifact, when the session attached
    /// [`SimSession::with_profile`].
    pub profile: Option<SessionProfile>,
    /// The latency-attribution report, when the session attached
    /// [`SimSession::with_attribution`].
    pub attribution: Option<AttributionReport>,
}

/// One composable builder for every simulation mode.
///
/// A session starts from a configuration ([`SimSession::new`] for the
/// torus engines, [`SimSession::with_backend`] for any
/// [`SessionBackend`]) and composes every concern on one builder:
///
/// * [`SimSession::with_sink`] — cycle-level event tracing,
/// * [`SimSession::with_monitor`] — online health monitoring,
/// * [`SimSession::with_attribution`] — per-packet latency attribution,
/// * [`SimSession::with_profile`] — lifecycle spans and hot-path rates,
/// * [`SimSession::with_faults`] / [`SimSession::with_fallback`] — fault
///   injection and fallback chains,
/// * [`SimSession::channels`] — a multi-channel bank (torus only),
/// * [`SimSession::route_mode`] — LUT vs recomputed routing (torus only).
///
/// Every combination is valid; all attached observers see one event
/// stream through one fan-out, and [`SimSession::run`] is the single
/// run entry: one session builds one engine and drives one source.
pub struct SimSession<'s, B: SessionBackend, K: EventSink = NullSink> {
    backend: B,
    opts: SimOptions,
    faults: Option<FaultPlan>,
    monitor: Option<MonitorConfig>,
    sink: Option<&'s mut K>,
    profile: bool,
    attribution: Option<AttributionConfig>,
}

impl SimSession<'static, TorusBackend> {
    /// A session over the torus engines for `cfg`.
    pub fn new(cfg: &NocConfig) -> Self {
        SimSession::with_backend(TorusBackend::new(cfg))
    }
}

impl<B: SessionBackend> SimSession<'static, B> {
    /// A session over an arbitrary backend (e.g. [`SpecBackend`]).
    pub fn with_backend(backend: B) -> Self {
        SimSession {
            backend,
            opts: SimOptions::default(),
            faults: None,
            monitor: None,
            sink: None,
            profile: false,
            attribution: None,
        }
    }
}

impl<'s, B: SessionBackend, K: EventSink> SimSession<'s, B, K> {
    /// Replaces the driver options wholesale.
    pub fn options(mut self, opts: SimOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the hard cap on simulated cycles.
    pub fn max_cycles(mut self, max_cycles: u64) -> Self {
        self.opts.max_cycles = max_cycles;
        self
    }

    /// Sets the warmup period after which statistics reset.
    pub fn warmup_cycles(mut self, warmup_cycles: u64) -> Self {
        self.opts.warmup_cycles = warmup_cycles;
        self
    }

    /// Injects a fault plan into the fabric. The plan is validated when
    /// the session runs; an empty plan reproduces the healthy run
    /// bit-for-bit.
    pub fn with_faults(mut self, plan: &FaultPlan) -> Self {
        self.faults = Some(plan.clone());
        self
    }

    /// Attaches a [`HealthMonitor`]; the monitor observes the run
    /// without perturbing it and is returned in the [`SimOutcome`].
    pub fn with_monitor(mut self, mcfg: MonitorConfig) -> Self {
        self.monitor = Some(mcfg);
        self
    }

    /// Attaches an [`EventSink`] observing every routing decision,
    /// injection, deflection, ejection, and driver marker. Composes
    /// with [`SimSession::with_monitor`]: both see the event stream.
    pub fn with_sink<'t, K2: EventSink>(self, sink: &'t mut K2) -> SimSession<'t, B, K2> {
        SimSession {
            backend: self.backend,
            opts: self.opts,
            faults: self.faults,
            monitor: self.monitor,
            sink: Some(sink),
            profile: self.profile,
            attribution: self.attribution,
        }
    }

    /// Attaches the self-profiler: the run records lifecycle spans
    /// (build, drive, collect), derives throughput rates, and returns a
    /// [`SessionProfile`] in the [`SimOutcome`], whose
    /// [`SimOutcome::metrics`] gain the `fasttrack_profile_*` rows.
    /// Profiling observes the run without perturbing it — the report
    /// and event stream are identical to an unprofiled session's;
    /// without this call the span sites are inert (see
    /// `profile::scoped`).
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Attaches the latency-attribution layer: an [`AttributionSink`]
    /// tees into the event stream, folds every packet's journey into a
    /// per-component latency decomposition plus wire-class decision
    /// accounting, and returns an [`AttributionReport`] in the
    /// [`SimOutcome`], whose [`SimOutcome::metrics`] gain the
    /// `fasttrack_attrib_*` rows. Like the monitor and the profiler,
    /// attribution observes the run without perturbing it — report and
    /// event stream are identical to an unattributed session's.
    pub fn with_attribution(mut self, acfg: AttributionConfig) -> Self {
        self.attribution = Some(acfg);
        self
    }

    /// Installs per-router-class fallback chains (see
    /// [`crate::fallback`]): stranded express packets demote to the
    /// shared ring, allocation losers switch channels in a bank, and
    /// only an exhausted chain drops. The config is validated through
    /// the backend ([`SessionBackend::set_fallback`]; the torus
    /// delegates to [`crate::topology::Topology::validate_fallback`],
    /// other backends admit only the inert configuration);
    /// [`FallbackConfig::none`] (the default) keeps every run
    /// bit-identical to a session without this call.
    ///
    /// # Errors
    ///
    /// Returns the first [`FallbackError`] the backend's validation
    /// finds.
    pub fn with_fallback(mut self, fallback: &FallbackConfig) -> Result<Self, FallbackError> {
        self.backend.set_fallback(fallback)?;
        Ok(self)
    }

    /// Builds the engine, attaches this session's observers, drives
    /// `source` to completion and assembles the outcome. The lifecycle
    /// spans are opened unconditionally — `profile::scoped` is inert
    /// unless [`SimSession::with_profile`] installed the recorder.
    ///
    /// An unobserved run drives [`NullSink`] and a sink-only run drives
    /// the sink itself, so a statically disabled sink still compiles
    /// every emission site out; any other combination shares one
    /// fan-out of optional observers.
    ///
    /// Returns `Err` only when a fault plan was attached and fails
    /// validation; sessions without [`SimSession::with_faults`] always
    /// succeed.
    pub fn run<T: TrafficSource>(mut self, source: &mut T) -> Result<SimOutcome, FaultError> {
        let recorder = self.profile.then(profile::ThreadProfile::begin);
        let session_span = profile::scoped("session");
        let mut engine = {
            let _build = profile::scoped("session.build");
            self.backend.build(self.faults.as_ref())?
        };
        let engine = &mut engine;
        let mut monitor = self
            .monitor
            .map(|mcfg| HealthMonitor::new(self.backend.monitor_shape(), mcfg));
        let mut attrib = self.attribution.map(AttributionSink::new);
        let mut counter = self.profile.then(EventCounter::default);
        let report = {
            let _drive = profile::scoped("session.drive");
            match (
                self.sink.as_deref_mut(),
                monitor.as_mut(),
                attrib.as_mut(),
                counter.as_mut(),
            ) {
                (None, None, None, None) => drive_engine(engine, source, self.opts, &mut NullSink),
                (Some(sink), None, None, None) => drive_engine(engine, source, self.opts, sink),
                (sink, monitor, attrib, counter) => drive_engine(
                    engine,
                    source,
                    self.opts,
                    &mut ((sink, monitor), (attrib, counter)),
                ),
            }
        };
        drop(session_span);
        let spans = recorder.map(profile::ThreadProfile::finish);

        let attribution = attrib.map(|a| AttributionReport::assemble(a, &report));
        let profile = spans
            .zip(counter)
            .map(|(spans, counter)| SessionProfile::assemble(spans, &report, counter.events));

        // The run is over: every observer reports its rows, once.
        let mut metrics = MetricsRegistry::new();
        if let Some(m) = &monitor {
            m.append_metrics(&mut metrics);
        }
        if let Some(a) = &attribution {
            a.append_metrics(&mut metrics);
        }
        if let Some(p) = &profile {
            p.append_metrics(&mut metrics);
        }
        if self.backend.fallback_armed() {
            metrics.counter(
                "fasttrack_fallback_demotions_total",
                "Stranded express packets demoted to the shared ring",
                report.stats.fallback_demotions,
            );
            metrics.counter(
                "fasttrack_fallback_channel_switches_total",
                "Allocation losers switched to an alternate channel",
                report.stats.fallback_channel_switches,
            );
        }
        Ok(SimOutcome {
            report,
            metrics,
            monitor,
            profile,
            attribution,
        })
    }
}

impl<'s, K: EventSink> SimSession<'s, TorusBackend, K> {
    /// Runs a `channels`-way replicated bank (multi-channel Hoplite, the
    /// paper's iso-wiring comparison point) instead of a single NoC.
    /// The report name is
    /// [`TopologySpec::bank_name`](crate::topology::TopologySpec::bank_name):
    /// `-<k>x` is appended above one channel.
    ///
    /// The engine panics on `channels == 0` when the session runs.
    pub fn channels(mut self, channels: usize) -> Self {
        self.backend = self.backend.channels(channels);
        self
    }

    /// Selects LUT-based or recomputed routing (see [`RouteMode`]); the
    /// two are bit-identical, and the default is [`RouteMode::Lut`].
    pub fn route_mode(mut self, mode: RouteMode) -> Self {
        self.backend.route = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Coord;

    /// A fixed batch of packets, all available at cycle 0.
    struct Batch {
        items: Vec<(usize, Coord)>,
        pushed: bool,
    }

    impl TrafficSource for Batch {
        fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
            if !self.pushed {
                for &(src, dst) in &self.items {
                    queues.push(src, dst, cycle, 0);
                }
                self.pushed = true;
            }
        }
        fn exhausted(&self) -> bool {
            self.pushed
        }
    }

    fn run_session(cfg: &NocConfig, src: &mut Batch) -> SimReport {
        SimSession::new(cfg)
            .run(src)
            .expect("no fault plan attached")
            .report
    }

    #[test]
    fn session_runs_to_completion() {
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut src = Batch {
            items: (1..16).map(|i| (i, Coord::new(0, 0))).collect(),
            pushed: false,
        };
        let report = run_session(&cfg, &mut src);
        assert!(!report.truncated);
        assert_eq!(report.stats.delivered, 15);
        assert_eq!(report.stats.enqueued, 15);
        assert!(report.cycles > 0);
        assert!(report.sustained_rate_per_pe() > 0.0);
        assert!(report.avg_latency() > 0.0);
        assert!(report.worst_latency() >= report.avg_latency() as u64);
    }

    #[test]
    fn session_truncates_at_cap() {
        struct Forever;
        impl TrafficSource for Forever {
            fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
                if cycle.is_multiple_of(10) {
                    queues.push(0, Coord::new(1, 1), cycle, 0);
                }
            }
            fn exhausted(&self) -> bool {
                false
            }
        }
        let cfg = NocConfig::hoplite(4).unwrap();
        let report = SimSession::new(&cfg)
            .max_cycles(100)
            .run(&mut Forever)
            .unwrap()
            .report;
        assert!(report.truncated);
        assert_eq!(report.cycles, 100);
    }

    #[test]
    fn multichannel_delivers_everything() {
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut src = Batch {
            items: (0..16)
                .flat_map(|i| {
                    let dst = Coord::from_node_id((i + 5) % 16, 4);
                    std::iter::repeat_n((i, dst), 10)
                })
                .collect(),
            pushed: false,
        };
        let report = SimSession::new(&cfg)
            .channels(3)
            .run(&mut src)
            .unwrap()
            .report;
        assert!(!report.truncated);
        assert_eq!(report.stats.delivered, 160);
        assert!(report.config_name.contains("3x"));
    }

    #[test]
    fn warmup_resets_measurement() {
        struct Trickle;
        impl TrafficSource for Trickle {
            fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
                if cycle < 200 {
                    queues.push((cycle % 16) as usize, Coord::new(3, 3), cycle, 0);
                }
            }
            fn exhausted(&self) -> bool {
                false
            }
        }
        let cfg = NocConfig::hoplite(4).unwrap();
        let report = SimSession::new(&cfg)
            .options(SimOptions::with_max_cycles(400).warmup_cycles(100))
            .run(&mut Trickle)
            .unwrap()
            .report;
        // Warmup-period deliveries are excluded from the measured stats.
        assert!(report.stats.delivered < 200);
        assert_eq!(report.cycles, 300);
    }
}
