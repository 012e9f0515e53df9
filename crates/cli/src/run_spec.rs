//! The one flags→run path: how `--noc/--channels` and
//! `--pattern/--rate/--packets/--seed` become a [`TopologySpec`], a
//! [`BernoulliSource`], and a session, with each command's defaults
//! passed in; how every single-run command gets its session and traffic
//! ([`SingleRun::new`]) — plus the plumbing the command bodies share.

use fasttrack_bench::runner::SpecBackend;
use fasttrack_core::fallback::FallbackConfig;
use fasttrack_core::fault::{FaultPlan, FaultSpec};
use fasttrack_core::multichannel::MAX_CHANNELS;
use fasttrack_core::sim::{SimReport, SimSession, TrafficSource};
use fasttrack_core::topology::{Topology, TopologySpec};
use fasttrack_traffic::pattern::Pattern;
use fasttrack_traffic::scenario::{ReplaySource, ScenarioHeader, ScenarioTrace};
use fasttrack_traffic::source::BernoulliSource;
use fasttrack_traffic::trace_io::parse_trace;

use crate::args::{ArgError, Flags};
use crate::commands::{CliError, MAX_STORM_EVENTS};
use crate::spec::{check_pattern_side, parse_pattern, parse_topology};

/// An observer a single-run command attaches to every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Observer {
    Monitor,
    Profile,
    Attribution,
}

/// A single-run command's row: its synthetic run's `--noc` default
/// (`None`: the flag is required), its `--rate` and `--packets`
/// defaults, and the observers every run attaches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run(
    pub Option<&'static str>,
    pub f64,
    pub u64,
    pub &'static [Observer],
);

/// One single run, ready to drive: its fabric, its session and its
/// traffic.
pub struct SingleRun {
    /// The fabric the run drives.
    pub topology: TopologySpec,
    /// The session over `topology`, carrying whatever the input fixes
    /// (a trace header's channels, cycle cap, warmup, faults, chains).
    pub session: SimSession<'static, SpecBackend>,
    /// The traffic.
    pub source: Box<dyn TrafficSource>,
    /// The header and push count of a recorded scenario.
    pub recorded: Option<(ScenarioHeader, usize)>,
}

impl SingleRun {
    /// The one input step of every single-run command: the scenario
    /// trace at `--trace`, the text trace at `--file` on the `--noc`
    /// fabric, or else [`RunSpec`]'s Bernoulli traffic under `run`'s
    /// defaults — on any topology.
    pub(crate) fn new(flags: &Flags, run: Run) -> Result<SingleRun, CliError> {
        let Run(noc, rate, packets, observers) = run;
        if let Some(path) = flags.optional("trace") {
            return load_replay(path);
        }
        let noc = match flags.optional("noc").or(noc) {
            Some(noc) => noc,
            // `attribute` and `explain` also run from `--trace`.
            None if observers.contains(&Observer::Attribution) => {
                return Err(CliError::Other(
                    "need --trace <path> or --noc <spec> to say which run to attribute".into(),
                ))
            }
            None => return Err(ArgError::MissingFlag("noc").into()),
        };
        let topology = parse_topology(noc)?;
        if let Some(path) = flags.optional("file") {
            let side = topology.side();
            let records =
                parse_trace(&read_file(path)?, side).map_err(|e| CliError::Other(e.to_string()))?;
            return Ok(SingleRun {
                session: session_for(&topology, 1),
                topology,
                source: Box::new(ReplaySource::new(side, records)),
                recorded: None,
            });
        }
        let run = RunSpec::on(topology, flags, rate, packets)?.with_channels(flags)?;
        Ok(SingleRun {
            session: run.session(),
            source: Box::new(run.source()),
            topology: run.topology,
            recorded: None,
        })
    }
}

/// Turns a decoded scenario trace into the run it replays. Topology,
/// channel count, cycle cap, warmup, fault plan and — when the header
/// says the recording ran with them — the standard fallback chains all
/// come from the trace header; the records move into the source, so the
/// run holds one copy of the schedule. This is the one reading of a
/// header: `replay`, `attribute --trace`, `explain --trace` and the
/// corpus tests all replay through it.
pub fn replay_session(trace: ScenarioTrace) -> Result<SingleRun, CliError> {
    let (header, topology, plan, source) = trace
        .replay_setup()
        .map_err(|e| CliError::Other(e.to_string()))?;
    let mut session = session_for(&topology, header.channels)
        .max_cycles(header.max_cycles)
        .warmup_cycles(header.warmup)
        .with_faults(&plan);
    if header.fallback {
        session = session
            .with_fallback(&FallbackConfig::standard())
            .map_err(|e| CliError::Other(e.to_string()))?;
    }
    let pushes = source.len();
    Ok(SingleRun {
        topology,
        session,
        source: Box::new(source),
        recorded: Some((header, pushes)),
    })
}

/// [`replay_session`] of the trace file at `path`, whose text is
/// dropped once decoded.
pub(crate) fn load_replay(path: &str) -> Result<SingleRun, CliError> {
    let text = read_file(path)?;
    let trace =
        ScenarioTrace::decode(&text).map_err(|e| CliError::Other(format!("{path}: {e}")))?;
    drop(text);
    replay_session(trace).map_err(|e| CliError::Other(format!("{path}: {e}")))
}

/// One validated synthetic run.
pub(crate) struct RunSpec {
    pub topology: TopologySpec,
    /// Physical channels, at least 1; more than 1 only on a torus.
    pub channels: usize,
    pub pattern: Pattern,
    /// Injection rate, within `(0, 1]`.
    pub rate: f64,
    pub packets: u64,
    pub seed: u64,
}

impl RunSpec {
    /// The run `flags` describe on `topology`, given the command's
    /// default `--rate` and `--packets`. One channel: the commands that
    /// take `--channels` chain [`RunSpec::with_channels`].
    pub fn on(
        topology: TopologySpec,
        flags: &Flags,
        rate: f64,
        packets: u64,
    ) -> Result<RunSpec, CliError> {
        let rate: f64 = flags.numeric("rate", rate)?;
        // The source constructor asserts this; a flag must not reach it.
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(CliError::Other(format!(
                "injection rate {rate} out of (0,1]"
            )));
        }
        let pattern = parse_pattern(pattern_flag(flags))?;
        check_pattern_side(pattern, &topology)?;
        Ok(RunSpec {
            topology,
            channels: 1,
            pattern,
            rate,
            packets: flags.numeric("packets", packets)?,
            seed: flags.numeric("seed", 1)?,
        })
    }

    /// Applies `--channels` (0 and 1 both mean a plain single NoC).
    pub fn with_channels(mut self, flags: &Flags) -> Result<RunSpec, CliError> {
        self.channels = channels_flag(flags, 1)?.max(1);
        // `SpecBackend` would silently drive one channel instead.
        if self.channels > 1 && !matches!(self.topology, TopologySpec::Torus(_)) {
            return Err(CliError::Other(
                "--channels > 1 replicates torus fabrics only".into(),
            ));
        }
        Ok(self)
    }

    /// A fresh Bernoulli source; equal runs draw equal traffic.
    pub fn source(&self) -> BernoulliSource {
        let side = self.topology.side();
        BernoulliSource::new(side, self.pattern, self.rate, self.packets, self.seed)
    }

    /// A fresh session over this run's fabric.
    pub fn session(&self) -> SimSession<'static, SpecBackend> {
        session_for(&self.topology, self.channels)
    }
}

/// The session over `spec` replicated across `channels` physical
/// channels: more than 1 is a torus bank, and a trace header's 0 means
/// 1.
pub(crate) fn session_for(
    spec: &TopologySpec,
    channels: usize,
) -> SimSession<'static, SpecBackend> {
    SimSession::with_backend(SpecBackend::new(spec, channels.max(1)))
}

/// `--channels`, `default` when absent, refused above the cap a trace
/// header's `channels` is held to: the bank allocates per channel.
pub(crate) fn channels_flag(flags: &Flags, default: usize) -> Result<usize, CliError> {
    let channels: usize = flags.numeric("channels", default)?;
    if channels > MAX_CHANNELS {
        return Err(CliError::Other(format!(
            "--channels {channels} is above the {MAX_CHANNELS}-channel cap"
        )));
    }
    Ok(channels)
}

/// A float `--<flag>`, `default` when absent, refused unless `ok`
/// holds; `range` names the accepted values in the error. NaN fails
/// every comparison, so a range check written as one refuses it too.
pub(crate) fn float_flag(
    flags: &Flags,
    flag: &str,
    default: f64,
    range: &str,
    ok: impl Fn(f64) -> bool,
) -> Result<f64, CliError> {
    let value: f64 = flags.numeric(flag, default)?;
    if ok(value) {
        Ok(value)
    } else {
        Err(CliError::Other(format!("--{flag} {value} out of {range}")))
    }
}

/// The `--pattern` spec string, `random` when absent.
pub(crate) fn pattern_flag(flags: &Flags) -> &str {
    flags.optional("pattern").unwrap_or("random")
}

/// Parses a `--<flag> <lo>:<hi>` cycle range, `default` when absent;
/// `lo`/`hi` are the names the flag's usage line gives the two ends.
pub(crate) fn range_flag(
    flags: &Flags,
    flag: &str,
    (lo, hi): (&str, &str),
    default: (u64, u64),
) -> Result<(u64, u64), CliError> {
    let Some(s) = flags.optional(flag) else {
        return Ok(default);
    };
    let parsed = s
        .split_once(':')
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)));
    match parsed {
        Some((a, b)) if a < b => Ok((a, b)),
        Some((a, b)) => Err(CliError::Other(format!(
            "--{flag} {a}:{b} is empty (need {lo} < {hi})"
        ))),
        None => Err(CliError::Other(format!(
            "--{flag} expects <{lo}>:<{hi}> in cycles, got {s:?}"
        ))),
    }
}

/// Draws the plan the fault-count flags describe on `topology` from
/// `--fault-seed` (the run's `seed` when absent), returning the seed
/// beside the plan. `down_links` is the caller's: only `faults` has a
/// `--down-links`.
pub(crate) fn fault_plan(
    flags: &Flags,
    topology: &dyn Topology,
    seed: u64,
    down_links: usize,
) -> Result<(u64, FaultPlan), CliError> {
    let fault_seed: u64 = flags.numeric("fault-seed", seed)?;
    let spec = FaultSpec {
        dead_links: flags.numeric("dead-links", 0)?,
        transient_links: flags.numeric("transient-links", 0)?,
        fail_stop_routers: flags.numeric("fail-stop", 0)?,
        stalled_injectors: flags.numeric("stalled-injectors", 0)?,
        down_links,
        window: range_flag(
            flags,
            "window",
            ("from", "until"),
            FaultSpec::default().window,
        )?,
    };
    // Every transient or down link is drawn into the plan, whatever the
    // fabric's size (dead links, fail-stops and stalls cap at it).
    for (flag, count) in [
        ("transient-links", spec.transient_links),
        ("down-links", spec.down_links),
    ] {
        if count as u64 > MAX_STORM_EVENTS {
            return Err(CliError::Other(format!(
                "--{flag} {count} is above the {MAX_STORM_EVENTS}-event cap"
            )));
        }
    }
    Ok((fault_seed, FaultPlan::random(topology, fault_seed, &spec)))
}

/// Reads an input file, naming the path in the error.
pub(crate) fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))
}

/// Writes an output file, naming the path in the error.
pub(crate) fn write_file(path: &str, data: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(path, data).map_err(|e| CliError::Io(format!("{path}: {e}")))
}

/// Writes one line of commentary to stderr. A closed stderr is not
/// the command's failure, so unlike `eprintln!` this never panics.
pub(crate) fn note(line: impl std::fmt::Display) {
    use std::io::Write;
    let _ = writeln!(std::io::stderr(), "{line}");
}

/// `out`, as an error when the run broke exact conservation: that is
/// an engine bug and CI keys off the exit code, while the text still
/// carries the full accounting for the failure report.
pub(crate) fn conserved_or_err(out: String, report: &SimReport) -> Result<String, CliError> {
    if report.conserved() {
        Ok(out)
    } else {
        Err(CliError::Other(format!(
            "{out}conservation invariant violated (delivered + in_flight + dropped != injected)"
        )))
    }
}
