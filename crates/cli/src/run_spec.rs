//! The one flags→run path: how `--noc/--channels` and
//! `--pattern/--rate/--packets/--seed` become a [`TopologySpec`], a
//! [`BernoulliSource`], and a session, with each command's defaults
//! passed in — plus the plumbing the command bodies share.

use fasttrack_bench::runner::SpecBackend;
use fasttrack_core::config::NocConfig;
use fasttrack_core::fault::{FaultPlan, FaultSpec};
use fasttrack_core::multichannel::MAX_CHANNELS;
use fasttrack_core::sim::{SimReport, SimSession};
use fasttrack_core::topology::TopologySpec;
use fasttrack_traffic::pattern::Pattern;
use fasttrack_traffic::source::BernoulliSource;

use crate::args::Flags;
use crate::commands::CliError;
use crate::spec::{check_pattern_side, parse_pattern, parse_topology};

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
    /// The run `flags` describe on the topology `--noc` names
    /// (`default_noc` when absent; with `None` the flag is required),
    /// given the command's default `--rate` and `--packets`.
    pub fn from_flags(
        flags: &Flags,
        default_noc: Option<&str>,
        rate: f64,
        packets: u64,
    ) -> Result<RunSpec, CliError> {
        let noc = match default_noc {
            Some(default) => flags.optional("noc").unwrap_or(default),
            None => flags.required("noc")?,
        };
        RunSpec::on(parse_topology(noc)?, flags, rate, packets)
    }

    /// The same on a topology the caller resolved (a torus-only
    /// command's `parse_noc`, one entry of a list). One channel: the
    /// commands that take `--channels` chain [`RunSpec::with_channels`].
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
        let side = self
            .topology
            .monitor_shape()
            .grid_side
            .expect("built-in topologies are square grids");
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

/// Draws the plan the fault-count flags describe from `--fault-seed`
/// (the run's `seed` when absent), returning the seed beside the plan.
/// `down_links` is the caller's: only `faults` has a `--down-links`.
pub(crate) fn fault_plan(
    flags: &Flags,
    cfg: &NocConfig,
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
    Ok((fault_seed, FaultPlan::random(cfg, fault_seed, &spec)))
}

/// Writes an output file, naming the path in the error.
pub(crate) fn write_file(path: &str, data: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(path, data).map_err(|e| CliError::Io(format!("{path}: {e}")))
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
