//! The five workloads: each a fixed, ordered list of CLI jobs.
//!
//! The lists were sized on the 2-core reference box so one pass takes
//! 0.5-1.2 s; `--seed` reaches every job's `--seed` (and `seed + 35`
//! every `--fault-seed`), so the product only ever sees generated
//! argv's and the files earlier jobs of the same pass wrote. Two jobs
//! are the exception and always run with [`PINNED_SEED`]: see there.

use std::path::{Path, PathBuf};

/// What one job runs. The variants carry exactly the knobs the five
/// workloads vary; everything else is a constant of [`Job::argv`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Job {
    /// `sweep --grid <grid> --packets <p> --out csv [--health|--attribution <file>]`
    Sweep {
        grid: &'static str,
        packets: u64,
        sidecar: Sidecar,
    },
    /// `simulate --noc <noc> --channels <k> --rate <r> --packets <p>`
    Simulate {
        noc: &'static str,
        channels: usize,
        rate: f64,
        packets: u64,
    },
    /// `compare --topologies <list> --rate <r> --packets <p>`
    Compare {
        topologies: &'static str,
        rate: f64,
        packets: u64,
    },
    /// `storm (--grid <g> | --noc <n> --rate <r>) --kills 8 --heal 200:600 --json`
    Storm { target: StormTarget, packets: u64 },
    /// `faults --noc <noc> --rate <r> --dead-links 2 --down-links 2 --fail-stop 1 --json`
    Faults {
        noc: &'static str,
        rate: f64,
        packets: u64,
    },
    /// `monitor --noc <noc> --rate <r> --flight-recorder <k>`
    Monitor {
        noc: &'static str,
        rate: f64,
        flight: usize,
        packets: u64,
    },
    /// `record --workload <preset> --out <tmp>/<preset>.trace`
    Record { preset: Preset },
    /// `replay --file <trace>`
    Replay { trace: TraceFile },
    /// `fuzz --iters <n> --threads 1 --out <tmp>/fuzz`
    Fuzz { iters: u64 },
}

/// The observer sidecar a sweep job writes next to its CSV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sidecar {
    None,
    Health,
    Attribution,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StormTarget {
    Grid(&'static str),
    Noc { noc: &'static str, rate: f64 },
}

/// The four case-study generators `record --workload` knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    Spmv,
    Graph,
    Dataflow,
    Multiproc,
}

impl Preset {
    pub fn name(self) -> &'static str {
        match self {
            Preset::Spmv => "spmv",
            Preset::Graph => "graph",
            Preset::Dataflow => "dataflow",
            Preset::Multiproc => "multiproc",
        }
    }

    /// The torus `record` defaults to for this preset.
    pub fn default_noc(self) -> &'static str {
        match self {
            Preset::Multiproc => "ft:6:2:1",
            _ => "ft:4:2:1",
        }
    }
}

/// Which trace a replay job feeds back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFile {
    /// The file the same pass's `record` job just wrote.
    Recorded(Preset),
    /// A checked-in regression trace under `tests/corpus/`.
    Corpus(&'static str),
}

/// What the checks expect a job's output to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    SweepCsv,
    StormJson,
    FaultsJson,
    Replay,
    Text,
}

/// Storm knobs every storm job shares (`--kills 8 --heal 200:600`).
pub const STORM_KILLS: u32 = 8;
pub const STORM_HEAL: (u64, u64) = (200, 600);
/// `faults` knobs (`--dead-links 2 --down-links 2 --fail-stop 1`).
pub const FAULT_DEAD_LINKS: usize = 2;
pub const FAULT_DOWN_LINKS: usize = 2;
pub const FAULT_FAIL_STOP: usize = 1;
/// The seed `fuzz` and `record --workload multiproc` always get. Their
/// *cost* depends on the seed far more than on the code: over seeds 1-10
/// `fuzz --iters 150` took 212-821 ms (which failure classes it happens
/// to hit decides how much it minimises) and the multiprocessor trace
/// 173-244 ms and 16-20 MiB. Together they are ~90 % of a `corpus-cli`
/// pass, so seeding them would bury a 5 % regression under a 15 %
/// seed-to-seed spread. `--seed` still drives the other eleven jobs.
pub const PINNED_SEED: u64 = 7;
/// `--fault-seed` is `--seed` plus this.
pub const FAULT_SEED_OFFSET: u64 = 35;

/// Where a run reads and writes, and what it was seeded with.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// `--quick`: every `--packets` (and the fuzz iteration count)
    /// divided by ten, for smoke runs and the package's own test.
    pub quick: bool,
    /// Scratch directory for files jobs write (`benchmark/out/tmp/<workload>`).
    pub tmp: PathBuf,
    /// The product repo's `tests/corpus/`.
    pub corpus: PathBuf,
}

impl Ctx {
    pub fn fault_seed(&self) -> u64 {
        self.seed.wrapping_add(FAULT_SEED_OFFSET)
    }

    pub fn scale(&self, packets: u64) -> u64 {
        if self.quick {
            (packets / 10).max(1)
        } else {
            packets
        }
    }

    pub fn tmp_file(&self, name: &str) -> String {
        path_str(&self.tmp.join(name))
    }

    pub fn trace_path(&self, trace: TraceFile) -> String {
        match trace {
            TraceFile::Recorded(p) => self.tmp_file(&format!("{}.trace", p.name())),
            TraceFile::Corpus(name) => path_str(&self.corpus.join(name)),
        }
    }
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

impl Job {
    /// The `--seed` this job runs with.
    pub fn seed(&self, ctx: &Ctx) -> u64 {
        match self {
            Job::Fuzz { .. }
            | Job::Record {
                preset: Preset::Multiproc,
            } => PINNED_SEED,
            _ => ctx.seed,
        }
    }

    /// The argv handed to `fasttrack_cli::run` (without a program name).
    pub fn argv(&self, ctx: &Ctx) -> Vec<String> {
        let words = |parts: &[&str]| parts.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        let quota = |packets: u64| ctx.scale(packets).to_string();
        let mut a = match *self {
            Job::Sweep {
                grid,
                packets,
                sidecar,
            } => {
                let mut a = words(&["sweep", "--grid", grid, "--out", "csv", "--threads", "1"]);
                a.extend(words(&["--packets", &quota(packets)]));
                match sidecar {
                    Sidecar::None => {}
                    Sidecar::Health => {
                        a.extend(words(&["--health", &ctx.tmp_file("health.json")]));
                    }
                    Sidecar::Attribution => {
                        a.extend(words(&["--attribution", &ctx.tmp_file("attribution.csv")]));
                    }
                }
                a
            }
            Job::Simulate {
                noc,
                channels,
                rate,
                packets,
            } => words(&[
                "simulate",
                "--noc",
                noc,
                "--channels",
                &channels.to_string(),
                "--rate",
                &rate.to_string(),
                "--packets",
                &quota(packets),
            ]),
            Job::Compare {
                topologies,
                rate,
                packets,
            } => words(&[
                "compare",
                "--topologies",
                topologies,
                "--rate",
                &rate.to_string(),
                "--packets",
                &quota(packets),
            ]),
            Job::Storm { target, packets } => {
                let mut a = match target {
                    StormTarget::Grid(grid) => words(&["storm", "--grid", grid]),
                    StormTarget::Noc { noc, rate } => {
                        words(&["storm", "--noc", noc, "--rate", &rate.to_string()])
                    }
                };
                a.extend(words(&[
                    "--kills",
                    &STORM_KILLS.to_string(),
                    "--heal",
                    &format!("{}:{}", STORM_HEAL.0, STORM_HEAL.1),
                    "--threads",
                    "1",
                    "--json",
                    "--packets",
                    &quota(packets),
                ]));
                a
            }
            Job::Faults { noc, rate, packets } => words(&[
                "faults",
                "--noc",
                noc,
                "--rate",
                &rate.to_string(),
                "--dead-links",
                &FAULT_DEAD_LINKS.to_string(),
                "--down-links",
                &FAULT_DOWN_LINKS.to_string(),
                "--fail-stop",
                &FAULT_FAIL_STOP.to_string(),
                "--json",
                "--fault-seed",
                &ctx.fault_seed().to_string(),
                "--packets",
                &quota(packets),
            ]),
            Job::Monitor {
                noc,
                rate,
                flight,
                packets,
            } => words(&[
                "monitor",
                "--noc",
                noc,
                "--rate",
                &rate.to_string(),
                "--flight-recorder",
                &flight.to_string(),
                "--packets",
                &quota(packets),
            ]),
            Job::Record { preset } => words(&[
                "record",
                "--workload",
                preset.name(),
                "--out",
                &ctx.trace_path(TraceFile::Recorded(preset)),
            ]),
            // `replay` takes no seed: the trace is its whole input.
            Job::Replay { trace } => {
                return words(&["replay", "--file", &ctx.trace_path(trace)]);
            }
            Job::Fuzz { iters } => words(&[
                "fuzz",
                "--iters",
                &quota(iters),
                "--threads",
                "1",
                "--out",
                &ctx.tmp_file("fuzz"),
            ]),
        };
        a.extend(words(&["--seed", &self.seed(ctx).to_string()]));
        a
    }

    pub fn output_kind(&self) -> OutputKind {
        match self {
            Job::Sweep { .. } => OutputKind::SweepCsv,
            Job::Storm { .. } => OutputKind::StormJson,
            Job::Faults { .. } => OutputKind::FaultsJson,
            Job::Replay { .. } => OutputKind::Replay,
            _ => OutputKind::Text,
        }
    }
}

/// A named job list.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// `(label, job)`; labels are unique within the workload and name
    /// the job in `results.json` and the trace.
    pub jobs: &'static [(&'static str, Job)],
}

const fn sweep(grid: &'static str, packets: u64) -> Job {
    Job::Sweep {
        grid,
        packets,
        sidecar: Sidecar::None,
    }
}

const fn replay_recorded(preset: Preset) -> Job {
    Job::Replay {
        trace: TraceFile::Recorded(preset),
    }
}

const fn replay_corpus(name: &'static str) -> Job {
    Job::Replay {
        trace: TraceFile::Corpus(name),
    }
}

const OBSERVED_GRID: &str = "ft:8:2:2,shg:8:2;random;0.1,1.0";

/// The benchmark's workloads, in the order `--all` runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "torus-lowload",
        why: "8x8 and 16x16 torus sweeps at <=10% injection: routers are mostly idle, so per-router fixed cost and pump dominate; an occupancy worklist shows here",
        jobs: &[
            ("sweep-hoplite8", sweep("hoplite:8;random,local:3;0.02,0.05,0.1", 125)),
            ("sweep-ft8-2-1", sweep("ft:8:2:1;random,local:3;0.02,0.05,0.1", 125)),
            ("sweep-ft8-2-2", sweep("ft:8:2:2;random,local:3;0.02,0.05,0.1", 125)),
            ("sweep-16x16", sweep("hoplite:16,ft:16:4:2;random;0.05", 50)),
        ],
    },
    Workload {
        name: "torus-saturated",
        why: "the same torus NoCs on the paper's four patterns at 50% and 100% injection: every router is busy, so route lookup, allocation and deflection dominate; idle-skip predicts no change",
        jobs: &[
            ("sweep-hoplite8", sweep("hoplite:8;random,local:3,bitcompl,transpose;0.5,1.0", 250)),
            ("sweep-ft8-2-1", sweep("ft:8:2:1;random,local:3,bitcompl,transpose;0.5,1.0", 250)),
            ("sweep-ft8-2-2", sweep("ft:8:2:2;random,local:3,bitcompl,transpose;0.5,1.0", 250)),
            ("sweep-ft16-4-2", sweep("ft:16:4:2;random;1.0", 75)),
        ],
    },
    Workload {
        name: "backends-mixed",
        why: "SHG, buffered mesh and 3-channel Hoplite engines plus the iso-resource compare harness: a torus-only kernel change must leave it flat",
        jobs: &[
            ("sweep-shg8", sweep("shg:8:2;random,transpose;0.1,1.0", 500)),
            ("sweep-mesh8", sweep("mesh:8:4;random,transpose;0.1,1.0", 500)),
            (
                "simulate-hoplite3x-low",
                Job::Simulate { noc: "hoplite:8", channels: 3, rate: 0.1, packets: 500 },
            ),
            (
                "simulate-hoplite3x-sat",
                Job::Simulate { noc: "hoplite:8", channels: 3, rate: 1.0, packets: 500 },
            ),
            (
                "compare-iso",
                Job::Compare { topologies: "ft:8:2:2,shg:8:2,mesh:8:4", rate: 0.5, packets: 500 },
            ),
        ],
    },
    Workload {
        name: "observed-faulted",
        why: "the torus/SHG step under fault storms, armed fallback chains and enabled sinks (monitor, attribution, flight recorder): catches a healthy-path fast path that taxes the faulted or observed path",
        jobs: &[
            (
                "storm-torus",
                Job::Storm {
                    target: StormTarget::Grid("ft:8:2:2,ftlite:8:4:1;random;0.3,0.8"),
                    packets: 500,
                },
            ),
            (
                "storm-shg",
                Job::Storm {
                    target: StormTarget::Noc { noc: "shg:8:2", rate: 0.3 },
                    packets: 500,
                },
            ),
            ("faults-ft8", Job::Faults { noc: "ft:8:2:2", rate: 0.3, packets: 500 }),
            (
                "sweep-health",
                Job::Sweep { grid: OBSERVED_GRID, packets: 500, sidecar: Sidecar::Health },
            ),
            (
                "sweep-attribution",
                Job::Sweep { grid: OBSERVED_GRID, packets: 500, sidecar: Sidecar::Attribution },
            ),
            (
                "monitor-ft8",
                Job::Monitor { noc: "ft:8:2:2", rate: 1.0, flight: 64, packets: 500 },
            ),
        ],
    },
    Workload {
        name: "corpus-cli",
        why: "record/replay of the four case-study generators, corpus replays, the fuzzer and a 48-point tiny sweep: generation, codec, session build and formatting dominate, kernel work shows ~nothing",
        jobs: &[
            ("record-spmv", Job::Record { preset: Preset::Spmv }),
            ("replay-spmv", replay_recorded(Preset::Spmv)),
            ("record-graph", Job::Record { preset: Preset::Graph }),
            ("replay-graph", replay_recorded(Preset::Graph)),
            ("record-dataflow", Job::Record { preset: Preset::Dataflow }),
            ("replay-dataflow", replay_recorded(Preset::Dataflow)),
            ("record-multiproc", Job::Record { preset: Preset::Multiproc }),
            ("replay-multiproc", replay_recorded(Preset::Multiproc)),
            ("replay-inject-livelock", replay_corpus("inject_livelock.trace")),
            ("replay-monitor-livelock", replay_corpus("monitor_livelock.trace")),
            ("replay-reroute-loop", replay_corpus("reroute_loop.trace")),
            ("fuzz", Job::Fuzz { iters: 150 }),
            (
                "sweep-tiny48",
                sweep(
                    "hoplite:4,ft:4:2:1,ft:8:2:1,ft:8:2:2,shg:4:1,mesh:4:2;random,transpose,bitcompl,tornado;0.1,0.5",
                    20,
                ),
            ),
        ],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Ctx {
        Ctx {
            seed: 11,
            quick: false,
            tmp: PathBuf::from("out/tmp/w"),
            corpus: PathBuf::from("../tests/corpus"),
        }
    }

    #[test]
    fn seeds_reach_every_seeded_job() {
        let ctx = ctx();
        for w in &WORKLOADS {
            for (label, job) in w.jobs {
                let argv = job.argv(&ctx);
                let seed = argv
                    .windows(2)
                    .find(|p| p[0] == "--seed")
                    .map(|p| p[1].as_str());
                let expected = match job {
                    Job::Replay { .. } => None,
                    Job::Fuzz { .. }
                    | Job::Record {
                        preset: Preset::Multiproc,
                    } => Some("7"),
                    _ => Some("11"),
                };
                assert_eq!(seed, expected, "{}/{label}: {argv:?}", w.name);
                if matches!(job, Job::Faults { .. }) {
                    assert!(argv
                        .windows(2)
                        .any(|p| p[0] == "--fault-seed" && p[1] == "46"));
                }
            }
        }
    }

    #[test]
    fn job_labels_are_unique_and_every_job_is_single_threaded() {
        for w in &WORKLOADS {
            let mut labels: Vec<_> = w.jobs.iter().map(|(l, _)| *l).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), w.jobs.len(), "{}", w.name);
            for (_, job) in w.jobs {
                let argv = job.argv(&ctx());
                if let Some(p) = argv.iter().position(|a| a == "--threads") {
                    assert_eq!(argv[p + 1], "1");
                }
            }
        }
    }

    #[test]
    fn quick_divides_packets_by_ten() {
        let mut ctx = ctx();
        ctx.quick = true;
        let argv = WORKLOADS[1].jobs[0].1.argv(&ctx);
        let p = argv.iter().position(|a| a == "--packets").unwrap();
        assert_eq!(argv[p + 1], "25");
    }
}
