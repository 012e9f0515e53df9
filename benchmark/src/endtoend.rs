//! The end-to-end run of one workload (`--trace 0`): the real user path,
//! in-process through `fasttrack_cli::run(argv)` — spec parse, engine
//! build, drive, CSV/JSON string — with tracing off.

use std::time::Duration;

use fasttrack_bench::runner::{sweep_csv, SweepRow};

use crate::checks::{parse_output, summarize, SimCounts, Tally};
use crate::env;
use crate::estimator::{round_robin, timed, Budget, Samples};
use crate::json::Json;
use crate::plan::{set_up_all, sweep_grid};
use crate::workloads::{Ctx, Job, Workload};

/// A set-up pass takes a millisecond or two on the simulation
/// workloads; each sample repeats it until it is at least this long.
const SETUP_SAMPLE_SECS: f64 = 0.02;
const SETUP_MAX_REPEATS: usize = 50;
/// Passes taken whatever the time budget says.
const MIN_PASSES: usize = 5;
const MAX_PASSES: usize = 500;
/// `--quick` takes exactly this many.
const QUICK_PASSES: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    /// How long the round-robin loop samples.
    pub seconds: f64,
    pub quick: bool,
}

impl RunOptions {
    pub fn budget(&self) -> Budget {
        if self.quick {
            Budget {
                time: Duration::ZERO,
                min_passes: QUICK_PASSES,
                max_passes: QUICK_PASSES,
            }
        } else {
            Budget {
                time: Duration::from_secs_f64(self.seconds),
                min_passes: MIN_PASSES,
                max_passes: MAX_PASSES,
            }
        }
    }

    pub fn ctx(&self, workload: &Workload) -> Result<Ctx, String> {
        let tmp = env::out_dir().join("tmp").join(workload.name);
        // Start from an empty scratch directory: `fuzz --out` and the
        // sidecars must not see a previous run's files.
        if tmp.exists() {
            std::fs::remove_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
        }
        std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
        Ok(Ctx {
            seed: self.seed,
            quick: self.quick,
            tmp,
            corpus: env::corpus_dir(),
        })
    }
}

/// What a run hands back to `main`: the verdict, the named metrics, and
/// the detail block for `benchmark/out/`.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    /// `(name, value)` for every catalogued metric of this kind of run;
    /// empty when the run was cut short by a failing job.
    pub metrics: Vec<(&'static str, f64)>,
    pub detail: Json,
}

/// Runs one job through the CLI entry point, timing only the call.
pub fn run_job(job: &Job, ctx: &Ctx) -> (Result<String, String>, f64) {
    let argv = job.argv(ctx);
    let (out, secs) = timed(|| fasttrack_cli::run(argv));
    (out.map_err(|e| e.to_string()), secs)
}

/// Work counts of the sweep-kind jobs, from library-level rows proven
/// byte-identical to what the CLI printed.
#[derive(Debug, Clone, Copy, Default)]
struct SweepWork {
    router_cycles: u64,
    route_decisions: u64,
    delivered: u64,
}

fn sweep_work(rows: &[SweepRow]) -> SweepWork {
    let mut w = SweepWork::default();
    for row in rows {
        let r = &row.report;
        w.router_cycles += r.cycles * r.nodes as u64 * row.channels as u64;
        w.route_decisions += r.stats.route_decisions;
        w.delivered += r.stats.delivered;
    }
    w
}

pub fn run(workload: &Workload, opts: &RunOptions) -> Result<Outcome, String> {
    let ctx = opts.ctx(workload)?;
    let jobs = workload.jobs;
    let mut tally = Tally::default();

    // Pass 1 is a discarded warm-up; its outputs are the reference every
    // later pass must reproduce byte for byte.
    let mut reference = Vec::with_capacity(jobs.len());
    for (label, job) in jobs {
        match run_job(job, &ctx).0 {
            Ok(out) => {
                tally.passed();
                reference.push(out);
            }
            Err(e) => {
                tally.failed_op(format!("{label}: job failed: {e}"));
                return Ok(cut_short(tally));
            }
        }
    }

    let (first, once) = timed(|| set_up_all(jobs, &ctx));
    let sessions = first?;
    let repeats =
        ((SETUP_SAMPLE_SECS / once.max(1e-9)).ceil() as usize).clamp(1, SETUP_MAX_REPEATS);

    let setup_slot = jobs.len();
    let samples = round_robin(jobs.len() + 1, opts.budget(), |j| {
        if j == setup_slot {
            let (out, secs) =
                timed(|| (0..repeats).try_for_each(|_| set_up_all(jobs, &ctx).map(drop)));
            out.map(|()| secs / repeats as f64)
        } else {
            let (label, job) = &jobs[j];
            let (out, secs) = run_job(job, &ctx);
            match out {
                Ok(out) => tally.check(out == reference[j], || {
                    format!("{label}: output differs between passes")
                }),
                Err(e) => tally.failed_op(format!("{label}: job failed: {e}")),
            }
            Ok(secs)
        }
    })?;
    let peak_rss = env::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    if !tally.correct() {
        return Ok(cut_short(tally));
    }

    // What the jobs printed: conservation, verdicts, simulated statistics.
    let mut runs: Vec<SimCounts> = Vec::new();
    for ((label, job), out) in jobs.iter().zip(&reference) {
        runs.extend(parse_output(job.output_kind(), label, out, &mut tally));
    }

    // Sweep jobs: the CLI's CSV must equal the library's, at one thread
    // and at nproc threads; the library rows supply the work counts.
    let threads = env::sweep_threads().to_string();
    let mut work = vec![SweepWork::default(); jobs.len()];
    for (j, (label, job)) in jobs.iter().enumerate() {
        let Job::Sweep { grid, packets, .. } = *job else {
            continue;
        };
        let rows = sweep_grid(grid, ctx.scale(packets), job.seed(&ctx))?.run(1);
        tally.check(sweep_csv(&rows) == reference[j], || {
            format!("{label}: CLI CSV differs from library sweep_csv(rows)")
        });
        work[j] = sweep_work(&rows);

        let mut argv = job.argv(&ctx);
        let at = argv
            .iter()
            .position(|a| a == "--threads")
            .expect("sweep argv has --threads");
        argv[at + 1].clone_from(&threads);
        match fasttrack_cli::run(argv) {
            Ok(out) => tally.check(out == reference[j], || {
                format!("{label}: CSV at --threads {threads} differs from --threads 1")
            }),
            Err(e) => tally.failed_op(format!("{label}: --threads {threads} failed: {e}")),
        }
    }

    let sweep_jobs: Vec<usize> = (0..jobs.len())
        .filter(|&j| matches!(jobs[j].1, Job::Sweep { .. }))
        .collect();
    let deciding: Vec<usize> = sweep_jobs
        .iter()
        .copied()
        .filter(|&j| work[j].route_decisions > 0)
        .collect();
    let sum = |js: &[usize], f: fn(&SweepWork) -> u64| js.iter().map(|&j| f(&work[j])).sum::<u64>();
    let sweep_secs = samples.sum_of_minima(sweep_jobs.iter().copied());
    let deciding_secs = samples.sum_of_minima(deciding.iter().copied());
    let sim = summarize(&runs);

    let metrics = vec![
        ("wall_s", samples.sum_of_minima(0..jobs.len())),
        ("setup_s", samples.min(setup_slot)),
        (
            "ns_per_router_cycle",
            sweep_secs * 1e9 / sum(&sweep_jobs, |w| w.router_cycles) as f64,
        ),
        (
            "ns_per_route_decision",
            deciding_secs * 1e9 / sum(&deciding, |w| w.route_decisions) as f64,
        ),
        (
            "packets_per_s",
            sum(&sweep_jobs, |w| w.delivered) as f64 / sweep_secs,
        ),
        ("peak_rss_mb", peak_rss),
        ("sim_cycles", sim.cycles as f64),
        ("sim_avg_latency_cycles", sim.avg_latency_cycles),
        ("sim_delivered_frac", sim.delivered_frac),
    ];
    for (name, value) in &metrics {
        tally.check(value.is_finite() && *value > 0.0, || {
            format!("metric {name} is {value}")
        });
    }

    let detail = Json::obj([
        ("passes", Json::Num(samples.passes() as f64)),
        ("sessions_per_setup_pass", Json::Num(sessions as f64)),
        ("setup_repeats_per_sample", Json::Num(repeats as f64)),
        (
            "job_spread_max",
            Json::Num(samples.spread_max(0..jobs.len())),
        ),
        (
            "slow_phase_frac",
            Json::Num(samples.slow_phase_frac(0..jobs.len())),
        ),
        ("jobs", jobs_detail(workload, &ctx, &samples)),
    ]);
    Ok(Outcome {
        tally,
        metrics,
        detail,
    })
}

fn cut_short(tally: Tally) -> Outcome {
    Outcome {
        tally,
        metrics: Vec::new(),
        detail: Json::Null,
    }
}

/// Per-job min / median / max / K, with the argv that was run.
fn jobs_detail(workload: &Workload, ctx: &Ctx, samples: &Samples) -> Json {
    Json::Arr(
        workload
            .jobs
            .iter()
            .enumerate()
            .map(|(j, (label, job))| {
                Json::obj([
                    ("job", Json::str(*label)),
                    ("argv", Json::str(job.argv(ctx).join(" "))),
                    ("min_s", Json::Num(samples.min(j))),
                    ("median_s", Json::Num(samples.median(j))),
                    ("max_s", Json::Num(samples.max(j))),
                    ("k", Json::Num(samples.times[j].len() as f64)),
                ])
            })
            .collect(),
    )
}
