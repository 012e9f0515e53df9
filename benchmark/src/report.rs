//! What the benchmark prints and writes: one workload's result (the
//! acceptance contract's last-line JSON), the `--all` table and
//! `results.json`, `--repeat-check` and `baseline.json`, and `--list`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::endtoend::{self, Outcome, RunOptions};
use crate::env;
use crate::json::Json;
use crate::traced;
use crate::workloads::{self, Ctx, Workload, WORKLOADS};

/// `results.json` / `baseline.json` layout version.
const SCHEMA_VERSION: f64 = 1.0;

fn unit_of(name: &str) -> (&'static str, Better, Option<f64>) {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.unit, m.better, Some(m.bound)))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| (m.unit, m.better, None))
        })
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// `e2e` or `layers`: how the two kinds of run name their files.
fn kind_of(traced: bool) -> &'static str {
    if traced {
        "layers"
    } else {
        "e2e"
    }
}

fn write_out(name: &str, doc: &Json) -> Result<(), String> {
    let dir = env::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn metrics_table(metrics: &[(&'static str, f64)]) -> String {
    let mut out = String::new();
    for (name, value) in metrics {
        let (unit, better, bound) = unit_of(name);
        let _ = write!(
            out,
            "  {name:<46} {value:>16.6} {unit:<7} {} is better",
            better.as_str()
        );
        if let Some(b) = bound {
            let _ = write!(out, ", bound {:.0} %", b * 100.0);
        }
        out.push('\n');
    }
    out
}

/// Runs one workload in this process and prints its result; the last
/// line of standard output is the contract's JSON object. Returns
/// whether every check passed.
pub fn run_workload(name: &str, traced: bool, opts: &RunOptions) -> Result<bool, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (known: {})", known.join(", "))
    })?;
    let outcome = if traced {
        traced::run(workload, opts)?
    } else {
        endtoend::run(workload, opts)?
    };
    let Outcome {
        tally,
        metrics,
        detail,
    } = &outcome;

    // Every catalogued metric of this kind of run, and nothing else.
    let expected: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let emitted: Vec<&str> = metrics.iter().map(|m| m.0).collect();
    let complete = emitted == expected;
    if tally.correct() && !complete {
        return Err(format!(
            "emitted metrics {emitted:?} differ from the catalog {expected:?}"
        ));
    }

    let kind = if traced { "per-layer" } else { "end-to-end" };
    println!(
        "workload {} ({kind}, seed {}, {} operations attempted, {} failed)",
        workload.name, opts.seed, tally.attempted, tally.failed
    );
    print!("{}", metrics_table(metrics));
    if let Some(spans) = detail.get("self_time_by_span").and_then(Json::as_arr) {
        // Derived from the spans: where the traced jobs' time went.
        println!("  self time by span (each job's fastest traced pass):");
        let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        for s in spans {
            println!(
                "    {:<34} self {:>10.6} s   total {:>10.6} s   calls {}",
                s.get("span").and_then(Json::as_str).unwrap_or("?"),
                field(s, "self_s"),
                field(s, "total_s"),
                field(s, "calls")
            );
        }
        let sum: f64 = spans.iter().map(|s| field(s, "self_s")).sum();
        println!(
            "    self times sum to {sum:.6} s; the traced jobs took {:.6} s",
            field(detail, "traced_jobs_s")
        );
    }
    for f in &tally.failures {
        println!("  FAILED: {f}");
    }
    let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("  fail_frac {fail_frac} (failed / attempted operations; any failure fails the run)");

    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).0;
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    let result = Json::obj([
        ("correct", Json::Bool(tally.correct())),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", metrics_json),
    ]);
    write_out(
        &format!("{}.{}.json", workload.name, kind_of(traced)),
        &Json::obj([
            ("workload", Json::str(workload.name)),
            ("seed", Json::Num(opts.seed as f64)),
            ("quick", Json::Bool(opts.quick)),
            ("result", result.clone()),
            ("detail", detail.clone()),
        ]),
    )?;
    println!("{}", result.render());
    Ok(tally.correct())
}

/// One child run's parsed result line and detail file.
struct ChildRun {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    result: Json,
    detail: Json,
}

/// Runs one workload in a fresh child process of this binary, so every
/// workload starts from the same cold process state and `VmHWM` is its
/// own. One child at a time: nothing else competes for the cores.
fn child(workload: &Workload, traced: bool, opts: &RunOptions) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_dir = env::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    // The product chats on stderr once per job invocation; keep it, but
    // out of the way.
    let kind = kind_of(traced);
    let log_path = out_dir.join(format!("{}.{kind}.stderr.log", workload.name));
    let log =
        std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(log);
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{}: child printed no result line ({e}); see {}",
            workload.name,
            log_path.display()
        )
    })?;
    let metrics = match result.get("metrics") {
        Some(Json::Obj(m)) => m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    };
    let detail = std::fs::read_to_string(out_dir.join(format!("{}.{kind}.json", workload.name)))
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|d| d.get("detail").cloned())
        .unwrap_or(Json::Null);
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    if !correct {
        // Show the operator what failed.
        print!("{stdout}");
    }
    Ok(ChildRun {
        correct: correct && output.status.success(),
        metrics,
        result,
        detail,
    })
}

/// One full set: every workload end to end (and traced, when asked).
struct Set {
    correct: bool,
    /// Per workload: end-to-end metrics.
    end_to_end: Vec<BTreeMap<String, f64>>,
    doc: Json,
}

fn run_set(traced: bool, opts: &RunOptions) -> Result<Set, String> {
    let mut set = Set {
        correct: true,
        end_to_end: Vec::new(),
        doc: Json::Null,
    };
    let mut docs = Vec::new();
    for w in &WORKLOADS {
        let e2e = child(w, false, opts)?;
        set.correct &= e2e.correct;
        println!("workload {} (end-to-end){}", w.name, verdict(e2e.correct));
        print!(
            "{}",
            named_table(&e2e.metrics, END_TO_END.iter().map(|m| m.name))
        );
        let mut doc = vec![
            ("workload", Json::str(w.name)),
            ("end_to_end", e2e.result),
            (
                "jobs",
                e2e.detail.get("jobs").cloned().unwrap_or(Json::Null),
            ),
            ("end_to_end_detail", e2e.detail),
        ];
        if traced {
            let layers = child(w, true, opts)?;
            set.correct &= layers.correct;
            println!("workload {} (per-layer){}", w.name, verdict(layers.correct));
            print!(
                "{}",
                named_table(&layers.metrics, PER_LAYER.iter().map(|m| m.name))
            );
            doc.push(("per_layer", layers.result));
            doc.push(("per_layer_detail", layers.detail));
        }
        set.end_to_end.push(e2e.metrics);
        docs.push(Json::obj(doc));
    }
    set.doc = Json::Arr(docs);
    Ok(set)
}

fn verdict(correct: bool) -> &'static str {
    if correct {
        ""
    } else {
        "  ** INCORRECT **"
    }
}

fn named_table<'a>(
    metrics: &BTreeMap<String, f64>,
    order: impl Iterator<Item = &'static str> + 'a,
) -> String {
    let rows: Vec<(&'static str, f64)> = order
        .filter_map(|name| Some((name, *metrics.get(name)?)))
        .collect();
    metrics_table(&rows)
}

fn header(opts: &RunOptions) -> Vec<(&'static str, Json)> {
    vec![
        ("schema_version", Json::Num(SCHEMA_VERSION)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("quick", Json::Bool(opts.quick)),
        ("environment", env::describe()),
    ]
}

/// `--all`: every workload, every metric, `benchmark/out/results.json`.
pub fn run_all(traced: bool, opts: &RunOptions) -> Result<bool, String> {
    let mut doc = header(opts);
    let set = run_set(traced, opts)?;
    doc.push(("workloads", set.doc));
    write_out("results.json", &Json::obj(doc))?;
    println!(
        "{} -> {}",
        if set.correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        env::out_dir().join("results.json").display()
    );
    Ok(set.correct)
}

/// Two spreads of one metric over the sets: `(max - min) / min`, and —
/// with four sets or more — the acceptance driver's statistic, the
/// distance between the first and third quartile as a share of the
/// median (quartiles as Python's `statistics.quantiles(v, n=4)` cuts
/// them).
fn spreads_of(values: &[f64]) -> (f64, Option<f64>) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let range = (v[n - 1] - v[0]) / v[0];
    if n < 4 {
        return (range, None);
    }
    let quartile = |i: usize| {
        let at = i * (n + 1);
        let j = (at / 4).clamp(1, n - 1);
        let delta = at as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (
        range,
        Some((quartile(3) - quartile(1)) / crate::estimator::median(&v)),
    )
}

/// `--repeat-check N`: N full end-to-end sets back to back; every
/// metric's relative spread across the sets must stay within its bound
/// (the `sim_*` metrics must not move at all).
/// Writes the first set, the spreads and the environment to
/// `benchmark/baseline.json`.
pub fn repeat_check(sets: usize, opts: &RunOptions) -> Result<bool, String> {
    let mut doc = header(opts);
    let mut runs = Vec::new();
    for i in 0..sets {
        println!("== set {} of {sets} ==", i + 1);
        runs.push(run_set(false, opts)?);
    }
    let mut ok = runs.iter().all(|s| s.correct);
    let mut spreads = Vec::new();
    println!("== relative spread across {sets} sets ==");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let mut row = Vec::new();
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|s| s.end_to_end[w].get(m.name).copied())
                .collect();
            if values.len() != sets {
                ok = false;
                println!("  {:<18} {:<24} missing from a set", workload.name, m.name);
                continue;
            }
            let (range, quartiles) = spreads_of(&values);
            // Simulated statistics repeat exactly for one seed; a host
            // metric is held to its bound by the acceptance driver's own
            // statistic where there are sets enough for one.
            let (spread, limit) = if m.name.starts_with("sim_") {
                (range, 0.0)
            } else {
                (quartiles.unwrap_or(range), m.bound)
            };
            let within = spread <= limit;
            ok &= within;
            println!(
                "  {:<18} {:<24} {:>8.3} %  (limit {:.0} %; range {:.3} %){}",
                workload.name,
                m.name,
                spread * 100.0,
                limit * 100.0,
                range * 100.0,
                if within { "" } else { "  ** EXCEEDED **" }
            );
            row.push((
                m.name,
                Json::obj([
                    ("range", Json::Num(range)),
                    ("quartiles", quartiles.map_or(Json::Null, Json::Num)),
                ]),
            ));
        }
        spreads.push(Json::obj([
            ("workload", Json::str(workload.name)),
            ("relative_spread", Json::obj(row)),
        ]));
    }
    doc.push(("sets", Json::Num(sets as f64)));
    doc.push(("first_set", runs.swap_remove(0).doc));
    doc.push(("spread_across_sets", Json::Arr(spreads)));
    doc.push(("environment_at_end", env::describe()));
    doc.push(("within_bounds", Json::Bool(ok)));
    let path = env::package_dir().join("baseline.json");
    std::fs::write(&path, Json::obj(doc).pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{} -> {}",
        if ok {
            "repeat check passed"
        } else {
            "REPEAT CHECK FAILED"
        },
        path.display()
    );
    Ok(ok)
}

/// `--list`: every metric with unit, direction and bound; every
/// workload with why it exists and its job list.
pub fn list() -> String {
    let mut out = String::from("end-to-end metrics (measured with tracing off):\n");
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "  {:<24} {:<7} {:<6} is better, bound {:>2.0} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    out.push_str("per-layer metrics (traced run; no bound):\n");
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<46} {:<6} {:<6} is better  moves {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
    let ctx = Ctx {
        seed: 7,
        quick: false,
        tmp: "benchmark/out/tmp/<workload>".into(),
        corpus: "tests/corpus".into(),
    };
    out.push_str(
        "workloads (jobs run round-robin for --seconds, at least 5 passes; shown with --seed 7):\n",
    );
    for w in &WORKLOADS {
        let _ = writeln!(out, "  {}: {}", w.name, w.why);
        for (label, job) in w.jobs {
            let _ = writeln!(
                out,
                "    {label:<24} fasttrack {}",
                job.argv(&ctx).join(" ")
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,100], n=4) == [2.75, 5.5, 8.25]
        let v = [9.0, 1.0, 100.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0];
        let (range, quartiles) = spreads_of(&v);
        assert_eq!(range, 99.0);
        assert!((quartiles.unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1,2,4,8,16], n=4) == [1.5, 4.0, 12.0]
        let (_, quartiles) = spreads_of(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((quartiles.unwrap() - (12.0 - 1.5) / 4.0).abs() < 1e-12);
        assert_eq!(spreads_of(&[2.0, 1.0]), (1.0, None));
    }

    #[test]
    fn the_listing_names_every_metric_and_job() {
        let listing = list();
        for m in &END_TO_END {
            assert!(listing.contains(m.name));
        }
        for m in &PER_LAYER {
            assert!(listing.contains(m.name));
        }
        for w in &WORKLOADS {
            for (label, _) in w.jobs {
                assert!(listing.contains(label));
            }
        }
    }
}
