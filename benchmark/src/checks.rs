//! Correctness checks on what the jobs print. Every check is one
//! attempted operation; a failed one makes the run incorrect.

use crate::json::Json;
use crate::workloads::OutputKind;

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, for the operator.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation; `what` is rendered only on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records one operation that succeeded.
    pub fn passed(&mut self) {
        self.attempted += 1;
    }

    /// Records one failed operation.
    pub fn failed_op(&mut self, what: String) {
        self.attempted += 1;
        self.fail(what);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 50 {
            self.failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The simulated numbers one run of the NoC model reported.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimCounts {
    pub cycles: Option<u64>,
    pub injected: Option<u64>,
    pub delivered: u64,
    pub dropped: u64,
    /// `avg_latency` column (sweep CSV rows only).
    pub avg_latency: Option<f64>,
    /// Whether the run counts towards `sim_delivered_frac` (chained
    /// storm points, faulted runs, CSV rows — not baselines).
    pub in_delivered_frac: bool,
    /// Whether the run's cycles count towards `sim_cycles`.
    pub in_cycles: bool,
}

/// Parses one job's output into the simulated runs it reports, checking
/// exact packet conservation on each. Complete runs end with nothing in
/// flight, so a sweep row conserves when `delivered + dropped ==
/// injected`; storm points and `faults` carry their own verdict.
pub fn parse_output(
    kind: OutputKind,
    label: &str,
    output: &str,
    tally: &mut Tally,
) -> Vec<SimCounts> {
    match kind {
        OutputKind::SweepCsv => parse_sweep_csv(label, output, tally),
        OutputKind::StormJson => parse_storm(label, output, tally),
        OutputKind::FaultsJson => parse_faults(label, output, tally),
        OutputKind::Replay => {
            tally.check(output.contains("expectation verified"), || {
                format!("{label}: replay did not print `expectation verified`")
            });
            parse_report_text(output).into_iter().collect()
        }
        OutputKind::Text => parse_report_text(output).into_iter().collect(),
    }
}

fn parse_sweep_csv(label: &str, csv: &str, tally: &mut Tally) -> Vec<SimCounts> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap_or("").split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name);
    let (Some(cycles), Some(injected), Some(delivered), Some(dropped), Some(avg)) = (
        col("cycles"),
        col("injected"),
        col("delivered"),
        col("dropped"),
        col("avg_latency"),
    ) else {
        tally.failed_op(format!("{label}: sweep CSV header lacks a needed column"));
        return Vec::new();
    };
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        // Config labels such as `FT(64,2,1)` contain commas; the numeric
        // columns are counted from the right.
        let fields: Vec<&str> = line.split(',').collect();
        let shift = fields.len().saturating_sub(header.len());
        let num = |c: usize| fields.get(c + shift).and_then(|f| f.parse::<f64>().ok());
        let (Some(cy), Some(inj), Some(del), Some(dr), Some(lat)) = (
            num(cycles),
            num(injected),
            num(delivered),
            num(dropped),
            num(avg),
        ) else {
            tally.failed_op(format!("{label}: sweep CSV row {i} does not parse: {line}"));
            continue;
        };
        let row = SimCounts {
            cycles: Some(cy as u64),
            injected: Some(inj as u64),
            delivered: del as u64,
            dropped: dr as u64,
            avg_latency: Some(lat),
            in_delivered_frac: true,
            in_cycles: true,
        };
        tally.check(row.delivered + row.dropped == inj as u64, || {
            format!("{label}: row {i} breaks conservation: {line}")
        });
        rows.push(row);
    }
    tally.check(!rows.is_empty(), || {
        format!("{label}: sweep CSV has no rows")
    });
    rows
}

fn parse_storm(label: &str, output: &str, tally: &mut Tally) -> Vec<SimCounts> {
    let Ok(doc) = Json::parse(output) else {
        tally.failed_op(format!("{label}: storm output is not JSON"));
        return Vec::new();
    };
    let mut runs = Vec::new();
    for (key, chained) in [("points", true), ("chains_off", false)] {
        let Some(points) = doc.get(key).and_then(Json::as_arr) else {
            tally.failed_op(format!("{label}: storm JSON lacks `{key}`"));
            continue;
        };
        for (i, p) in points.iter().enumerate() {
            let field = |k: &str| p.get(k).and_then(Json::as_u64);
            let (Some(inj), Some(del), Some(dr)) =
                (field("injected"), field("delivered"), field("dropped"))
            else {
                tally.failed_op(format!("{label}: storm {key}[{i}] lacks its counts"));
                continue;
            };
            tally.check(
                p.get("conserved").and_then(Json::as_bool) == Some(true) && del + dr <= inj,
                || format!("{label}: storm {key}[{i}] breaks conservation"),
            );
            runs.push(SimCounts {
                cycles: None,
                injected: Some(inj),
                delivered: del,
                dropped: dr,
                avg_latency: None,
                in_delivered_frac: chained,
                in_cycles: false,
            });
        }
    }
    runs
}

fn parse_faults(label: &str, output: &str, tally: &mut Tally) -> Vec<SimCounts> {
    let Ok(doc) = Json::parse(output) else {
        tally.failed_op(format!("{label}: faults output is not JSON"));
        return Vec::new();
    };
    let field = |obj: &str, k: &str| doc.get(obj).and_then(|o| o.get(k)).and_then(Json::as_u64);
    let (Some(bdel), Some(bcy)) = (field("baseline", "delivered"), field("baseline", "cycles"))
    else {
        tally.failed_op(format!("{label}: faults JSON lacks its baseline"));
        return Vec::new();
    };
    let f = |k: &str| field("faulted", k);
    let (Some(inj), Some(del), Some(dr), Some(fl), Some(cy)) = (
        f("injected"),
        f("delivered"),
        f("dropped"),
        f("in_flight"),
        f("cycles"),
    ) else {
        tally.failed_op(format!("{label}: faults JSON lacks its faulted counts"));
        return Vec::new();
    };
    tally.check(
        doc.get("conserved").and_then(Json::as_bool) == Some(true) && del + dr + fl == inj,
        || format!("{label}: faulted run breaks conservation"),
    );
    vec![
        SimCounts {
            cycles: Some(bcy),
            delivered: bdel,
            in_cycles: true,
            ..SimCounts::default()
        },
        SimCounts {
            cycles: Some(cy),
            injected: Some(inj),
            delivered: del,
            dropped: dr,
            avg_latency: None,
            in_delivered_frac: true,
            in_cycles: true,
        },
    ]
}

/// The `"<name>: <d> delivered in <c> cycles"` line of a text report.
fn parse_report_text(output: &str) -> Option<SimCounts> {
    let (head, tail) = output.split_once(" delivered in ")?;
    let delivered = head.rsplit(' ').next()?.parse().ok()?;
    let cycles = tail.split(' ').next()?.parse().ok()?;
    Some(SimCounts {
        cycles: Some(cycles),
        delivered,
        ..SimCounts::default()
    })
}

/// The modelled-NoC statistics of a workload, from its jobs' outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStatsSummary {
    pub cycles: u64,
    pub avg_latency_cycles: f64,
    pub delivered_frac: f64,
}

pub fn summarize(runs: &[SimCounts]) -> SimStatsSummary {
    let cycles = runs
        .iter()
        .filter(|r| r.in_cycles)
        .filter_map(|r| r.cycles)
        .sum();
    let (mut lat_sum, mut lat_weight) = (0.0, 0.0);
    for r in runs {
        if let Some(lat) = r.avg_latency {
            lat_sum += lat * r.delivered as f64;
            lat_weight += r.delivered as f64;
        }
    }
    let (mut delivered, mut injected) = (0u64, 0u64);
    for r in runs.iter().filter(|r| r.in_delivered_frac) {
        if let Some(inj) = r.injected {
            delivered += r.delivered;
            injected += inj;
        }
    }
    SimStatsSummary {
        cycles,
        avg_latency_cycles: lat_sum / lat_weight,
        delivered_frac: delivered as f64 / injected as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "config,channels,pattern,rate,seed,cycles,injected,delivered,\
rate_per_pe,avg_latency,p99_latency,worst_latency,deflections,short_hops,express_hops,dropped,rerouted\n\
FT(64,2,1),1,RANDOM,0.5,123,1000,640,640,0.010000,12.500000,31,40,5,100,50,0,0\n\
Hoplite 8x8,1,LOCAL(3),1,124,3000,640,600,0.003000,20.000000,63,70,9,300,0,40,0\n";

    #[test]
    fn sweep_rows_parse_despite_commas_in_labels() {
        let mut tally = Tally::default();
        let rows = parse_output(OutputKind::SweepCsv, "j", CSV, &mut tally);
        assert!(tally.correct(), "{:?}", tally.failures);
        assert_eq!(tally.attempted, 3);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].cycles, Some(1000));
        assert_eq!(rows[1].dropped, 40);
        let s = summarize(&rows);
        assert_eq!(s.cycles, 4000);
        assert!((s.avg_latency_cycles - (12.5 * 640.0 + 20.0 * 600.0) / 1240.0).abs() < 1e-9);
        assert!((s.delivered_frac - 1240.0 / 1280.0).abs() < 1e-12);
    }

    #[test]
    fn a_row_that_loses_packets_fails_conservation() {
        let bad = CSV.replace(",640,600,", ",640,599,");
        let mut tally = Tally::default();
        parse_output(OutputKind::SweepCsv, "j", &bad, &mut tally);
        assert_eq!(tally.failed, 1);
        assert!(tally.failures[0].contains("conservation"));
    }

    #[test]
    fn storm_and_faults_json_are_checked() {
        let storm = r#"{"points":[{"injected":10,"delivered":9,"dropped":1,"conserved":true}],
            "chains_off":[{"injected":10,"delivered":7,"dropped":3,"conserved":true}]}"#;
        let mut tally = Tally::default();
        let runs = parse_output(OutputKind::StormJson, "s", storm, &mut tally);
        assert!(tally.correct());
        assert_eq!(runs.len(), 2);
        assert!(runs[0].in_delivered_frac && !runs[1].in_delivered_frac);

        let faults = r#"{"baseline":{"delivered":100,"cycles":50},
            "faulted":{"injected":100,"delivered":90,"dropped":8,"in_flight":2,"cycles":60},
            "conserved":true}"#;
        let runs = parse_output(OutputKind::FaultsJson, "f", faults, &mut tally);
        assert!(tally.correct());
        assert_eq!(summarize(&runs).cycles, 110);
        assert!((summarize(&runs).delivered_frac - 0.9).abs() < 1e-12);

        let broken = faults.replace("\"dropped\":8", "\"dropped\":7");
        parse_output(OutputKind::FaultsJson, "f", &broken, &mut tally);
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn replay_must_verify_its_expectation() {
        let mut tally = Tally::default();
        let ok = "FT(16,2,1): 4000 delivered in 812 cycles\n  expectation verified: x\n";
        let runs = parse_output(OutputKind::Replay, "r", ok, &mut tally);
        assert!(tally.correct());
        assert_eq!((runs[0].delivered, runs[0].cycles), (4000, Some(812)));
        parse_output(OutputKind::Replay, "r", "no such line", &mut tally);
        assert_eq!(tally.failed, 1);
    }
}
