//! Every metric the benchmark emits, by name, with unit and direction:
//! the code-side twin of `BENCHMARK.json` (a test keeps the two equal).
//!
//! *host* metrics time the simulator; *sim* metrics are statistics of the
//! modelled NoC and repeat exactly for a given `--seed`.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the simulator sees, with the share of the parent's
/// median by which it may worsen before a change is rejected.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

/// A metric of one layer; informational, no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// Bounds. On a quiet host the host-time metrics spread 0.5-2 % over ten
/// seeds, but the reference box is a small VM on a shared host whose
/// speed shifts by 15-60 % for minutes at a time (README, "The host"):
/// no estimator run inside the VM sees through that, so their bounds are
/// the contract's maximum and only gate gross regressions. Judge smaller
/// changes by paired runs and the spread `--repeat-check` measures. The
/// `sim_*` metrics repeat exactly for one seed (`--repeat-check` demands
/// equality); their bounds cover how much they move *between* seeds,
/// which is what the acceptance runs vary.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "host: sum over jobs of the fastest in-process fasttrack_cli::run time",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "host: fastest set-up pass (parse specs, build every engine, compile faults, construct every source; stops before the first pump)",
    },
    EndToEnd {
        name: "ns_per_router_cycle",
        unit: "ns",
        better: Lower,
        bound: 0.25,
        what: "host: sweep-job time / (cycles x nodes x channels)",
    },
    EndToEnd {
        name: "ns_per_route_decision",
        unit: "ns",
        better: Lower,
        bound: 0.25,
        what: "host: time of sweep jobs whose engines count decisions / route decisions",
    },
    EndToEnd {
        name: "packets_per_s",
        unit: "pkt/s",
        better: Higher,
        bound: 0.25,
        what: "host: packets delivered by sweep jobs / their time",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.20,
        what: "host: VmHWM of the workload's process after its timed run",
    },
    EndToEnd {
        name: "sim_cycles",
        unit: "cycles",
        better: Lower,
        bound: 0.12,
        what: "sim: cycles summed over sweep CSV rows and faults runs",
    },
    EndToEnd {
        name: "sim_avg_latency_cycles",
        unit: "cycles",
        better: Lower,
        bound: 0.12,
        what: "sim: delivered-weighted mean of the sweep rows' avg_latency",
    },
    EndToEnd {
        name: "sim_delivered_frac",
        unit: "ratio",
        better: Higher,
        bound: 0.02,
        what: "sim: delivered / injected over sweep rows, chained storm points and faulted runs",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SETUP_CORPUS: &str = "setup_s on corpus-cli";
const WALL_CORPUS: &str = "wall_s on corpus-cli";
const SETUP_ALL: &str = "setup_s on every workload";
const SETUP_ENGINES: &str = "setup_s on torus-* and backends-mixed";
const KERNEL_LOW: &str = "wall_s, ns_per_router_cycle on torus-lowload";
const KERNEL_SAT: &str = "wall_s, ns_per_route_decision on torus-saturated";
const MIXED: &str = "wall_s, ns_per_router_cycle on backends-mixed only";
const FAULTED: &str = "wall_s, sim_delivered_frac on observed-faulted";
const OBSERVED: &str = "wall_s on observed-faulted";
const PUMP: &str = "wall_s on torus-lowload (~10 %) and corpus-cli";
const NONE: &str = "none: informational";
const TRUST: &str = "none: says how far to trust the rest";

/// Layers are named `<crate>.<module>`. A layer the workload does not
/// run reports 0 for all its metrics.
pub const PER_LAYER: [PerLayer; 70] = [
    layer("cli.spec.parse_us", "us", Lower, SETUP_CORPUS),
    layer("cli.spec.parses", "count", Lower, SETUP_CORPUS),
    layer("bench.runner.grid_build_us", "us", Lower, WALL_CORPUS),
    layer("bench.runner.point_overhead_us", "us", Lower, WALL_CORPUS),
    layer("bench.runner.csv_format_us", "us", Lower, WALL_CORPUS),
    layer("bench.runner.csv_bytes", "count", Lower, WALL_CORPUS),
    layer("core.sweep.threads", "count", Higher, NONE),
    layer("core.sweep.par_speedup", "ratio", Higher, NONE),
    layer("core.sweep.par_efficiency", "ratio", Higher, NONE),
    layer("core.sim.sessions", "count", Lower, SETUP_ALL),
    layer("core.sim.build_us_per_session", "us", Lower, SETUP_ALL),
    layer("core.sim.drive_s", "s", Lower, "wall_s on every workload"),
    layer("core.sim.drive_self_frac", "ratio", Lower, WALL_CORPUS),
    layer("core.kernel.lut_build_us", "us", Lower, SETUP_ENGINES),
    layer("core.kernel.lut_entries", "count", Lower, SETUP_ENGINES),
    layer("core.shg.lut_build_us", "us", Lower, SETUP_ENGINES),
    layer("core.noc.router_cycles", "count", Lower, KERNEL_LOW),
    layer("core.noc.route_decisions", "count", Lower, KERNEL_SAT),
    layer("core.noc.step_ns_per_router_cycle", "ns", Lower, KERNEL_LOW),
    layer(
        "core.noc.step_ns_per_route_decision",
        "ns",
        Lower,
        KERNEL_SAT,
    ),
    layer(
        "core.noc.decisions_per_router_cycle",
        "ratio",
        Higher,
        KERNEL_LOW,
    ),
    layer("core.noc.busy_router_frac", "ratio", Higher, KERNEL_LOW),
    layer("core.noc.deflection_ratio", "ratio", Lower, KERNEL_SAT),
    layer("core.noc.pool_reuse_ratio", "ratio", Higher, KERNEL_SAT),
    layer("core.multichannel.router_cycles", "count", Lower, MIXED),
    layer(
        "core.multichannel.step_ns_per_router_cycle",
        "ns",
        Lower,
        MIXED,
    ),
    layer(
        "core.multichannel.decisions_per_router_cycle",
        "ratio",
        Higher,
        MIXED,
    ),
    layer("core.shg.router_cycles", "count", Lower, MIXED),
    layer("core.shg.step_ns_per_router_cycle", "ns", Lower, MIXED),
    layer(
        "core.shg.decisions_per_router_cycle",
        "ratio",
        Higher,
        MIXED,
    ),
    layer("mesh.noc.router_cycles", "count", Lower, MIXED),
    layer("mesh.noc.step_ns_per_router_cycle", "ns", Lower, MIXED),
    layer(
        "core.fault.plan_compile_us",
        "us",
        Lower,
        "setup_s on observed-faulted",
    ),
    layer("core.fault.epochs", "count", Lower, FAULTED),
    layer("core.fault.faulted_step_ratio", "ratio", Lower, FAULTED),
    layer("core.fault.reroutes", "count", Lower, FAULTED),
    layer("core.fault.dropped", "count", Lower, FAULTED),
    layer("core.fallback.demotions", "count", Higher, FAULTED),
    layer("core.fallback.channel_switches", "count", Higher, FAULTED),
    layer("core.trace.events", "count", Lower, OBSERVED),
    layer(
        "core.trace.events_per_router_cycle",
        "ratio",
        Lower,
        OBSERVED,
    ),
    layer("core.trace.emit_ns_per_event", "ns", Lower, OBSERVED),
    layer("core.monitor.cost_ns_per_event", "ns", Lower, OBSERVED),
    layer("core.monitor.drive_ratio", "ratio", Lower, OBSERVED),
    layer(
        "core.monitor.recorder_cost_ns_per_event",
        "ns",
        Lower,
        OBSERVED,
    ),
    layer("core.attribution.cost_ns_per_event", "ns", Lower, OBSERVED),
    layer("core.attribution.drive_ratio", "ratio", Lower, OBSERVED),
    layer("core.attribution.assemble_us", "us", Lower, OBSERVED),
    layer("traffic.source.pump_ns_per_cycle", "ns", Lower, PUMP),
    layer("traffic.source.pump_ns_per_packet", "ns", Lower, PUMP),
    layer("traffic.source.pump_share", "ratio", Lower, PUMP),
    layer(
        "traffic.source.on_delivery_ns_per_packet",
        "ns",
        Lower,
        WALL_CORPUS,
    ),
    layer(
        "traffic.scenario.encode_mb_per_s",
        "MB/s",
        Higher,
        WALL_CORPUS,
    ),
    layer(
        "traffic.scenario.decode_mb_per_s",
        "MB/s",
        Higher,
        "wall_s, setup_s on corpus-cli",
    ),
    layer("traffic.scenario.trace_bytes", "count", Lower, WALL_CORPUS),
    layer(
        "traffic.scenario.record_overhead_ratio",
        "ratio",
        Lower,
        WALL_CORPUS,
    ),
    layer("traffic.gen.spmv_ms", "ms", Lower, SETUP_CORPUS),
    layer("traffic.gen.graph_ms", "ms", Lower, SETUP_CORPUS),
    layer("traffic.gen.dataflow_ms", "ms", Lower, SETUP_CORPUS),
    layer("traffic.gen.multiproc_ms", "ms", Lower, SETUP_CORPUS),
    layer("bench.fuzz.scenarios_per_s", "1/s", Higher, WALL_CORPUS),
    layer("bench.fuzz.minimize_share", "ratio", Lower, WALL_CORPUS),
    layer("bench.fuzz.failing", "count", Lower, NONE),
    layer("bench.fuzz.bug_class", "count", Lower, NONE),
    layer(
        "fpga.cost_us_per_config",
        "us",
        Lower,
        "wall_s on backends-mixed",
    ),
    layer(
        "paper.fig11_gain_err_pct",
        "%",
        Lower,
        "none: model accuracy on torus-saturated",
    ),
    layer("benchmark.trace_overhead_frac", "ratio", Lower, TRUST),
    layer("benchmark.job_spread_max", "ratio", Lower, TRUST),
    layer("benchmark.slow_phase_frac", "ratio", Lower, TRUST),
    layer("benchmark.passes", "count", Higher, TRUST),
];

/// Whether `name` fits the contract's metric/workload name grammar.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the contract's unit grammar.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_and_unit_fits_the_grammar_and_is_used_once() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            for (label, _) in w.jobs {
                assert!(valid_name(label), "{label}");
            }
        }
        assert!(!valid_name("") && !valid_name("-x") && !valid_name("a b") && !valid_name("a/b"));
        assert!(!valid_unit("") && !valid_unit("per second"));
    }

    #[test]
    fn bounds_are_within_the_contract() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` names exactly what the code emits, with matching
    /// unit, direction and bound.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).unwrap();
        let Json::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let s = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let coded: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, coded);

        let listed: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    s(m, "name"),
                    s(m, "unit"),
                    s(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let coded: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, coded);

        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let coded: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(listed, coded);

        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::str("benchmark")]
        );
        let secs = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert!((1..=60).contains(&secs));
    }
}
