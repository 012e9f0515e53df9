//! Pinned output bytes: the two non-torus backends, and everything the
//! observers (monitor, flight recorder, attribution) print.
//!
//! The SHG and mesh engines and the observer sinks are rewritten for
//! speed from time to time; each rewrite must leave every number the CLI
//! prints unchanged. The goldens are regenerated here through
//! `fasttrack_cli::run` at one and two worker threads.
//!
//! All eight files below were last re-recorded, by the release binary,
//! when `BernoulliSource` moved from one coin per PE per cycle to
//! geometric gaps on an arrival calendar. That draws the same
//! random process from a differently consumed stream, so every
//! Bernoulli-driven number moved once; no engine or sink changed with
//! it. `metrics_catalog.txt` holds no values and did not change.
//!
//! A deliberate behaviour change re-records them:
//!
//! ```text
//! fasttrack sweep --grid "shg:8:2,shg:8:3,mesh:8:4,mesh:8:1;random,transpose;0.1,1.0" \
//!     --packets 100 --seed 7 --out csv > tests/golden/backends.csv
//! fasttrack storm --noc shg:8:2 --rate 0.3 --packets 300 --seed 9 --json \
//!     > tests/golden/storm_shg.json
//! ```
//!
//! Two torus goldens pin the seeded fault draws (`FaultPlan::random`
//! and `FaultPlan::storm`) and the runs they drive:
//!
//! ```text
//! fasttrack faults --noc ft:8:2:2 --rate 0.3 --packets 500 --dead-links 2 \
//!     --down-links 2 --fail-stop 1 --transient-links 3 --stalled-injectors 2 \
//!     --fault-seed 11 --json > tests/golden/faults_ft8.json
//! fasttrack storm --noc ft:8:2:2 --rate 0.3 --kills 8 --json \
//!     > tests/golden/storm_ft8.json
//! ```
//!
//! One mesh golden pins a faulted buffered-mesh run: fifteen faults,
//! among them two overlapping corrupting windows on node 7's `E_sh`, a
//! fail-stop router and two stalled injectors.
//!
//! ```text
//! fasttrack faults --noc mesh:4:2 --rate 0.3 --packets 300 --transient-links 12 \
//!     --fail-stop 1 --stalled-injectors 2 --window 0:600 --fault-seed 5 --json \
//!     > tests/golden/faults_mesh4.json
//! ```
//!
//! The observer goldens (`sweep_health.json`, `sweep_attribution.csv`,
//! `monitor.{txt,prom}`, `attribute.{txt,prom}`) are the sidecar and
//! stdout of the argv in each test below, with the sidecar path printed
//! as `<PATH>`.

fn run(args: &str, threads: u32) -> String {
    run_plain(&format!("{args} --threads {threads}"))
}

/// For the single-run commands, which take no `--threads`.
fn run_plain(args: &str) -> String {
    let args: Vec<String> = args.split(' ').map(String::from).collect();
    let out = fasttrack_cli::run(args).expect("golden invocation succeeds");
    // `main` prints the output followed by a newline unless it has one.
    if out.ends_with('\n') {
        out
    } else {
        out + "\n"
    }
}

#[test]
fn backend_sweep_csv_is_pinned() {
    let golden = include_str!("golden/backends.csv");
    for threads in [1, 2] {
        let csv = run(
            "sweep --grid shg:8:2,shg:8:3,mesh:8:4,mesh:8:1;random,transpose;0.1,1.0 \
             --packets 100 --seed 7 --out csv",
            threads,
        );
        assert_eq!(csv, golden, "--threads {threads}");
    }
}

#[test]
fn shg_storm_json_is_pinned() {
    let golden = include_str!("golden/storm_shg.json");
    for threads in [1, 2] {
        let json = run(
            "storm --noc shg:8:2 --rate 0.3 --packets 300 --seed 9 --json",
            threads,
        );
        assert_eq!(json, golden, "--threads {threads}");
    }
}

#[test]
fn torus_fault_draws_are_pinned() {
    let faults = run_plain(
        "faults --noc ft:8:2:2 --rate 0.3 --packets 500 --dead-links 2 --down-links 2 \
         --fail-stop 1 --transient-links 3 --stalled-injectors 2 --fault-seed 11 --json",
    );
    assert_eq!(faults, include_str!("golden/faults_ft8.json"));
    for threads in [1, 2] {
        let storm = run("storm --noc ft:8:2:2 --rate 0.3 --kills 8 --json", threads);
        assert_eq!(
            storm,
            include_str!("golden/storm_ft8.json"),
            "--threads {threads}"
        );
    }
}

#[test]
fn mesh_fault_run_is_pinned() {
    let faults = run_plain(
        "faults --noc mesh:4:2 --rate 0.3 --packets 300 --transient-links 12 --fail-stop 1 \
         --stalled-injectors 2 --window 0:600 --fault-seed 5 --json",
    );
    assert_eq!(faults, include_str!("golden/faults_mesh4.json"));
}

/// Runs `args` plus `--<flag> <tmp>` and returns (stdout with the path
/// replaced by `<PATH>`, the sidecar's contents).
fn run_with_sidecar(args: &str, flag: &str) -> (String, String) {
    let dir = std::env::temp_dir().join(format!("fasttrack_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let command = args.split(' ').next().unwrap();
    let path = dir.join(format!("{command}_{flag}"));
    let path = path.to_str().unwrap();
    let out = run_plain(&format!("{args} --{flag} {path}")).replace(path, "<PATH>");
    let sidecar = std::fs::read_to_string(path).unwrap();
    std::fs::remove_file(path).unwrap();
    (out, sidecar)
}

const OBSERVED_SWEEP: &str = "sweep --grid ft:8:2:2,shg:8:2;random;0.1,1.0 --packets 50 --seed 7";
const OBSERVED_RUN: &str = "--noc ft:8:2:2 --rate 1.0 --packets 100 --seed 7";

#[test]
fn sweep_health_sidecar_is_pinned() {
    for threads in [1, 2] {
        let (_, json) =
            run_with_sidecar(&format!("{OBSERVED_SWEEP} --threads {threads}"), "health");
        assert_eq!(
            json,
            include_str!("golden/sweep_health.json"),
            "--threads {threads}"
        );
    }
}

#[test]
fn sweep_attribution_sidecar_is_pinned() {
    for threads in [1, 2] {
        let (_, csv) = run_with_sidecar(
            &format!("{OBSERVED_SWEEP} --threads {threads}"),
            "attribution",
        );
        assert_eq!(
            csv,
            include_str!("golden/sweep_attribution.csv"),
            "--threads {threads}"
        );
    }
}

#[test]
fn monitor_text_and_exposition_are_pinned() {
    let (text, prom) = run_with_sidecar(
        &format!("monitor {OBSERVED_RUN} --snapshot 200 --flight-recorder 64"),
        "metrics",
    );
    assert_eq!(text, include_str!("golden/monitor.txt"));
    assert_eq!(prom, include_str!("golden/monitor.prom"));
}

#[test]
fn attribute_text_and_exposition_are_pinned() {
    let (text, prom) = run_with_sidecar(&format!("attribute {OBSERVED_RUN}"), "metrics");
    assert_eq!(text, include_str!("golden/attribute.txt"));
    assert_eq!(prom, include_str!("golden/attribute.prom"));
}

/// The metric names are a reviewed contract: one run with every
/// observer attached and the fallback chains armed reports every
/// `fasttrack_*` row there is, listed here as `name type HELP` (values
/// left out — they are pinned by the `.prom` goldens above). A new,
/// renamed or re-typed metric is a visible diff; accept one with
/// `FASTTRACK_BLESS=1 cargo test -q --test golden_backends`.
#[test]
fn metrics_catalog_is_pinned() {
    use fasttrack::prelude::*;
    let cfg = NocConfig::fasttrack(4, 2, 1, FtPolicy::Full).unwrap();
    let outcome = SimSession::new(&cfg)
        .with_monitor(MonitorConfig::default())
        .with_attribution(AttributionConfig::default())
        .with_profile()
        .with_fallback(&FallbackConfig::standard())
        .unwrap()
        .run(&mut BernoulliSource::new(4, Pattern::Random, 0.5, 10, 7))
        .unwrap();
    let catalog: String = outcome
        .metrics
        .iter()
        .map(|(name, help, value)| format!("{name} {} {help}\n", value.type_name()))
        .collect();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics_catalog.txt");
    if std::env::var("FASTTRACK_BLESS").is_ok_and(|v| !v.is_empty()) {
        std::fs::write(&path, &catalog).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("tests/golden/metrics_catalog.txt");
    assert_eq!(
        catalog, golden,
        "metric catalog changed; review and re-bless"
    );
}
