//! Drives the built binary the way an operator would.

use std::process::Command;
#[cfg(not(debug_assertions))]
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_fasttrack-benchmark");

/// Runs share `benchmark/out/tmp/<workload>` and the machine's cores:
/// one at a time.
#[cfg(not(debug_assertions))]
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// `--quick` (two passes, a tenth of the packets) runs every workload
/// with every check passing: end to end in seconds, then traced too.
#[test]
#[cfg(not(debug_assertions))]
fn quick_run_of_every_workload_passes_its_checks() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let all = |extra: &[&str]| {
        let t0 = Instant::now();
        let out = Command::new(EXE)
            .args(["--all", "--quick", "--seed", "7"])
            .args(extra)
            .output()
            .expect("the benchmark binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{stdout}");
        assert!(stdout.contains("all checks passed"), "{stdout}");
        assert!(!stdout.contains("INCORRECT"), "{stdout}");
        t0.elapsed()
    };
    let elapsed = all(&[]);
    assert!(elapsed < Duration::from_secs(15), "took {elapsed:?}");

    all(&["--trace"]);
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/out/results.json");
    let text = std::fs::read_to_string(results).expect("--all writes results.json");
    for key in [
        "schema_version",
        "environment",
        "per_layer",
        "end_to_end",
        "jobs",
        "min_s",
    ] {
        assert!(
            text.contains(&format!("\"{key}\"")),
            "results.json lacks {key}"
        );
    }
    assert_eq!(text.matches("\"correct\": true").count(), 10);
    assert_eq!(text.matches("\"failed\": 0").count(), 10);
}

/// A different seed reaches the generated inputs: the simulated
/// statistics move.
#[test]
#[cfg(not(debug_assertions))]
fn the_seed_reaches_the_simulated_statistics() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let sim_cycles = |seed: &str| {
        let out = Command::new(EXE)
            .args([
                "--workload",
                "torus-saturated",
                "--quick",
                "--trace",
                "0",
                "--seed",
                seed,
            ])
            .output()
            .expect("the benchmark binary runs");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout.lines().last().expect("a result line").to_string();
        let at = line
            .find("\"sim_cycles\"")
            .expect("sim_cycles in the result line");
        line[at..].split('}').next().expect("a value").to_string()
    };
    assert_eq!(sim_cycles("7"), sim_cycles("7"));
    assert_ne!(sim_cycles("7"), sim_cycles("8"));
}

#[test]
fn unknown_arguments_and_workloads_are_refused() {
    let out = Command::new(EXE).arg("--frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(EXE).arg("--list").output().unwrap();
    assert!(out.status.success());
    let listing = String::from_utf8_lossy(&out.stdout);
    for name in [
        "wall_s",
        "setup_s",
        "core.noc.busy_router_frac",
        "corpus-cli",
        "sweep-tiny48",
    ] {
        assert!(listing.contains(name), "--list lacks {name}");
    }
}

#[test]
#[cfg(debug_assertions)]
fn debug_builds_refuse_to_measure() {
    let out = Command::new(EXE)
        .args(["--workload", "torus-lowload"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
}
