//! Where the benchmark lives on disk, and what machine it ran on.

use std::path::PathBuf;
use std::process::Command;

use crate::json::Json;

/// The benchmark package's directory. `cargo run` exports it at run
/// time; the compile-time value covers a binary started by hand.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .filter(|p| p.join("src/main.rs").exists())
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// `benchmark/out/`: everything a run writes goes under it.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// The product repo's `tests/corpus/`.
pub fn corpus_dir() -> PathBuf {
    package_dir().join("../tests/corpus")
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Threads the parallel-sweep checks and probes use: every core, and at
/// least two so that the pool is exercised at all.
pub fn sweep_threads() -> usize {
    nproc().max(2)
}

fn load_average() -> Json {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .map_or(Json::Null, Json::Num)
}

fn command_line(program: &str, args: &[&str]) -> Json {
    Command::new(program)
        .args(args)
        .current_dir(package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Null, |o| {
            Json::str(String::from_utf8_lossy(&o.stdout).trim())
        })
}

/// The environment header of `results.json` / `baseline.json`.
pub fn describe() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .map_or(Json::Null, Json::Str);
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", cpu),
        ("rustc", command_line("rustc", &["-V"])),
        // Null outside a git checkout (the acceptance driver's copy).
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
        ("load_average_1m", load_average()),
    ])
}
