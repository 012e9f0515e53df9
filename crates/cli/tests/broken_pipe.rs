//! A reader that goes away early (`fasttrack … | head`) stops the
//! binary quietly: no panic, and the exit status the command would have
//! had anyway.

use std::io::Read;
use std::process::{Command, Stdio};

/// A sweep grid whose CSV (about 180 KB) is far larger than a pipe's
/// buffer, so the binary is still writing when the reader leaves.
fn big_grid() -> String {
    let rates: Vec<String> = (1..=80)
        .map(|i| format!("{}", f64::from(i) / 80.0))
        .collect();
    format!(
        "hoplite:4,hoplite:8,ft:8:2:1,ft:8:2:2;random,transpose,bitcompl,tornado,shuffle,bitrev;{}",
        rates.join(",")
    )
}

#[test]
fn closed_stdout_is_a_quiet_stop() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fasttrack"))
        .args([
            "sweep",
            "--grid",
            &big_grid(),
            "--packets",
            "1",
            "--out",
            "csv",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = child.stdout.take().unwrap();
    let mut first = [0u8; 512];
    let read = stdout.read(&mut first).unwrap();
    assert!(first[..read].starts_with(b"config,"), "{read} bytes");
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn closed_stderr_keeps_the_error_status() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fasttrack"))
        .args(["simulate", "--bogus", "x"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stderr.take());
    assert_eq!(child.wait().unwrap().code(), Some(1));
}
