//! Public-API surface snapshot.
//!
//! Scans the library crates' sources for `pub` item declarations and
//! compares the normalized listing against the checked-in golden file
//! `tests/api_surface.txt`. Any addition, removal, or signature change
//! on the public surface fails here on plain `cargo test`, so API
//! changes are always a *visible* diff in review rather than an
//! accident.
//!
//! The snapshot is source-level and first-line-only: multi-line
//! signatures contribute their opening line, and items behind `#[cfg]`
//! gates are listed unconditionally.
//!
//! To accept an intentional change, regenerate the golden file:
//!
//! ```text
//! FASTTRACK_BLESS=1 cargo test -q --test api_surface
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Library crates whose surface is pinned. The CLI (a binary) and the
/// vendored offline shims (rand/proptest) are excluded.
const CRATES: &[&str] = &["core", "fpga", "traffic", "mesh", "bench"];

/// Item prefixes that count as public surface.
const PREFIXES: &[&str] = &[
    "pub fn ",
    "pub const fn ",
    "pub unsafe fn ",
    "pub async fn ",
    "pub struct ",
    "pub enum ",
    "pub union ",
    "pub trait ",
    "pub const ",
    "pub static ",
    "pub type ",
    "pub use ",
    "pub mod ",
    "pub macro ",
];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Strips line comments and (single-line) string/char literals so brace
/// counting is not confused by `"{"` or `// {`. Block comments and
/// multi-line strings are rare enough in this codebase that the scan
/// stays deterministic either way.
fn code_only(line: &str) -> String {
    let mut out = String::new();
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '/' if chars.peek() == Some(&'/') => break,
            '\'' => {
                // Char literal (e.g. '{') vs lifetime: a literal closes
                // within a few chars; copy nothing either way.
                if chars.peek() == Some(&'\\') {
                    chars.next();
                    chars.next();
                    chars.next();
                } else if chars.clone().nth(1) == Some('\'') {
                    chars.next();
                    chars.next();
                }
            }
            _ => out.push(c),
        }
    }
    out
}

/// Extracts the public surface lines of one source file.
fn surface_of(path: &Path, rel: &str, out: &mut String) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut depth: i64 = 0;
    // When a `#[cfg(test)]` module opens, remember the depth to return
    // to before resuming the scan.
    let mut pending_test_attr = false;
    let mut skip_above: Option<i64> = None;
    let mut macro_export = false;
    for raw in text.lines() {
        let trimmed = raw.trim_start();
        let code = code_only(raw);
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;

        if skip_above.is_none() {
            if trimmed.starts_with("#[cfg(test)]") {
                pending_test_attr = true;
            } else if pending_test_attr && trimmed.starts_with("mod ") {
                skip_above = Some(depth);
                pending_test_attr = false;
            } else if trimmed.starts_with("#[macro_export]") {
                macro_export = true;
            } else if !trimmed.starts_with("#[") && !trimmed.is_empty() {
                if macro_export && trimmed.starts_with("macro_rules!") {
                    let sig = trimmed.trim_end_matches('{').trim_end();
                    writeln!(out, "{rel}: {sig}").unwrap();
                }
                if !trimmed.starts_with("macro_rules!") {
                    macro_export = false;
                }
                if PREFIXES.iter().any(|p| trimmed.starts_with(p)) {
                    let sig = trimmed.trim_end_matches('{').trim_end();
                    writeln!(out, "{rel}: {sig}").unwrap();
                }
                pending_test_attr = false;
            }
        }

        depth += opens - closes;
        if let Some(d) = skip_above {
            if depth <= d {
                skip_above = None;
            }
        }
    }
}

fn generate() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = String::new();
    out.push_str(
        "# Public-API surface snapshot. Regenerate with:\n\
         #   FASTTRACK_BLESS=1 cargo test -q --test api_surface\n",
    );
    for krate in CRATES {
        let src = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        rs_files(&src, &mut files);
        for f in files {
            let rel = f.strip_prefix(root).unwrap().display().to_string();
            surface_of(&f, &rel.replace('\\', "/"), &mut out);
        }
    }
    out
}

#[test]
fn public_api_surface_matches_snapshot() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/api_surface.txt");
    let current = generate();
    if std::env::var("FASTTRACK_BLESS").is_ok_and(|v| !v.is_empty()) {
        std::fs::write(&golden_path, &current).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect(
        "tests/api_surface.txt missing; run FASTTRACK_BLESS=1 cargo test --test api_surface",
    );
    if golden != current {
        let golden_lines: std::collections::BTreeSet<_> = golden.lines().collect();
        let current_lines: std::collections::BTreeSet<_> = current.lines().collect();
        let mut diff = String::new();
        for l in current_lines.difference(&golden_lines) {
            writeln!(diff, "+ {l}").unwrap();
        }
        for l in golden_lines.difference(&current_lines) {
            writeln!(diff, "- {l}").unwrap();
        }
        panic!(
            "public API surface changed; review the diff and re-bless with \
             FASTTRACK_BLESS=1 cargo test -q --test api_surface\n{diff}"
        );
    }
}
