//! Versioned bench-trajectory snapshots, diffing, and regression gating.
//!
//! One [`BenchSnapshot`] captures a `sweep_scaling` hot-path measurement
//! — commit, core/thread counts, grid identity (point count, per-PE
//! quota, [`crate::journal::grid_fingerprint`]), wall-clock seconds for
//! the serial/parallel/LUT/direct passes, and the *normalized* metric
//! the regression gate compares: delivered packets per serial
//! wall-clock second. Snapshots serialize as flat, deterministic JSON
//! tagged with [`SNAPSHOT_SCHEMA_VERSION`]; the loader migrates the
//! pre-versioning `BENCH_hotpath.json` shape in place and rejects
//! anything else with a typed [`SnapshotError`].
//!
//! The gate policy ([`gate`]) is intentionally one-dimensional: a
//! candidate fails when its packets/sec falls more than `tolerance`
//! percent below the baseline's. Snapshots from different grids
//! (fingerprint mismatch) are never comparable and error out instead of
//! producing a meaningless verdict.

use std::fmt;
use std::time::Instant;

use fasttrack_core::kernel::RouteMode;
use fasttrack_core::sim::SimSession;
use fasttrack_core::sweep::point_seed;
use fasttrack_traffic::pattern::Pattern;
use fasttrack_traffic::source::BernoulliSource;

use crate::journal::grid_fingerprint;
use crate::runner::{NocUnderTest, SweepGrid};

/// Current snapshot schema version ([`BenchSnapshot::schema_version`]).
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 2;

/// Worker threads used by the parallel pass of the hot-path measurement.
pub const HOTPATH_THREADS: u64 = 8;

/// Why a snapshot failed to load, parse, or compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io {
        /// Path involved.
        path: String,
        /// The underlying error, stringified.
        err: String,
    },
    /// The document is not a flat JSON object of scalars.
    Json(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field holds the wrong JSON type.
    WrongType {
        /// Field name.
        field: &'static str,
        /// Expected type.
        expected: &'static str,
    },
    /// The document declares a schema version this build cannot read.
    UnsupportedVersion(u64),
    /// The two snapshots measured different grids and cannot be
    /// compared.
    GridMismatch {
        /// Baseline grid fingerprint.
        baseline: String,
        /// Candidate grid fingerprint.
        candidate: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, err } => write!(f, "snapshot io error on {path}: {err}"),
            SnapshotError::Json(msg) => write!(f, "malformed snapshot JSON: {msg}"),
            SnapshotError::MissingField(name) => write!(f, "snapshot field {name:?} is missing"),
            SnapshotError::WrongType { field, expected } => {
                write!(f, "snapshot field {field:?} is not a {expected}")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot schema_version {v} is not supported (this build reads \
                     <= {SNAPSHOT_SCHEMA_VERSION})"
                )
            }
            SnapshotError::GridMismatch {
                baseline,
                candidate,
            } => write!(
                f,
                "snapshots measured different grids (baseline fingerprint {baseline}, \
                 candidate {candidate}); re-measure against the same grid"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One versioned hot-path measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Schema version ([`SNAPSHOT_SCHEMA_VERSION`] when written by this
    /// build).
    pub schema_version: u64,
    /// The bench that produced the measurement (`sweep_scaling`).
    pub bench: String,
    /// Short commit hash the measurement was taken at (`unknown` when
    /// no git metadata was available, e.g. migrated legacy snapshots).
    pub commit: String,
    /// CPU cores available on the measuring machine.
    pub cores: u64,
    /// Worker threads used for the parallel pass.
    pub threads: u64,
    /// Grid points measured.
    pub grid_points: u64,
    /// Packets each PE injects per point.
    pub packets_per_pe: u64,
    /// Hex [`grid_fingerprint`] of the measured grid — snapshots with
    /// different fingerprints are incomparable.
    pub grid_fingerprint: String,
    /// Serial (1-thread) grid wall clock, seconds.
    pub serial_secs: f64,
    /// Parallel ([`HOTPATH_THREADS`]-thread) grid wall clock, seconds.
    pub parallel_secs: f64,
    /// Serial LUT-routing pass, seconds.
    pub lut_secs: f64,
    /// Serial direct-routing (recompute-per-decision) pass, seconds.
    pub direct_secs: f64,
    /// Packets delivered across the whole serial grid.
    pub delivered_packets: u64,
    /// The normalized gate metric: `delivered_packets / serial_secs`.
    pub packets_per_sec: f64,
}

impl BenchSnapshot {
    /// Serializes as flat, deterministic, human-diffable JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema_version\": {},\n  \"bench\": \"{}\",\n  \"commit\": \"{}\",\n  \
             \"cores\": {},\n  \"threads\": {},\n  \"grid_points\": {},\n  \
             \"packets_per_pe\": {},\n  \"grid_fingerprint\": \"{}\",\n  \
             \"serial_secs\": {:.4},\n  \"parallel_secs\": {:.4},\n  \"lut_secs\": {:.4},\n  \
             \"direct_secs\": {:.4},\n  \"delivered_packets\": {},\n  \
             \"packets_per_sec\": {:.1}\n}}\n",
            self.schema_version,
            self.bench,
            self.commit,
            self.cores,
            self.threads,
            self.grid_points,
            self.packets_per_pe,
            self.grid_fingerprint,
            self.serial_secs,
            self.parallel_secs,
            self.lut_secs,
            self.direct_secs,
            self.delivered_packets,
            self.packets_per_sec,
        )
    }

    /// Parses a snapshot, transparently migrating the pre-versioning
    /// (no `schema_version` key) `BENCH_hotpath.json` shape.
    pub fn parse(text: &str) -> Result<BenchSnapshot, SnapshotError> {
        let fields = parse_flat_object(text)?;
        let doc = Doc(&fields);
        match doc.get("schema_version") {
            None => Self::migrate_legacy(doc),
            Some(_) => {
                let version = doc.u64("schema_version")?;
                if version != SNAPSHOT_SCHEMA_VERSION {
                    return Err(SnapshotError::UnsupportedVersion(version));
                }
                Ok(BenchSnapshot {
                    schema_version: version,
                    bench: doc.string("bench")?,
                    commit: doc.string("commit")?,
                    cores: doc.u64("cores")?,
                    threads: doc.u64("threads")?,
                    grid_points: doc.u64("grid_points")?,
                    packets_per_pe: doc.u64("packets_per_pe")?,
                    grid_fingerprint: doc.string("grid_fingerprint")?,
                    serial_secs: doc.f64("serial_secs")?,
                    parallel_secs: doc.f64("parallel_secs")?,
                    lut_secs: doc.f64("lut_secs")?,
                    direct_secs: doc.f64("direct_secs")?,
                    delivered_packets: doc.u64("delivered_packets")?,
                    packets_per_sec: doc.f64("packets_per_sec")?,
                })
            }
        }
    }

    /// Migrates the ad-hoc pre-versioning shape: grid fingerprint and
    /// delivered count are reconstructed from the canonical
    /// `sweep_scaling` grid (the only bench that ever wrote the legacy
    /// format), and the commit is `unknown` — the legacy file carried
    /// neither.
    fn migrate_legacy(doc: Doc<'_>) -> Result<BenchSnapshot, SnapshotError> {
        let bench = doc.string("bench")?;
        let packets_per_pe = doc.u64("packets_per_pe")?;
        let serial_secs = doc.f64("serial_secs")?;
        let grid = hotpath_grid(packets_per_pe);
        let delivered_packets = expected_delivered(&grid);
        Ok(BenchSnapshot {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            bench,
            commit: "unknown".to_string(),
            cores: doc.u64("cores")?,
            threads: HOTPATH_THREADS,
            grid_points: doc.u64("grid_points")?,
            packets_per_pe,
            grid_fingerprint: format!("{:016x}", grid_fingerprint(&grid)),
            serial_secs,
            parallel_secs: doc.f64("parallel8_secs")?,
            lut_secs: doc.f64("lut_secs")?,
            direct_secs: doc.f64("direct_secs")?,
            delivered_packets,
            packets_per_sec: delivered_packets as f64 / serial_secs.max(1e-9),
        })
    }

    /// Loads and parses `path`.
    pub fn load(path: &str) -> Result<BenchSnapshot, SnapshotError> {
        let text = std::fs::read_to_string(path).map_err(|e| SnapshotError::Io {
            path: path.to_string(),
            err: e.to_string(),
        })?;
        Self::parse(&text)
    }

    /// Writes the snapshot to `path`.
    pub fn save(&self, path: &str) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_json()).map_err(|e| SnapshotError::Io {
            path: path.to_string(),
            err: e.to_string(),
        })
    }
}

/// The canonical `sweep_scaling` hot-path grid: {Hoplite 8×8,
/// FT(64,2,1)} × {Random, Transpose} × {0.1, 0.5}, base seed
/// `0xf7_5ca1e`. Shared by the bench, the CLI, and legacy migration so
/// their fingerprints agree.
pub fn hotpath_grid(packets_per_pe: u64) -> SweepGrid {
    let nuts = [NocUnderTest::hoplite(8), NocUnderTest::fasttrack(8, 2, 1)];
    let patterns = [Pattern::Random, Pattern::Transpose];
    let rates = [0.1, 0.5];
    SweepGrid::cross(&nuts, &patterns, &rates, 0xf7_5ca1e).with_packets_per_pe(packets_per_pe)
}

/// Packets the closed hot-path workload delivers: every PE's full quota,
/// summed over the grid.
fn expected_delivered(grid: &SweepGrid) -> u64 {
    grid.points
        .iter()
        .map(|p| p.nut.num_nodes() as u64 * grid.packets_per_pe)
        .sum()
}

/// Raw wall-clock numbers from one hot-path measurement pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotpathMeasurement {
    /// Serial (1-thread) grid seconds.
    pub serial_secs: f64,
    /// [`HOTPATH_THREADS`]-thread grid seconds.
    pub parallel_secs: f64,
    /// Serial LUT-routing pass seconds.
    pub lut_secs: f64,
    /// Serial direct-routing pass seconds.
    pub direct_secs: f64,
    /// Packets delivered by the serial grid.
    pub delivered: u64,
}

/// Times one serial pass over `grid` with a fixed route mode through the
/// same `SimSession` path the sweep engine uses. Returns `(seconds,
/// total delivered)` — the delivered sum doubles as a cross-mode
/// bit-identity check.
pub fn timed_serial(grid: &SweepGrid, mode: RouteMode) -> (f64, u64) {
    let t0 = Instant::now();
    let mut delivered = 0u64;
    for (i, p) in grid.points.iter().enumerate() {
        let seed = point_seed(grid.base_seed, i);
        let mut source =
            BernoulliSource::new(p.nut.side(), p.pattern, p.rate, grid.packets_per_pe, seed);
        // Route modes are a knob of the single-channel torus engines the
        // hot-path grid is made of.
        let cfg = p.nut.torus_config().expect("hot-path grids are torus-only");
        assert_eq!(p.nut.channels, 1, "hot-path grids are single-channel");
        let report = SimSession::new(cfg)
            .route_mode(mode)
            .run(&mut source)
            .expect("no fault plan attached")
            .report;
        delivered += report.stats.delivered;
    }
    (t0.elapsed().as_secs_f64(), delivered)
}

/// Runs the full hot-path measurement over `grid`: serial sweep,
/// [`HOTPATH_THREADS`]-thread sweep, and the LUT/direct serial passes.
pub fn measure_hotpath(grid: &SweepGrid) -> HotpathMeasurement {
    let t0 = Instant::now();
    let serial = grid.run(1);
    let serial_secs = t0.elapsed().as_secs_f64();
    let delivered = serial.iter().map(|r| r.report.stats.delivered).sum();

    let t1 = Instant::now();
    let _parallel = grid.run(HOTPATH_THREADS as usize);
    let parallel_secs = t1.elapsed().as_secs_f64();

    let (lut_secs, _) = timed_serial(grid, RouteMode::Lut);
    let (direct_secs, _) = timed_serial(grid, RouteMode::Direct);
    HotpathMeasurement {
        serial_secs,
        parallel_secs,
        lut_secs,
        direct_secs,
        delivered,
    }
}

/// Builds the versioned snapshot for a measurement of `grid`.
pub fn snapshot_from(grid: &SweepGrid, m: &HotpathMeasurement) -> BenchSnapshot {
    BenchSnapshot {
        schema_version: SNAPSHOT_SCHEMA_VERSION,
        bench: "sweep_scaling".to_string(),
        commit: current_commit(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        threads: HOTPATH_THREADS,
        grid_points: grid.len() as u64,
        packets_per_pe: grid.packets_per_pe,
        grid_fingerprint: format!("{:016x}", grid_fingerprint(grid)),
        serial_secs: m.serial_secs,
        parallel_secs: m.parallel_secs,
        lut_secs: m.lut_secs,
        direct_secs: m.direct_secs,
        delivered_packets: m.delivered,
        packets_per_sec: m.delivered as f64 / m.serial_secs.max(1e-9),
    }
}

/// The short commit hash for snapshot provenance: `FASTTRACK_COMMIT`
/// when set, else `git rev-parse --short HEAD`, else `unknown`.
pub fn current_commit() -> String {
    if let Ok(c) = std::env::var("FASTTRACK_COMMIT") {
        if !c.trim().is_empty() {
            return c.trim().to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One compared metric in a [`BenchDiff`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffField {
    /// Metric name.
    pub name: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// True when larger is better (throughput) rather than worse
    /// (seconds).
    pub higher_is_better: bool,
}

impl DiffField {
    /// Signed percent change from baseline to candidate.
    pub fn delta_pct(&self) -> f64 {
        if self.baseline == 0.0 {
            0.0
        } else {
            (self.candidate - self.baseline) / self.baseline * 100.0
        }
    }
}

/// A field-by-field comparison of two comparable snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiff {
    /// Baseline commit.
    pub baseline_commit: String,
    /// Candidate commit.
    pub candidate_commit: String,
    /// Compared metrics.
    pub fields: Vec<DiffField>,
}

impl BenchDiff {
    /// Human-readable comparison table.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "bench diff: baseline {} -> candidate {}\n{:<18} {:>12} {:>12} {:>9}\n",
            self.baseline_commit, self.candidate_commit, "metric", "baseline", "candidate", "delta"
        );
        for f in &self.fields {
            out.push_str(&format!(
                "{:<18} {:>12.4} {:>12.4} {:>+8.1}%\n",
                f.name,
                f.baseline,
                f.candidate,
                f.delta_pct()
            ));
        }
        out
    }

    /// Machine-readable comparison (for `fasttrack bench diff --json`).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"baseline_commit\":\"{}\",\"candidate_commit\":\"{}\",\"fields\":[",
            self.baseline_commit, self.candidate_commit
        );
        for (i, f) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"baseline\":{},\"candidate\":{},\"delta_pct\":{}}}",
                f.name,
                f.baseline,
                f.candidate,
                f.delta_pct()
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Compares two snapshots field by field.
///
/// Errors with [`SnapshotError::GridMismatch`] when the snapshots
/// measured different grids.
pub fn diff(
    baseline: &BenchSnapshot,
    candidate: &BenchSnapshot,
) -> Result<BenchDiff, SnapshotError> {
    check_comparable(baseline, candidate)?;
    let f = |name, b, c, hib| DiffField {
        name,
        baseline: b,
        candidate: c,
        higher_is_better: hib,
    };
    Ok(BenchDiff {
        baseline_commit: baseline.commit.clone(),
        candidate_commit: candidate.commit.clone(),
        fields: vec![
            f(
                "packets_per_sec",
                baseline.packets_per_sec,
                candidate.packets_per_sec,
                true,
            ),
            f(
                "serial_secs",
                baseline.serial_secs,
                candidate.serial_secs,
                false,
            ),
            f(
                "parallel_secs",
                baseline.parallel_secs,
                candidate.parallel_secs,
                false,
            ),
            f("lut_secs", baseline.lut_secs, candidate.lut_secs, false),
            f(
                "direct_secs",
                baseline.direct_secs,
                candidate.direct_secs,
                false,
            ),
        ],
    })
}

/// The verdict of one regression-gate evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct GateResult {
    /// Baseline packets/sec.
    pub baseline_pps: f64,
    /// Candidate packets/sec.
    pub candidate_pps: f64,
    /// `candidate / baseline` (1.0 = parity, < 1.0 = slower).
    pub ratio: f64,
    /// Allowed slowdown, percent.
    pub tolerance_pct: f64,
    /// True when the candidate is within tolerance.
    pub pass: bool,
}

impl GateResult {
    /// One-line verdict.
    pub fn render_text(&self) -> String {
        format!(
            "bench gate: candidate {:.0} pkt/s vs baseline {:.0} pkt/s \
             (ratio {:.3}, tolerance -{:.0}%): {}",
            self.candidate_pps,
            self.baseline_pps,
            self.ratio,
            self.tolerance_pct,
            if self.pass { "PASS" } else { "FAIL" }
        )
    }
}

/// Evaluates the regression gate: the candidate fails when its
/// normalized packets/sec is more than `tolerance_pct` percent below
/// the baseline's. Faster-than-baseline always passes.
pub fn gate(
    baseline: &BenchSnapshot,
    candidate: &BenchSnapshot,
    tolerance_pct: f64,
) -> Result<GateResult, SnapshotError> {
    check_comparable(baseline, candidate)?;
    let ratio = if baseline.packets_per_sec > 0.0 {
        candidate.packets_per_sec / baseline.packets_per_sec
    } else {
        1.0
    };
    Ok(GateResult {
        baseline_pps: baseline.packets_per_sec,
        candidate_pps: candidate.packets_per_sec,
        ratio,
        tolerance_pct,
        pass: ratio >= 1.0 - tolerance_pct / 100.0,
    })
}

fn check_comparable(
    baseline: &BenchSnapshot,
    candidate: &BenchSnapshot,
) -> Result<(), SnapshotError> {
    if baseline.grid_fingerprint != candidate.grid_fingerprint {
        return Err(SnapshotError::GridMismatch {
            baseline: baseline.grid_fingerprint.clone(),
            candidate: candidate.grid_fingerprint.clone(),
        });
    }
    Ok(())
}

/// A scalar value in a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Num(f64),
    Bool(bool),
}

struct Doc<'a>(&'a [(String, Scalar)]);

impl Doc<'_> {
    fn get(&self, key: &str) -> Option<&Scalar> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn string(&self, key: &'static str) -> Result<String, SnapshotError> {
        match self.get(key) {
            Some(Scalar::Str(s)) => Ok(s.clone()),
            Some(_) => Err(SnapshotError::WrongType {
                field: key,
                expected: "string",
            }),
            None => Err(SnapshotError::MissingField(key)),
        }
    }

    fn f64(&self, key: &'static str) -> Result<f64, SnapshotError> {
        match self.get(key) {
            Some(Scalar::Num(n)) => Ok(*n),
            Some(_) => Err(SnapshotError::WrongType {
                field: key,
                expected: "number",
            }),
            None => Err(SnapshotError::MissingField(key)),
        }
    }

    fn u64(&self, key: &'static str) -> Result<u64, SnapshotError> {
        let n = self.f64(key)?;
        if n.fract() != 0.0 || n < 0.0 {
            return Err(SnapshotError::WrongType {
                field: key,
                expected: "non-negative integer",
            });
        }
        Ok(n as u64)
    }
}

/// Parses a flat JSON object whose values are strings, numbers, or
/// booleans — the only shapes bench snapshots (current or legacy) use.
/// Nested objects/arrays are rejected with a clear error.
fn parse_flat_object(text: &str) -> Result<Vec<(String, Scalar)>, SnapshotError> {
    let mut fields = Vec::new();
    let mut chars = text.char_indices().peekable();
    let err = |msg: &str| SnapshotError::Json(msg.to_string());

    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| {
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
    };

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err(err("expected '{'")),
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some((_, '}')) => {
                chars.next();
                break;
            }
            Some((_, ',')) if !fields.is_empty() => {
                chars.next();
                skip_ws(&mut chars);
            }
            _ => {}
        }
        skip_ws(&mut chars);
        if matches!(chars.peek(), Some((_, '}'))) {
            chars.next();
            break;
        }
        let key = parse_string(&mut chars).ok_or_else(|| err("expected string key"))?;
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ':')) => {}
            _ => return Err(err("expected ':' after key")),
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some((_, '"')) => {
                Scalar::Str(parse_string(&mut chars).ok_or_else(|| err("bad string"))?)
            }
            Some((_, 't')) | Some((_, 'f')) => {
                let word: String = std::iter::from_fn(|| {
                    matches!(chars.peek(), Some((_, c)) if c.is_ascii_alphabetic())
                        .then(|| chars.next().map(|(_, c)| c))
                        .flatten()
                })
                .collect();
                match word.as_str() {
                    "true" => Scalar::Bool(true),
                    "false" => Scalar::Bool(false),
                    _ => return Err(err("bad literal")),
                }
            }
            Some((_, '{')) | Some((_, '[')) => {
                return Err(err(
                    "nested objects/arrays are not valid in a bench snapshot",
                ))
            }
            Some(_) => {
                let word: String = std::iter::from_fn(|| {
                    matches!(
                        chars.peek(),
                        Some((_, c)) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                    )
                    .then(|| chars.next().map(|(_, c)| c))
                    .flatten()
                })
                .collect();
                Scalar::Num(word.parse::<f64>().map_err(|_| err("bad number"))?)
            }
            None => return Err(err("unexpected end of document")),
        };
        fields.push((key, value));
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err(err("trailing content after object"));
    }
    Ok(fields)
}

/// Parses a JSON string (supporting `\"` and `\\` escapes; snapshot
/// strings never need more).
fn parse_string(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) -> Option<String> {
    match chars.next() {
        Some((_, '"')) => {}
        _ => return None,
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            (_, '"') => return Some(out),
            (_, '\\') => match chars.next()? {
                (_, 'n') => out.push('\n'),
                (_, c) => out.push(c),
            },
            (_, c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchSnapshot {
        snapshot_from(
            &hotpath_grid(2000),
            &HotpathMeasurement {
                serial_secs: 0.8,
                parallel_secs: 0.2,
                lut_secs: 0.9,
                direct_secs: 1.1,
                delivered: 1_024_000,
            },
        )
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample();
        let json = snap.to_json();
        let back = BenchSnapshot::parse(&json).unwrap();
        assert_eq!(back.schema_version, SNAPSHOT_SCHEMA_VERSION);
        assert_eq!(back.bench, "sweep_scaling");
        assert_eq!(back.grid_fingerprint, snap.grid_fingerprint);
        assert_eq!(back.delivered_packets, snap.delivered_packets);
        assert!((back.packets_per_sec - snap.packets_per_sec).abs() < 1.0);
        // Serialization is deterministic.
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn legacy_snapshot_migrates() {
        let legacy = r#"{
  "bench": "sweep_scaling",
  "grid_points": 8,
  "packets_per_pe": 2000,
  "pre_kernel_serial_secs": 1.240,
  "serial_secs": 0.855,
  "improvement_vs_pre_kernel": 1.45,
  "lut_secs": 0.972,
  "direct_secs": 1.210,
  "lut_vs_direct_speedup": 1.25,
  "parallel8_secs": 0.946,
  "cores": 1
}
"#;
        let snap = BenchSnapshot::parse(legacy).unwrap();
        assert_eq!(snap.schema_version, SNAPSHOT_SCHEMA_VERSION);
        assert_eq!(snap.commit, "unknown");
        assert_eq!(snap.threads, HOTPATH_THREADS);
        assert_eq!(snap.grid_points, 8);
        // 8 points x 64 nodes x 2000 packets, all delivered.
        assert_eq!(snap.delivered_packets, 1_024_000);
        assert!((snap.packets_per_sec - 1_024_000.0 / 0.855).abs() < 1.0);
        // The reconstructed fingerprint matches the canonical grid's.
        assert_eq!(
            snap.grid_fingerprint,
            format!("{:016x}", grid_fingerprint(&hotpath_grid(2000)))
        );
        // Migrated snapshots are directly comparable to fresh ones.
        assert!(gate(&snap, &sample(), 10.0).is_ok());
    }

    #[test]
    fn typed_parse_errors() {
        assert!(matches!(
            BenchSnapshot::parse("not json"),
            Err(SnapshotError::Json(_))
        ));
        assert!(matches!(
            BenchSnapshot::parse("{\"schema_version\": 2}"),
            Err(SnapshotError::MissingField("bench"))
        ));
        assert!(matches!(
            BenchSnapshot::parse("{\"schema_version\": 99}"),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
        let mut bad = sample().to_json();
        bad = bad.replace("\"serial_secs\": 0.8000", "\"serial_secs\": \"fast\"");
        assert!(matches!(
            BenchSnapshot::parse(&bad),
            Err(SnapshotError::WrongType {
                field: "serial_secs",
                ..
            })
        ));
        assert!(matches!(
            BenchSnapshot::parse("{\"a\": {\"nested\": 1}}"),
            Err(SnapshotError::Json(_))
        ));
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let baseline = sample();
        // 5% slower: within the 10% tolerance.
        let mut ok = baseline.clone();
        ok.packets_per_sec = baseline.packets_per_sec * 0.95;
        let r = gate(&baseline, &ok, 10.0).unwrap();
        assert!(r.pass, "{}", r.render_text());
        // Faster than baseline always passes.
        let mut fast = baseline.clone();
        fast.packets_per_sec = baseline.packets_per_sec * 1.2;
        assert!(gate(&baseline, &fast, 10.0).unwrap().pass);
    }

    #[test]
    fn gate_fails_on_injected_ten_percent_slowdown() {
        let baseline = sample();
        // An injected >10% hot-path slowdown must fail the gate.
        let mut slow = baseline.clone();
        slow.packets_per_sec = baseline.packets_per_sec * 0.85;
        let r = gate(&baseline, &slow, 10.0).unwrap();
        assert!(!r.pass, "{}", r.render_text());
        assert!(r.render_text().contains("FAIL"));
        // Exactly at the boundary passes (tolerance is inclusive).
        let mut edge = baseline.clone();
        edge.packets_per_sec = baseline.packets_per_sec * 0.9000001;
        assert!(gate(&baseline, &edge, 10.0).unwrap().pass);
    }

    #[test]
    fn mismatched_grids_are_incomparable() {
        let a = sample();
        let mut b = sample();
        b.grid_fingerprint = "deadbeefdeadbeef".to_string();
        assert!(matches!(
            gate(&a, &b, 10.0),
            Err(SnapshotError::GridMismatch { .. })
        ));
        assert!(matches!(
            diff(&a, &b),
            Err(SnapshotError::GridMismatch { .. })
        ));
    }

    #[test]
    fn diff_reports_signed_percentages() {
        let baseline = sample();
        let mut cand = sample();
        cand.packets_per_sec = baseline.packets_per_sec * 1.1;
        cand.serial_secs = baseline.serial_secs * 0.9;
        cand.commit = "abc1234".to_string();
        let d = diff(&baseline, &cand).unwrap();
        let pps = d
            .fields
            .iter()
            .find(|f| f.name == "packets_per_sec")
            .unwrap();
        assert!((pps.delta_pct() - 10.0).abs() < 1e-6);
        assert!(pps.higher_is_better);
        let text = d.render_text();
        assert!(text.contains("packets_per_sec"));
        assert!(text.contains("abc1234"));
        let json = d.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"delta_pct\""));
    }

    #[test]
    fn quick_and_full_grids_have_distinct_fingerprints() {
        let full = format!("{:016x}", grid_fingerprint(&hotpath_grid(2000)));
        let quick = format!("{:016x}", grid_fingerprint(&hotpath_grid(200)));
        assert_ne!(full, quick, "packet quota is part of the grid identity");
    }

    #[test]
    fn current_commit_is_nonempty() {
        assert!(!current_commit().is_empty());
    }
}
