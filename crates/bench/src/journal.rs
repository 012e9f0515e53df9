//! Append-only sweep journal: crash-safe orchestration for long grids.
//!
//! Every completed point is appended to the journal (and flushed) the
//! moment it finishes, so a killed process loses at most the points
//! that were mid-flight. Re-running the same grid against the same
//! journal path skips the recorded points and re-runs only the rest;
//! the merged CSV is **byte-identical** to an uninterrupted run because
//! rows are stored verbatim (`crate::runner::sweep_csv_row` has no
//! ambient state) and re-run points derive their seeds from their
//! *original* grid index.
//!
//! ## Format
//!
//! Plain text, one record per line:
//!
//! ```text
//! fasttrack-sweep-journal v1 <fingerprint-hex>
//! ok <index> <checksum-hex> <csv-row>
//! err <index> <message>
//! ```
//!
//! The fingerprint hashes the grid's identity (base seed, packet quota,
//! and every point's label/channels/pattern/rate), so a journal can
//! never silently resume a *different* sweep. Each `ok` record carries
//! a checksum of its row: a crash can tear the final append mid-line,
//! and a torn row prefix would otherwise still parse. `err` records are
//! informational: failed points are re-attempted on resume. A torn
//! final line is ignored; corruption anywhere else is an error.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Mutex;

use fasttrack_core::sim::SimReport;
use fasttrack_core::sweep::{hash_bytes, splitmix64, SweepError};
use fasttrack_traffic::source::BernoulliSource;

use crate::runner::{
    sweep_csv_header, sweep_csv_row, FallibleSweepOptions, PointSession, SweepGrid, SweepPoint,
    SweepRow,
};

/// First token pair of every journal file; bump the version on any
/// format change.
const JOURNAL_MAGIC: &str = "fasttrack-sweep-journal v1";

/// Hashes the identity of a grid into the fingerprint stored in its
/// journal header. Two grids fingerprint equal exactly when they would
/// produce the same rows: same base seed, packet quota, and point list.
fn grid_fingerprint(grid: &SweepGrid) -> u64 {
    let mut h = splitmix64(grid.base_seed);
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h ^ bytes.len() as u64);
    };
    mix(&grid.packets_per_pe.to_le_bytes());
    mix(&(grid.points.len() as u64).to_le_bytes());
    for p in &grid.points {
        mix(p.nut.label().as_bytes());
        mix(&(p.nut.channels as u64).to_le_bytes());
        mix(p.pattern.to_string().as_bytes());
        mix(&p.rate.to_bits().to_le_bytes());
    }
    h
}

/// Why a journal could not be used.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The first line is not a `fasttrack-sweep-journal v1` header.
    BadHeader,
    /// The journal belongs to a different grid (fingerprint mismatch).
    GridMismatch {
        /// Fingerprint of the grid being run.
        expected: u64,
        /// Fingerprint recorded in the journal.
        found: u64,
    },
    /// An unparseable record before the final line (torn final lines
    /// are expected after a crash and silently dropped; anything
    /// earlier means the file was edited or damaged).
    Corrupt {
        /// 1-based line number of the bad record.
        line: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadHeader => {
                write!(f, "not a sweep journal (missing '{JOURNAL_MAGIC}' header)")
            }
            JournalError::GridMismatch { expected, found } => write!(
                f,
                "journal was written by a different sweep (grid fingerprint \
                 {found:016x}, expected {expected:016x}); refusing to resume"
            ),
            JournalError::Corrupt { line } => {
                write!(f, "journal line {line} is corrupt (not a torn final line)")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Parsed contents of a journal file.
#[derive(Debug, Default)]
struct JournalContents {
    /// Grid fingerprint from the header.
    fingerprint: u64,
    /// Completed points: index → CSV row (without trailing newline).
    done: HashMap<usize, String>,
    /// Byte length of the valid prefix of the file. A torn final append
    /// leaves trailing bytes beyond this; resume truncates to it before
    /// appending so the torn line never becomes interior corruption.
    valid_len: u64,
}

/// Reads and validates a journal file. `err` records are informational
/// (resume re-attempts those points), so only their syntax is checked.
fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut raw = String::new();
    if reader.read_line(&mut raw)? == 0 {
        return Err(JournalError::BadHeader);
    }
    let fingerprint = raw
        .trim_end_matches('\n')
        .strip_prefix(JOURNAL_MAGIC)
        .map(str::trim)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or(JournalError::BadHeader)?;
    let mut contents = JournalContents {
        fingerprint,
        valid_len: raw.len() as u64,
        ..JournalContents::default()
    };
    let mut pending: Option<usize> = None; // line number of an unparseable record
    let mut no = 1; // the header was line 1
    loop {
        raw.clear();
        let bytes = reader.read_line(&mut raw)?;
        if bytes == 0 {
            break;
        }
        no += 1;
        // A previously-seen bad record followed by more records is real
        // corruption; only a bad *final* line is a torn append.
        if let Some(bad) = pending {
            return Err(JournalError::Corrupt { line: bad });
        }
        let line = raw.trim_end_matches('\n');
        let mut parts = line.splitn(3, ' ');
        let record = (parts.next(), parts.next().and_then(|s| s.parse().ok()));
        match record {
            (Some("ok"), Some(index)) => {
                // `<checksum-hex> <row>`: a torn append truncates the
                // row, so the checksum no longer matches.
                let intact = parts
                    .next()
                    .unwrap_or("")
                    .split_once(' ')
                    .and_then(|(cksum, row)| match u64::from_str_radix(cksum, 16) {
                        Ok(c) if c == hash_bytes(row.as_bytes()) => Some(row.to_string()),
                        _ => None,
                    });
                match intact {
                    Some(row) => {
                        contents.done.insert(index, row);
                    }
                    None => pending = Some(no),
                }
            }
            (Some("err"), Some(_)) => {}
            _ => pending = Some(no),
        }
        // A final line without its newline is a mid-append crash even if
        // the record happens to checksum; leave it out of the valid
        // prefix so resume truncates it instead of appending after it.
        if pending.is_none() && raw.ends_with('\n') {
            contents.valid_len += bytes as u64;
        }
    }
    Ok(contents)
}

/// The append side of a journal: one flushed line per finished point.
#[derive(Debug)]
struct SweepJournal {
    file: Mutex<File>,
}

impl SweepJournal {
    /// The journal at `path` for `grid`, plus the rows it already holds:
    /// a fresh journal when the file does not exist, else the recorded
    /// points of the same grid, with a torn final append chopped off so
    /// that new records never bury it as interior corruption.
    fn open(grid: &SweepGrid, path: &Path) -> Result<(Self, HashMap<usize, String>), JournalError> {
        let fingerprint = grid_fingerprint(grid);
        if !path.exists() {
            let mut file = File::create(path)?;
            writeln!(file, "{JOURNAL_MAGIC} {fingerprint:016x}")?;
            file.flush()?;
            return Ok((Self::new(file), HashMap::new()));
        }
        let mut contents = read_journal(path)?;
        if contents.fingerprint != fingerprint {
            return Err(JournalError::GridMismatch {
                expected: fingerprint,
                found: contents.fingerprint,
            });
        }
        contents.done.retain(|&i, _| i < grid.len());
        let file = OpenOptions::new().append(true).open(path)?;
        file.set_len(contents.valid_len)?;
        Ok((Self::new(file), contents.done))
    }

    fn new(file: File) -> Self {
        SweepJournal {
            file: Mutex::new(file),
        }
    }

    /// Appends and flushes the record of point `index`'s final result:
    /// its CSV row, or its error on one line.
    fn record<R>(&self, index: usize, result: &Result<(SweepRow, R), SweepError>) {
        let line = match result {
            Ok((row, _)) => {
                let row = sweep_csv_row(row);
                let row = row.trim_end();
                format!("ok {index} {:016x} {row}", hash_bytes(row.as_bytes()))
            }
            // A panic message may span lines; a record must not.
            Err(e) => format!("err {index} {}", e.to_string().replace('\n', " ")),
        };
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // A journaling failure must not kill the sweep: the run is still
        // correct, it just cannot be resumed from this point.
        if let Err(e) = writeln!(file, "{line}").and_then(|()| file.flush()) {
            eprintln!("warning: sweep journal append failed: {e}");
        }
    }
}

/// One grid point's part in a (possibly journaled) sweep.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one per grid point, read once
pub enum PointOutcome<R> {
    /// Restored from the journal: the point's CSV line (with newline).
    Restored(String),
    /// Run by this invocation: its row and the drive closure's sidecar.
    Ran(SweepRow, R),
    /// Failed every attempt.
    Failed(SweepError),
}

/// The merged outcome of a journaled (possibly resumed) sweep.
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// Every grid point's outcome, in grid order.
    pub points: Vec<PointOutcome<R>>,
    /// Points restored from the journal instead of re-run.
    pub restored: usize,
}

impl<R> SweepOutcome<R> {
    /// The sweep CSV: header plus every successful row in grid order —
    /// byte-identical to an uninterrupted [`SweepGrid::run`]'s
    /// [`crate::runner::sweep_csv`] when every point succeeds.
    pub fn csv(&self) -> String {
        let mut out = String::from(sweep_csv_header());
        for point in &self.points {
            match point {
                PointOutcome::Restored(line) => out.push_str(line),
                PointOutcome::Ran(row, _) => out.push_str(&sweep_csv_row(row)),
                PointOutcome::Failed(_) => {}
            }
        }
        out
    }

    /// The points run by this invocation as `(index, row, sidecar)`, in
    /// grid order.
    pub fn ran(&self) -> impl Iterator<Item = (usize, &SweepRow, &R)> {
        self.points.iter().enumerate().filter_map(|(i, p)| match p {
            PointOutcome::Ran(row, sidecar) => Some((i, row, sidecar)),
            _ => None,
        })
    }

    /// Failed points as `(index, error)`, in grid order.
    pub fn errors(&self) -> impl Iterator<Item = (usize, &SweepError)> {
        self.points.iter().enumerate().filter_map(|(i, p)| match p {
            PointOutcome::Failed(e) => Some((i, e)),
            _ => None,
        })
    }
}

/// Runs `grid` through `SweepGrid::run_each` with `opts`'s isolation,
/// retry and budget, each point driven by `drive`. With a journal
/// `path`, every point's final result is appended (and flushed) on its
/// worker the moment it is known, and points the journal already
/// records are restored instead of re-run: pass a path that does not
/// exist yet for a fresh crash-safe run, or an interrupted run's journal
/// to resume it. Without one, every point runs and nothing is written.
pub fn run_journaled<R, F>(
    grid: &SweepGrid,
    opts: &FallibleSweepOptions,
    path: Option<&Path>,
    drive: F,
) -> Result<SweepOutcome<R>, JournalError>
where
    R: Send,
    F: Fn(usize, u64, &SweepPoint, PointSession, &mut BernoulliSource) -> (SimReport, R) + Sync,
{
    let (journal, mut done) = match path {
        Some(path) => {
            let (journal, done) = SweepJournal::open(grid, path)?;
            (Some(journal), done)
        }
        None => (None, HashMap::new()),
    };
    let restored = done.len();
    let todo = (0..grid.len()).filter(|i| !done.contains_key(i)).collect();
    let record = |i, result: &Result<_, _>| {
        if let Some(journal) = &journal {
            journal.record(i, result);
        }
    };
    let mut fresh = grid.run_each(todo, opts, drive, record).into_iter();
    let points = (0..grid.len())
        .map(|i| match done.remove(&i) {
            Some(row) => PointOutcome::Restored(row + "\n"),
            None => match fresh.next().expect("every point not restored was run") {
                Ok((row, sidecar)) => PointOutcome::Ran(row, sidecar),
                Err(e) => PointOutcome::Failed(e),
            },
        })
        .collect();
    Ok(SweepOutcome { points, restored })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::NocUnderTest;
    use fasttrack_traffic::pattern::Pattern;

    /// The unobserved drive every plain sweep runs.
    fn plain(
        _: usize,
        _: u64,
        _: &SweepPoint,
        session: PointSession,
        source: &mut BernoulliSource,
    ) -> (SimReport, ()) {
        (session.run(source).expect("no faults").report, ())
    }

    fn small_grid(seed: u64) -> SweepGrid {
        let nuts = [NocUnderTest::hoplite(4), NocUnderTest::fasttrack(4, 2, 1)];
        SweepGrid::cross(&nuts, &[Pattern::Random], &[0.1, 0.5], seed).with_packets_per_pe(20)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fasttrack_journal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn fingerprint_tracks_grid_identity() {
        let a = grid_fingerprint(&small_grid(1));
        assert_eq!(a, grid_fingerprint(&small_grid(1)), "must be pure");
        assert_ne!(a, grid_fingerprint(&small_grid(2)), "seed must matter");
        let bigger = small_grid(1).with_packets_per_pe(21);
        assert_ne!(a, grid_fingerprint(&bigger), "quota must matter");
    }

    /// Two grids that differ only in the fabric's size run different
    /// sweeps, so a journal of one must not resume the other.
    #[test]
    fn fingerprint_tracks_fabric_size() {
        let over = |n| {
            let nuts = [NocUnderTest::hoplite(n)];
            SweepGrid::cross(&nuts, &[Pattern::Random], &[0.1], 7).with_packets_per_pe(20)
        };
        assert_ne!(grid_fingerprint(&over(4)), grid_fingerprint(&over(8)));
    }

    #[test]
    fn journaled_run_matches_plain_sweep_csv() {
        let grid = small_grid(0xA11CE);
        let path = tmp("fresh.journal");
        let _ = std::fs::remove_file(&path);
        let outcome = run_journaled(&grid, &FallibleSweepOptions::default(), Some(&path), plain)
            .expect("journaled run");
        assert_eq!(outcome.restored, 0);
        assert_eq!(outcome.errors().count(), 0);
        assert_eq!(outcome.csv(), crate::runner::sweep_csv(&grid.run(1)));
    }

    #[test]
    fn resume_after_partial_journal_is_byte_identical() {
        let grid = small_grid(0xBEE);
        let golden = tmp("golden.journal");
        let partial = tmp("partial.journal");
        let _ = std::fs::remove_file(&golden);
        let opts = FallibleSweepOptions::default();
        let full = run_journaled(&grid, &opts, Some(&golden), plain).expect("golden run");

        // Simulate a crash: keep the header and the first two records
        // (as if the process died mid-grid), plus a torn final line.
        let text = std::fs::read_to_string(&golden).unwrap();
        let kept: Vec<&str> = text.lines().take(3).collect();
        std::fs::write(
            &partial,
            format!("{}\nok 2 torn-row-with-no-newl", kept.join("\n")),
        )
        .unwrap();

        let resumed = run_journaled(&grid, &opts, Some(&partial), plain).expect("resume");
        assert_eq!(resumed.restored, 2, "two intact records restored");
        assert_eq!(resumed.csv(), full.csv(), "resume must be byte-identical");

        // The torn tail was truncated before the resume appended, so the
        // journal stays readable: a further resume restores every point.
        let again = run_journaled(&grid, &opts, Some(&partial), plain).expect("second resume");
        assert_eq!(again.restored, grid.points.len());
        assert_eq!(again.csv(), full.csv());
    }

    #[test]
    fn completion_hook_runs_once_per_point_on_its_worker() {
        let mut grid = small_grid(0xD0E);
        grid.points[3].rate = 0.004; // cannot finish inside the budget
        let opts = FallibleSweepOptions {
            threads: 2,
            retries: 1,
            cycle_budget: Some(2000),
        };
        let ran_on = Mutex::new(HashMap::new());
        let done_on = Mutex::new(Vec::new());
        let drive = |i, _, _: &SweepPoint, session: PointSession, source: &mut _| {
            ran_on
                .lock()
                .unwrap()
                .insert(i, std::thread::current().id());
            (session.run(source).expect("no faults").report, ())
        };
        let hook = |i, result: &Result<_, _>| {
            let thread = std::thread::current().id();
            done_on.lock().unwrap().push((i, thread, result.is_ok()));
        };
        let results = grid.run_each((0..grid.len()).collect(), &opts, drive, hook);
        // Every point's hook has run by the time the sweep returns: once,
        // with its final result, on the thread that ran its last attempt.
        let mut done = done_on.lock().unwrap().clone();
        done.sort_by_key(|d| d.0);
        let ran_on = ran_on.lock().unwrap();
        assert_eq!(done.len(), grid.len(), "{done:?}");
        for (slot, &(i, thread, ok)) in done.iter().enumerate() {
            assert_eq!(i, slot);
            assert_eq!(thread, ran_on[&i], "point {i}");
            assert_eq!(ok, results[i].is_ok(), "point {i}");
        }
        assert!(results[3].is_err() && results[..3].iter().all(Result::is_ok));

        // The journal append is that hook: one record per point, the
        // retried failure included once.
        let path = tmp("hook.journal");
        let _ = std::fs::remove_file(&path);
        let outcome = run_journaled(&grid, &opts, Some(&path), plain).expect("journaled run");
        let text = std::fs::read_to_string(&path).unwrap();
        let mut records: Vec<(usize, &str)> = text
            .lines()
            .skip(1)
            .map(|l| {
                let mut parts = l.split(' ');
                let kind = parts.next().unwrap();
                (parts.next().unwrap().parse().unwrap(), kind)
            })
            .collect();
        records.sort_unstable();
        assert_eq!(records, [(0, "ok"), (1, "ok"), (2, "ok"), (3, "err")]);
        assert_eq!(outcome.errors().map(|(i, _)| i).collect::<Vec<_>>(), [3]);
    }

    #[test]
    fn mismatched_grid_is_refused() {
        let path = tmp("mismatch.journal");
        let _ = std::fs::remove_file(&path);
        let opts = FallibleSweepOptions::default();
        run_journaled(&small_grid(1), &opts, Some(&path), plain).expect("first run");
        let err = run_journaled(&small_grid(2), &opts, Some(&path), plain).unwrap_err();
        assert!(matches!(err, JournalError::GridMismatch { .. }), "{err}");
        assert!(err.to_string().contains("refusing to resume"));
    }

    #[test]
    fn corrupt_interior_line_is_an_error() {
        let path = tmp("corrupt.journal");
        let grid = small_grid(3);
        let fp = grid_fingerprint(&grid);
        let valid = format!("ok 0 {:016x} row", hash_bytes(b"row"));
        std::fs::write(
            &path,
            format!("{JOURNAL_MAGIC} {fp:016x}\ngarbage line\n{valid}\n"),
        )
        .unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { line: 2 }), "{err}");
        // A torn *final* line is fine — including a torn row prefix that
        // still looks like an `ok` record (the checksum catches it).
        std::fs::write(
            &path,
            format!("{JOURNAL_MAGIC} {fp:016x}\n{valid}\nok 1 0123abcd torn-row"),
        )
        .unwrap();
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.done.len(), 1);
        assert_eq!(contents.done[&0], "row");
    }

    #[test]
    fn bad_header_is_refused() {
        let path = tmp("noheader.journal");
        std::fs::write(&path, "config,channels\n1,2\n").unwrap();
        assert!(matches!(
            read_journal(&path).unwrap_err(),
            JournalError::BadHeader
        ));
    }
}
