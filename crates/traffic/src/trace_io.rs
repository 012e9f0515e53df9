//! Plain-text trace reader.
//!
//! Downstream users replay their own accelerator communication traces
//! (the paper extracts them from SpMV/graph/LU/PARSEC runs). The format
//! is one message per line:
//!
//! ```text
//! # comment lines and blanks are ignored
//! <release_cycle> <src_node> <dst_node> [tag]
//! ```
//!
//! Nodes are row-major ids on the target fabric. Unlike a scenario
//! trace, the file carries no header and no checksum, which is what
//! makes it the way in for a trace written by another tool. The reader
//! validates ranges eagerly so a bad trace fails at load, not
//! mid-simulation, and hands back [`ScenarioRecord`]s that a
//! [`ReplaySource`](crate::scenario::ReplaySource) plays.

use std::num::ParseIntError;

use crate::scenario::ScenarioRecord;

/// Errors raised while parsing a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// A line did not have 3 or 4 whitespace-separated fields.
    BadFieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        fields: usize,
    },
    /// A field failed integer parsing.
    BadInteger {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A node id is outside the target system.
    NodeOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending node id, kept at full `u64` width so the
        /// reported value is never a truncated alias of what the file
        /// actually said.
        node: u64,
        /// Nodes in the target system.
        nodes: usize,
    },
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::BadFieldCount { line, fields } => {
                write!(f, "line {line}: expected 3 or 4 fields, found {fields}")
            }
            TraceParseError::BadInteger { line, text } => {
                write!(f, "line {line}: invalid integer {text:?}")
            }
            TraceParseError::NodeOutOfRange { line, node, nodes } => {
                write!(f, "line {line}: node {node} outside 0..{nodes}")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Parses a text trace targeted at an `n × n` system into its push
/// schedule: the lines sorted stably by release cycle, so messages of
/// one cycle push in file order.
///
/// # Errors
///
/// Returns a [`TraceParseError`] describing the first malformed line.
pub fn parse_trace(text: &str, n: u16) -> Result<Vec<ScenarioRecord>, TraceParseError> {
    let nodes = n as usize * n as usize;
    let mut records = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let fields: Vec<&str> = content.split_whitespace().collect();
        if fields.len() != 3 && fields.len() != 4 {
            return Err(TraceParseError::BadFieldCount {
                line,
                fields: fields.len(),
            });
        }
        let parse = |text: &str| -> Result<u64, TraceParseError> {
            text.parse()
                .map_err(|_: ParseIntError| TraceParseError::BadInteger {
                    line,
                    text: text.to_string(),
                })
        };
        let cycle = parse(fields[0])?;
        let src = parse(fields[1])?;
        let dst = parse(fields[2])?;
        let tag = if fields.len() == 4 {
            parse(fields[3])?
        } else {
            0
        };
        // Range-check at u64 width BEFORE narrowing to usize: a node id
        // above usize::MAX must report as out-of-range, not silently
        // wrap into a valid-looking id on 32-bit hosts.
        for node in [src, dst] {
            if node >= nodes as u64 {
                return Err(TraceParseError::NodeOutOfRange { line, node, nodes });
            }
        }
        records.push(ScenarioRecord {
            cycle,
            src: src as usize,
            dst: dst as usize,
            tag,
        });
    }
    records.sort_by_key(|r| r.cycle);
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cycle: u64, src: usize, dst: usize, tag: u64) -> ScenarioRecord {
        ScenarioRecord {
            cycle,
            src,
            dst,
            tag,
        }
    }

    #[test]
    fn parses_comments_blanks_and_tags() {
        let text = "# header\n\n0 0 5\n10 3 1 42  # inline comment\n";
        assert_eq!(
            parse_trace(text, 4).unwrap(),
            [record(0, 0, 5, 0), record(10, 3, 1, 42)]
        );
    }

    #[test]
    fn sorts_stably_by_cycle() {
        let text = "9 3 4 1\n0 0 5\n5 2 7 2\n0 1 6\n5 9 1\n";
        assert_eq!(
            parse_trace(text, 4).unwrap(),
            [
                record(0, 0, 5, 0),
                record(0, 1, 6, 0),
                record(5, 2, 7, 2),
                record(5, 9, 1, 0),
                record(9, 3, 4, 1),
            ]
        );
    }

    #[test]
    fn error_reporting_is_line_accurate() {
        assert_eq!(
            parse_trace("0 1\n", 4).unwrap_err(),
            TraceParseError::BadFieldCount { line: 1, fields: 2 }
        );
        assert_eq!(
            parse_trace("0 0 1\nx 0 1\n", 4).unwrap_err(),
            TraceParseError::BadInteger {
                line: 2,
                text: "x".into()
            }
        );
        assert_eq!(
            parse_trace("0 0 99\n", 4).unwrap_err(),
            TraceParseError::NodeOutOfRange {
                line: 1,
                node: 99,
                nodes: 16
            }
        );
        assert!(parse_trace("0 0 99\n", 4)
            .unwrap_err()
            .to_string()
            .contains("node 99"));
    }

    #[test]
    fn huge_node_ids_report_untruncated() {
        // 2^32 + 5 would wrap to 5 (in range!) if narrowed before the
        // range check on a 32-bit host.
        let huge = (1u64 << 32) + 5;
        assert_eq!(
            parse_trace(&format!("0 0 {huge}\n"), 4).unwrap_err(),
            TraceParseError::NodeOutOfRange {
                line: 1,
                node: huge,
                nodes: 16
            }
        );
    }

    #[test]
    fn source_built_from_text_runs() {
        use crate::scenario::ReplaySource;
        use fasttrack_core::config::NocConfig;
        use fasttrack_core::sim::SimSession;
        let records = parse_trace("0 0 5\n0 1 6\n5 2 7\n", 4).unwrap();
        let report = SimSession::new(&NocConfig::hoplite(4).unwrap())
            .run(&mut ReplaySource::new(4, records))
            .unwrap()
            .report;
        assert!(!report.truncated);
        assert_eq!(report.stats.delivered, 3);
    }
}
