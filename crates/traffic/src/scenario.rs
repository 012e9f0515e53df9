//! Versioned scenario traces: record a live [`TrafficSource`] run and
//! replay the realized injection schedule byte-identically.
//!
//! A scenario trace file is line-oriented text:
//!
//! ```text
//! fasttrack-scenario-trace v1
//! {"schema":2,"noc":"ft:8:2:1","channels":1,...}
//! m <cycle> <src> <dst> <tag>
//! ...
//! end <count> <checksum-hex>
//! ```
//!
//! Schema v2 generalizes the `noc` key from the three torus kinds to
//! the full [`TopologySpec`] grammar (`shg:<q>:<delta>`,
//! `mesh:<n>:<depth>`); [`ScenarioHeader::topology`] parses it. Every
//! v1 file is a valid v2 file (the torus grammar is a subset), so v1
//! corpus entries decode — and re-encode byte-identically, since the
//! recorded `schema` number is preserved. Unknown header keys are
//! ignored in both schemas, so older builds read newer minor traces.
//!
//! * Line 1 is the magic string `fasttrack-scenario-trace v1`.
//! * Line 2 is a single flat JSON header object (hand-rolled — the
//!   repo vendors no serde). String values never contain escapes.
//! * Each `m` record is one realized queue push, in global push order
//!   (nondecreasing cycles; `PacketId` assignment order within a
//!   cycle), so replay reproduces identical packet ids and therefore
//!   an identical event stream.
//! * The `end` trailer carries the record count and a SplitMix64
//!   running checksum over the body, mirroring the sweep journal: a
//!   file missing its trailer is a torn tail ([`TraceError::TornTail`]),
//!   and interior corruption fails the checksum.
//!
//! Recording works by wrapping any source in a [`RecordingSource`]:
//! it reads [`InjectQueues::total_enqueued`] before and after the
//! inner `pump`. [`InjectQueues::push`] is the only thing that hands
//! out a [`PacketId`](fasttrack_core::packet::PacketId) and it counts
//! up by one, so `k` pushes carry exactly the ids `first .. first + k`
//! and id order *is* global push order; and a source only ever appends
//! during `pump`, so those `k` packets are the last entries of their
//! FIFOs. Each is written straight to slot `id - first` of the `k`
//! records the cycle appends — no per-cycle snapshot or sort, and a
//! cycle that pushed nothing touches no queue. Replaying that schedule
//! open-loop through a [`ReplaySource`] reproduces the run exactly
//! because the engine is deterministic given the push schedule.
//!
//! The codec handles records as integers: `encode` writes decimal
//! digits into one buffer sized from the record count, `decode` parses
//! the canonical `m <cycle> <src> <dst> <tag>` line byte by byte and
//! hands anything else (extra blanks, a `+` sign, 20-digit values,
//! CRLF) to a tokenizer with `str::parse`'s rules. What the format
//! fixes is one SplitMix64 round per byte: a line's hash is a serial
//! chain, but lines are hashed independently and only the fold of
//! line hashes into the checksum is ordered, so both directions hash
//! four lines side by side.

use std::fmt;

use fasttrack_core::config::NocConfig;
use fasttrack_core::fallback::FallbackConfig;
use fasttrack_core::fault::{Fault, FaultPlan};
use fasttrack_core::geom::Coord;
use fasttrack_core::multichannel::MAX_CHANNELS;
use fasttrack_core::packet::Delivery;
use fasttrack_core::port::OutPort;
use fasttrack_core::queue::InjectQueues;
use fasttrack_core::sim::{SimReport, SimSession, SpecBackend, TrafficSource};
use fasttrack_core::sweep::{hash_bytes, splitmix64};
use fasttrack_core::topology::TopologySpec;

#[cfg(test)]
mod reference;

/// First line of every v1 scenario trace.
pub(crate) const SCENARIO_MAGIC: &str = "fasttrack-scenario-trace v1";

/// The schema number written by this library. v2 widened the `noc`
/// key to the full [`TopologySpec`] grammar; decoded v1 headers keep
/// their recorded number so re-encoding is byte-identical.
pub(crate) const SCENARIO_SCHEMA: u32 = 2;

/// One realized queue push: at `cycle`, node `src` enqueued a packet
/// for node `dst` carrying `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioRecord {
    /// Pump cycle of the push.
    pub cycle: u64,
    /// Source node id.
    pub src: usize,
    /// Destination node id.
    pub dst: usize,
    /// Opaque workload tag.
    pub tag: u64,
}

/// Expected outcome embedded in a corpus entry, checked on replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expectation {
    /// Packets delivered.
    pub delivered: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Packets dropped by faults.
    pub dropped: u64,
    /// Whether the run hit its cycle budget.
    pub truncated: bool,
}

impl From<&SimReport> for Expectation {
    /// The outcome a finished run realized.
    fn from(report: &SimReport) -> Self {
        Expectation {
            delivered: report.stats.delivered,
            cycles: report.cycles,
            dropped: report.stats.dropped,
            truncated: report.truncated,
        }
    }
}

/// Scenario metadata: everything needed to rebuild the session.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioHeader {
    /// Format schema (currently always 2).
    pub schema: u32,
    /// Topology spec string in the [`TopologySpec`] grammar, e.g.
    /// `ft:8:2:1` (`ftlite:` for Inject policy) or, from schema v2 on,
    /// `shg:8:2` / `mesh:4:4`.
    pub noc: String,
    /// Multichannel bank width (1 = single channel).
    pub channels: usize,
    /// Cycle budget of the recorded run.
    pub max_cycles: u64,
    /// Warmup cycles of the recorded run.
    pub warmup: u64,
    /// Free-form generator label (e.g. `spmv`, `fuzz`).
    pub generator: String,
    /// Cycle of the first pump after which the recorded generator
    /// reported itself exhausted: an open-loop source's last push.
    /// Closed-loop sources (dataflow) stay unexhausted past their last
    /// push while trailing compute drains, which lengthens the recorded
    /// run; replay holds its own exhaustion until this cycle so the run
    /// length — and therefore the report — matches byte-for-byte.
    /// `None` means no pump saw it: the run was truncated, or the
    /// generator was exhausted by the run's final delivery, with a
    /// packet in flight until then, so replay exhausted at its last
    /// push ends on the same cycle.
    pub drained_at: Option<u64>,
    /// Faults active during the run, in plan order.
    pub faults: Vec<Fault>,
    /// Whether the recorded run used the standard fallback chains
    /// (`FallbackConfig::standard()`); replay must match or the byte
    /// comparison diverges. `false` (the default, omitted from the
    /// encoding) means chains were off.
    pub fallback: bool,
    /// Optional expected outcome for self-checking corpus entries.
    pub expect: Option<Expectation>,
}

impl ScenarioHeader {
    /// A minimal header for an `noc` spec with library defaults.
    pub fn new(noc: &str, generator: &str) -> Self {
        ScenarioHeader {
            schema: SCENARIO_SCHEMA,
            noc: noc.to_string(),
            channels: 1,
            max_cycles: 2_000_000,
            warmup: 0,
            generator: generator.to_string(),
            drained_at: None,
            faults: Vec::new(),
            fallback: false,
            expect: None,
        }
    }

    /// Rebuilds the full [`NocConfig`] from the spec string: the
    /// [`TopologySpec`] grammar, restricted to the torus kinds
    /// (`hoplite:<n>`, `ft:<n>:<d>:<r>`, `ftlite:<n>:<d>:<r>`).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadHeader`] when the spec does not parse or
    /// names a non-torus topology.
    pub fn noc_config(&self) -> Result<NocConfig, TraceError> {
        match self.topology()? {
            TopologySpec::Torus(cfg) => Ok(cfg),
            other => Err(TraceError::BadHeader(format!(
                "noc spec {:?} names {}, not a torus",
                self.noc,
                other.display_name()
            ))),
        }
    }

    /// The [`TopologySpec`] this header names — the schema-v2 view of
    /// the `noc` key. v1 headers migrate transparently: their torus
    /// spec strings are a subset of the v2 grammar, so the same parse
    /// covers both.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadHeader`] when the spec string does not
    /// parse under the [`TopologySpec`] grammar.
    pub fn topology(&self) -> Result<TopologySpec, TraceError> {
        self.noc
            .parse::<TopologySpec>()
            .map_err(|e| TraceError::BadHeader(format!("bad noc spec {:?}: {e}", self.noc)))
    }

    /// The session this header describes — the one way a recorded run
    /// is configured, whether it is being recorded, replayed or fuzzed:
    /// the topology its noc spec names, `channels` of it, the cycle cap,
    /// the warmup, the faults and, when `fallback` is set, the standard
    /// fallback chains.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadHeader`] when the noc spec does not
    /// parse, when it names a non-torus topology with `channels > 1`
    /// (only a torus replicates into a bank), or when the fabric refuses
    /// the fallback chains.
    pub fn session(&self) -> Result<SimSession<'static, SpecBackend>, TraceError> {
        let topology = self.topology()?;
        if self.channels > 1 && !matches!(topology, TopologySpec::Torus(_)) {
            return Err(TraceError::BadHeader(format!(
                "noc spec {:?} names {} with {} channels; only a torus replicates",
                self.noc,
                topology.display_name(),
                self.channels
            )));
        }
        let faults = self.faults.iter().fold(FaultPlan::new(), |p, &f| p.with(f));
        let session = SimSession::with_backend(SpecBackend::new(&topology, self.channels.max(1)))
            .max_cycles(self.max_cycles)
            .warmup_cycles(self.warmup)
            .with_faults(&faults);
        if !self.fallback {
            return Ok(session);
        }
        session
            .with_fallback(&FallbackConfig::standard())
            .map_err(|e| TraceError::BadHeader(e.to_string()))
    }
}

/// A decoded scenario: header plus the realized push schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTrace {
    /// Scenario metadata.
    pub header: ScenarioHeader,
    /// Realized pushes in global push order (nondecreasing cycles).
    pub records: Vec<ScenarioRecord>,
}

/// Why a scenario trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The first line is not the `fasttrack-scenario-trace v1` magic.
    BadMagic,
    /// The header line is missing or malformed (reason attached).
    BadHeader(String),
    /// The schema number is newer than this library understands.
    UnsupportedSchema(u32),
    /// A body line is not a well-formed `m` record.
    BadRecord {
        /// 1-based line number in the file.
        line: usize,
    },
    /// A record names a node outside the system.
    NodeOutOfRange {
        /// 1-based line number in the file.
        line: usize,
        /// The offending node id (kept at `u64` so 32-bit hosts still
        /// report the un-truncated value).
        node: u64,
    },
    /// Record cycles went backwards (push order must be nondecreasing).
    NonMonotonic {
        /// 1-based line number in the file.
        line: usize,
    },
    /// The `end` trailer is missing — the file was torn mid-write.
    TornTail,
    /// The trailer checksum does not match the body.
    ChecksumMismatch,
    /// The trailer count does not match the number of records.
    CountMismatch {
        /// Count claimed by the trailer.
        expected: u64,
        /// Records actually present.
        found: u64,
    },
    /// Content after the `end` trailer.
    TrailingData {
        /// 1-based line number in the file.
        line: usize,
    },
    /// A fault encoding in the header could not be parsed.
    BadFault(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a scenario trace (bad magic line)"),
            TraceError::BadHeader(why) => write!(f, "bad trace header: {why}"),
            TraceError::UnsupportedSchema(v) => {
                write!(f, "trace schema v{v} is newer than this build understands")
            }
            TraceError::BadRecord { line } => write!(f, "line {line}: malformed record"),
            TraceError::NodeOutOfRange { line, node } => {
                write!(f, "line {line}: node {node} out of range")
            }
            TraceError::NonMonotonic { line } => {
                write!(f, "line {line}: record cycle went backwards")
            }
            TraceError::TornTail => write!(f, "trace has no end trailer (torn tail)"),
            TraceError::ChecksumMismatch => write!(f, "trace body checksum mismatch"),
            TraceError::CountMismatch { expected, found } => {
                write!(f, "trailer claims {expected} records, found {found}")
            }
            TraceError::TrailingData { line } => write!(f, "line {line}: data after end trailer"),
            TraceError::BadFault(text) => write!(f, "unparsable fault {text:?}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Record lines hashed side by side. One SplitMix64 round is two
/// dependent multiplies (~14 cycles of latency) but only a handful of
/// issue slots, so a core can keep about this many independent chains
/// in flight.
const LANES: usize = 4;

/// [`hash_bytes`] of [`LANES`] lines at once, their per-byte chains
/// interleaved over the common prefix length.
fn line_hashes(lines: [&[u8]; LANES]) -> [u64; LANES] {
    let mut h = lines.map(|l| splitmix64(l.len() as u64));
    let common = lines.iter().map(|l| l.len()).min().unwrap_or(0);
    let heads = lines.map(|l| &l[..common]);
    for i in 0..common {
        for (h, head) in h.iter_mut().zip(&heads) {
            *h = splitmix64(*h ^ u64::from(head[i]));
        }
    }
    for (h, line) in h.iter_mut().zip(&lines) {
        for &b in &line[common..] {
            *h = splitmix64(*h ^ u64::from(b));
        }
    }
    h
}

/// The running checksum over a trace body. Only folding line hashes
/// into it is ordered, so lines are held back as byte ranges of the
/// caller's buffer until [`LANES`] of them can be hashed together.
struct BodyChecksum {
    sum: u64,
    held: [(usize, usize); LANES],
    holding: usize,
}

impl BodyChecksum {
    fn new(header_line: &str) -> Self {
        BodyChecksum {
            sum: hash_bytes(header_line.as_bytes()),
            held: [(0, 0); LANES],
            holding: 0,
        }
    }

    fn fold(&mut self, line_hash: u64) {
        self.sum = splitmix64(self.sum ^ line_hash);
    }

    /// Adds the line `buf[from..to]`. Every call up to and including
    /// [`BodyChecksum::finish`] must pass the same buffer with the
    /// bytes of earlier lines unchanged.
    fn line(&mut self, buf: &[u8], from: usize, to: usize) {
        self.held[self.holding] = (from, to);
        self.holding += 1;
        if self.holding == LANES {
            self.holding = 0;
            for hash in line_hashes(self.held.map(|(from, to)| &buf[from..to])) {
                self.fold(hash);
            }
        }
    }

    /// The checksum over every line added.
    fn finish(mut self, buf: &[u8]) -> u64 {
        for (from, to) in self.held.into_iter().take(self.holding) {
            self.fold(hash_bytes(&buf[from..to]));
        }
        self.sum
    }
}

/// Decimal digits in `v`.
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Writes `v` in decimal at `buf[at..]`; returns the index after it.
fn write_decimal(buf: &mut [u8], at: usize, mut v: u64) -> usize {
    let end = at + decimal_len(v);
    for digit in buf[at..end].iter_mut().rev() {
        *digit = b'0' + (v % 10) as u8;
        v /= 10;
    }
    end
}

/// Writes `m <cycle> <src> <dst> <tag>\n` at `buf[at..]`; returns the
/// index after the newline.
fn write_record_line(buf: &mut [u8], mut at: usize, r: &ScenarioRecord) -> usize {
    buf[at] = b'm';
    at += 1;
    for v in [r.cycle, r.src as u64, r.dst as u64, r.tag] {
        buf[at] = b' ';
        at = write_decimal(buf, at + 1, v);
    }
    buf[at] = b'\n';
    at + 1
}

/// Parses the canonical record line at the head of `rest` — `m`, then
/// four single-space-separated runs of 1 to 19 ASCII digits (so the
/// value cannot overflow), then `\n` — into its four values and the
/// index of that `\n`. `None` for any other spelling, which the
/// caller hands to [`loose_record`].
fn canonical_record(rest: &[u8]) -> Option<([u64; 4], usize)> {
    let mut bytes = rest.iter();
    if bytes.next() != Some(&b'm') || bytes.next() != Some(&b' ') {
        return None;
    }
    let mut fields = [0u64; 4];
    for (i, field) in fields.iter_mut().enumerate() {
        let mut digits = 0;
        let after = loop {
            let &b = bytes.next()?;
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break b;
            }
            *field = field.wrapping_mul(10).wrapping_add(u64::from(d));
            digits += 1;
        };
        if digits == 0 || digits > 19 || after != if i < 3 { b' ' } else { b'\n' } {
            return None;
        }
    }
    Some((fields, rest.len() - bytes.as_slice().len() - 1))
}

/// Parses a record line the way the format always has: any Unicode
/// whitespace separates the five tokens and the numbers follow
/// `str::parse::<u64>` (a leading `+`, all twenty digits).
fn loose_record(line: &str) -> Option<[u64; 4]> {
    let mut tokens = line.split_whitespace();
    if tokens.next() != Some("m") {
        return None;
    }
    let mut fields = [0u64; 4];
    for field in &mut fields {
        *field = tokens.next()?.parse().ok()?;
    }
    tokens.next().is_none().then_some(fields)
}

/// Walks a trace's lines exactly as `str::lines` splits them, keeping
/// the byte offset so the record loop can parse in place.
struct LineCursor<'a> {
    text: &'a str,
    /// Byte offset of the next unread line.
    pos: usize,
    /// 1-based number of the line last returned.
    lineno: usize,
}

impl<'a> LineCursor<'a> {
    fn next_line(&mut self) -> Option<&'a str> {
        let rest = &self.text[self.pos..];
        if rest.is_empty() {
            return None;
        }
        let len = rest.find('\n').map_or(rest.len(), |i| i + 1);
        self.pos += len;
        self.lineno += 1;
        rest[..len].lines().next()
    }
}

/// Canonical token for an [`OutPort`] in the fault codec.
fn port_token(out: OutPort) -> &'static str {
    match out {
        OutPort::EastEx => "east-ex",
        OutPort::EastSh => "east-sh",
        OutPort::SouthEx => "south-ex",
        OutPort::SouthSh => "south-sh",
        OutPort::Exit => "exit",
    }
}

fn parse_port(token: &str) -> Option<OutPort> {
    Some(match token {
        "east-ex" => OutPort::EastEx,
        "east-sh" => OutPort::EastSh,
        "south-ex" => OutPort::SouthEx,
        "south-sh" => OutPort::SouthSh,
        "exit" => OutPort::Exit,
        _ => return None,
    })
}

/// Encodes one fault as a compact space-separated token string.
pub(crate) fn encode_fault(fault: &Fault) -> String {
    match *fault {
        Fault::DeadLink { node, out } => format!("dead {node} {}", port_token(out)),
        Fault::TransientLink {
            node,
            out,
            from,
            until,
            corrupt,
        } => {
            let mode = if corrupt { "corrupt" } else { "drop" };
            format!("transient {node} {} {from} {until} {mode}", port_token(out))
        }
        Fault::FailStopRouter { node, at } => format!("failstop {node} {at}"),
        Fault::StalledInjector { node, from, until } => format!("stall {node} {from} {until}"),
        Fault::DownLink {
            node,
            out,
            from,
            until,
        } => format!("down {node} {} {from} {until}", port_token(out)),
    }
}

/// Decodes a fault written by [`encode_fault`].
///
/// # Errors
///
/// Returns [`TraceError::BadFault`] on any malformed encoding.
pub(crate) fn decode_fault(text: &str) -> Result<Fault, TraceError> {
    let bad = || TraceError::BadFault(text.to_string());
    let fields: Vec<&str> = text.split_whitespace().collect();
    let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
    match fields.as_slice() {
        ["dead", node, out] => Ok(Fault::DeadLink {
            node: num(node)? as usize,
            out: parse_port(out).ok_or_else(bad)?,
        }),
        ["transient", node, out, from, until, mode] => Ok(Fault::TransientLink {
            node: num(node)? as usize,
            out: parse_port(out).ok_or_else(bad)?,
            from: num(from)?,
            until: num(until)?,
            corrupt: match *mode {
                "corrupt" => true,
                "drop" => false,
                _ => return Err(bad()),
            },
        }),
        ["failstop", node, at] => Ok(Fault::FailStopRouter {
            node: num(node)? as usize,
            at: num(at)?,
        }),
        ["stall", node, from, until] => Ok(Fault::StalledInjector {
            node: num(node)? as usize,
            from: num(from)?,
            until: num(until)?,
        }),
        ["down", node, out, from, until] => Ok(Fault::DownLink {
            node: num(node)? as usize,
            out: parse_port(out).ok_or_else(bad)?,
            from: num(from)?,
            until: num(until)?,
        }),
        _ => Err(bad()),
    }
}

/// One value of the flat hand-rolled JSON header.
enum JsonValue {
    Str(String),
    Int(u64),
    Bool(bool),
}

/// Parses a flat JSON object with string / unsigned-integer / boolean
/// values and no escapes — exactly the subset [`ScenarioTrace::encode`]
/// emits. Anything else is a [`TraceError::BadHeader`].
fn parse_flat_json(text: &str) -> Result<Vec<(String, JsonValue)>, TraceError> {
    let err = |why: &str| TraceError::BadHeader(why.to_string());
    let mut chars = text.trim().char_indices().peekable();
    let bytes = text.trim();
    let mut pairs = Vec::new();
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err(err("expected '{'")),
    }
    // Empty object.
    if let Some(&(_, '}')) = chars.peek() {
        chars.next();
        return match chars.next() {
            None => Ok(pairs),
            Some(_) => Err(err("data after '}'")),
        };
    }
    loop {
        // "key"
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err(err("expected '\"' starting a key")),
        }
        let key_start = chars
            .peek()
            .map(|&(i, _)| i)
            .ok_or_else(|| err("eof in key"))?;
        let key_end;
        loop {
            match chars.next() {
                Some((i, '"')) => {
                    key_end = i;
                    break;
                }
                Some((_, '\\')) => return Err(err("escapes unsupported")),
                Some(_) => {}
                None => return Err(err("eof in key")),
            }
        }
        let key = bytes[key_start..key_end].to_string();
        match chars.next() {
            Some((_, ':')) => {}
            _ => return Err(err("expected ':'")),
        }
        // value
        let value = match chars.peek() {
            Some(&(_, '"')) => {
                chars.next();
                let vstart = chars
                    .peek()
                    .map(|&(i, _)| i)
                    .ok_or_else(|| err("eof in value"))?;
                let vend;
                loop {
                    match chars.next() {
                        Some((i, '"')) => {
                            vend = i;
                            break;
                        }
                        Some((_, '\\')) => return Err(err("escapes unsupported")),
                        Some(_) => {}
                        None => return Err(err("eof in value")),
                    }
                }
                JsonValue::Str(bytes[vstart..vend].to_string())
            }
            Some(&(_, 't')) | Some(&(_, 'f')) => {
                let start = chars.peek().map(|&(i, _)| i).unwrap();
                let mut end = bytes.len();
                while let Some(&(i, c)) = chars.peek() {
                    if c == ',' || c == '}' {
                        end = i;
                        break;
                    }
                    chars.next();
                }
                match &bytes[start..end] {
                    "true" => JsonValue::Bool(true),
                    "false" => JsonValue::Bool(false),
                    other => return Err(err(&format!("bad literal {other:?}"))),
                }
            }
            Some(&(_, c)) if c.is_ascii_digit() => {
                let start = chars.peek().map(|&(i, _)| i).unwrap();
                let mut end = bytes.len();
                while let Some(&(i, c)) = chars.peek() {
                    if c == ',' || c == '}' {
                        end = i;
                        break;
                    }
                    if !c.is_ascii_digit() {
                        return Err(err("non-integer number"));
                    }
                    chars.next();
                }
                let digits = &bytes[start..end];
                JsonValue::Int(
                    digits
                        .parse::<u64>()
                        .map_err(|_| err(&format!("integer {digits:?} out of range")))?,
                )
            }
            _ => return Err(err("unsupported value")),
        };
        pairs.push((key, value));
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            _ => return Err(err("expected ',' or '}'")),
        }
    }
    match chars.next() {
        None => Ok(pairs),
        Some(_) => Err(err("data after '}'")),
    }
}

impl ScenarioTrace {
    /// Creates a trace from a header and records.
    pub fn new(header: ScenarioHeader, records: Vec<ScenarioRecord>) -> Self {
        ScenarioTrace { header, records }
    }

    /// Serializes the trace to its v1 text form.
    pub fn encode(&self) -> String {
        let h = &self.header;
        let faults: Vec<String> = h.faults.iter().map(encode_fault).collect();
        let mut header = format!(
            "{{\"schema\":{},\"noc\":\"{}\",\"channels\":{},\"max_cycles\":{},\"warmup\":{},\"generator\":\"{}\",\"faults\":\"{}\"",
            h.schema,
            h.noc,
            h.channels,
            h.max_cycles,
            h.warmup,
            h.generator,
            faults.join(";"),
        );
        if let Some(d) = h.drained_at {
            header.push_str(&format!(",\"drained_at\":{d}"));
        }
        if h.fallback {
            header.push_str(",\"fallback\":true");
        }
        if let Some(e) = h.expect {
            header.push_str(&format!(
                ",\"expect_delivered\":{},\"expect_cycles\":{},\"expect_dropped\":{},\"expect_truncated\":{}",
                e.delivered, e.cycles, e.dropped, e.truncated
            ));
        }
        header.push('}');

        // One line is at most `m`, four separators-plus-number and the
        // newline; sizing each number by its column's maximum reserves
        // within a few percent of the bytes written.
        let widest = self.records.iter().fold([0u64; 4], |w, r| {
            [
                w[0].max(r.cycle),
                w[1].max(r.src as u64),
                w[2].max(r.dst as u64),
                w[3].max(r.tag),
            ]
        });
        let line_len = 2 + widest.iter().map(|&v| 1 + decimal_len(v)).sum::<usize>();
        let trailer_len = "end  \n".len() + 20 + 16;
        let body_at = SCENARIO_MAGIC.len() + header.len() + 2;
        let mut out = vec![0; body_at + self.records.len() * line_len + trailer_len];
        out[..body_at].copy_from_slice(format!("{SCENARIO_MAGIC}\n{header}\n").as_bytes());
        let mut at = body_at;
        let mut checksum = BodyChecksum::new(&header);
        for r in &self.records {
            let from = at;
            at = write_record_line(&mut out, at, r);
            checksum.line(&out, from, at - 1);
        }
        let checksum = checksum.finish(&out);
        out.truncate(at);
        out.extend_from_slice(format!("end {} {:016x}\n", self.records.len(), checksum).as_bytes());
        String::from_utf8(out).expect("the header is a `String` and everything else is ASCII")
    }

    /// Parses a v1 trace, verifying the magic, header, record
    /// well-formedness (in-range nodes, nondecreasing cycles), and the
    /// checksummed trailer.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] naming the first defect; a file cut off
    /// mid-write decodes to [`TraceError::TornTail`] rather than a
    /// silently shortened scenario.
    pub fn decode(text: &str) -> Result<ScenarioTrace, TraceError> {
        let mut lines = LineCursor {
            text,
            pos: 0,
            lineno: 0,
        };
        let magic = lines.next_line().ok_or(TraceError::BadMagic)?;
        if magic.trim_end() != SCENARIO_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let header_line = lines
            .next_line()
            .ok_or_else(|| TraceError::BadHeader("missing header line".into()))?;
        let header = Self::decode_header(header_line)?;
        let side = u64::from(header.topology()?.side());
        let nodes = side * side;

        // The trailer's count, read ahead only to size `records`: the
        // shortest record line is ten bytes, which bounds what a lying
        // trailer can make this reserve.
        let claimed = text
            .rfind("\nend ")
            .and_then(|at| {
                text[at + 5..]
                    .split_whitespace()
                    .next()?
                    .parse::<usize>()
                    .ok()
            })
            .unwrap_or(0);
        let mut records = Vec::with_capacity(claimed.min(text.len() / 10));

        let bytes = text.as_bytes();
        let mut checksum = BodyChecksum::new(header_line);
        let mut last_cycle = 0u64;
        let (count, sum) = loop {
            let from = lines.pos;
            let ([cycle, src, dst, tag], to) = match canonical_record(&bytes[from..]) {
                Some((fields, len)) => {
                    lines.pos = from + len + 1;
                    lines.lineno += 1;
                    (fields, from + len)
                }
                // Once per file, or per line nobody's encoder wrote.
                None => {
                    let line = lines.next_line().ok_or(TraceError::TornTail)?;
                    let bad = TraceError::BadRecord { line: lines.lineno };
                    if let Some(rest) = line.strip_prefix("end ") {
                        let mut f = rest.split_whitespace();
                        let count = f.next().and_then(|s| s.parse::<u64>().ok());
                        let sum = f.next().and_then(|s| u64::from_str_radix(s, 16).ok());
                        match (count, sum, f.next()) {
                            (Some(count), Some(sum), None) => break (count, sum),
                            _ => return Err(bad),
                        }
                    }
                    let fields = loose_record(line).ok_or(bad)?;
                    (fields, from + line.trim_end().len())
                }
            };
            let line = lines.lineno;
            // Range-check in u64 BEFORE any narrowing cast, so a huge
            // node id reports as out-of-range instead of wrapping.
            for node in [src, dst] {
                if node >= nodes {
                    return Err(TraceError::NodeOutOfRange { line, node });
                }
            }
            if cycle < last_cycle {
                return Err(TraceError::NonMonotonic { line });
            }
            last_cycle = cycle;
            checksum.line(bytes, from, to);
            records.push(ScenarioRecord {
                cycle,
                src: src as usize,
                dst: dst as usize,
                tag,
            });
        };
        while let Some(line) = lines.next_line() {
            if !line.trim().is_empty() {
                return Err(TraceError::TrailingData { line: lines.lineno });
            }
        }
        if count != records.len() as u64 {
            return Err(TraceError::CountMismatch {
                expected: count,
                found: records.len() as u64,
            });
        }
        if sum != checksum.finish(bytes) {
            return Err(TraceError::ChecksumMismatch);
        }
        Ok(ScenarioTrace { header, records })
    }

    fn decode_header(line: &str) -> Result<ScenarioHeader, TraceError> {
        let pairs = parse_flat_json(line)?;
        let mut header = ScenarioHeader::new("", "");
        let mut expect = Expectation::default();
        let mut has_expect = false;
        let mut saw_schema = false;
        for (key, value) in pairs {
            let want_int = |v: &JsonValue, key: &str| match v {
                JsonValue::Int(i) => Ok(*i),
                _ => Err(TraceError::BadHeader(format!("{key} must be an integer"))),
            };
            match key.as_str() {
                "schema" => {
                    let v = want_int(&value, "schema")?;
                    if v > u64::from(SCENARIO_SCHEMA) {
                        return Err(TraceError::UnsupportedSchema(
                            u32::try_from(v).unwrap_or(u32::MAX),
                        ));
                    }
                    header.schema = v as u32;
                    saw_schema = true;
                }
                "noc" => match value {
                    JsonValue::Str(s) => header.noc = s,
                    _ => return Err(TraceError::BadHeader("noc must be a string".into())),
                },
                "channels" => {
                    let v = want_int(&value, "channels")?;
                    if v > MAX_CHANNELS as u64 {
                        return Err(TraceError::BadHeader(format!(
                            "channels {v} is above the {MAX_CHANNELS}-channel cap"
                        )));
                    }
                    header.channels = v.max(1) as usize;
                }
                "max_cycles" => header.max_cycles = want_int(&value, "max_cycles")?,
                "warmup" => header.warmup = want_int(&value, "warmup")?,
                "generator" => match value {
                    JsonValue::Str(s) => header.generator = s,
                    _ => return Err(TraceError::BadHeader("generator must be a string".into())),
                },
                "drained_at" => header.drained_at = Some(want_int(&value, "drained_at")?),
                "fallback" => {
                    header.fallback = match value {
                        JsonValue::Bool(b) => b,
                        _ => {
                            return Err(TraceError::BadHeader("fallback must be a boolean".into()))
                        }
                    };
                }
                "faults" => match value {
                    JsonValue::Str(s) => {
                        for part in s.split(';').filter(|p| !p.trim().is_empty()) {
                            header.faults.push(decode_fault(part)?);
                        }
                    }
                    _ => return Err(TraceError::BadHeader("faults must be a string".into())),
                },
                "expect_delivered" => {
                    expect.delivered = want_int(&value, "expect_delivered")?;
                    has_expect = true;
                }
                "expect_cycles" => {
                    expect.cycles = want_int(&value, "expect_cycles")?;
                    has_expect = true;
                }
                "expect_dropped" => {
                    expect.dropped = want_int(&value, "expect_dropped")?;
                    has_expect = true;
                }
                "expect_truncated" => {
                    expect.truncated = match value {
                        JsonValue::Bool(b) => b,
                        _ => {
                            return Err(TraceError::BadHeader(
                                "expect_truncated must be a boolean".into(),
                            ))
                        }
                    };
                    has_expect = true;
                }
                // Forward compatibility: unknown keys within schema v1
                // are ignored so older builds read newer minor traces.
                _ => {}
            }
        }
        if !saw_schema {
            return Err(TraceError::BadHeader("missing schema".into()));
        }
        if header.noc.is_empty() {
            return Err(TraceError::BadHeader("missing noc spec".into()));
        }
        if has_expect {
            header.expect = Some(expect);
        }
        Ok(header)
    }

    /// A [`ReplaySource`] feeding a copy of this trace's schedule back
    /// into a session.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadHeader`] when the noc spec does not
    /// parse.
    pub fn replay_source(&self) -> Result<ReplaySource, TraceError> {
        Ok(
            ReplaySource::new(self.header.topology()?.side(), self.records.clone())
                .hold_until(self.header.drained_at),
        )
    }
}

/// Wraps any [`TrafficSource`] and records the realized push schedule.
///
/// Deliveries are forwarded to the inner source, so closed-loop
/// generators (dataflow, serialized transfers) behave exactly as if
/// unwrapped — the recording observes what they *actually* pushed.
#[derive(Debug, Clone)]
pub struct RecordingSource<S> {
    n: u16,
    inner: S,
    records: Vec<ScenarioRecord>,
    drained_at: Option<u64>,
}

impl<S: TrafficSource> RecordingSource<S> {
    /// Wraps `inner` for an `n × n` system.
    pub fn new(n: u16, inner: S) -> Self {
        RecordingSource {
            n,
            inner,
            records: Vec::new(),
            drained_at: None,
        }
    }

    /// The cycle of the first pump after which the inner source
    /// reported itself exhausted, if one has run yet (assumes
    /// exhaustion is monotone, as every generator in this crate
    /// guarantees).
    pub fn drained_at(&self) -> Option<u64> {
        self.drained_at
    }

    /// Consumes the wrapper, returning the captured schedule.
    pub fn into_records(self) -> Vec<ScenarioRecord> {
        self.records
    }

    /// Consumes the wrapper into a full trace under `header` (the
    /// header's message-bearing fields are taken as given, except
    /// `drained_at`, which only the recording knows).
    pub fn into_trace(self, mut header: ScenarioHeader) -> ScenarioTrace {
        header.drained_at = self.drained_at;
        ScenarioTrace::new(header, self.records)
    }

    fn note_drain(&mut self, cycle: u64) {
        if self.drained_at.is_none() && self.inner.exhausted() {
            self.drained_at = Some(cycle);
        }
    }
}

impl<S: TrafficSource> TrafficSource for RecordingSource<S> {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        let first = queues.total_enqueued();
        self.inner.pump(cycle, queues);
        let pushed = (queues.total_enqueued() - first) as usize;
        if pushed > 0 {
            // This cycle's pushes carry the ids `first .. first +
            // pushed` and sit at the tails of their FIFOs (module doc):
            // slot `id - first` is the packet's place in global push
            // order, which replay must repeat to assign identical
            // PacketIds.
            let base = self.records.len();
            let blank = ScenarioRecord {
                cycle,
                src: 0,
                dst: 0,
                tag: 0,
            };
            self.records.resize(base + pushed, blank);
            let mut missing = pushed;
            for src in 0..queues.nodes() {
                for p in queues.iter(src).rev().take_while(|p| p.id.0 >= first) {
                    self.records[base + (p.id.0 - first) as usize] = ScenarioRecord {
                        cycle,
                        src,
                        dst: p.dst.to_node_id(self.n),
                        tag: p.tag,
                    };
                    missing -= 1;
                }
                if missing == 0 {
                    break;
                }
            }
            assert_eq!(missing, 0, "the inner source removed packets during pump");
        }
        self.note_drain(cycle);
    }

    fn on_delivery(&mut self, delivery: &Delivery) {
        self.inner.on_delivery(delivery);
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }
}

/// Open-loop source replaying a push schedule at the exact recorded
/// cycles: a scenario trace, a text trace, a PARSEC trace, or a
/// case-study batch (every record at cycle 0).
#[derive(Debug, Clone)]
pub struct ReplaySource {
    n: u16,
    records: Vec<ScenarioRecord>,
    next: usize,
    hold_until: Option<u64>,
    cycle: u64,
}

impl ReplaySource {
    /// Creates a replay source for an `n × n` system. Records play in
    /// the order given (nondecreasing cycles), each at its cycle.
    ///
    /// # Panics
    ///
    /// Panics if any record endpoint is out of range.
    pub fn new(n: u16, records: Vec<ScenarioRecord>) -> Self {
        let nodes = n as usize * n as usize;
        assert!(
            records.iter().all(|r| r.src < nodes && r.dst < nodes),
            "record endpoint out of range"
        );
        ReplaySource {
            n,
            records,
            next: 0,
            hold_until: None,
            cycle: 0,
        }
    }

    /// Delays the source's exhaustion until the given cycle, matching
    /// a recorded generator that outlived its last push (see
    /// [`ScenarioHeader::drained_at`]).
    pub fn hold_until(mut self, cycle: Option<u64>) -> Self {
        self.hold_until = cycle;
        self
    }
}

impl TrafficSource for ReplaySource {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        self.cycle = cycle;
        while let Some(r) = self.records.get(self.next) {
            if r.cycle > cycle {
                break;
            }
            queues.push(r.src, Coord::from_node_id(r.dst, self.n), cycle, r.tag);
            self.next += 1;
        }
    }

    fn exhausted(&self) -> bool {
        self.next >= self.records.len() && self.hold_until.is_none_or(|c| self.cycle >= c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ScenarioTrace {
        let mut header = ScenarioHeader::new("ft:4:2:1", "unit");
        header.max_cycles = 10_000;
        header.faults = vec![
            Fault::DeadLink {
                node: 5,
                out: OutPort::EastEx,
            },
            Fault::TransientLink {
                node: 3,
                out: OutPort::SouthSh,
                from: 10,
                until: 20,
                corrupt: true,
            },
            Fault::FailStopRouter { node: 7, at: 100 },
            Fault::StalledInjector {
                node: 1,
                from: 0,
                until: 50,
            },
        ];
        header.drained_at = Some(17);
        header.expect = Some(Expectation {
            delivered: 2,
            cycles: 40,
            dropped: 0,
            truncated: false,
        });
        let records = vec![
            ScenarioRecord {
                cycle: 0,
                src: 0,
                dst: 5,
                tag: 1,
            },
            ScenarioRecord {
                cycle: 3,
                src: 2,
                dst: 9,
                tag: 2,
            },
        ];
        ScenarioTrace::new(header, records)
    }

    #[test]
    fn encode_decode_round_trip() {
        let trace = sample_trace();
        let text = trace.encode();
        let back = ScenarioTrace::decode(&text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn fault_codec_round_trips() {
        for fault in sample_trace().header.faults {
            let text = encode_fault(&fault);
            assert_eq!(decode_fault(&text).unwrap(), fault);
        }
        assert!(matches!(
            decode_fault("dead x east-ex"),
            Err(TraceError::BadFault(_))
        ));
        assert!(matches!(
            decode_fault("dead 3 north"),
            Err(TraceError::BadFault(_))
        ));
        assert!(matches!(
            decode_fault("bogus 1 2"),
            Err(TraceError::BadFault(_))
        ));
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(ScenarioTrace::decode(""), Err(TraceError::BadMagic));
        assert_eq!(
            ScenarioTrace::decode("some other file\n"),
            Err(TraceError::BadMagic)
        );
    }

    #[test]
    fn rejects_malformed_header() {
        let cases = [
            format!("{SCENARIO_MAGIC}\n"),
            format!("{SCENARIO_MAGIC}\nnot json\nend 0 0\n"),
            format!("{SCENARIO_MAGIC}\n{{\"schema\":1}}\nend 0 0\n"), // missing noc
            format!("{SCENARIO_MAGIC}\n{{\"noc\":\"ft:4:2:1\"}}\nend 0 0\n"), // missing schema
            format!("{SCENARIO_MAGIC}\n{{\"schema\":1,\"noc\":\"ft:4:2:1\",\"faults\":\"junk\"}}\nend 0 0\n"),
        ];
        for text in &cases {
            let err = ScenarioTrace::decode(text).unwrap_err();
            assert!(
                matches!(err, TraceError::BadHeader(_) | TraceError::BadFault(_)),
                "{text:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn rejects_newer_schema() {
        // A version past `u32` saturates: truncating 2^32 + 2 would name
        // v2, the version this build writes.
        for (written, reported) in [(9, 9), (u64::from(u32::MAX) + 3, u32::MAX)] {
            let text = format!(
                "{SCENARIO_MAGIC}\n{{\"schema\":{written},\"noc\":\"ft:4:2:1\"}}\nend 0 0\n"
            );
            assert_eq!(
                ScenarioTrace::decode(&text),
                Err(TraceError::UnsupportedSchema(reported))
            );
        }
    }

    #[test]
    fn rejects_a_channel_count_above_the_cap() {
        let decode = |channels: u64| {
            let header = format!("{{\"schema\":2,\"noc\":\"hoplite:4\",\"channels\":{channels}}}");
            let sum = hash_bytes(header.as_bytes());
            ScenarioTrace::decode(&format!("{SCENARIO_MAGIC}\n{header}\nend 0 {sum:016x}\n"))
        };
        assert_eq!(decode(0).unwrap().header.channels, 1);
        assert_eq!(decode(16).unwrap().header.channels, MAX_CHANNELS);
        for channels in [17, 1_000_000_000_000, u64::MAX] {
            let err = decode(channels).unwrap_err();
            assert!(
                matches!(&err, TraceError::BadHeader(why) if why.contains("16-channel cap")),
                "{channels}: {err:?}"
            );
        }
    }

    /// The header's `noc` goes through the CLI's grammar, side cap
    /// included: a checksum-valid trace cannot name a fabric that the
    /// replaying engine would abort allocating.
    #[test]
    fn rejects_a_side_above_the_cap() {
        let encoded = |noc: &str| {
            ScenarioTrace {
                header: ScenarioHeader::new(noc, "test"),
                records: Vec::new(),
            }
            .encode()
        };
        assert!(ScenarioTrace::decode(&encoded("hoplite:1024")).is_ok());
        let err = ScenarioTrace::decode(&encoded("hoplite:65535")).unwrap_err();
        assert!(
            matches!(&err, TraceError::BadHeader(why) if why.contains("1024-per-side cap")),
            "{err:?}"
        );
    }

    #[test]
    fn corpus_traces_re_encode_to_their_own_bytes() {
        for text in [
            include_str!("../../../tests/corpus/inject_livelock.trace"),
            include_str!("../../../tests/corpus/monitor_livelock.trace"),
            include_str!("../../../tests/corpus/reroute_loop.trace"),
        ] {
            assert_eq!(ScenarioTrace::decode(text).unwrap().encode(), text);
        }
    }

    #[test]
    fn lockstep_hashes_equal_the_serial_hash() {
        let lines: [&[u8]; LANES] = [b"m 0 0 5 1", b"", b"m 18446744073709551615 15 0 7", b"m 3"];
        assert_eq!(line_hashes(lines), lines.map(hash_bytes));
    }

    #[test]
    fn v2_round_trips_non_torus_topologies() {
        use fasttrack_core::topology::TopologySpec;
        for spec in ["shg:8:2", "mesh:4:4"] {
            let header = ScenarioHeader::new(spec, "unit");
            assert_eq!(header.schema, SCENARIO_SCHEMA);
            let trace = ScenarioTrace::new(
                header,
                vec![ScenarioRecord {
                    cycle: 0,
                    src: 0,
                    dst: 5,
                    tag: 1,
                }],
            );
            let decoded = ScenarioTrace::decode(&trace.encode()).unwrap();
            assert_eq!(decoded, trace, "{spec}: round trip");
            let topo = decoded.header.topology().unwrap();
            match spec {
                "shg:8:2" => assert!(matches!(topo, TopologySpec::Shg(_))),
                _ => assert!(matches!(topo, TopologySpec::Mesh { n: 4, depth: 4 })),
            }
            // The torus-only accessor refuses the non-torus spec.
            assert!(decoded.header.noc_config().is_err());
        }
    }

    #[test]
    fn v2_ignores_unknown_header_keys() {
        // A hypothetical v2.x writer added keys this build predates.
        let header = "{\"schema\":2,\"noc\":\"shg:8:2\",\"wire_budget\":9000,\"flavor\":\"zesty\"}";
        let text = format!(
            "{SCENARIO_MAGIC}\n{header}\nend 0 {:016x}\n",
            hash_bytes(header.as_bytes())
        );
        let trace = ScenarioTrace::decode(&text).unwrap();
        assert_eq!(trace.header.noc, "shg:8:2");
        assert_eq!(trace.header.schema, 2);
        assert!(trace.records.is_empty());
    }

    #[test]
    fn v1_header_reads_as_v2_topology() {
        use fasttrack_core::config::FtPolicy;
        use fasttrack_core::topology::TopologySpec;
        // A v1 file: torus spec, schema 1.
        let header = "{\"schema\":1,\"noc\":\"ftlite:8:4:1\"}";
        let text = format!(
            "{SCENARIO_MAGIC}\n{header}\nend 0 {:016x}\n",
            hash_bytes(header.as_bytes())
        );
        let trace = ScenarioTrace::decode(&text).unwrap();
        // The recorded schema number is preserved...
        assert_eq!(trace.header.schema, 1);
        // ...the v2 accessor derives the TopologySpec from the v1 `noc`
        // key...
        let topo = trace.header.topology().unwrap();
        let TopologySpec::Torus(cfg) = &topo else {
            panic!("v1 specs are tori, got {topo:?}");
        };
        assert_eq!(cfg.ft_policy(), Some(FtPolicy::Inject));
        assert_eq!(cfg.n(), 8);
        // ...and both views agree.
        assert_eq!(*cfg, trace.header.noc_config().unwrap());
    }

    #[test]
    fn torn_tail_is_detected() {
        let text = sample_trace().encode();
        // Cut the trailer off entirely.
        let torn: String = text
            .lines()
            .filter(|l| !l.starts_with("end "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(ScenarioTrace::decode(&torn), Err(TraceError::TornTail));
        // Cut mid-record: last body line truncated AND no trailer.
        let cut = &text[..text.find("m 3").unwrap() + 4];
        assert!(matches!(
            ScenarioTrace::decode(cut),
            Err(TraceError::BadRecord { .. }) | Err(TraceError::TornTail)
        ));
    }

    #[test]
    fn interior_corruption_fails_checksum() {
        let text = sample_trace().encode();
        let corrupted = text.replace("m 0 0 5 1", "m 0 0 6 1");
        assert_eq!(
            ScenarioTrace::decode(&corrupted),
            Err(TraceError::ChecksumMismatch)
        );
    }

    #[test]
    fn count_mismatch_is_detected() {
        let text = sample_trace().encode();
        // Drop one record but keep the trailer.
        let shortened: String = text
            .lines()
            .filter(|l| !l.starts_with("m 3"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            ScenarioTrace::decode(&shortened),
            Err(TraceError::CountMismatch {
                expected: 2,
                found: 1
            }) | Err(TraceError::ChecksumMismatch)
        ));
    }

    #[test]
    fn out_of_range_node_reports_untruncated_value() {
        let huge = u64::from(u32::MAX) + 7;
        let body = format!("m 0 0 {huge} 0");
        let header = "{\"schema\":1,\"noc\":\"ft:4:2:1\"}";
        let mut checksum = hash_bytes(header.as_bytes());
        checksum = splitmix64(checksum ^ hash_bytes(body.as_bytes()));
        let text = format!("{SCENARIO_MAGIC}\n{header}\n{body}\nend 1 {checksum:016x}\n");
        assert_eq!(
            ScenarioTrace::decode(&text),
            Err(TraceError::NodeOutOfRange {
                line: 3,
                node: huge
            })
        );
    }

    #[test]
    fn nonmonotonic_cycles_rejected() {
        let header = "{\"schema\":1,\"noc\":\"ft:4:2:1\"}";
        let b1 = "m 5 0 1 0";
        let b2 = "m 4 0 1 0";
        let mut checksum = hash_bytes(header.as_bytes());
        checksum = splitmix64(checksum ^ hash_bytes(b1.as_bytes()));
        checksum = splitmix64(checksum ^ hash_bytes(b2.as_bytes()));
        let text = format!("{SCENARIO_MAGIC}\n{header}\n{b1}\n{b2}\nend 2 {checksum:016x}\n");
        assert_eq!(
            ScenarioTrace::decode(&text),
            Err(TraceError::NonMonotonic { line: 4 })
        );
    }

    #[test]
    fn trailing_data_rejected() {
        let mut text = sample_trace().encode();
        text.push_str("m 9 0 0 0\n");
        assert!(matches!(
            ScenarioTrace::decode(&text),
            Err(TraceError::TrailingData { line: 6 })
        ));
    }

    #[test]
    fn replay_releases_each_record_at_its_cycle() {
        let records = vec![
            ScenarioRecord {
                cycle: 0,
                src: 0,
                dst: 3,
                tag: 1,
            },
            ScenarioRecord {
                cycle: 5,
                src: 1,
                dst: 2,
                tag: 0,
            },
        ];
        let mut src = ReplaySource::new(2, records);
        let mut q = InjectQueues::new(4);
        src.pump(0, &mut q);
        assert_eq!(q.total_enqueued(), 1); // only the cycle-0 record
        assert!(!src.exhausted());
        src.pump(4, &mut q);
        assert_eq!(q.total_enqueued(), 1);
        src.pump(5, &mut q);
        assert_eq!(q.total_enqueued(), 2);
        assert!(src.exhausted());
    }

    #[test]
    fn replay_holds_exhaustion_until_the_drain_cycle() {
        let records = vec![ScenarioRecord {
            cycle: 2,
            src: 0,
            dst: 1,
            tag: 0,
        }];
        let mut held = ReplaySource::new(4, records.clone()).hold_until(Some(9));
        let mut plain = ReplaySource::new(4, records);
        let mut q = InjectQueues::new(16);
        for cycle in 0..=9 {
            held.pump(cycle, &mut q);
            plain.pump(cycle, &mut q);
            assert_eq!(plain.exhausted(), cycle >= 2, "plain at {cycle}");
            assert_eq!(held.exhausted(), cycle >= 9, "held at {cycle}");
        }
    }

    #[test]
    fn noc_config_rebuilds_every_topology() {
        use fasttrack_core::config::FtPolicy;
        let cfg = ScenarioHeader::new("hoplite:4", "t").noc_config().unwrap();
        assert_eq!(cfg.n(), 4);
        let cfg = ScenarioHeader::new("ft:8:2:1", "t").noc_config().unwrap();
        assert_eq!((cfg.d(), cfg.r()), (2, 1));
        assert_eq!(cfg.ft_policy(), Some(FtPolicy::Full));
        let cfg = ScenarioHeader::new("ftlite:8:4:2", "t")
            .noc_config()
            .unwrap();
        assert_eq!(cfg.ft_policy(), Some(FtPolicy::Inject));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(TraceError::TornTail.to_string().contains("torn"));
        assert!(TraceError::NodeOutOfRange { line: 3, node: 99 }
            .to_string()
            .contains("99"));
        assert!(TraceError::UnsupportedSchema(2).to_string().contains("v2"));
    }

    /// A closed-loop source that sends one packet per delivery it
    /// receives, `left` in all, and is exhausted on its final delivery.
    struct PingPong {
        left: u32,
        due: bool,
    }

    impl TrafficSource for PingPong {
        fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
            if self.due && self.left > 0 {
                queues.push(0, Coord::new(3, 3), cycle, 0);
                self.due = false;
            }
        }
        fn on_delivery(&mut self, _: &Delivery) {
            self.left -= 1;
            self.due = true;
        }
        fn exhausted(&self) -> bool {
            self.left == 0
        }
    }

    /// The delivery that exhausts the source ends the run on the cycle
    /// it lands; no pump follows, so no drain cycle is noted, and the
    /// replay, exhausted at its last push, stops on the same cycle. (A
    /// drain noted from `Delivery::cycle`, one past the pump's cycle,
    /// would hold the replay a cycle longer: 19 cycles against 18.)
    #[test]
    fn exhaustion_on_the_final_delivery_replays_to_the_same_cycle() {
        let header = ScenarioHeader::new("ft:4:2:1", "pingpong");
        let mut rec = RecordingSource::new(4, PingPong { left: 3, due: true });
        let session = || header.session().unwrap();
        let report = session().run(&mut rec).unwrap().report;
        assert_eq!(report.stats.delivered, 3);
        assert_eq!(rec.drained_at(), None);
        let mut trace = rec.into_trace(header.clone());
        trace.header.expect = Some(Expectation::from(&report));
        let replayed = session()
            .run(&mut trace.replay_source().unwrap())
            .unwrap()
            .report;
        assert_eq!(replayed.cycles, trace.header.expect.unwrap().cycles);
        assert_eq!(replayed, report);
    }

    #[test]
    fn header_session_runs_like_a_session_built_by_hand() {
        let mut trace = sample_trace();
        trace.header.warmup = 5;
        let header = &trace.header;
        let cfg = header.noc_config().unwrap();
        let plan = header
            .faults
            .iter()
            .fold(FaultPlan::new(), |p, &f| p.with(f));
        let by_hand = SimSession::new(&cfg)
            .max_cycles(header.max_cycles)
            .warmup_cycles(header.warmup)
            .with_faults(&plan)
            .run(&mut trace.replay_source().unwrap())
            .unwrap()
            .report;
        let from_header = header
            .session()
            .expect("valid header")
            .run(&mut trace.replay_source().unwrap())
            .unwrap()
            .report;
        assert_eq!(from_header, by_hand);

        // Chains are armed when the header says the recording ran them.
        let mut armed = header.clone();
        armed.fallback = true;
        let by_hand = SimSession::new(&cfg)
            .max_cycles(header.max_cycles)
            .warmup_cycles(header.warmup)
            .with_faults(&plan)
            .with_fallback(&FallbackConfig::standard())
            .unwrap()
            .run(&mut trace.replay_source().unwrap())
            .unwrap()
            .report;
        let from_header = armed
            .session()
            .unwrap()
            .run(&mut trace.replay_source().unwrap())
            .unwrap()
            .report;
        assert_eq!(from_header, by_hand);

        // Only a torus replicates, and chains need an express fabric.
        let mut wide = ScenarioHeader::new("shg:4:2", "unit");
        wide.channels = 2;
        assert!(
            matches!(wide.session(), Err(TraceError::BadHeader(why)) if why.contains("only a torus replicates"))
        );
        let mut chained = ScenarioHeader::new("mesh:4:2", "unit");
        chained.fallback = true;
        assert!(matches!(chained.session(), Err(TraceError::BadHeader(_))));
    }
}
