//! Test-only oracles for the scenario codec: a `decode` that tokenizes
//! every line into a `Vec<&str>` and parses it with `str::parse`, and an
//! `encode_body` that formats a `String` per record line, both hashing
//! byte by byte with their own `line_hash`. The differential proptests
//! below compare [`ScenarioTrace::decode`] and [`ScenarioTrace::encode`]
//! against them. No other test fails when `decode` takes a
//! whitespace-only line after the trailer for data (`line.trim()`
//! dropped), lets its canonical fast path read 20-digit numbers
//! (wrapping), or hashes a loosely spelled line with its trailing
//! whitespace; or when `encode` stops zero-padding the trailer's
//! checksum to 16 hex digits.

use fasttrack_core::sweep::splitmix64;

use super::{ScenarioRecord, ScenarioTrace, TraceError, SCENARIO_MAGIC};

fn line_hash(line: &str) -> u64 {
    let mut h = splitmix64(line.len() as u64);
    for &b in line.as_bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    h
}

/// Everything `encode` writes after the header line.
fn encode_body(header_line: &str, records: &[ScenarioRecord]) -> String {
    let mut out = String::new();
    let mut checksum = line_hash(header_line);
    for r in records {
        let line = format!("m {} {} {} {}", r.cycle, r.src, r.dst, r.tag);
        checksum = splitmix64(checksum ^ line_hash(&line));
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!("end {} {:016x}\n", records.len(), checksum));
    out
}

fn decode(text: &str) -> Result<ScenarioTrace, TraceError> {
    let mut lines = text.lines().enumerate();
    let (_, magic) = lines.next().ok_or(TraceError::BadMagic)?;
    if magic.trim_end() != SCENARIO_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let (_, header_line) = lines
        .next()
        .ok_or_else(|| TraceError::BadHeader("missing header line".into()))?;
    let header = ScenarioTrace::decode_header(header_line)?;
    let side = u64::from(header.topology()?.side());
    let nodes = side * side;

    let mut checksum = line_hash(header_line);
    let mut records = Vec::new();
    let mut trailer: Option<(u64, u64)> = None;
    let mut last_cycle = 0u64;
    for (idx, line) in lines {
        let lineno = idx + 1;
        if trailer.is_some() {
            if line.trim().is_empty() {
                continue;
            }
            return Err(TraceError::TrailingData { line: lineno });
        }
        if let Some(rest) = line.strip_prefix("end ") {
            let mut f = rest.split_whitespace();
            let count = f
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or(TraceError::BadRecord { line: lineno })?;
            let sum = f
                .next()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or(TraceError::BadRecord { line: lineno })?;
            if f.next().is_some() {
                return Err(TraceError::BadRecord { line: lineno });
            }
            trailer = Some((count, sum));
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [m, cycle, src, dst, tag] = fields.as_slice() else {
            return Err(TraceError::BadRecord { line: lineno });
        };
        if *m != "m" {
            return Err(TraceError::BadRecord { line: lineno });
        }
        let num = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| TraceError::BadRecord { line: lineno })
        };
        let (cycle, src, dst, tag) = (num(cycle)?, num(src)?, num(dst)?, num(tag)?);
        // Range-check in u64 BEFORE any narrowing cast, so a huge
        // node id reports as out-of-range instead of wrapping.
        for &node in &[src, dst] {
            if node >= nodes {
                return Err(TraceError::NodeOutOfRange { line: lineno, node });
            }
        }
        if cycle < last_cycle {
            return Err(TraceError::NonMonotonic { line: lineno });
        }
        last_cycle = cycle;
        checksum = splitmix64(checksum ^ line_hash(line.trim_end()));
        records.push(ScenarioRecord {
            cycle,
            src: src as usize,
            dst: dst as usize,
            tag,
        });
    }
    let Some((count, sum)) = trailer else {
        return Err(TraceError::TornTail);
    };
    if count != records.len() as u64 {
        return Err(TraceError::CountMismatch {
            expected: count,
            found: records.len() as u64,
        });
    }
    if sum != checksum {
        return Err(TraceError::ChecksumMismatch);
    }
    Ok(ScenarioTrace { header, records })
}

mod tests {
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::super::ScenarioHeader;
    use super::*;

    /// A valid trace on `ft:4:2:1` (16 nodes): nondecreasing cycles,
    /// in-range nodes, numbers of every width up to all twenty digits.
    fn random_trace(rng: &mut SmallRng, len: usize) -> ScenarioTrace {
        let mut header = ScenarioHeader::new("ft:4:2:1", "differential");
        header.drained_at = rng.gen_bool(0.5).then(|| rng.gen_range(0..1000));
        let wide = |rng: &mut SmallRng| match rng.gen_range(0..4) {
            0 => u64::MAX - rng.gen_range(0..3),
            1 => {
                let digits = rng.gen_range(1..20);
                rng.gen_range(0..10u64.pow(digits))
            }
            _ => rng.gen_range(0..300),
        };
        let mut cycle = 0u64;
        let records = (0..len)
            .map(|_| {
                cycle = cycle.saturating_add(match rng.gen_range(0..8) {
                    0 => wide(rng) / 64,
                    1..=4 => 0,
                    _ => rng.gen_range(0..50),
                });
                ScenarioRecord {
                    cycle,
                    src: rng.gen_range(0..16),
                    dst: rng.gen_range(0..16),
                    tag: wide(rng),
                }
            })
            .collect();
        ScenarioTrace::new(header, records)
    }

    /// `text` with its trailer recomputed over whatever the body lines
    /// now spell, so a respelled line decodes instead of failing the
    /// checksum. Counts every line between the header and the trailer.
    fn resealed(text: &str) -> String {
        let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
        let Some(end) = lines.iter().rposition(|l| l.starts_with("end ")) else {
            return text.to_string();
        };
        let body = &lines[2..end];
        let sum = body.iter().fold(
            line_hash(lines[1].trim_end_matches(['\n', '\r'])),
            |h, l| splitmix64(h ^ line_hash(l.trim_end())),
        );
        let trailer = format!("end {} {sum:016x}\n", body.len());
        lines[end] = &trailer;
        lines.concat()
    }

    /// Rewrites body line `pick % body lines` of `text` through `f`.
    fn respell(text: &str, pick: usize, f: impl Fn(&str) -> String) -> String {
        let lines: Vec<&str> = text.lines().collect();
        let body = lines.len() - 3;
        if body == 0 {
            return text.to_string();
        }
        let target = 2 + pick % body;
        lines
            .iter()
            .enumerate()
            .map(|(i, l)| {
                if i == target {
                    f(l) + "\n"
                } else {
                    format!("{l}\n")
                }
            })
            .collect()
    }

    /// Replaces the `which`-th number of a record line.
    fn with_number(line: &str, which: usize, number: &str) -> String {
        let mut tokens: Vec<&str> = line.split(' ').collect();
        let at = 1 + which % 4;
        if at < tokens.len() {
            tokens[at] = number;
        }
        tokens.join(" ")
    }

    /// Every way the issue names of spelling or damaging a trace.
    fn mutated(text: &str, kind: u8, a: usize, b: usize) -> String {
        let nth_space = |line: &str, with: &str| {
            let spaces: Vec<usize> = line.match_indices(' ').map(|(i, _)| i).collect();
            let at = spaces[b % spaces.len()];
            format!("{}{with}{}", &line[..at], &line[at + 1..])
        };
        match kind {
            // As written.
            0 => text.to_string(),
            // One ASCII byte replaced (the text is ASCII throughout).
            1 => {
                let at = a % text.len();
                let with = [b' ', b'\n', b'0', b'9', b'm', b'e', b'+', b'-', b'\t', b'x'][b % 10];
                let mut bytes = text.as_bytes().to_vec();
                bytes[at] = with;
                String::from_utf8(bytes).unwrap()
            }
            // Truncated anywhere: mid-magic, mid-header, mid-record,
            // just before, inside and just after the trailer.
            2 => text[..a % (text.len() + 1)].to_string(),
            3 => {
                let trailer = text.rfind("end ").unwrap();
                let at = (trailer + b % 8).saturating_sub(4).min(text.len());
                text[..at].to_string()
            }
            // Respelled separators, resealed so the line must parse.
            4 => resealed(&respell(text, a, |l| nth_space(l, "  "))),
            5 => resealed(&respell(text, a, |l| nth_space(l, "\t"))),
            6 => resealed(&respell(text, a, |l| format!(" {l}"))),
            7 => resealed(&respell(text, a, |l| format!("{l} \t"))),
            // U+00A0 is not `char::is_whitespace`'s only non-ASCII
            // member, but U+2003 and U+0085 are the multi-byte ones
            // `split_whitespace` and `trim_end` both honour.
            8 => resealed(&respell(text, a, |l| nth_space(l, "\u{2003}"))),
            9 => resealed(&respell(text, a, |l| format!("{l}\u{85}"))),
            10 => resealed(&respell(text, a, |l| nth_space(l, "\u{a0}"))),
            // Numbers `str::parse::<u64>` takes or refuses.
            11 => resealed(&respell(text, a, |l| {
                let tokens: Vec<&str> = l.split(' ').collect();
                with_number(l, b, &format!("+{}", tokens[1 + b % 4]))
            })),
            12 => resealed(&respell(text, a, |l| {
                with_number(l, b, "100000000000000000000")
            })),
            13 => resealed(&respell(text, a, |l| {
                with_number(l, b, "18446744073709551616")
            })),
            14 => resealed(&respell(text, a, |l| {
                with_number(l, b, "0000000000000000000007")
            })),
            15 => resealed(&respell(text, a, |l| with_number(l, b, ""))),
            16 => resealed(&respell(text, a, |l| with_number(l, b, "-1"))),
            // A node outside the 16, a cycle that may run backwards.
            17 => resealed(&respell(text, a, |l| with_number(l, 1 + b % 2, "16"))),
            18 => resealed(&respell(text, a, |l| with_number(l, 0, "3"))),
            // Line endings.
            19 => text.replace('\n', "\r\n"),
            20 => resealed(&respell(text, a, |l| format!("{l}\r"))),
            // After the trailer.
            21 => format!("{text}\n  \n\t\n"),
            22 => format!(
                "{text}\n{}",
                ["m 0 0 0 0", "x", "end 0 0", "\u{2003}y"][b % 4]
            ),
            // A missing, doubled or short-counted record.
            23 => respell(text, a, |_| String::new()).replace("\n\n", "\n"),
            24 => respell(text, a, |l| format!("{l}\n{l}")),
            // Lines that are not records at all.
            25 => resealed(&respell(text, a, |_| String::new())),
            26 => resealed(&respell(text, a, |l| l.replacen('m', "n", 1))),
            27 => resealed(&respell(text, a, |l| format!("{l} 5"))),
            // A trailer with the wrong count, a short sum, extra words.
            28 => text.replace("end ", "end 1"),
            29 => format!("{} extra\n", text.trim_end()),
            _ => text.replace("end ", "end"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Same `Ok` value or same `TraceError` (variant, line number,
        /// message) as the tokenizing decoder, on valid traces and on
        /// every damage and respelling above; never a panic.
        #[test]
        fn decode_matches_tokenizing_reference(
            seed in any::<u64>(),
            len in 0usize..23,
            kind in 0u8..31,
            a in any::<usize>(),
            b in any::<usize>(),
        ) {
            let trace = random_trace(&mut SmallRng::seed_from_u64(seed), len);
            let text = mutated(&trace.encode(), kind, a, b);
            let new = ScenarioTrace::decode(&text);
            prop_assert_eq!(&new, &decode(&text), "kind {} on {:?}", kind, text);
            if kind == 0 {
                prop_assert_eq!(new, Ok(trace));
            }
        }

        #[test]
        fn encode_matches_formatting_reference(seed in any::<u64>(), len in 0usize..23) {
            let trace = random_trace(&mut SmallRng::seed_from_u64(seed), len);
            let text = trace.encode();
            let header_line = text.lines().nth(1).unwrap();
            let expected = format!(
                "{SCENARIO_MAGIC}\n{header_line}\n{}",
                encode_body(header_line, &trace.records)
            );
            prop_assert_eq!(text, expected);
        }
    }
}
