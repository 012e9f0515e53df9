//! Integration tests for the observability subsystem: deterministic
//! event logs, exporter round-trips, event/statistics agreement, and the
//! steady-state detector versus hand-picked warmup.

use fasttrack_core::config::{FtPolicy, NocConfig};
use fasttrack_core::export::{epochs_to_csv, ChromeTraceSink, NdjsonSink};
use fasttrack_core::metrics::WindowedMetrics;
use fasttrack_core::sim::{SimOptions, SimReport, SimSession};
use fasttrack_traffic::pattern::Pattern;
use fasttrack_traffic::source::BernoulliSource;

/// A minimal recursive-descent JSON parser — just enough to round-trip
/// the exporters' output without any external dependency.
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.b
                .get(self.i)
                .copied()
                .ok_or_else(|| "unexpected end".into())
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek()? == c {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.i))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Value::Str(self.string()?)),
                b't' => self.literal("true", Value::Bool(true)),
                b'f' => self.literal("false", Value::Bool(false)),
                b'n' => self.literal("null", Value::Null),
                _ => self.number(),
            }
        }

        fn literal(&mut self, text: &str, v: Value) -> Result<Value, String> {
            self.skip_ws();
            if self.b[self.i..].starts_with(text.as_bytes()) {
                self.i += text.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.eat(b'{')?;
            let mut fields = Vec::new();
            if self.peek()? == b'}' {
                self.i += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                let key = self.string()?;
                self.eat(b':')?;
                fields.push((key, self.value()?));
                match self.peek()? {
                    b',' => self.i += 1,
                    b'}' => {
                        self.i += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.i += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.i += 1,
                    b']' => {
                        self.i += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                let c = *self.b.get(self.i).ok_or("unterminated string")?;
                self.i += 1;
                match c {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let esc = *self.b.get(self.i).ok_or("bad escape")?;
                        self.i += 1;
                        out.push(match esc {
                            b'n' => '\n',
                            b't' => '\t',
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            other => return Err(format!("unsupported escape {:?}", other as char)),
                        });
                    }
                    other => out.push(other as char),
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            self.skip_ws();
            let start = self.i;
            while self.i < self.b.len()
                && matches!(
                    self.b[self.i],
                    b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                )
            {
                self.i += 1;
            }
            std::str::from_utf8(&self.b[start..self.i])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

fn acceptance_config() -> NocConfig {
    // The CLI acceptance configuration: `--noc ft:8:2:2`.
    NocConfig::fasttrack(8, 2, 2, FtPolicy::Full).unwrap()
}

fn ndjson_run(seed: u64) -> (String, SimReport) {
    let cfg = acceptance_config();
    let mut src = BernoulliSource::new(8, Pattern::Random, 0.2, 50, seed);
    let mut sink = NdjsonSink::new();
    let report = SimSession::new(&cfg)
        .with_sink(&mut sink)
        .run(&mut src)
        .unwrap()
        .report;
    (sink.as_str().to_owned(), report)
}

#[test]
fn ndjson_log_is_byte_identical_across_runs() {
    let (a, report_a) = ndjson_run(9);
    let (b, report_b) = ndjson_run(9);
    assert_eq!(report_a, report_b, "same seed must reproduce the run");
    assert_eq!(a, b, "same seed+config must serialize to identical bytes");
    assert!(!a.is_empty());
    // A different seed produces a different log (sanity check that the
    // equality above is not vacuous).
    let (c, _) = ndjson_run(10);
    assert_ne!(a, c);
}

#[test]
fn every_ndjson_line_parses_and_counts_match_stats() {
    let (log, report) = ndjson_run(3);
    let mut kinds = std::collections::HashMap::new();
    for line in log.lines() {
        let v = json::parse(line).expect("every NDJSON line is valid JSON");
        let kind = v
            .get("kind")
            .and_then(json::Value::as_str)
            .expect("kind field")
            .to_string();
        assert!(v.get("cycle").and_then(json::Value::as_num).is_some());
        *kinds.entry(kind).or_insert(0u64) += 1;
    }
    assert_eq!(
        kinds.get("inject").copied().unwrap_or(0),
        report.stats.injected
    );
    assert_eq!(
        kinds.get("eject").copied().unwrap_or(0),
        report.stats.delivered
    );
    assert_eq!(
        kinds.get("deflect").copied().unwrap_or(0),
        report.stats.ports.total_deflections()
    );
}

#[test]
fn multichannel_log_attributes_channels_deterministically() {
    let cfg = NocConfig::hoplite(4).unwrap();
    let run = || {
        let mut src = BernoulliSource::new(4, Pattern::Random, 0.5, 40, 5);
        let mut sink = NdjsonSink::new();
        SimSession::new(&cfg)
            .channels(2)
            .with_sink(&mut sink)
            .run(&mut src)
            .unwrap();
        sink.as_str().to_owned()
    };
    let a = run();
    assert_eq!(a, run(), "multichannel trace must be deterministic");
    assert!(a.contains("\"ch\":0"));
    assert!(a.contains("\"ch\":1"));
}

#[test]
fn chrome_trace_round_trips_a_json_parser() {
    let cfg = acceptance_config();
    let mut src = BernoulliSource::new(8, Pattern::Random, 0.2, 20, 1);
    let mut sink = ChromeTraceSink::new(8);
    let report = SimSession::new(&cfg)
        .with_sink(&mut sink)
        .run(&mut src)
        .unwrap()
        .report;
    let doc = sink.finish();
    let parsed = json::parse(&doc).expect("chrome trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .expect("traceEvents array");
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
        .collect();
    assert_eq!(complete.len() as u64, report.stats.delivered);
    for e in complete {
        assert!(e.get("name").and_then(json::Value::as_str).is_some());
        assert!(e.get("ts").and_then(json::Value::as_num).is_some());
        assert!(e.get("dur").and_then(json::Value::as_num).unwrap() >= 1.0);
        let tid = e.get("tid").and_then(json::Value::as_num).unwrap();
        assert!((0.0..64.0).contains(&tid), "tid is a source node id");
    }
}

#[test]
fn csv_series_parses_and_sums_to_the_report() {
    let cfg = acceptance_config();
    let mut src = BernoulliSource::new(8, Pattern::Random, 0.2, 30, 2);
    let mut metrics = WindowedMetrics::new(64, 64);
    let report = SimSession::new(&cfg)
        .with_sink(&mut metrics)
        .run(&mut src)
        .unwrap()
        .report;
    let epochs = metrics.finish();
    let delivered: u64 = epochs.iter().map(|e| e.delivered).sum();
    assert_eq!(delivered, report.stats.delivered);
    let csv = epochs_to_csv(&epochs, 64);
    assert_eq!(csv.lines().count(), epochs.len() + 1);
    let width = csv.lines().next().unwrap().split(',').count();
    for row in csv.lines().skip(1) {
        assert_eq!(row.split(',').count(), width);
    }
}

#[test]
fn steady_state_detector_agrees_with_handpicked_warmup() {
    // Open-loop RANDOM traffic, truncated while the source is still
    // active so every epoch sees sustained load.
    let cfg = acceptance_config();
    let cap = 6_000u64;
    let offered = 0.2;

    // Hand-picked warmup, the pre-existing measurement style.
    let mut src = BernoulliSource::new(8, Pattern::Random, offered, 5_000, 21);
    let manual = SimSession::new(&cfg)
        .options(SimOptions::with_max_cycles(cap).warmup_cycles(1_000))
        .run(&mut src)
        .unwrap()
        .report;
    assert!(manual.truncated, "source must outlive the cycle cap");
    let manual_rate = manual.sustained_rate_per_pe();
    assert!(manual_rate > 0.0);

    // Automatic steady-state detection over the same traffic.
    let mut src = BernoulliSource::new(8, Pattern::Random, offered, 5_000, 21);
    let mut metrics = WindowedMetrics::new(64, 64);
    SimSession::new(&cfg)
        .options(SimOptions::with_max_cycles(cap))
        .with_sink(&mut metrics)
        .run(&mut src)
        .unwrap();
    let steady = metrics
        .steady_state_epoch()
        .expect("sustained load must settle");
    let suggested = metrics.suggested_warmup().unwrap();
    assert!(suggested < cap);
    // Everything from the steady epoch on, the flushed tail included.
    let tail = &metrics.finish()[steady..];
    let cycles: u64 = tail.iter().map(|e| e.cycles).sum();
    let delivered: u64 = tail.iter().map(|e| e.delivered).sum();
    let auto_rate = delivered as f64 / cycles as f64 / 64.0;

    let rel = (auto_rate - manual_rate).abs() / manual_rate;
    assert!(
        rel <= 0.05,
        "steady-state rate {auto_rate:.4} vs warmup rate {manual_rate:.4} differ by {:.1}%",
        rel * 100.0
    );
}
