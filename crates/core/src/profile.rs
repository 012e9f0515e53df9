//! Self-profiling: a dependency-free scoped span profiler plus hot-path
//! perf counters for the [`crate::sim::SimSession`] lifecycle.
//!
//! The profiler is a thread-local stack of named spans over a monotonic
//! clock ([`std::time::Instant`]). Instrumentation sites call
//! `scoped`, which is inert (one TLS read, no clock access, no
//! allocation) unless the current thread has an active recorder — so a
//! session that never calls [`SimSession::with_profile`] runs the exact
//! pre-profiling code path, and cold-path spans sprinkled through
//! builders (route-LUT construction, fault-plan validation) cost nothing
//! in unprofiled runs. Per-cycle work is *never* spanned; the drive loop
//! is accounted as one `session.drive` span and its throughput derived
//! from engine counters ([`crate::stats::SimStats::route_decisions`],
//! `pool_reuse`, deflections) that the kernel maintains unconditionally.
//!
//! A finished profile ([`SessionProfile`]) exposes the span tree (Chrome
//! `chrome://tracing` JSON, same document shape as
//! [`crate::export::ChromeTraceSink`]), a per-phase summary with
//! self-time, and derived rates (cycles/sec, packets/sec) reported as
//! [`crate::monitor::MetricsRegistry`] rows so they ride the Prometheus
//! exposition for free.
//!
//! [`SimSession::with_profile`]: crate::sim::SimSession::with_profile

use std::cell::RefCell;
use std::time::Instant;

use crate::monitor::MetricsRegistry;
use crate::sim::SimReport;
use crate::trace::{EventSink, SimEvent};

/// One closed (or still-open, `dur_ns == 0`) span on a thread's stack.
///
/// Times are nanosecond offsets from the recorder's epoch. A child span
/// is entered after and exited before its parent on the same thread, so
/// sibling intervals are disjoint and the sum of child durations never
/// exceeds the parent's duration (exactly, in integer nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Phase name (dotted path by convention, e.g. `session.build`).
    pub name: &'static str,
    /// Index of the enclosing span in the recorder's span list.
    pub parent: Option<u32>,
    /// Nesting depth (root spans are depth 0).
    pub depth: u16,
    /// Start offset from the recorder epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 while the span is still open).
    pub dur_ns: u64,
}

/// Proof-of-entry handle returned by [`SpanRecorder::enter`]; spending it
/// in [`SpanRecorder::exit`] enforces strictly LIFO closing.
#[derive(Debug)]
pub struct SpanToken(u32);

/// Records a tree of spans against one monotonic epoch.
///
/// The recorder itself is plain data (usable directly in tests); the
/// thread-local plumbing (`ThreadProfile`, `scoped`) wraps one per
/// profiled thread.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// A fresh recorder; its epoch is the moment of creation.
    pub fn new() -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanToken {
        SpanToken(self.enter_raw(name))
    }

    fn enter_raw(&mut self, name: &'static str) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            depth: self.stack.len() as u16,
            start_ns: self.elapsed_ns(),
            dur_ns: 0,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the span `token` was issued for.
    ///
    /// # Panics
    ///
    /// Panics if `token` is not the innermost open span — spans close
    /// strictly LIFO.
    pub fn exit(&mut self, token: SpanToken) {
        let top = self.stack.pop().expect("exit with no open span");
        assert_eq!(top, token.0, "spans must close LIFO");
        self.close_at(top);
    }

    fn close_at(&mut self, idx: u32) {
        let end = self.elapsed_ns();
        let span = &mut self.spans[idx as usize];
        span.dur_ns = end.saturating_sub(span.start_ns);
    }

    /// Lenient close used by [`ScopedSpan::drop`]: pops (closing) open
    /// spans until `idx` itself is closed. A guard dropped out of order
    /// closes its abandoned children rather than panicking in `Drop`.
    fn close_through(&mut self, idx: u32) {
        while let Some(top) = self.stack.pop() {
            self.close_at(top);
            if top == idx {
                return;
            }
        }
    }

    /// Closes any still-open spans and returns the recorded span list in
    /// entry order.
    pub fn finish(mut self) -> Vec<Span> {
        while let Some(top) = self.stack.pop() {
            self.close_at(top);
        }
        self.spans
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<SpanRecorder>> = const { RefCell::new(None) };
}

/// RAII activation of span recording on the current thread.
///
/// Between [`ThreadProfile::begin`] and [`ThreadProfile::finish`], every
/// [`scoped`] call on this thread records into one [`SpanRecorder`].
/// Dropping the guard without calling `finish` (e.g. on an early error
/// return) discards the recording and restores the previous state, so
/// activation nests safely.
#[derive(Debug)]
pub(crate) struct ThreadProfile {
    prev: Option<SpanRecorder>,
    done: bool,
}

impl ThreadProfile {
    /// Installs a fresh recorder on the current thread.
    pub(crate) fn begin() -> ThreadProfile {
        let prev = ACTIVE.with(|a| a.borrow_mut().replace(SpanRecorder::new()));
        ThreadProfile { prev, done: false }
    }

    /// Deactivates recording and returns the captured spans.
    pub(crate) fn finish(mut self) -> Vec<Span> {
        self.done = true;
        let rec = ACTIVE.with(|a| std::mem::replace(&mut *a.borrow_mut(), self.prev.take()));
        rec.map(SpanRecorder::finish).unwrap_or_default()
    }
}

impl Drop for ThreadProfile {
    fn drop(&mut self) {
        if !self.done {
            ACTIVE.with(|a| *a.borrow_mut() = self.prev.take());
        }
    }
}

/// Guard for one scoped span; closes it (leniently) on drop.
#[derive(Debug)]
#[must_use = "a scoped span closes when this guard drops"]
pub(crate) struct ScopedSpan {
    idx: Option<u32>,
}

impl Drop for ScopedSpan {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            ACTIVE.with(|a| {
                if let Some(rec) = a.borrow_mut().as_mut() {
                    rec.close_through(idx);
                }
            });
        }
    }
}

/// Opens a named span if the current thread is profiling; otherwise
/// returns an inert guard (one TLS borrow, no clock read, no allocation).
pub(crate) fn scoped(name: &'static str) -> ScopedSpan {
    let idx = ACTIVE.with(|a| a.borrow_mut().as_mut().map(|rec| rec.enter_raw(name)));
    ScopedSpan { idx }
}

/// Renders spans as a Chrome trace-event document — complete `ph:"X"`
/// events with microsecond timestamps, the same shape
/// [`crate::export::ChromeTraceSink`] emits, loadable in
/// `chrome://tracing` or Perfetto.
pub(crate) fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = s.start_ns as f64 / 1000.0;
        // Sub-microsecond spans still get a visible sliver.
        let dur = (s.dur_ns as f64 / 1000.0).max(0.001);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"depth\":{}}}}}",
            s.name, s.depth
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Span name.
    pub name: &'static str,
    /// Times a span with this name was entered.
    pub count: u64,
    /// Total inclusive duration, nanoseconds.
    pub total_ns: u64,
    /// Duration not attributed to child spans, nanoseconds.
    pub self_ns: u64,
}

/// Folds a span list into per-name phase statistics, first-seen order.
pub fn summarize(spans: &[Span]) -> Vec<PhaseStat> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns;
        }
    }
    let mut phases: Vec<PhaseStat> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let self_ns = s.dur_ns.saturating_sub(child_ns[i]);
        match phases.iter_mut().find(|p| p.name == s.name) {
            Some(p) => {
                p.count += 1;
                p.total_ns += s.dur_ns;
                p.self_ns += self_ns;
            }
            None => phases.push(PhaseStat {
                name: s.name,
                count: 1,
                total_ns: s.dur_ns,
                self_ns,
            }),
        }
    }
    phases
}

/// An [`EventSink`] that counts dispatched events without storing them.
/// The profiled drive loop fans out to `(sink, monitor, counter)`
/// tuples, so event-dispatch volume is accounted by count — never by
/// per-event timing, which would perturb the hot loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventCounter {
    /// Events emitted by the engine.
    pub events: u64,
}

impl EventSink for EventCounter {
    fn emit(&mut self, _event: &SimEvent) {
        self.events += 1;
    }
}

/// Derived throughput and counter snapshot for one profiled run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileSummary {
    /// Wall-clock seconds of the `session.drive` span(s).
    pub drive_seconds: f64,
    /// Cycles simulated after warmup.
    pub cycles: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Simulated cycles per wall-clock second of drive time.
    pub cycles_per_sec: f64,
    /// Delivered packets per wall-clock second of drive time.
    pub packets_per_sec: f64,
    /// `SimEvent`s fanned out to sinks.
    pub events_dispatched: u64,
    /// Route decisions made by the engine (LUT or direct).
    pub route_decisions: u64,
    /// Packet-pool insertions that recycled a freed slot.
    pub pool_reuse: u64,
    /// Non-productive output assignments.
    pub deflections: u64,
    /// Routers whose step body ran, summed over cycles (the torus step
    /// skips idle routers, so compare against `cycles x nodes`).
    pub router_visits: u64,
}

/// The complete profiling artifact of one [`crate::sim::SimSession`]
/// run: span tree, per-phase summary and derived rates.
#[derive(Debug, Clone)]
pub struct SessionProfile {
    spans: Vec<Span>,
    summary: ProfileSummary,
}

impl SessionProfile {
    /// Builds the profile from captured spans and the run's report.
    pub(crate) fn assemble(
        spans: Vec<Span>,
        report: &SimReport,
        events_dispatched: u64,
    ) -> SessionProfile {
        let drive_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "session.drive")
            .map(|s| s.dur_ns)
            .sum();
        let drive_seconds = drive_ns as f64 / 1e9;
        let rate = |n: u64| {
            if drive_seconds > 0.0 {
                n as f64 / drive_seconds
            } else {
                0.0
            }
        };
        let summary = ProfileSummary {
            drive_seconds,
            cycles: report.cycles,
            delivered: report.stats.delivered,
            cycles_per_sec: rate(report.cycles),
            packets_per_sec: rate(report.stats.delivered),
            events_dispatched,
            route_decisions: report.stats.route_decisions,
            pool_reuse: report.stats.pool_reuse,
            deflections: report.stats.ports.total_deflections(),
            router_visits: report.stats.router_visits,
        };
        SessionProfile { spans, summary }
    }

    /// Appends the `fasttrack_profile_*` rows to `registry`.
    pub(crate) fn append_metrics(&self, registry: &mut MetricsRegistry) {
        let s = &self.summary;
        for (name, help, value) in [
            (
                "fasttrack_profile_drive_seconds",
                "Wall-clock seconds spent in the cycle drive loop",
                s.drive_seconds,
            ),
            (
                "fasttrack_profile_cycles_per_sec",
                "Simulated cycles per wall-clock second of drive time",
                s.cycles_per_sec,
            ),
            (
                "fasttrack_profile_packets_per_sec",
                "Delivered packets per wall-clock second of drive time",
                s.packets_per_sec,
            ),
        ] {
            registry.gauge(name, help, value);
        }
        for (name, help, count) in [
            (
                "fasttrack_profile_events_dispatched_total",
                "SimEvents fanned out to event sinks during the profiled run",
                s.events_dispatched,
            ),
            (
                "fasttrack_profile_route_decisions_total",
                "Output-port route decisions made by the engine",
                s.route_decisions,
            ),
            (
                "fasttrack_profile_pool_reuse_total",
                "Packet-pool insertions that recycled a freed slot",
                s.pool_reuse,
            ),
            (
                "fasttrack_profile_deflections_total",
                "Non-productive output assignments (deflections)",
                s.deflections,
            ),
            (
                "fasttrack_profile_router_visits_total",
                "Routers whose step body ran, summed over cycles (idle routers are skipped)",
                s.router_visits,
            ),
        ] {
            registry.counter(name, help, count);
        }
    }

    /// The recorded spans, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Derived throughput and counter snapshot.
    pub fn summary(&self) -> &ProfileSummary {
        &self.summary
    }

    /// Per-phase aggregates (first-seen order).
    pub(crate) fn phases(&self) -> Vec<PhaseStat> {
        summarize(&self.spans)
    }

    /// Chrome trace-event document for the span tree.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.spans)
    }

    /// Human-readable per-phase table plus the counter summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<40} {:>7} {:>14} {:>14}\n",
            "phase", "count", "total", "self"
        ));
        for p in self.phases() {
            let indent = p.name.matches('.').count();
            out.push_str(&format!(
                "{:<40} {:>7} {:>14} {:>14}\n",
                format!("{}{}", "  ".repeat(indent), p.name),
                p.count,
                fmt_ns(p.total_ns),
                fmt_ns(p.self_ns),
            ));
        }
        let s = &self.summary;
        out.push_str(&format!(
            "drive {:.6} s | {:.0} cycles/s | {:.0} packets/s\n",
            s.drive_seconds, s.cycles_per_sec, s.packets_per_sec
        ));
        out.push_str(&format!(
            "events dispatched {} | route decisions {} | pool reuse {} | deflections {} | router visits {}\n",
            s.events_dispatched, s.route_decisions, s.pool_reuse, s.deflections, s.router_visits
        ));
        out
    }

    /// Machine-readable summary (flat keys plus a `phases` array), for
    /// `fasttrack profile --json` and external tooling.
    pub fn to_json(&self) -> String {
        let s = &self.summary;
        let mut out = String::from("{");
        out.push_str("\"schema\":\"fasttrack-profile-v1\"");
        out.push_str(&format!(",\"drive_seconds\":{}", s.drive_seconds));
        out.push_str(&format!(",\"cycles\":{}", s.cycles));
        out.push_str(&format!(",\"delivered\":{}", s.delivered));
        out.push_str(&format!(",\"cycles_per_sec\":{}", s.cycles_per_sec));
        out.push_str(&format!(",\"packets_per_sec\":{}", s.packets_per_sec));
        out.push_str(&format!(",\"events_dispatched\":{}", s.events_dispatched));
        out.push_str(&format!(",\"route_decisions\":{}", s.route_decisions));
        out.push_str(&format!(",\"pool_reuse\":{}", s.pool_reuse));
        out.push_str(&format!(",\"deflections\":{}", s.deflections));
        out.push_str(&format!(",\"router_visits\":{}", s.router_visits));
        out.push_str(",\"phases\":[");
        for (i, p) in self.phases().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                p.name, p.count, p.total_ns, p.self_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} us", ns as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True while a session profile is collecting on this thread.
    fn thread_is_profiling() -> bool {
        ACTIVE.with(|a| a.borrow().is_some())
    }

    #[test]
    fn recorder_tracks_nesting_and_durations() {
        let mut rec = SpanRecorder::new();
        let a = rec.enter("a");
        let b = rec.enter("a.b");
        assert_eq!(rec.stack.len(), 2);
        rec.exit(b);
        let c = rec.enter("a.c");
        rec.exit(c);
        rec.exit(a);
        let spans = rec.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].parent, Some(0));
        // Disjoint children: sum of child durations fits in the parent.
        assert!(spans[1].dur_ns + spans[2].dur_ns <= spans[0].dur_ns);
        // Siblings do not overlap.
        assert!(spans[1].start_ns + spans[1].dur_ns <= spans[2].start_ns);
    }

    #[test]
    #[should_panic(expected = "spans must close LIFO")]
    fn out_of_order_exit_panics() {
        let mut rec = SpanRecorder::new();
        let a = rec.enter("a");
        let _b = rec.enter("b");
        rec.exit(a);
    }

    #[test]
    fn finish_closes_open_spans() {
        let mut rec = SpanRecorder::new();
        let _ = rec.enter("open");
        let spans = rec.finish();
        assert_eq!(spans.len(), 1);
        // Closed at finish: duration is set (possibly 0 ns, but the
        // stack is drained).
        assert_eq!(spans[0].name, "open");
    }

    #[test]
    fn scoped_is_inert_without_activation() {
        assert!(!thread_is_profiling());
        let guard = scoped("ignored");
        assert!(guard.idx.is_none());
        drop(guard);
    }

    #[test]
    fn thread_profile_captures_scoped_spans() {
        let tp = ThreadProfile::begin();
        assert!(thread_is_profiling());
        {
            let _outer = scoped("outer");
            let _inner = scoped("outer.inner");
        }
        let spans = tp.finish();
        assert!(!thread_is_profiling());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
    }

    #[test]
    fn dropped_guard_restores_previous_state() {
        {
            let _tp = ThreadProfile::begin();
            assert!(thread_is_profiling());
            // Dropped without finish(): recording discarded.
        }
        assert!(!thread_is_profiling());
    }

    #[test]
    fn chrome_trace_document_shape() {
        let mut rec = SpanRecorder::new();
        let a = rec.enter("session");
        let b = rec.enter("session.drive");
        rec.exit(b);
        rec.exit(a);
        let doc = chrome_trace(&rec.finish());
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
        assert!(doc.contains("\"name\":\"session.drive\""));
        assert!(doc.contains("\"ph\":\"X\""));
    }

    #[test]
    fn summarize_computes_self_time() {
        let spans = vec![
            Span {
                name: "root",
                parent: None,
                depth: 0,
                start_ns: 0,
                dur_ns: 100,
            },
            Span {
                name: "child",
                parent: Some(0),
                depth: 1,
                start_ns: 10,
                dur_ns: 30,
            },
            Span {
                name: "child",
                parent: Some(0),
                depth: 1,
                start_ns: 50,
                dur_ns: 20,
            },
        ];
        let phases = summarize(&spans);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "root");
        assert_eq!(phases[0].self_ns, 50);
        assert_eq!(phases[1].count, 2);
        assert_eq!(phases[1].total_ns, 50);
        assert_eq!(phases[1].self_ns, 50);
    }

    #[test]
    fn event_counter_counts() {
        let mut c = EventCounter::default();
        c.emit(&SimEvent::WarmupReset { cycle: 7 });
        c.emit(&SimEvent::Truncated { cycle: 9 });
        assert_eq!(c.events, 2);
    }
}
