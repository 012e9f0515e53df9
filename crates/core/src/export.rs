//! Dependency-free trace exporters: NDJSON event logs, Chrome
//! trace-event JSON, and per-epoch CSV time series.
//!
//! All three formats are produced by hand-rolled formatting (no serde):
//! every emitted field is a number or a fixed tag, field order is
//! hard-coded, and floats go through one shared formatter — so the same
//! simulation (same seed, same config) produces byte-identical output,
//! which the regression tests rely on.

use crate::metrics::EpochStats;
use crate::trace::{EventSink, SimEvent};

/// Formats a float with a fixed six-decimal precision (deterministic
/// across runs and platforms for the magnitudes we emit).
fn fmt_f64(v: f64) -> String {
    format!("{v:.6}")
}

/// An [`EventSink`] that renders every event as one JSON object per line
/// (newline-delimited JSON).
///
/// Lines carry a fixed leading `cycle`/`kind`/`ch` triple followed by
/// kind-specific fields, so the log is both greppable and trivially
/// machine-parsed. The `ch` field is the channel most recently announced
/// via [`EventSink::set_channel`] (0 for single-channel runs).
#[derive(Debug, Clone, Default)]
pub struct NdjsonSink {
    buf: String,
    channel: usize,
    lines: u64,
}

impl NdjsonSink {
    /// An empty log.
    pub fn new() -> Self {
        NdjsonSink::default()
    }

    /// Number of lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The log so far, one JSON object per line.
    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

impl EventSink for NdjsonSink {
    fn emit(&mut self, event: &SimEvent) {
        use std::fmt::Write as _;
        let c = event.cycle();
        let k = event.kind();
        let ch = self.channel;
        let buf = &mut self.buf;
        let _ = write!(buf, "{{\"cycle\":{c},\"kind\":\"{k}\",\"ch\":{ch}");
        match *event {
            SimEvent::Inject {
                node,
                packet,
                dst,
                out,
                queue_wait,
                ..
            } => {
                let _ = write!(
                    buf,
                    ",\"node\":{},\"packet\":{},\"dst_x\":{},\"dst_y\":{},\"out\":\"{}\",\"queue_wait\":{}",
                    node, packet.0, dst.x, dst.y, out, queue_wait
                );
            }
            SimEvent::RouteDecision {
                node,
                packet,
                in_port,
                out,
                dst,
                hops,
                ..
            } => {
                let _ = write!(buf, ",\"node\":{},\"packet\":{}", node, packet.0);
                match in_port {
                    Some(p) => {
                        let _ = write!(buf, ",\"in\":\"{p}\"");
                    }
                    None => buf.push_str(",\"in\":null"),
                }
                let _ = write!(
                    buf,
                    ",\"out\":\"{}\",\"dst_x\":{},\"dst_y\":{},\"hops\":{}",
                    out, dst.x, dst.y, hops
                );
            }
            SimEvent::Deflect {
                node, packet, out, ..
            } => {
                let _ = write!(
                    buf,
                    ",\"node\":{},\"packet\":{},\"out\":\"{}\"",
                    node, packet.0, out
                );
            }
            SimEvent::ExpressHop {
                node, packet, span, ..
            } => {
                let _ = write!(
                    buf,
                    ",\"node\":{},\"packet\":{},\"span\":{}",
                    node, packet.0, span
                );
            }
            SimEvent::Eject { node, delivery, .. } => {
                let p = &delivery.packet;
                let _ = write!(
                    buf,
                    ",\"node\":{},\"packet\":{},\"delivered_at\":{},\"total_latency\":{},\"network_latency\":{},\"short_hops\":{},\"express_hops\":{},\"deflections\":{}",
                    node,
                    p.id.0,
                    delivery.cycle,
                    delivery.total_latency(),
                    delivery.network_latency(),
                    p.short_hops,
                    p.express_hops,
                    p.deflections
                );
            }
            SimEvent::QueueStall { node, depth, .. } => {
                let _ = write!(buf, ",\"node\":{node},\"depth\":{depth}");
            }
            SimEvent::FaultDrop {
                node,
                packet,
                link,
                corrupted,
                ..
            } => {
                let _ = write!(buf, ",\"node\":{},\"packet\":{}", node, packet.0);
                match link {
                    Some(l) => {
                        let _ = write!(buf, ",\"link\":\"{l}\"");
                    }
                    None => buf.push_str(",\"link\":null"),
                }
                let _ = write!(buf, ",\"corrupted\":{corrupted}");
            }
            SimEvent::FaultReroute {
                node,
                packet,
                avoided,
                ..
            } => {
                let _ = write!(
                    buf,
                    ",\"node\":{},\"packet\":{},\"avoided\":\"{}\"",
                    node, packet.0, avoided
                );
            }
            SimEvent::WarmupReset { .. } | SimEvent::Truncated { .. } => {}
        }
        buf.push_str("}\n");
        self.lines += 1;
    }

    fn set_channel(&mut self, channel: usize) {
        self.channel = channel;
    }
}

/// An [`EventSink`] that builds a Chrome trace-event (`about:tracing` /
/// Perfetto) JSON document.
///
/// Each delivered packet becomes one complete (`"ph":"X"`) event on the
/// track of its *source* PE: `ts` is the injection cycle, `dur` the
/// in-network latency, and `args` carry hop/deflection detail. Driver
/// markers ([`SimEvent::WarmupReset`], [`SimEvent::Truncated`]) become
/// global instant events. Cycles map 1:1 to microseconds in the viewer.
#[derive(Debug, Clone)]
pub struct ChromeTraceSink {
    /// Torus side length, for mapping coordinates onto thread ids.
    n: u16,
    channel: usize,
    events: Vec<String>,
}

impl ChromeTraceSink {
    /// A sink for an `n × n` torus.
    pub fn new(n: u16) -> Self {
        ChromeTraceSink {
            n,
            channel: 0,
            events: Vec::new(),
        }
    }

    /// Renders the complete `{"traceEvents":[...]}` document.
    pub fn finish(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

impl EventSink for ChromeTraceSink {
    fn emit(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::Eject { delivery, .. } => {
                let p = &delivery.packet;
                let src = p.src.to_node_id(self.n);
                let dst = p.dst.to_node_id(self.n);
                // Zero-duration spans render invisibly; clamp to 1 cycle.
                let dur = delivery.network_latency().max(1);
                self.events.push(format!(
                    "{{\"name\":\"pkt{}\",\"cat\":\"packet\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"dst\":{},\"queue_wait\":{},\"short_hops\":{},\"express_hops\":{},\"deflections\":{}}}}}",
                    p.id.0,
                    p.injected_at,
                    dur,
                    self.channel,
                    src,
                    dst,
                    p.injected_at.saturating_sub(p.enqueued_at),
                    p.short_hops,
                    p.express_hops,
                    p.deflections
                ));
            }
            SimEvent::WarmupReset { cycle } => {
                self.events.push(format!(
                    "{{\"name\":\"warmup_reset\",\"cat\":\"driver\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":0,\"s\":\"g\"}}",
                    cycle, self.channel
                ));
            }
            SimEvent::Truncated { cycle } => {
                self.events.push(format!(
                    "{{\"name\":\"truncated\",\"cat\":\"driver\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":0,\"s\":\"g\"}}",
                    cycle, self.channel
                ));
            }
            _ => {}
        }
    }

    fn set_channel(&mut self, channel: usize) {
        self.channel = channel;
    }
}

/// Renders completed epochs (see
/// [`crate::metrics::WindowedMetrics::finish`]) as a CSV time series,
/// one row per epoch, with a header row.
pub fn epochs_to_csv(epochs: &[EpochStats], nodes: usize) -> String {
    let mut out = String::from(
        "epoch,start_cycle,cycles,injected,delivered,throughput_per_pe,mean_latency,p50_latency,p99_latency,deflection_rate,express_hops,stalls\n",
    );
    for (i, e) in epochs.iter().enumerate() {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            i,
            e.start_cycle,
            e.cycles,
            e.injected,
            e.delivered,
            fmt_f64(e.throughput_per_pe(nodes)),
            fmt_f64(e.mean_latency()),
            e.p50_latency(),
            e.p99_latency(),
            fmt_f64(e.deflection_rate()),
            e.express_hops,
            e.stalls
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Coord;
    use crate::metrics::WindowedMetrics;
    use crate::packet::{Delivery, Packet, PacketId};
    use crate::port::{InPort, OutPort};

    fn sample_events() -> Vec<SimEvent> {
        let mut packet = Packet::new(PacketId(3), Coord::new(0, 0), Coord::new(2, 1), 5, 0);
        packet.injected_at = 7;
        packet.short_hops = 3;
        vec![
            SimEvent::Inject {
                cycle: 7,
                node: 0,
                packet: PacketId(3),
                dst: Coord::new(2, 1),
                out: OutPort::EastSh,
                queue_wait: 2,
            },
            SimEvent::RouteDecision {
                cycle: 8,
                node: 1,
                packet: PacketId(3),
                in_port: Some(InPort::WestSh),
                out: OutPort::EastSh,
                src: Coord::new(0, 0),
                dst: Coord::new(2, 1),
                hops: 1,
            },
            SimEvent::Deflect {
                cycle: 9,
                node: 2,
                packet: PacketId(3),
                out: OutPort::SouthSh,
            },
            SimEvent::ExpressHop {
                cycle: 10,
                node: 2,
                packet: PacketId(3),
                span: 2,
            },
            SimEvent::QueueStall {
                cycle: 10,
                node: 4,
                depth: 2,
            },
            SimEvent::WarmupReset { cycle: 11 },
            SimEvent::Eject {
                cycle: 12,
                node: 6,
                delivery: Delivery { packet, cycle: 13 },
            },
            SimEvent::Truncated { cycle: 14 },
        ]
    }

    #[test]
    fn ndjson_is_one_object_per_line_and_deterministic() {
        let render = || {
            let mut sink = NdjsonSink::new();
            for e in sample_events() {
                sink.emit(&e);
            }
            sink.buf
        };
        let a = render();
        let b = render();
        assert_eq!(a, b, "same events must serialize to identical bytes");
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for line in &lines {
            assert!(line.starts_with("{\"cycle\":"), "bad line: {line}");
            assert!(line.ends_with('}'), "bad line: {line}");
        }
        assert!(lines[0].contains("\"kind\":\"inject\""));
        assert!(lines[1].contains("\"in\":\"W_sh\""));
        assert!(lines[6].contains("\"total_latency\":8"));
    }

    #[test]
    fn ndjson_channel_attribution() {
        let mut sink = NdjsonSink::new();
        sink.set_channel(2);
        sink.emit(&SimEvent::QueueStall {
            cycle: 0,
            node: 0,
            depth: 1,
        });
        assert!(sink.as_str().contains("\"ch\":2"));
        assert_eq!(sink.lines(), 1);
    }

    #[test]
    fn chrome_trace_wraps_complete_events() {
        let mut sink = ChromeTraceSink::new(4);
        for e in sample_events() {
            sink.emit(&e);
        }
        // Only ejects + driver markers become trace events.
        assert_eq!(sink.events.len(), 3);
        let doc = sink.finish();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"ts\":7")); // injected_at
        assert!(doc.contains("\"dur\":6")); // 13 - 7
        assert!(doc.trim_end().ends_with('}'));
    }

    #[test]
    fn empty_chrome_trace_is_valid() {
        let sink = ChromeTraceSink::new(4);
        assert!(sink.events.is_empty());
        let doc = sink.finish();
        assert!(doc.contains("\"traceEvents\":["));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut m = WindowedMetrics::new(4, 10);
        for e in sample_events() {
            m.emit(&e);
        }
        let epochs = m.finish();
        let csv = epochs_to_csv(&epochs, 4);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("epoch,start_cycle,cycles,"));
        assert_eq!(lines.len(), epochs.len() + 1);
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
    }
}
