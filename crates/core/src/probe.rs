//! Instrumentation probes: per-link utilization heatmaps and per-packet
//! path traces.
//!
//! A [`Probe`] is an [`EventSink`]: attach it like any other sink
//! ([`crate::sim::SimSession::with_sink`], or directly to
//! [`crate::noc::Noc::step_with_sink`]) and it records every output-port
//! assignment the torus engines make. One probe on a multi-channel bank
//! sees every channel, so its heatmap is the aggregate link load across
//! the replicated wiring. Probes power the utilization-heatmap
//! diagnostics, path-visualization examples, and the white-box tests
//! that check packets only ever cross links that exist.

use std::collections::HashMap;

use crate::geom::Coord;
use crate::packet::PacketId;
use crate::port::OutPort;
use crate::trace::{EventSink, SimEvent};

/// One recorded step of a traced packet's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// Cycle at which the routing decision was made.
    pub cycle: u64,
    /// Router making the decision.
    pub at: Coord,
    /// Output assigned (including `Exit` on delivery).
    pub out: OutPort,
}

/// Which packets to path-trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceSelect {
    /// Trace nothing (heatmap only).
    #[default]
    None,
    /// Trace every packet (memory-heavy; small runs only).
    All,
    /// Trace packets whose id is divisible by the stride.
    Sampled(u64),
}

impl TraceSelect {
    fn matches(self, id: PacketId) -> bool {
        match self {
            TraceSelect::None => false,
            TraceSelect::All => true,
            TraceSelect::Sampled(k) => k != 0 && id.0.is_multiple_of(k),
        }
    }
}

/// Link-utilization counters and optional packet path traces.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// Torus side length (node ids map to coordinates through it).
    n: u16,
    /// `usage[node][port_index]`: assignments of each output port at
    /// each router (indices per [`OutPort::index`]).
    usage: Vec<[u64; 5]>,
    select: TraceSelect,
    traces: HashMap<PacketId, Vec<PathStep>>,
    cycles_observed: u64,
    /// The last cycle counted, so a bank's per-channel
    /// [`EventSink::end_cycle`] calls count each cycle once.
    last_cycle: Option<u64>,
}

impl Probe {
    /// Creates a heatmap-only probe for an `n × n` torus.
    pub fn new(n: u16) -> Self {
        Probe::with_tracing(n, TraceSelect::None)
    }

    /// Creates a probe that also traces packet paths.
    pub fn with_tracing(n: u16, select: TraceSelect) -> Self {
        Probe {
            n,
            usage: vec![[0; 5]; usize::from(n) * usize::from(n)],
            select,
            ..Default::default()
        }
    }

    /// Records one assignment.
    fn record(&mut self, cycle: u64, node: usize, id: PacketId, out: OutPort) {
        self.usage[node][out.index()] += 1;
        if self.select.matches(id) {
            let at = Coord::from_node_id(node, self.n);
            self.traces
                .entry(id)
                .or_default()
                .push(PathStep { cycle, at, out });
        }
    }

    /// Number of cycles observed.
    pub fn cycles(&self) -> u64 {
        self.cycles_observed
    }

    /// Raw assignment count for a port at a node.
    pub fn count(&self, node: usize, port: OutPort) -> u64 {
        self.usage[node][port.index()]
    }

    /// Utilization (0..=1) of a port at a node over the observed window.
    pub fn utilization(&self, node: usize, port: OutPort) -> f64 {
        if self.cycles_observed == 0 {
            0.0
        } else {
            self.count(node, port) as f64 / self.cycles_observed as f64
        }
    }

    /// The most-utilized link (node, port, utilization), ignoring exits.
    pub fn hottest_link(&self) -> Option<(usize, OutPort, f64)> {
        let mut best: Option<(usize, OutPort, f64)> = None;
        for (node, counts) in self.usage.iter().enumerate() {
            for port in OutPort::ALL {
                if port == OutPort::Exit {
                    continue;
                }
                let u = if self.cycles_observed == 0 {
                    0.0
                } else {
                    counts[port.index()] as f64 / self.cycles_observed as f64
                };
                if best.is_none_or(|(_, _, b)| u > b) {
                    best = Some((node, port, u));
                }
            }
        }
        best
    }

    /// The recorded path of a traced packet, if any.
    pub fn path(&self, id: PacketId) -> Option<&[PathStep]> {
        self.traces.get(&id).map(Vec::as_slice)
    }

    /// All traced packets.
    pub fn traced_ids(&self) -> impl Iterator<Item = PacketId> + '_ {
        self.traces.keys().copied()
    }

    /// Renders an ASCII heatmap of a port's utilization across the torus
    /// (one digit per router, 0–9 deciles).
    pub fn heatmap(&self, port: OutPort) -> String {
        let mut out = String::new();
        for y in 0..self.n {
            for x in 0..self.n {
                let node = Coord::new(x, y).to_node_id(self.n);
                let u = self.utilization(node, port);
                let digit = (u * 10.0).floor().min(9.0) as u8;
                out.push(char::from(b'0' + digit));
            }
            out.push('\n');
        }
        out
    }
}

/// Every output-port assignment reaches the sink as exactly one
/// [`SimEvent::RouteDecision`] (in-flight packet) or [`SimEvent::Inject`]
/// (PE injection); the rest of the stream annotates those two.
impl EventSink for Probe {
    fn emit(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::RouteDecision {
                cycle,
                node,
                packet,
                out,
                ..
            }
            | SimEvent::Inject {
                cycle,
                node,
                packet,
                out,
                ..
            } => self.record(cycle, node, packet, out),
            _ => {}
        }
    }

    fn end_cycle(&mut self, cycle: u64) {
        if self.last_cycle != Some(cycle) {
            self.last_cycle = Some(cycle);
            self.cycles_observed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::multichannel::MultiNoc;
    use crate::noc::Noc;
    use crate::queue::InjectQueues;

    #[test]
    fn trace_select_matching() {
        assert!(!TraceSelect::None.matches(PacketId(0)));
        assert!(TraceSelect::All.matches(PacketId(7)));
        assert!(TraceSelect::Sampled(4).matches(PacketId(8)));
        assert!(!TraceSelect::Sampled(4).matches(PacketId(9)));
        assert!(!TraceSelect::Sampled(0).matches(PacketId(0)));
    }

    #[test]
    fn records_usage_and_paths_through_engine() {
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut noc = Noc::new(cfg);
        let mut probe = Probe::with_tracing(4, TraceSelect::All);
        let mut q = InjectQueues::new(16);
        let id = q.push(0, Coord::new(2, 1), 0, 0);
        let mut dels = Vec::new();
        let mut steps = 0;
        for _ in 0..20 {
            noc.step_with_sink(&mut q, &mut dels, None, &mut probe);
            steps += 1;
            if q.is_empty() && noc.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(probe.cycles(), steps);
        // Path: inject east at (0,0), east at (1,0), south at (2,0),
        // exit at (2,1).
        let path = probe.path(id).unwrap();
        let outs: Vec<OutPort> = path.iter().map(|s| s.out).collect();
        assert_eq!(
            outs,
            vec![
                OutPort::EastSh,
                OutPort::EastSh,
                OutPort::SouthSh,
                OutPort::Exit
            ]
        );
        assert_eq!(path[0].at, Coord::new(0, 0));
        assert_eq!(path.last().unwrap().at, Coord::new(2, 1));
        // Cycles strictly increase along the path.
        for w in path.windows(2) {
            assert!(w[1].cycle > w[0].cycle);
        }
        // Usage heatmap saw the east hops.
        assert_eq!(
            probe.count(Coord::new(0, 0).to_node_id(4), OutPort::EastSh),
            1
        );
        assert_eq!(
            probe.count(Coord::new(2, 1).to_node_id(4), OutPort::Exit),
            1
        );
    }

    #[test]
    fn one_probe_aggregates_a_bank_and_counts_each_cycle_once() {
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut bank = MultiNoc::new(cfg, 3);
        let mut probe = Probe::new(4);
        let mut q = InjectQueues::new(16);
        for node in 0..16 {
            q.push(node, Coord::new(3, (node % 4) as u16), 0, 0);
        }
        let mut dels = Vec::new();
        let mut steps = 0;
        while !(q.is_empty() && bank.in_flight() == 0) {
            bank.step_with_sink(&mut q, &mut dels, &mut probe);
            steps += 1;
        }
        // Three channels end every cycle; the window still counts it once.
        assert_eq!(probe.cycles(), steps);
        let exits: u64 = (0..16).map(|n| probe.count(n, OutPort::Exit)).sum();
        assert_eq!(exits, 16, "every channel's deliveries land in one heatmap");
    }

    #[test]
    fn utilization_and_hottest_link() {
        let mut p = Probe::new(2);
        for c in 0..10 {
            p.end_cycle(c);
        }
        p.usage[2][OutPort::EastSh.index()] = 5;
        p.usage[1][OutPort::SouthSh.index()] = 3;
        p.usage[0][OutPort::Exit.index()] = 9; // exits don't count as links
        assert!((p.utilization(2, OutPort::EastSh) - 0.5).abs() < 1e-12);
        let (node, port, u) = p.hottest_link().unwrap();
        assert_eq!((node, port), (2, OutPort::EastSh));
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn heatmap_renders_grid() {
        let mut p = Probe::new(2);
        for c in 0..10 {
            p.end_cycle(c);
        }
        p.usage[3][OutPort::EastSh.index()] = 10;
        let map = p.heatmap(OutPort::EastSh);
        assert_eq!(map, "00\n09\n");
    }
}
