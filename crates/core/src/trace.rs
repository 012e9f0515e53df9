//! Cycle-level event tracing: a typed event stream emitted by the
//! engine, consumed through the zero-cost [`EventSink`] trait.
//!
//! The engine's hot loop is generic over the sink
//! (`crate::noc::Noc::step_with_sink`); the default [`NullSink`] sets
//! [`EventSink::ENABLED`] to `false`, so every emission site compiles to
//! nothing and the untraced path is byte-for-byte the pre-tracing
//! engine. Attaching a real sink (a [`VecSink`], the windowed metrics in
//! [`crate::metrics`], or an exporter from [`crate::export`]) turns the
//! same simulation into a full event log without touching the engine.
//!
//! Events carry the *decision* cycle (the cycle in which the router
//! assigned an output); a delivery consumed by the PE one cycle later
//! still reports the decision cycle in its [`SimEvent::Eject`].

use crate::geom::Coord;
use crate::packet::{Delivery, PacketId};
use crate::port::{InPort, OutPort};

/// One observable engine occurrence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A packet left its source queue and entered the NoC (or was
    /// delivered immediately on a self-send).
    Inject {
        /// Decision cycle.
        cycle: u64,
        /// Injecting node id.
        node: usize,
        /// Packet id.
        packet: PacketId,
        /// Destination.
        dst: Coord,
        /// Output port granted to the injection.
        out: OutPort,
        /// Cycles the packet waited in the source queue.
        queue_wait: u64,
    },
    /// A router assigned an output to an in-flight packet.
    RouteDecision {
        /// Decision cycle.
        cycle: u64,
        /// Deciding node id.
        node: usize,
        /// Packet id.
        packet: PacketId,
        /// Input the packet arrived on (`None` for buffered-mesh FIFOs,
        /// which have no torus port identity).
        in_port: Option<InPort>,
        /// Output assigned.
        out: OutPort,
        /// The packet's source node.
        src: Coord,
        /// The packet's destination node.
        dst: Coord,
        /// Link traversals (short + express) the packet has accumulated
        /// before this decision. Carried so online health monitors can
        /// compare a packet's displacement against its DOR distance
        /// without tracking per-packet state.
        hops: u32,
    },
    /// The assignment was non-productive — the packet was deflected.
    Deflect {
        /// Decision cycle.
        cycle: u64,
        /// Deflecting node id.
        node: usize,
        /// Packet id.
        packet: PacketId,
        /// Output the packet was deflected onto.
        out: OutPort,
    },
    /// The packet took an express link spanning `span` router positions.
    ExpressHop {
        /// Decision cycle.
        cycle: u64,
        /// Node the hop starts from.
        node: usize,
        /// Packet id.
        packet: PacketId,
        /// Routers covered in one cycle (the configuration's `D`).
        span: u16,
    },
    /// A packet reached its destination PE.
    Eject {
        /// Decision cycle (the PE consumes the packet one cycle later).
        cycle: u64,
        /// Destination node id.
        node: usize,
        /// The full delivery record (packet + consumption cycle).
        delivery: Delivery,
    },
    /// A PE wanted to inject but no acceptable output was free.
    QueueStall {
        /// Stalled cycle.
        cycle: u64,
        /// Stalled node id.
        node: usize,
        /// Source-queue depth at that node, including the blocked head.
        depth: usize,
    },
    /// The driver reset statistics at the end of the warmup period.
    WarmupReset {
        /// First measured cycle.
        cycle: u64,
    },
    /// The driver hit its cycle cap with work still in flight.
    Truncated {
        /// The cap that was hit.
        cycle: u64,
    },
    /// A faulted resource discarded a packet: lost on a transient link,
    /// corrupted in transit, or swallowed by a fail-stopped router. The
    /// packet leaves the network and is counted in
    /// [`crate::stats::SimStats::dropped`].
    FaultDrop {
        /// Drop cycle.
        cycle: u64,
        /// Node at which the loss was accounted.
        node: usize,
        /// Packet id.
        packet: PacketId,
        /// The faulted link the packet was crossing, or `None` when the
        /// router itself fail-stopped.
        link: Option<OutPort>,
        /// True when the loss models corruption detected at the receiver
        /// rather than a clean in-flight drop.
        corrupted: bool,
    },
    /// Fault-aware routing steered a packet away from a dead link and
    /// onto the plain ring (graceful degradation; counted in
    /// [`crate::stats::SimStats::rerouted`]).
    FaultReroute {
        /// Decision cycle.
        cycle: u64,
        /// Deciding node id.
        node: usize,
        /// Packet id.
        packet: PacketId,
        /// The dead output the packet would have preferred.
        avoided: OutPort,
    },
}

impl SimEvent {
    /// The cycle the event belongs to.
    pub fn cycle(&self) -> u64 {
        match *self {
            SimEvent::Inject { cycle, .. }
            | SimEvent::RouteDecision { cycle, .. }
            | SimEvent::Deflect { cycle, .. }
            | SimEvent::ExpressHop { cycle, .. }
            | SimEvent::Eject { cycle, .. }
            | SimEvent::QueueStall { cycle, .. }
            | SimEvent::WarmupReset { cycle }
            | SimEvent::Truncated { cycle }
            | SimEvent::FaultDrop { cycle, .. }
            | SimEvent::FaultReroute { cycle, .. } => cycle,
        }
    }

    /// The router the event happened at, or `None` for driver-level
    /// events ([`SimEvent::WarmupReset`], [`SimEvent::Truncated`]).
    pub fn node(&self) -> Option<usize> {
        match *self {
            SimEvent::Inject { node, .. }
            | SimEvent::RouteDecision { node, .. }
            | SimEvent::Deflect { node, .. }
            | SimEvent::ExpressHop { node, .. }
            | SimEvent::Eject { node, .. }
            | SimEvent::QueueStall { node, .. }
            | SimEvent::FaultDrop { node, .. }
            | SimEvent::FaultReroute { node, .. } => Some(node),
            SimEvent::WarmupReset { .. } | SimEvent::Truncated { .. } => None,
        }
    }

    /// Stable lowercase tag for serializers and filters.
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::Inject { .. } => "inject",
            SimEvent::RouteDecision { .. } => "route",
            SimEvent::Deflect { .. } => "deflect",
            SimEvent::ExpressHop { .. } => "express",
            SimEvent::Eject { .. } => "eject",
            SimEvent::QueueStall { .. } => "stall",
            SimEvent::WarmupReset { .. } => "warmup_reset",
            SimEvent::Truncated { .. } => "truncated",
            SimEvent::FaultDrop { .. } => "fault_drop",
            SimEvent::FaultReroute { .. } => "fault_reroute",
        }
    }
}

/// A consumer of engine events.
///
/// Implementations with [`EventSink::ENABLED`] left `true` receive every
/// event; setting it to `false` (as [`NullSink`] does) lets the engine's
/// monomorphized step skip all emission code statically.
pub trait EventSink {
    /// Whether this sink wants events at all. Emission sites are guarded
    /// by `if S::ENABLED`, so a `false` sink costs nothing at runtime.
    const ENABLED: bool = true;

    /// Receives one event.
    fn emit(&mut self, event: &SimEvent);

    /// Called once after each completed engine cycle (multi-channel
    /// banks call it once per channel; implementations must treat it as
    /// idempotent per cycle).
    fn end_cycle(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// Called by multi-channel wrappers before stepping each channel, so
    /// sinks can attribute the following events.
    fn set_channel(&mut self, channel: usize) {
        let _ = channel;
    }
}

/// The default sink: statically disabled, zero overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    const ENABLED: bool = false;
    fn emit(&mut self, _event: &SimEvent) {}
}

/// Collects every event into a vector (tests and small runs).
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// Events in emission order.
    pub events: Vec<SimEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }
}

impl EventSink for VecSink {
    fn emit(&mut self, event: &SimEvent) {
        self.events.push(*event);
    }
}

impl<S: EventSink> EventSink for &mut S {
    const ENABLED: bool = S::ENABLED;
    fn emit(&mut self, event: &SimEvent) {
        (**self).emit(event);
    }
    fn end_cycle(&mut self, cycle: u64) {
        (**self).end_cycle(cycle);
    }
    fn set_channel(&mut self, channel: usize) {
        (**self).set_channel(channel);
    }
}

/// An optional observer: statically disabled exactly when `S` is, and
/// a no-op at runtime while `None`. [`crate::sim::SimSession`] builds
/// its one observer fan-out from these, so any subset of attached
/// observers shares a single drive-loop instantiation.
impl<S: EventSink> EventSink for Option<S> {
    const ENABLED: bool = S::ENABLED;
    fn emit(&mut self, event: &SimEvent) {
        if let Some(sink) = self {
            sink.emit(event);
        }
    }
    fn end_cycle(&mut self, cycle: u64) {
        if let Some(sink) = self {
            sink.end_cycle(cycle);
        }
    }
    fn set_channel(&mut self, channel: usize) {
        if let Some(sink) = self {
            sink.set_channel(channel);
        }
    }
}

impl<A: EventSink, B: EventSink> EventSink for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    fn emit(&mut self, event: &SimEvent) {
        if A::ENABLED {
            self.0.emit(event);
        }
        if B::ENABLED {
            self.1.emit(event);
        }
    }
    fn end_cycle(&mut self, cycle: u64) {
        if A::ENABLED {
            self.0.end_cycle(cycle);
        }
        if B::ENABLED {
            self.1.end_cycle(cycle);
        }
    }
    fn set_channel(&mut self, channel: usize) {
        if A::ENABLED {
            self.0.set_channel(channel);
        }
        if B::ENABLED {
            self.1.set_channel(channel);
        }
    }
}

impl<A: EventSink, B: EventSink, C: EventSink> EventSink for (A, B, C) {
    const ENABLED: bool = A::ENABLED || B::ENABLED || C::ENABLED;
    fn emit(&mut self, event: &SimEvent) {
        if A::ENABLED {
            self.0.emit(event);
        }
        if B::ENABLED {
            self.1.emit(event);
        }
        if C::ENABLED {
            self.2.emit(event);
        }
    }
    fn end_cycle(&mut self, cycle: u64) {
        if A::ENABLED {
            self.0.end_cycle(cycle);
        }
        if B::ENABLED {
            self.1.end_cycle(cycle);
        }
        if C::ENABLED {
            self.2.end_cycle(cycle);
        }
    }
    fn set_channel(&mut self, channel: usize) {
        if A::ENABLED {
            self.0.set_channel(channel);
        }
        if B::ENABLED {
            self.1.set_channel(channel);
        }
        if C::ENABLED {
            self.2.set_channel(channel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn eject(cycle: u64) -> SimEvent {
        let packet = Packet::new(PacketId(1), Coord::new(0, 0), Coord::new(1, 0), 0, 0);
        SimEvent::Eject {
            cycle,
            node: 1,
            delivery: Delivery {
                packet,
                cycle: cycle + 1,
            },
        }
    }

    #[test]
    fn kinds_and_cycles() {
        let e = eject(9);
        assert_eq!(e.kind(), "eject");
        assert_eq!(e.cycle(), 9);
        let s = SimEvent::QueueStall {
            cycle: 3,
            node: 0,
            depth: 2,
        };
        assert_eq!(s.kind(), "stall");
        assert_eq!(s.cycle(), 3);
    }

    #[test]
    fn fault_event_kinds() {
        let d = SimEvent::FaultDrop {
            cycle: 7,
            node: 2,
            packet: PacketId(9),
            link: Some(OutPort::EastEx),
            corrupted: false,
        };
        assert_eq!(d.kind(), "fault_drop");
        assert_eq!(d.cycle(), 7);
        assert_eq!(d.node(), Some(2));
        let r = SimEvent::FaultReroute {
            cycle: 8,
            node: 3,
            packet: PacketId(10),
            avoided: OutPort::SouthEx,
        };
        assert_eq!(r.kind(), "fault_reroute");
        assert_eq!(r.node(), Some(3));
    }

    #[test]
    fn null_sink_is_statically_disabled() {
        const { assert!(!NullSink::ENABLED) }
        const { assert!(VecSink::ENABLED) }
        // A pair is enabled iff either half is.
        const { assert!(!<(NullSink, NullSink)>::ENABLED) }
        const { assert!(<(NullSink, VecSink)>::ENABLED) }
        // An absent-or-present observer is disabled iff its sink is.
        const { assert!(!<Option<&mut NullSink>>::ENABLED) }
        const { assert!(!<(Option<&mut NullSink>, Option<&mut NullSink>)>::ENABLED) }
        const { assert!(<Option<&mut VecSink>>::ENABLED) }
    }

    #[test]
    fn option_sink_forwards_only_when_present() {
        let mut sink = VecSink::new();
        let mut present = Some(&mut sink);
        present.emit(&eject(4));
        present.end_cycle(4);
        let mut absent: Option<&mut VecSink> = None;
        absent.emit(&eject(5));
        assert_eq!(sink.events, vec![eject(4)]);
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecSink::new();
        sink.emit(&eject(1));
        sink.emit(&SimEvent::QueueStall {
            cycle: 2,
            node: 0,
            depth: 1,
        });
        assert_eq!(sink.events.len(), 2);
        let count = |kind| sink.events.iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("eject"), 1);
        assert_eq!(count("stall"), 1);
    }

    #[test]
    fn tuple_sink_fans_out() {
        let mut pair = (VecSink::new(), VecSink::new());
        pair.emit(&eject(5));
        pair.end_cycle(5);
        assert_eq!(pair.0.events.len(), 1);
        assert_eq!(pair.1.events.len(), 1);
    }

    #[test]
    fn mut_ref_forwards() {
        fn emit_into<S: EventSink>(mut sink: S) {
            sink.emit(&eject(0));
        }
        let mut sink = VecSink::new();
        emit_into(&mut sink);
        assert_eq!(sink.events.len(), 1);
    }
}
