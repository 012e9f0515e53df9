//! Packets and their lifetime statistics.
//!
//! Hoplite-family NoCs route wide single-flit packets: the entire payload
//! (up to a cacheline at 512 b datawidth) moves as one unit per cycle, so the
//! simulator models a packet as a single routable token.

use crate::geom::Coord;

/// Unique packet identifier assigned at injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

/// A single-flit packet in flight (or delivered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Identifier, unique within a simulation run.
    pub id: PacketId,
    /// Source node.
    pub src: Coord,
    /// Destination node.
    pub dst: Coord,
    /// Cycle at which the packet entered its source queue.
    pub enqueued_at: u64,
    /// Cycle at which the packet left the PE and entered the NoC.
    pub injected_at: u64,
    /// Number of short-link traversals so far.
    pub short_hops: u32,
    /// Number of express-link traversals so far (each covers `D` routers).
    pub express_hops: u32,
    /// Number of deflections suffered (assigned an output other than the
    /// first-choice productive one).
    pub deflections: u32,
    /// Opaque workload tag (e.g. a trace event id); carried untouched.
    pub tag: u64,
}

impl Packet {
    /// Creates a packet about to be enqueued at its source.
    pub(crate) fn new(id: PacketId, src: Coord, dst: Coord, enqueued_at: u64, tag: u64) -> Self {
        Packet {
            id,
            src,
            dst,
            enqueued_at,
            injected_at: enqueued_at,
            short_hops: 0,
            express_hops: 0,
            deflections: 0,
            tag,
        }
    }

    /// Total link traversals (short + express), i.e. cycles spent on wires.
    pub fn total_hops(&self) -> u32 {
        self.short_hops + self.express_hops
    }

    /// Latency from source-queue entry to the given delivery cycle.
    ///
    /// This includes source queueing delay, which is what makes latency
    /// curves climb steeply at saturation (paper Figure 12).
    pub(crate) fn total_latency(&self, delivered_at: u64) -> u64 {
        delivered_at.saturating_sub(self.enqueued_at)
    }

    /// Latency from NoC injection to the given delivery cycle.
    pub(crate) fn network_latency(&self, delivered_at: u64) -> u64 {
        delivered_at.saturating_sub(self.injected_at)
    }
}

/// A packet awaiting injection in a source queue: everything about it is
/// known except its wire-level statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingPacket {
    /// Identifier assigned at enqueue time.
    pub id: PacketId,
    /// Destination node.
    pub dst: Coord,
    /// Cycle at which it became available for injection.
    pub enqueued_at: u64,
    /// Opaque workload tag.
    pub tag: u64,
}

/// A delivered packet together with its delivery cycle, handed to traffic
/// sources and statistics collectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The packet as it arrived.
    pub packet: Packet,
    /// Cycle at which it was consumed by the destination PE.
    pub cycle: u64,
}

impl Delivery {
    /// End-to-end latency including source queueing.
    pub fn total_latency(&self) -> u64 {
        self.packet.total_latency(self.cycle)
    }

    /// In-network latency only.
    pub fn network_latency(&self) -> u64 {
        self.packet.network_latency(self.cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Packet {
        Packet::new(PacketId(7), Coord::new(0, 0), Coord::new(3, 2), 10, 42)
    }

    #[test]
    fn new_packet_has_zero_stats() {
        let p = pkt();
        assert_eq!(p.short_hops, 0);
        assert_eq!(p.express_hops, 0);
        assert_eq!(p.deflections, 0);
        assert_eq!(p.total_hops(), 0);
        assert_eq!(p.tag, 42);
    }

    #[test]
    fn latency_accounting() {
        let mut p = pkt();
        p.injected_at = 15; // waited 5 cycles in the source queue
        assert_eq!(p.total_latency(40), 30);
        assert_eq!(p.network_latency(40), 25);
    }

    #[test]
    fn latency_saturating() {
        let p = pkt();
        assert_eq!(p.total_latency(5), 0); // never negative
    }

    #[test]
    fn delivery_latencies() {
        let mut p = pkt();
        p.injected_at = 12;
        let d = Delivery {
            packet: p,
            cycle: 30,
        };
        assert_eq!(d.total_latency(), 20);
        assert_eq!(d.network_latency(), 18);
    }

    #[test]
    fn total_hops_sums_both_kinds() {
        let mut p = pkt();
        p.short_hops = 3;
        p.express_hops = 2;
        assert_eq!(p.total_hops(), 5);
    }
}
