//! Transfer serialization: logical multi-bit transfers over a NoC of a
//! given datawidth (paper §VI-B).
//!
//! A 512-bit x86 cacheline rides a 512-bit NoC as a single Hoplite-style
//! wide packet; on a 128-bit NoC it must be serialized into four flits.
//! This module splits logical [`Transfer`]s into per-flit packets,
//! tracks reassembly at the destination, and reports transfer-level
//! completion — letting experiments compare *wide-but-slow* against
//! *narrow-but-fast* configurations on equal terms (cachelines per
//! second, not packets per cycle).

use fasttrack_core::geom::Coord;
use fasttrack_core::packet::Delivery;
use fasttrack_core::queue::InjectQueues;
use fasttrack_core::sim::TrafficSource;

/// One logical transfer (e.g. a cacheline) between two PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Source PE (node id).
    pub src: usize,
    /// Destination PE (node id).
    pub dst: usize,
    /// Payload size in bits.
    pub bits: u32,
}

/// Number of flits a transfer needs at `width` bits per packet.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn flits_for(bits: u32, width: u32) -> u32 {
    assert!(width > 0, "datawidth must be positive");
    bits.div_ceil(width).max(1)
}

/// A closed batch of logical transfers, serialized to `width`-bit flits
/// (all available at cycle 0), with destination-side reassembly.
///
/// The flit tag encodes the transfer index, so [`TransferBatchSource`]
/// can count a transfer complete when its last flit arrives.
#[derive(Debug, Clone)]
pub struct TransferBatchSource {
    n: u16,
    width: u32,
    transfers: Vec<Transfer>,
    /// Remaining undelivered flits per transfer.
    remaining: Vec<u32>,
    completed: usize,
    /// Deliveries whose tag named no outstanding flit of this batch.
    foreign_flits: u64,
    pushed: bool,
}

impl TransferBatchSource {
    /// Creates the source for an `n × n` NoC of `width`-bit links.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or any endpoint is out of range.
    pub fn new(n: u16, width: u32, transfers: Vec<Transfer>) -> Self {
        assert!(width > 0);
        let nodes = n as usize * n as usize;
        let mut remaining = Vec::with_capacity(transfers.len());
        for t in &transfers {
            assert!(
                t.src < nodes && t.dst < nodes,
                "transfer endpoint out of range"
            );
            remaining.push(flits_for(t.bits, width));
        }
        TransferBatchSource {
            n,
            width,
            transfers,
            remaining,
            completed: 0,
            foreign_flits: 0,
            pushed: false,
        }
    }
}

impl TrafficSource for TransferBatchSource {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        if !self.pushed {
            for (idx, t) in self.transfers.iter().enumerate() {
                for _ in 0..flits_for(t.bits, self.width) {
                    queues.push(t.src, Coord::from_node_id(t.dst, self.n), cycle, idx as u64);
                }
            }
            self.pushed = true;
        }
    }

    fn on_delivery(&mut self, delivery: &Delivery) {
        // Bounds-check the tag before using it as an index: a replayed
        // or foreign trace may carry tags this batch never issued, and
        // `tag as usize` alone would wrap on 32-bit hosts. Unknown
        // tags are counted, not indexed with.
        let tag = delivery.packet.tag;
        let Ok(idx) = usize::try_from(tag) else {
            self.foreign_flits += 1;
            return;
        };
        let Some(remaining) = self.remaining.get_mut(idx) else {
            self.foreign_flits += 1;
            return;
        };
        if *remaining == 0 {
            self.foreign_flits += 1;
            return;
        }
        *remaining -= 1;
        if *remaining == 0 {
            self.completed += 1;
        }
    }

    fn exhausted(&self) -> bool {
        self.pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasttrack_core::config::NocConfig;
    use fasttrack_core::sim::SimSession;

    #[test]
    fn flit_math() {
        assert_eq!(flits_for(512, 512), 1);
        assert_eq!(flits_for(512, 256), 2);
        assert_eq!(flits_for(512, 96), 6);
        assert_eq!(flits_for(1, 512), 1);
        assert_eq!(flits_for(0, 64), 1); // a transfer is at least one flit
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        flits_for(64, 0);
    }

    #[test]
    fn serializes_and_reassembles() {
        let transfers = vec![
            Transfer {
                src: 0,
                dst: 5,
                bits: 512,
            },
            Transfer {
                src: 3,
                dst: 12,
                bits: 512,
            },
        ];
        let mut src = TransferBatchSource::new(4, 128, transfers);
        assert_eq!(src.remaining.iter().sum::<u32>(), 8);
        assert_eq!(src.transfers.len(), 2);
        let cfg = NocConfig::hoplite(4).unwrap();
        let report = SimSession::new(&cfg).run(&mut src).unwrap().report;
        assert!(!report.truncated);
        assert_eq!(report.stats.delivered, 8);
        assert_eq!(src.completed, 2);
        assert_eq!(src.foreign_flits, 0);
    }

    #[test]
    fn foreign_tags_are_counted_not_indexed() {
        use fasttrack_core::packet::{Packet, PacketId};
        let at = Coord::new(0, 0);
        let mut src = TransferBatchSource::new(
            4,
            128,
            vec![Transfer {
                src: 0,
                dst: 5,
                bits: 128,
            }],
        );
        let mk = |tag| Delivery {
            packet: Packet {
                id: PacketId(0),
                src: at,
                dst: Coord::new(1, 1),
                enqueued_at: 0,
                injected_at: 0,
                short_hops: 0,
                express_hops: 0,
                deflections: 0,
                tag,
            },
            cycle: 3,
        };
        // Out-of-range index, u64 wider than usize range, and a
        // double-delivery of an already-complete transfer.
        src.on_delivery(&mk(99));
        src.on_delivery(&mk(u64::MAX));
        src.on_delivery(&mk(0));
        src.on_delivery(&mk(0));
        assert_eq!(src.completed, 1);
        assert_eq!(src.foreign_flits, 3);
    }

    #[test]
    fn wide_links_need_fewer_cycles_per_cacheline() {
        // 200 cachelines from each PE to a partner: at 512b each is one
        // packet; at 128b it is four — the narrow run takes ~4x longer.
        let mk = |width| {
            let transfers: Vec<Transfer> = (0..16)
                .flat_map(|s| {
                    (0..200).map(move |_| Transfer {
                        src: s,
                        dst: (s + 7) % 16,
                        bits: 512,
                    })
                })
                .collect();
            TransferBatchSource::new(4, width, transfers)
        };
        let cfg = NocConfig::hoplite(4).unwrap();
        let wide = {
            let mut s = mk(512);
            SimSession::new(&cfg).run(&mut s).unwrap().report
        };
        let narrow = {
            let mut s = mk(128);
            SimSession::new(&cfg).run(&mut s).unwrap().report
        };
        let ratio = narrow.cycles as f64 / wide.cycles as f64;
        assert!(
            (3.0..=5.0).contains(&ratio),
            "serialization ratio {ratio:.2}"
        );
    }
}
