//! Bounded-memory flight recorder: a fixed-capacity ring of the last K
//! [`SimEvent`]s per router, dumped on anomaly or panic.
//!
//! The recorder is itself an [`EventSink`], so it can ride alongside any
//! other sink in a tuple. Memory is `(nodes + 1) * K` events regardless
//! of run length, in one flat allocation: router `r` owns slots
//! `r*K..(r+1)*K` and a write cursor, and the extra final ring takes
//! driver-level events ([`SimEvent::WarmupReset`],
//! [`SimEvent::Truncated`]) that have no router. Recording an event is
//! one copy into the cursor's slot.

use crate::trace::{EventSink, SimEvent};

/// Where one router's ring stands.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    /// Slot (within the ring) the next event lands in.
    next: usize,
    /// Events held, at most K.
    len: usize,
}

/// Per-router ring buffer of recent events.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    /// `(nodes + 1) * capacity` slots; slots past a ring's `len` hold
    /// filler that is never read.
    slots: Vec<SimEvent>,
    /// One cursor per router; the final one is the driver ring's.
    cursors: Vec<Cursor>,
}

impl FlightRecorder {
    /// A recorder for `nodes` routers keeping the last `capacity`
    /// events per router.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(nodes: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            capacity,
            slots: vec![SimEvent::WarmupReset { cycle: 0 }; (nodes + 1) * capacity],
            cursors: vec![Cursor::default(); nodes + 1],
        }
    }

    /// Ring `ring`'s events, oldest first, as the two runs the cursor
    /// splits them into (until the ring wraps, `next == len` and the
    /// first run is empty).
    fn ring(&self, ring: usize) -> (&[SimEvent], &[SimEvent]) {
        let Cursor { next, len } = self.cursors[ring];
        let (newest, oldest) = self.slots[ring * self.capacity..][..len].split_at(next);
        (oldest, newest)
    }

    /// The retained events for `node`, oldest first (empty for an
    /// out-of-range node).
    pub fn excerpt(&self, node: usize) -> Vec<SimEvent> {
        if node >= self.cursors.len() {
            return Vec::new();
        }
        let (oldest, newest) = self.ring(node);
        [oldest, newest].concat()
    }

    /// Every retained event across all rings, sorted by cycle (ties
    /// broken by router id, then intra-ring order) — a deterministic
    /// stream suitable for replay through the exporters.
    pub fn dump_all(&self) -> Vec<SimEvent> {
        let mut tagged: Vec<(u64, usize, usize, SimEvent)> = Vec::new();
        for ring_idx in 0..self.cursors.len() {
            let (oldest, newest) = self.ring(ring_idx);
            for (seq, &e) in oldest.iter().chain(newest).enumerate() {
                tagged.push((e.cycle(), ring_idx, seq, e));
            }
        }
        tagged.sort_by_key(|&(cycle, ring, seq, _)| (cycle, ring, seq));
        tagged.into_iter().map(|(_, _, _, e)| e).collect()
    }
}

impl EventSink for FlightRecorder {
    /// A node past the last router (and every driver-level event) goes
    /// to the driver ring.
    fn emit(&mut self, event: &SimEvent) {
        let driver = self.cursors.len() - 1;
        let ring = event.node().map_or(driver, |node| node.min(driver));
        let cursor = &mut self.cursors[ring];
        self.slots[ring * self.capacity + cursor.next] = *event;
        cursor.next += 1;
        if cursor.next == self.capacity {
            cursor.next = 0;
        }
        cursor.len = (cursor.len + 1).min(self.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stall(cycle: u64, node: usize) -> SimEvent {
        SimEvent::QueueStall {
            cycle,
            node,
            depth: 1,
        }
    }

    #[test]
    fn keeps_only_last_k_per_router() {
        let mut rec = FlightRecorder::new(4, 3);
        for c in 0..10 {
            rec.emit(&stall(c, 1));
        }
        let ex = rec.excerpt(1);
        assert_eq!(ex.len(), 3);
        assert_eq!(
            ex.iter().map(SimEvent::cycle).collect::<Vec<_>>(),
            [7, 8, 9]
        );
        assert!(rec.excerpt(0).is_empty());
    }

    #[test]
    fn driver_events_land_in_extra_ring() {
        let mut rec = FlightRecorder::new(2, 4);
        rec.emit(&SimEvent::WarmupReset { cycle: 5 });
        rec.emit(&SimEvent::Truncated { cycle: 9 });
        assert_eq!(rec.excerpt(2).len(), 2);
        assert!(rec.excerpt(0).is_empty());
    }

    #[test]
    fn dump_all_is_cycle_sorted() {
        let mut rec = FlightRecorder::new(3, 4);
        rec.emit(&stall(5, 2));
        rec.emit(&stall(1, 0));
        rec.emit(&stall(3, 1));
        rec.emit(&stall(3, 0));
        let cycles: Vec<u64> = rec.dump_all().iter().map(SimEvent::cycle).collect();
        assert_eq!(cycles, [1, 3, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = FlightRecorder::new(4, 0);
    }
}
