//! Per-PE source injection queues.
//!
//! Traffic sources push [`PendingPacket`]s here; the NoC pulls from the
//! head of each node's queue when its router has a free output in the
//! packet's desired direction (the PE port has the lowest priority).

use std::collections::VecDeque;

use crate::geom::Coord;
use crate::packet::{PacketId, PendingPacket};
use crate::trace::SimEvent;

/// The [`InjectQueues::heads`] entry of an empty queue: no node of a
/// side that fits a `u16` has this coordinate.
const NO_HEAD: Coord = Coord::new(u16::MAX, u16::MAX);

/// One FIFO of pending packets per node.
#[derive(Debug, Clone)]
pub struct InjectQueues {
    queues: Vec<VecDeque<PendingPacket>>,
    /// Bit `node % 64` of word `node / 64` is set exactly while
    /// `queues[node]` is non-empty, so the torus step can skip PEs with
    /// nothing to inject without touching their `VecDeque`.
    nonempty: Vec<u64>,
    /// Per node: the destination of its queue's head, or [`NO_HEAD`]
    /// while the queue is empty. A step's injection check reads this
    /// hot column instead of the `VecDeque` header and its ring buffer.
    heads: Vec<Coord>,
    next_id: u64,
    pending: usize,
}

impl InjectQueues {
    /// Creates empty queues for `nodes` PEs.
    pub fn new(nodes: usize) -> Self {
        InjectQueues {
            queues: vec![VecDeque::new(); nodes],
            nonempty: vec![0; nodes.div_ceil(64)],
            heads: vec![NO_HEAD; nodes],
            next_id: 0,
            pending: 0,
        }
    }

    /// Number of PEs.
    pub fn nodes(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues a packet at `src` destined for `dst`; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn push(&mut self, src: usize, dst: Coord, cycle: u64, tag: u64) -> PacketId {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        if self.queues[src].is_empty() {
            self.heads[src] = dst;
        }
        self.queues[src].push_back(PendingPacket {
            id,
            dst,
            enqueued_at: cycle,
            tag,
        });
        self.nonempty[src / 64] |= 1 << (src % 64);
        self.pending += 1;
        id
    }

    /// Head of `node`'s queue, if any.
    #[cfg(test)]
    pub(crate) fn peek(&self, node: usize) -> Option<&PendingPacket> {
        self.queues[node].front()
    }

    /// Destination of the head of `node`'s queue, if any: what a step
    /// routes the PE by before it pops.
    #[inline]
    pub(crate) fn head_dst(&self, node: usize) -> Option<Coord> {
        let dst = self.heads[node];
        (dst != NO_HEAD).then_some(dst)
    }

    /// Pops the head of `node`'s queue.
    pub fn pop(&mut self, node: usize) -> Option<PendingPacket> {
        let p = self.queues[node].pop_front();
        if p.is_some() {
            self.pending -= 1;
            match self.queues[node].front() {
                Some(next) => self.heads[node] = next.dst,
                None => {
                    self.heads[node] = NO_HEAD;
                    self.nonempty[node / 64] &= !(1 << (node % 64));
                }
            }
        }
        p
    }

    /// Word `word` of the non-empty bitmask: bit `b` is set exactly when
    /// `depth(word * 64 + b) > 0`.
    fn nonempty_word(&self, word: usize) -> u64 {
        self.nonempty[word]
    }

    /// Packets ever enqueued (ids are handed out densely from 0).
    pub fn total_enqueued(&self) -> u64 {
        self.next_id
    }

    /// Queue depth at one node.
    pub fn depth(&self, node: usize) -> usize {
        self.queues[node].len()
    }

    /// Iterates `node`'s waiting packets in FIFO order (head first).
    ///
    /// Recording wrappers use this to observe what an inner traffic
    /// source appended during `pump` without disturbing the queue:
    /// ids ascend along a FIFO, so the appended packets are the ones
    /// `.rev()` meets first.
    pub fn iter(&self, node: usize) -> impl DoubleEndedIterator<Item = &PendingPacket> + '_ {
        self.queues[node].iter()
    }

    /// True when every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Builds the [`SimEvent::QueueStall`] describing a blocked
    /// injection at `node` — the queue owns its depth, so the stall
    /// event is constructed here rather than in the engine.
    pub(crate) fn stall_event(&self, cycle: u64, node: usize) -> SimEvent {
        SimEvent::QueueStall {
            cycle,
            node,
            depth: self.depth(node),
        }
    }
}

/// Walks an engine step's active set — routers whose bit is set in the
/// engine's occupancy mask or whose PE has a packet waiting — in
/// ascending node order, 64 routers per mask word. Every engine's step
/// loop is `while let Some(node) = cursor.next(occ, queues)`: ascending
/// order is the dense `0..nodes` order, so events, deliveries and
/// arbitration come out exactly as if every router ran.
#[derive(Debug, Default)]
pub(crate) struct ActiveCursor {
    /// Index of the next mask word to load.
    word: usize,
    /// Unvisited routers of word `word - 1`.
    bits: u64,
}

impl ActiveCursor {
    /// The next active router; `occ` holds one bit per router, laid out
    /// like the queues' own mask (bit `node % 64` of word `node / 64`).
    /// Each word is read once, when the cursor reaches it, so a visit
    /// must not change a *later* router's bit in `occ` or push to
    /// another router's queue: engines forward into next-cycle state and
    /// pop only the visited router's queue.
    #[inline]
    pub(crate) fn next(&mut self, occ: &[u64], queues: &InjectQueues) -> Option<usize> {
        while self.bits == 0 {
            if self.word == occ.len() {
                return None;
            }
            self.bits = occ[self.word] | queues.nonempty_word(self.word);
            self.word += 1;
        }
        let node = (self.word - 1) * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    proptest! {
        /// Under any push/pop interleaving — including pops of empty
        /// queues and node counts past one mask word — a node's bit is
        /// set exactly while its queue is non-empty.
        #[test]
        fn nonempty_mask_tracks_depth(nodes in 1usize..200, seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = InjectQueues::new(nodes);
            for cycle in 0..300 {
                let node = rng.gen_range(0..nodes);
                if rng.gen::<bool>() {
                    q.push(node, Coord::new(0, 0), cycle, 0);
                } else {
                    q.pop(node);
                }
                for n in 0..nodes {
                    let bit = q.nonempty_word(n / 64) >> (n % 64) & 1 == 1;
                    prop_assert_eq!(bit, q.depth(n) > 0, "node {}", n);
                }
            }
        }

        /// Under any push/pop interleaving over several nodes, the head
        /// column names the destination `peek` finds at every node.
        #[test]
        fn head_column_tracks_peek(nodes in 1usize..8, seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = InjectQueues::new(nodes);
            for cycle in 0..300 {
                let node = rng.gen_range(0..nodes);
                if rng.gen::<bool>() {
                    let dst = Coord::new(rng.gen_range(0..16), rng.gen_range(0..16));
                    q.push(node, dst, cycle, 0);
                } else {
                    q.pop(node);
                }
                for n in 0..nodes {
                    prop_assert_eq!(q.head_dst(n), q.peek(n).map(|p| p.dst), "node {}", n);
                }
            }
        }
    }

    #[test]
    fn push_pop_fifo_order() {
        let mut q = InjectQueues::new(4);
        let a = q.push(0, Coord::new(1, 1), 5, 10);
        let b = q.push(0, Coord::new(2, 2), 6, 11);
        assert_ne!(a, b);
        assert_eq!(q.pending, 2);
        assert_eq!(q.depth(0), 2);
        assert_eq!(q.peek(0).unwrap().id, a);
        assert_eq!(q.pop(0).unwrap().id, a);
        assert_eq!(q.pop(0).unwrap().id, b);
        assert_eq!(q.pop(0), None);
        assert!(q.is_empty());
        assert_eq!(q.total_enqueued(), 2);
    }

    #[test]
    fn iter_sees_fifo_tail() {
        let mut q = InjectQueues::new(2);
        q.push(0, Coord::new(1, 0), 0, 7);
        q.push(0, Coord::new(0, 1), 1, 8);
        let tags: Vec<u64> = q.iter(0).map(|p| p.tag).collect();
        assert_eq!(tags, vec![7, 8]);
        assert_eq!(q.iter(1).count(), 0);
        // Walking back from the tail meets the newest push first.
        let newest_first: Vec<u64> = q.iter(0).rev().map(|p| p.tag).collect();
        assert_eq!(newest_first, vec![8, 7]);
    }

    #[test]
    fn ids_unique_across_nodes() {
        let mut q = InjectQueues::new(2);
        let a = q.push(0, Coord::new(0, 1), 0, 0);
        let b = q.push(1, Coord::new(1, 0), 0, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn pending_counts_span_nodes() {
        let mut q = InjectQueues::new(3);
        q.push(0, Coord::new(0, 1), 0, 0);
        q.push(2, Coord::new(0, 1), 0, 0);
        assert_eq!(q.pending, 2);
        q.pop(2);
        assert_eq!(q.pending, 1);
        assert!(!q.is_empty());
    }
}
