//! Traffic sources implementing [`TrafficSource`]: open-loop Bernoulli
//! injectors (the paper's synthetic experiments use 1 K packets per PE at
//! a swept injection rate) and closed message batches (saturation runs
//! and accelerator-trace communication).

use fasttrack_core::geom::Coord;
use fasttrack_core::queue::InjectQueues;
use fasttrack_core::sim::TrafficSource;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::pattern::Pattern;

/// Open-loop source: every PE flips a Bernoulli coin each cycle and, on
/// success, enqueues a packet to a pattern-drawn destination — until it
/// has generated its quota (`packets_per_pe`).
#[derive(Debug, Clone)]
pub struct BernoulliSource {
    n: u16,
    rate: f64,
    pattern: Pattern,
    packets_per_pe: u64,
    generated: Vec<u64>,
    /// PEs still below their quota; `exhausted` is asked every cycle, so
    /// it reads this count instead of rescanning `generated`.
    remaining_pes: usize,
    rng: SmallRng,
}

impl BernoulliSource {
    /// Creates a source for an `n × n` system.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `(0.0, 1.0]`.
    pub fn new(n: u16, pattern: Pattern, rate: f64, packets_per_pe: u64, seed: u64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "injection rate {rate} out of (0,1]"
        );
        let nodes = n as usize * n as usize;
        BernoulliSource {
            n,
            rate,
            pattern,
            packets_per_pe,
            generated: vec![0; nodes],
            remaining_pes: if packets_per_pe == 0 { 0 } else { nodes },
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Total packets this source will generate.
    pub fn total_packets(&self) -> u64 {
        self.packets_per_pe * self.generated.len() as u64
    }
}

impl TrafficSource for BernoulliSource {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        for node in 0..self.generated.len() {
            if self.generated[node] < self.packets_per_pe && self.rng.gen::<f64>() < self.rate {
                let src = Coord::from_node_id(node, self.n);
                let dst = self.pattern.destination(src, self.n, &mut self.rng);
                queues.push(node, dst, cycle, 0);
                self.generated[node] += 1;
                if self.generated[node] == self.packets_per_pe {
                    self.remaining_pes -= 1;
                }
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.remaining_pes == 0
    }
}

/// One pre-computed message of a closed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Source PE (node id).
    pub src: usize,
    /// Destination PE (node id).
    pub dst: usize,
    /// Opaque tag carried through the NoC.
    pub tag: u64,
}

/// Closed-workload source: a fixed batch of messages, all available at
/// cycle 0 (each PE drains its share as fast as the NoC accepts). The
/// makespan of the batch is the workload completion time — the metric
/// behind the paper's accelerator case studies.
#[derive(Debug, Clone)]
pub struct MessageBatchSource {
    n: u16,
    messages: Vec<Message>,
    pushed: bool,
}

impl MessageBatchSource {
    /// Creates a batch source for an `n × n` system.
    ///
    /// # Panics
    ///
    /// Panics if any message endpoint is out of range.
    pub fn new(n: u16, messages: Vec<Message>) -> Self {
        let nodes = n as usize * n as usize;
        for m in &messages {
            assert!(
                m.src < nodes && m.dst < nodes,
                "message endpoint out of range"
            );
        }
        MessageBatchSource {
            n,
            messages,
            pushed: false,
        }
    }

    /// Number of messages in the batch.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// True if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }
}

impl TrafficSource for MessageBatchSource {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        if !self.pushed {
            for m in &self.messages {
                queues.push(m.src, Coord::from_node_id(m.dst, self.n), cycle, m.tag);
            }
            self.pushed = true;
        }
    }

    fn exhausted(&self) -> bool {
        self.pushed
    }
}

/// Timed trace source: messages become available at prescribed cycles
/// (extracted accelerator communication traces).
#[derive(Debug, Clone)]
pub struct TimedTraceSource {
    n: u16,
    /// Events sorted by release cycle.
    events: Vec<(u64, Message)>,
    next: usize,
}

impl TimedTraceSource {
    /// Creates a trace source; events are sorted by release cycle.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range.
    pub fn new(n: u16, mut events: Vec<(u64, Message)>) -> Self {
        let nodes = n as usize * n as usize;
        for (_, m) in &events {
            assert!(
                m.src < nodes && m.dst < nodes,
                "trace endpoint out of range"
            );
        }
        events.sort_by_key(|(t, _)| *t);
        TimedTraceSource { n, events, next: 0 }
    }

    /// Number of events remaining.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }
}

impl TrafficSource for TimedTraceSource {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        while self.next < self.events.len() && self.events[self.next].0 <= cycle {
            let (_, m) = self.events[self.next];
            queues.push(m.src, Coord::from_node_id(m.dst, self.n), cycle, m.tag);
            self.next += 1;
        }
    }

    fn exhausted(&self) -> bool {
        self.next == self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasttrack_core::config::NocConfig;
    use fasttrack_core::sim::SimSession;

    #[test]
    fn bernoulli_generates_exact_quota() {
        let mut src = BernoulliSource::new(4, Pattern::Random, 0.5, 10, 3);
        assert_eq!(src.total_packets(), 160);
        let mut q = InjectQueues::new(16);
        let mut cycle = 0;
        while !src.exhausted() {
            src.pump(cycle, &mut q);
            cycle += 1;
            assert!(cycle < 10_000, "quota never reached");
        }
        assert_eq!(q.total_enqueued(), 160);
    }

    #[test]
    fn bernoulli_rate_controls_pacing() {
        // At rate 0.1 the quota takes ~10x longer than at rate 1.0.
        let mut fast = BernoulliSource::new(4, Pattern::Random, 1.0, 50, 3);
        let mut slow = BernoulliSource::new(4, Pattern::Random, 0.1, 50, 3);
        let mut qf = InjectQueues::new(16);
        let mut qs = InjectQueues::new(16);
        let mut fast_cycles = 0u64;
        while !fast.exhausted() {
            fast.pump(fast_cycles, &mut qf);
            fast_cycles += 1;
        }
        let mut slow_cycles = 0u64;
        while !slow.exhausted() {
            slow.pump(slow_cycles, &mut qs);
            slow_cycles += 1;
        }
        assert_eq!(fast_cycles, 50);
        assert!(slow_cycles > 300, "rate 0.1 finished suspiciously fast");
    }

    #[test]
    #[should_panic(expected = "out of (0,1]")]
    fn zero_rate_rejected() {
        BernoulliSource::new(4, Pattern::Random, 0.0, 1, 0);
    }

    #[test]
    fn batch_source_end_to_end() {
        let msgs = vec![
            Message {
                src: 0,
                dst: 5,
                tag: 1,
            },
            Message {
                src: 3,
                dst: 12,
                tag: 2,
            },
            Message {
                src: 15,
                dst: 0,
                tag: 3,
            },
        ];
        let mut src = MessageBatchSource::new(4, msgs);
        assert_eq!(src.len(), 3);
        assert!(!src.is_empty());
        let cfg = NocConfig::hoplite(4).unwrap();
        let report = SimSession::new(&cfg).run(&mut src).unwrap().report;
        assert!(!report.truncated);
        assert_eq!(report.stats.delivered, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_bounds_checked() {
        MessageBatchSource::new(
            2,
            vec![Message {
                src: 0,
                dst: 99,
                tag: 0,
            }],
        );
    }

    #[test]
    fn timed_trace_releases_in_order() {
        let events = vec![
            (
                5,
                Message {
                    src: 1,
                    dst: 2,
                    tag: 0,
                },
            ),
            (
                0,
                Message {
                    src: 0,
                    dst: 3,
                    tag: 1,
                },
            ),
        ];
        let mut src = TimedTraceSource::new(2, events);
        assert_eq!(src.remaining(), 2);
        let mut q = InjectQueues::new(4);
        src.pump(0, &mut q);
        assert_eq!(q.total_enqueued(), 1); // only the cycle-0 event
        assert!(!src.exhausted());
        src.pump(5, &mut q);
        assert_eq!(q.total_enqueued(), 2);
        assert!(src.exhausted());
    }
}
