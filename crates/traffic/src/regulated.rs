//! Rate-regulated traffic: the admission model of real-time NoC
//! analyses (HopliteRT-style, the paper's ref \[30\]).
//!
//! A [`RegulatedSource`] injects at most one packet per PE per `period`
//! cycles — under such regulation, worst-case latencies stay within a
//! small multiple of the zero-load floors computed by
//! `fasttrack_core::realtime`, which the integration tests check.

use fasttrack_core::geom::Coord;
use fasttrack_core::queue::InjectQueues;
use fasttrack_core::sim::TrafficSource;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A token-bucket rate-regulated random-traffic source: every PE injects
/// exactly one packet each `period` cycles (at the period boundary), to
/// uniformly random destinations, for `packets_per_pe` packets.
#[derive(Debug, Clone)]
pub struct RegulatedSource {
    n: u16,
    period: u64,
    packets_per_pe: u64,
    /// Packets each PE has sent: every PE sends in the same pumps.
    sent: u64,
    rng: SmallRng,
}

impl RegulatedSource {
    /// Creates a regulated source for an `n × n` system.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(n: u16, period: u64, packets_per_pe: u64, seed: u64) -> Self {
        assert!(period > 0, "regulation period must be positive");
        RegulatedSource {
            n,
            period,
            packets_per_pe,
            sent: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl TrafficSource for RegulatedSource {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        if !cycle.is_multiple_of(self.period) || self.exhausted() {
            return;
        }
        for node in 0..self.n as usize * self.n as usize {
            let src = Coord::from_node_id(node, self.n);
            let dst = loop {
                let c = Coord::new(self.rng.gen_range(0..self.n), self.rng.gen_range(0..self.n));
                if c != src {
                    break c;
                }
            };
            queues.push(node, dst, cycle, 0);
        }
        self.sent += 1;
    }

    fn exhausted(&self) -> bool {
        self.sent >= self.packets_per_pe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasttrack_core::config::{FtPolicy, NocConfig};
    use fasttrack_core::realtime::zero_load_profile;
    use fasttrack_core::sim::SimSession;

    #[test]
    fn regulated_source_obeys_its_budget() {
        let mut src = RegulatedSource::new(4, 10, 5, 1);
        assert_eq!(src.period, 10);
        let mut q = InjectQueues::new(16);
        for cycle in 0..200 {
            src.pump(cycle, &mut q);
        }
        assert!(src.exhausted());
        assert_eq!(q.total_enqueued(), 16 * 5);
        // All enqueues happened on period boundaries.
        for node in 0..16 {
            while let Some(p) = q.pop(node) {
                assert_eq!(p.enqueued_at % 10, 0);
            }
        }
    }

    #[test]
    fn regulated_traffic_keeps_latency_near_zero_load() {
        // At a gentle regulation (1 packet / 20 cycles / PE) the observed
        // worst case stays within a small multiple of the zero-load
        // worst case — the regime real-time bounds address.
        let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap();
        let profile = zero_load_profile(&cfg);
        let mut src = RegulatedSource::new(8, 20, 100, 3);
        let report = SimSession::new(&cfg).run(&mut src).unwrap().report;
        assert!(!report.truncated);
        let worst = report.stats.total_latency.max();
        assert!(
            worst <= 4 * profile.max,
            "regulated worst {} vs zero-load max {}",
            worst,
            profile.max
        );
    }

    #[test]
    fn tighter_regulation_tightens_the_tail() {
        let cfg = NocConfig::hoplite(8).unwrap();
        let run = |period| {
            let mut src = RegulatedSource::new(8, period, 200, 7);
            SimSession::new(&cfg).run(&mut src).unwrap().report
        };
        let loose = run(4);
        let tight = run(32);
        assert!(tight.worst_latency() <= loose.worst_latency());
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        RegulatedSource::new(4, 0, 1, 0);
    }
}
