//! Adversarial traffic generators: bursty on-off (MMPP-style)
//! injection and worst-case permutations parameterized by the FastTrack
//! express geometry `(D, R)`. Hotspot concentration is a pattern
//! ([`Pattern::Hotspot`]) any Bernoulli source can draw.
//!
//! Synthetic Bernoulli traffic is memoryless and spatially uniform —
//! friendly to a deflection NoC. These generators attack the two
//! assumptions separately: temporal burstiness (every PE firing in the
//! same window) and spatial adversity (offsets that can never ride an
//! express lane, so every packet pays full short-hop cost while
//! competing for the same ring segments).

use fasttrack_core::geom::Coord;
use fasttrack_core::queue::InjectQueues;
use fasttrack_core::sim::TrafficSource;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::pattern::Pattern;

/// Two-state Markov-modulated on-off source (a discrete MMPP): each PE
/// alternates between an ON state, injecting Bernoulli(`on_rate`), and
/// an OFF state injecting nothing. State dwell times are geometric with
/// the given means, so bursts cluster the same offered load that a
/// plain Bernoulli source would spread evenly.
#[derive(Debug, Clone)]
pub struct BurstySource {
    n: u16,
    on_rate: f64,
    /// P(ON → OFF) each cycle = 1 / mean_on.
    p_off: f64,
    /// P(OFF → ON) each cycle = 1 / mean_off.
    p_on: f64,
    pattern: Pattern,
    packets_per_pe: u64,
    generated: Vec<u64>,
    /// PEs still below their quota, so `exhausted` is O(1).
    remaining_pes: usize,
    on: Vec<bool>,
    rng: SmallRng,
}

impl BurstySource {
    /// Creates a bursty source for an `n × n` system.
    ///
    /// `mean_on` / `mean_off` are the expected dwell times (cycles) in
    /// each state; `on_rate` is the per-cycle injection probability
    /// while ON. Long-run offered load is
    /// `on_rate * mean_on / (mean_on + mean_off)`.
    ///
    /// # Panics
    ///
    /// Panics if `on_rate` is outside `(0, 1]` or a mean dwell time is
    /// zero.
    pub fn new(
        n: u16,
        pattern: Pattern,
        on_rate: f64,
        mean_on: f64,
        mean_off: f64,
        packets_per_pe: u64,
        seed: u64,
    ) -> Self {
        assert!(
            on_rate > 0.0 && on_rate <= 1.0,
            "on_rate {on_rate} out of (0,1]"
        );
        assert!(
            mean_on >= 1.0 && mean_off >= 1.0,
            "mean dwell times must be >= 1 cycle"
        );
        let nodes = n as usize * n as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        // Start each PE in a random state so bursts are not phase-locked
        // to cycle 0 across the whole fabric.
        let on = (0..nodes).map(|_| rng.gen_bool(0.5)).collect();
        BurstySource {
            n,
            on_rate,
            p_off: 1.0 / mean_on,
            p_on: 1.0 / mean_off,
            pattern,
            packets_per_pe,
            generated: vec![0; nodes],
            remaining_pes: if packets_per_pe == 0 { 0 } else { nodes },
            on,
            rng,
        }
    }
}

impl TrafficSource for BurstySource {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        for node in 0..self.generated.len() {
            // State transition first, then a possible injection.
            let flip = if self.on[node] { self.p_off } else { self.p_on };
            if self.rng.gen::<f64>() < flip {
                self.on[node] = !self.on[node];
            }
            if self.on[node]
                && self.generated[node] < self.packets_per_pe
                && self.rng.gen::<f64>() < self.on_rate
            {
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

/// The X-ring offset every packet of a worst-case [`PermutationSource`]
/// travels.
///
/// Express lanes forward packets in strides of `d`; a packet only
/// boards one when the remaining offset can still be decomposed as
/// express strides plus a short remainder the router is willing to pay
/// (policy-dependent, but an offset `< d` never boards). The chosen
/// offset is congruent to `d - 1 (mod d)` — maximally misaligned with
/// the stride — and as long as the ring allows, so the fabric does
/// maximum short-hop work per packet. `r` shifts the offset off the
/// express *on-ramp* positions so FT-lite placements are also missed.
pub(crate) fn worst_case_offset(n: u16, d: u16, r: u16) -> u16 {
    debug_assert!(d >= 1 && r >= 1 && d <= n && r <= d);
    if d == 1 {
        // Every offset is stride-aligned; fall back to tornado (the
        // classic worst case for a unidirectional ring).
        return n / 2;
    }
    // Largest offset < n that is ≡ d-1 (mod d).
    let mut k = n - 1;
    while k % d != d - 1 {
        k -= 1;
    }
    k.max(1)
}

/// Worst-case permutation for `FT(n², d, r)`: every PE sends its whole
/// quota to the node `worst_case_offset(n, d, r)` hops east on its own
/// row — a fixed permutation (one sender per receiver), so exit ports
/// never contend, yet no packet can profit from the express stride and
/// all of them share the same direction of every X ring.
#[derive(Debug, Clone)]
pub struct PermutationSource {
    n: u16,
    offset: u16,
    packets_per_pe: u64,
    /// Packets each PE has sent: every PE sends in the same pumps.
    sent: u64,
}

impl PermutationSource {
    /// Creates the `(d, r)`-adversarial permutation source.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ r ≤ d ≤ n`.
    pub fn new(n: u16, d: u16, r: u16, packets_per_pe: u64) -> Self {
        assert!(d >= 1 && r >= 1 && d <= n && r <= d, "bad (d, r) for n={n}");
        Self::with_offset(n, worst_case_offset(n, d, r), packets_per_pe)
    }

    /// A fixed-offset row permutation — the express-aligned control
    /// case for [`PermutationSource::new`].
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ offset < n`.
    pub(crate) fn with_offset(n: u16, offset: u16, packets_per_pe: u64) -> Self {
        assert!(offset >= 1 && offset < n, "offset {offset} out of 1..{n}");
        PermutationSource {
            n,
            offset,
            packets_per_pe,
            sent: 0,
        }
    }
}

impl TrafficSource for PermutationSource {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        if self.exhausted() {
            return;
        }
        for node in 0..self.n as usize * self.n as usize {
            let src = Coord::from_node_id(node, self.n);
            queues.push(node, src.east(self.offset, self.n), cycle, 0);
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
    use fasttrack_core::sim::SimSession;

    #[test]
    fn bursty_respects_quota_and_load() {
        let mut src = BurstySource::new(4, Pattern::Random, 0.8, 20.0, 60.0, 10, 3);
        // Long-run offered load per PE: the ON rate times the ON share.
        let (mean_on, mean_off) = (1.0 / src.p_off, 1.0 / src.p_on);
        assert!((src.on_rate * mean_on / (mean_on + mean_off) - 0.2).abs() < 1e-9);
        let mut q = InjectQueues::new(16);
        let mut cycle = 0;
        while !src.exhausted() && cycle < 100_000 {
            src.pump(cycle, &mut q);
            cycle += 1;
        }
        assert!(src.exhausted());
        assert_eq!(q.total_enqueued(), 16 * 10);
    }

    #[test]
    fn bursty_is_burstier_than_bernoulli() {
        // Fano factor (variance/mean of per-window injection counts)
        // should exceed the Bernoulli baseline's by a wide margin.
        let fano = |counts: &[u64]| {
            let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
            let var = counts
                .iter()
                .map(|&c| (c as f64 - mean).powi(2))
                .sum::<f64>()
                / counts.len() as f64;
            var / mean.max(1e-12)
        };
        let window = 32u64;
        type Pump = Box<dyn FnMut(u64, &mut InjectQueues)>;
        let run = |mut src: Pump| {
            let mut q = InjectQueues::new(64);
            let mut counts = Vec::new();
            let mut prev = 0;
            for w in 0..200u64 {
                for c in 0..window {
                    src(w * window + c, &mut q);
                }
                counts.push(q.total_enqueued() - prev);
                prev = q.total_enqueued();
            }
            counts
        };
        let mut bursty = BurstySource::new(8, Pattern::Random, 0.5, 40.0, 160.0, u64::MAX, 11);
        let mut bern = crate::source::BernoulliSource::new(8, Pattern::Random, 0.1, u64::MAX, 11);
        let f_bursty = fano(&run(Box::new(move |c, q| bursty.pump(c, q))));
        let f_bern = fano(&run(Box::new(move |c, q| bern.pump(c, q))));
        assert!(
            f_bursty > 2.0 * f_bern,
            "bursty fano {f_bursty} not >> bernoulli fano {f_bern}"
        );
    }

    #[test]
    fn worst_case_offset_misses_the_stride() {
        for (n, d, r) in [(8u16, 2u16, 1u16), (8, 4, 2), (16, 4, 4), (8, 2, 2)] {
            let k = worst_case_offset(n, d, r);
            assert_eq!(k % d, d - 1, "offset {k} aligned for d={d}");
            assert!(k >= 1 && k < n);
        }
        // d == 1: tornado fallback.
        assert_eq!(worst_case_offset(8, 1, 1), 4);
    }

    #[test]
    fn worst_case_permutation_defeats_the_express_layer() {
        // The express layer's speedup over plain Hoplite should be
        // substantial for a stride-aligned permutation and collapse
        // for the (d, r)-misaligned worst case.
        let ft = NocConfig::fasttrack(8, 4, 1, FtPolicy::Full).unwrap();
        let hop = NocConfig::hoplite(8).unwrap();
        let makespan = |cfg: &NocConfig, offset: u16| {
            let mut src = PermutationSource::with_offset(8, offset, 50);
            let report = SimSession::new(cfg)
                .max_cycles(400_000)
                .run(&mut src)
                .unwrap()
                .report;
            assert!(!report.truncated);
            report.cycles as f64
        };
        let worst = worst_case_offset(8, 4, 1);
        assert_eq!(worst % 4, 3, "misaligned by construction");
        let speedup_aligned = makespan(&hop, 4) / makespan(&ft, 4);
        let speedup_worst = makespan(&hop, worst) / makespan(&ft, worst);
        assert!(
            speedup_aligned > 1.2 * speedup_worst,
            "aligned speedup {speedup_aligned:.2} should dominate worst-case {speedup_worst:.2}"
        );
    }
}
