//! The open-loop Bernoulli injector (the paper's synthetic experiments
//! use 1 K packets per PE at a swept injection rate) and the message a
//! closed workload is made of. A fixed schedule of messages, whether a
//! case-study batch or a timed trace, plays through [`ReplaySource`].

use fasttrack_core::geom::Coord;
use fasttrack_core::queue::InjectQueues;
use fasttrack_core::sim::TrafficSource;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::pattern::Pattern;
use crate::scenario::{ReplaySource, ScenarioRecord};

/// Open-loop source: every PE injects Bernoulli(`rate`) each cycle and
/// enqueues each packet to a pattern-drawn destination — until it has
/// generated its quota (`packets_per_pe`).
///
/// The per-cycle coins are not flipped one by one: the gaps between a
/// PE's arrivals are geometric, `G = 1 + ⌊ln U / ln(1 − rate)⌋`, so each
/// PE draws the cycle of its next packet and a calendar of 64 bitmask
/// slots (`cycle % 64`) hands `pump` only the PEs due this cycle, in
/// ascending node order. Draw order: one gap per PE in node order at
/// the first pump, then per arrival the destination and that PE's next
/// gap.
#[derive(Debug, Clone)]
pub struct BernoulliSource {
    n: u16,
    rate: f64,
    /// `ln(1 − rate)`, the scale of every gap.
    ln_q: f64,
    pattern: Pattern,
    packets_per_pe: u64,
    generated: Vec<u64>,
    /// PEs still below their quota; `exhausted` is asked every cycle, so
    /// it reads this count instead of rescanning `generated`.
    remaining_pes: usize,
    /// Cycle of each PE's next packet.
    due: Vec<u64>,
    /// Slot `s` (words `s * words..`) holds one bit per PE whose `due`
    /// is `≡ s (mod 64)`; a gap of 64 or more leaves the bit in place
    /// for laps that skip it. Empty until the first pump.
    calendar: Vec<u64>,
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
            ln_q: (-rate).ln_1p(),
            pattern,
            packets_per_pe,
            generated: vec![0; nodes],
            remaining_pes: if packets_per_pe == 0 { 0 } else { nodes },
            due: vec![0; nodes],
            calendar: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Cycles from one arrival to the next, `Geom(rate)` on `1..`. A
    /// gap past `u64::MAX` saturates, so it never comes due.
    fn gap(&mut self) -> u64 {
        if self.rate == 1.0 {
            return 1;
        }
        let u = 1.0 - self.rng.gen::<f64>();
        ((u.ln() / self.ln_q) as u64).saturating_add(1)
    }

    fn schedule(&mut self, node: usize, due: u64) {
        let words = self.generated.len().div_ceil(64);
        self.due[node] = due;
        self.calendar[(due % 64) as usize * words + node / 64] |= 1 << (node % 64);
    }
}

impl TrafficSource for BernoulliSource {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        let words = self.generated.len().div_ceil(64);
        if self.calendar.is_empty() {
            self.calendar = vec![0; 64 * words];
            if self.packets_per_pe > 0 {
                for node in 0..self.generated.len() {
                    let due = cycle.saturating_add(self.gap() - 1);
                    self.schedule(node, due);
                }
            }
        }
        let slot = (cycle % 64) as usize * words;
        for w in 0..words {
            let mut bits = self.calendar[slot + w];
            while bits != 0 {
                let node = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.due[node] > cycle {
                    continue;
                }
                self.calendar[slot + w] &= !(1 << (node % 64));
                let src = Coord::from_node_id(node, self.n);
                let dst = self.pattern.destination(src, self.n, &mut self.rng);
                queues.push(node, dst, cycle, 0);
                self.generated[node] += 1;
                if self.generated[node] == self.packets_per_pe {
                    self.remaining_pes -= 1;
                } else {
                    let due = cycle.saturating_add(self.gap());
                    self.schedule(node, due);
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

/// A closed batch: every message pushed at cycle 0, in the order given.
/// Its makespan is the workload completion time, the metric behind the
/// paper's accelerator case studies.
pub(crate) fn batch_source(n: u16, messages: Vec<Message>) -> ReplaySource {
    let at_start = |Message { src, dst, tag }| ScenarioRecord {
        cycle: 0,
        src,
        dst,
        tag,
    };
    ReplaySource::new(n, messages.into_iter().map(at_start).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_generates_exact_quota() {
        let mut src = BernoulliSource::new(4, Pattern::Random, 0.5, 10, 3);
        assert_eq!(src.packets_per_pe * src.generated.len() as u64, 160);
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

    /// Pumps cycles `from..to` and returns each PE's arrival cycles. It
    /// also checks that every packet is stamped with the cycle that
    /// pushed it and that one cycle's pushes ascend by node (ids are
    /// handed out in push order).
    fn arrivals(src: &mut impl TrafficSource, nodes: usize, from: u64, to: u64) -> Vec<Vec<u64>> {
        let mut q = InjectQueues::new(nodes);
        let mut out = vec![Vec::new(); nodes];
        for cycle in from..to {
            src.pump(cycle, &mut q);
            let mut last = None;
            for (node, seen) in out.iter_mut().enumerate() {
                while let Some(p) = q.pop(node) {
                    assert_eq!(p.enqueued_at, cycle);
                    assert!(last < Some(p.id), "cycle {cycle}: pushes out of node order");
                    last = Some(p.id);
                    seen.push(cycle);
                }
            }
        }
        out
    }

    /// Per-PE arrival counts in consecutive `window`-cycle windows of
    /// `0..cycles`.
    fn window_counts(arrivals: &[Vec<u64>], window: u64, cycles: u64) -> Vec<Vec<f64>> {
        arrivals
            .iter()
            .map(|cycles_of_pe| {
                let mut counts = vec![0.0; (cycles / window) as usize];
                for &c in cycles_of_pe {
                    counts[(c / window) as usize] += 1.0;
                }
                counts
            })
            .collect()
    }

    fn mean_var(xs: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
        let n = xs.clone().count() as f64;
        let mean = xs.clone().sum::<f64>() / n;
        let var = xs.map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    const RATES: [f64; 4] = [0.02, 0.1, 0.5, 0.9];
    /// 8×8 PEs, 400 windows of 50 cycles: 25 600 window counts a rate.
    const SIDE: u16 = 8;
    const NODES: usize = 64;
    const WINDOW: u64 = 50;
    const CYCLES: u64 = 20_000;

    #[test]
    fn window_counts_match_the_per_cycle_process() {
        // Counts in a `WINDOW`-cycle window are Binomial(WINDOW, p), as
        // under one coin per PE per cycle. Each comparison allows four
        // standard errors: of the mean, sqrt(var / N); of the variance,
        // var·sqrt((2 + κ) / N) with κ the binomial's excess kurtosis.
        for (i, &p) in RATES.iter().enumerate() {
            let mut src = BernoulliSource::new(SIDE, Pattern::Random, p, u64::MAX, 40 + i as u64);
            let w = WINDOW as f64;
            let (mu, var) = (w * p, w * p * (1.0 - p));
            let samples = (NODES as u64 * CYCLES / WINDOW) as f64;
            let kurtosis = (1.0 - 6.0 * p * (1.0 - p)) / var;
            let se_mean = (var / samples).sqrt();
            let se_var = var * ((2.0 + kurtosis) / samples).sqrt();
            let counts = window_counts(&arrivals(&mut src, NODES, 0, CYCLES), WINDOW, CYCLES);
            let (m, v) = mean_var(counts.iter().flatten().copied());
            assert!((m - mu).abs() < 4.0 * se_mean, "p={p}: mean {m} vs {mu}");
            assert!(
                (v - var).abs() < 4.0 * se_var,
                "p={p}: variance {v} vs {var}"
            );
        }
    }

    #[test]
    fn gaps_are_geometric() {
        // Pearson's chi-square of the inter-arrival histogram against
        // Geom(p): one bin per gap length while it expects at least 10
        // gaps (at most 30 bins), one tail bin for the rest. The first
        // arrival's gap counts from cycle -1. The critical value is
        // chi-square's 99.9 % quantile (Wilson–Hilferty, z = 3.09).
        for (i, &p) in RATES.iter().enumerate() {
            let mut src = BernoulliSource::new(SIDE, Pattern::Random, p, u64::MAX, 70 + i as u64);
            let mut gaps = Vec::new();
            for cycles in arrivals(&mut src, NODES, 0, CYCLES) {
                let mut prev = -1i64;
                for c in cycles {
                    gaps.push((c as i64 - prev) as u64);
                    prev = c as i64;
                }
            }
            let total = gaps.len() as f64;
            let mut expected = Vec::new();
            let mut tail = 1.0; // P(G ≥ k)
            while expected.len() < 30 && total * tail * p >= 10.0 {
                expected.push(total * tail * p);
                tail *= 1.0 - p;
            }
            expected.push(total * tail);
            let last = expected.len() - 1;
            let mut observed = vec![0.0; expected.len()];
            for g in gaps {
                observed[(g as usize - 1).min(last)] += 1.0;
            }
            let chi2: f64 = observed
                .iter()
                .zip(&expected)
                .map(|(o, e)| (o - e).powi(2) / e)
                .sum();
            let df = last as f64;
            let h = 2.0 / (9.0 * df);
            let critical = df * (1.0 - h + 3.09 * h.sqrt()).powi(3);
            assert!(
                chi2 < critical,
                "p={p}: chi2 {chi2:.1} ≥ {critical:.1} at {df} df"
            );
        }
    }

    #[test]
    fn pe_counts_are_uncorrelated() {
        // Pearson correlation of every pair of PEs' window counts: one
        // pair's standard error is 1/sqrt(400) = 0.05, the mean over
        // 2016 pairs' about 0.0011.
        for (i, &p) in [0.1, 0.5].iter().enumerate() {
            let mut src = BernoulliSource::new(SIDE, Pattern::Random, p, u64::MAX, 90 + i as u64);
            let counts = window_counts(&arrivals(&mut src, NODES, 0, CYCLES), WINDOW, CYCLES);
            let centred: Vec<Vec<f64>> = counts
                .iter()
                .map(|c| {
                    let (m, v) = mean_var(c.iter().copied());
                    c.iter().map(|x| (x - m) / v.sqrt()).collect()
                })
                .collect();
            let windows = (CYCLES / WINDOW) as f64;
            let (mut sum, mut max, mut pairs) = (0.0, 0.0f64, 0.0);
            for a in 0..NODES {
                for b in a + 1..NODES {
                    let r = centred[a]
                        .iter()
                        .zip(&centred[b])
                        .map(|(x, y)| x * y)
                        .sum::<f64>()
                        / (windows - 1.0);
                    sum += r;
                    max = max.max(r.abs());
                    pairs += 1.0;
                }
            }
            assert!(
                (sum / pairs).abs() < 0.005,
                "p={p}: mean correlation {}",
                sum / pairs
            );
            assert!(max < 0.25, "p={p}: max |correlation| {max}");
        }
    }

    #[test]
    fn unit_rate_fires_every_pe_every_cycle_without_a_gap_draw() {
        let mut src = BernoulliSource::new(4, Pattern::Random, 1.0, 5, 9);
        let mut q = InjectQueues::new(16);
        // The only draws are the destinations, in cycle and node order.
        let mut rng = SmallRng::seed_from_u64(9);
        for cycle in 0..8 {
            assert_eq!(src.exhausted(), cycle >= 5);
            src.pump(cycle, &mut q);
            for node in 0..16 {
                if cycle < 5 {
                    let want =
                        Pattern::Random.destination(Coord::from_node_id(node, 4), 4, &mut rng);
                    assert_eq!(
                        q.pop(node).map(|p| (p.dst, p.enqueued_at)),
                        Some((want, cycle))
                    );
                }
                assert_eq!(q.pop(node), None);
            }
        }
    }

    /// Pumps until exhausted, checking after every cycle that
    /// `exhausted()` holds exactly when every PE has reached `quota`,
    /// then that nothing arrives afterwards.
    fn check_quota(src: &mut impl TrafficSource, quota: u64) {
        let mut q = InjectQueues::new(16);
        let mut per_pe = [0u64; 16];
        let mut cycle = 0;
        loop {
            src.pump(cycle, &mut q);
            for (node, count) in per_pe.iter_mut().enumerate() {
                while q.pop(node).is_some() {
                    *count += 1;
                }
            }
            assert!(per_pe.iter().all(|&c| c <= quota));
            assert_eq!(src.exhausted(), per_pe.iter().all(|&c| c == quota));
            cycle += 1;
            if src.exhausted() {
                break;
            }
            assert!(cycle < 100_000, "quota never reached");
        }
        for c in cycle..cycle + 200 {
            src.pump(c, &mut q);
        }
        assert_eq!(q.total_enqueued(), 16 * quota);
    }

    #[test]
    fn quota_and_exhaustion_agree() {
        for (rate, quota, seed) in [(0.3, 7, 1), (0.05, 3, 2), (1.0, 4, 3), (0.5, 1, 4)] {
            check_quota(
                &mut BernoulliSource::new(4, Pattern::Random, rate, quota, seed),
                quota,
            );
        }
        let mut none = BernoulliSource::new(4, Pattern::Random, 0.5, 0, 1);
        assert!(none.exhausted());
        assert!(arrivals(&mut none, 16, 0, 100).iter().all(Vec::is_empty));
    }

    #[test]
    fn gaps_past_the_end_of_time_saturate() {
        // `1 - 1e-300` rounds to 1, so only `ln_1p` keeps these gaps huge
        // instead of zero; `1e-20` draws gaps past `u64::MAX`. Both start
        // 5 000 cycles before the end of time, so their first
        // `cycle + gap` overflows unless it saturates (a debug build
        // traps it); neither fires, though the calendar laps many times.
        for rate in [1e-300, 1e-20] {
            let mut src = BernoulliSource::new(4, Pattern::Random, rate, 1, 5);
            let seen = arrivals(&mut src, 16, u64::MAX - 5_000, u64::MAX);
            assert!(seen.iter().all(Vec::is_empty), "rate {rate} fired");
            assert!(!src.exhausted());
        }
        // At 5 % every PE arrives near the end and its next gap runs
        // past it: 1 600 arrivals expected, standard deviation 39.
        let mut src = BernoulliSource::new(4, Pattern::Random, 0.05, u64::MAX, 5);
        let seen = arrivals(&mut src, 16, u64::MAX - 2_000, u64::MAX);
        let total = seen.iter().map(Vec::len).sum::<usize>();
        assert!(total.abs_diff(1_600) < 160, "{total} arrivals");
    }

    #[test]
    #[should_panic(expected = "out of (0,1]")]
    fn zero_rate_rejected() {
        BernoulliSource::new(4, Pattern::Random, 0.0, 1, 0);
    }

    #[test]
    fn batch_source_end_to_end() {
        use fasttrack_core::config::NocConfig;
        use fasttrack_core::sim::SimSession;
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
        // Every message is pushed by the first pump, whatever its cycle.
        let mut src = batch_source(4, msgs.clone());
        let mut q = InjectQueues::new(16);
        src.pump(3, &mut q);
        assert_eq!(q.total_enqueued(), 3);
        assert!(src.exhausted());
        let report = SimSession::new(&NocConfig::hoplite(4).unwrap())
            .run(&mut batch_source(4, msgs))
            .unwrap()
            .report;
        assert!(!report.truncated);
        assert_eq!(report.stats.delivered, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_bounds_checked() {
        batch_source(
            2,
            vec![Message {
                src: 0,
                dst: 99,
                tag: 0,
            }],
        );
    }
}
