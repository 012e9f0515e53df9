//! The host-time estimator: round-robin passes, minimum per job, sum of
//! minima per workload.
//!
//! The simulator is deterministic and single-threaded, so host noise is
//! strictly additive: the fastest of K runs of a job is the best
//! estimate of its cost, and the median is not (on the reference box the
//! median of identical runs moved +-70 % between sets while the minimum
//! moved +-3 %, because the host alternates between a fast and a slow
//! mode in phases of 2-5 s). Running the job list round-robin
//! (A,B,C,A,B,C,...) spreads each job's K samples over the whole run, so
//! no single slow phase can cover all samples of any job.

use std::time::{Duration, Instant};

/// Samples above this multiple of their job's minimum count as taken in
/// a slow phase of the host.
const SLOW_PHASE_FACTOR: f64 = 1.3;

/// How long the round-robin loop keeps sampling.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Keep starting passes until this much time has gone by...
    pub time: Duration,
    /// ...but take at least this many passes...
    pub min_passes: usize,
    /// ...and never more than this many.
    pub max_passes: usize,
}

/// Per-job samples in seconds, one per pass, in pass order.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    pub times: Vec<Vec<f64>>,
}

impl Samples {
    pub fn passes(&self) -> usize {
        self.times.first().map_or(0, Vec::len)
    }

    pub fn min(&self, job: usize) -> f64 {
        self.times[job]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self, job: usize) -> f64 {
        self.times[job].iter().copied().fold(0.0, f64::max)
    }

    pub fn median(&self, job: usize) -> f64 {
        median(&self.times[job])
    }

    /// The workload estimate: each job at its fastest, summed.
    pub fn sum_of_minima(&self, jobs: impl IntoIterator<Item = usize>) -> f64 {
        jobs.into_iter().map(|j| self.min(j)).sum()
    }

    /// Largest `median / min` over the given jobs: how far the typical
    /// sample sat from the estimate.
    pub fn spread_max(&self, jobs: impl IntoIterator<Item = usize>) -> f64 {
        jobs.into_iter()
            .map(|j| self.median(j) / self.min(j))
            .fold(1.0, f64::max)
    }

    /// Share of all samples of the given jobs taken in a slow phase.
    pub fn slow_phase_frac(&self, jobs: impl IntoIterator<Item = usize>) -> f64 {
        let (mut slow, mut all) = (0usize, 0usize);
        for j in jobs {
            let floor = self.min(j) * SLOW_PHASE_FACTOR;
            slow += self.times[j].iter().filter(|&&t| t > floor).count();
            all += self.times[j].len();
        }
        if all == 0 {
            0.0
        } else {
            slow as f64 / all as f64
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Runs `jobs` closures round-robin until the budget is spent. `run(j)`
/// executes job `j` once and returns the seconds it wants recorded (so a
/// job can keep its own verification outside the timed region); the
/// first error stops the loop.
pub fn round_robin<E>(
    jobs: usize,
    budget: Budget,
    mut run: impl FnMut(usize) -> Result<f64, E>,
) -> Result<Samples, E> {
    let mut samples = Samples {
        times: vec![Vec::new(); jobs],
    };
    let start = Instant::now();
    let mut passes = 0;
    while passes < budget.max_passes
        && (passes < budget.min_passes || start.elapsed() < budget.time)
    {
        for (j, times) in samples.times.iter_mut().enumerate() {
            times.push(run(j)?);
        }
        passes += 1;
    }
    Ok(samples)
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The noise model measured on the reference box: a fast mode and a
    /// ~1.75x slow mode, in phases several samples long, plus jitter.
    fn bimodal(fast: f64, n: usize, mut state: u64) -> Vec<f64> {
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut out = Vec::new();
        let mut slow = false;
        while out.len() < n {
            let phase = 3 + (next() * 5.0) as usize;
            for _ in 0..phase.min(n - out.len()) {
                let mode = if slow { 1.75 } else { 1.0 };
                out.push(fast * mode * (1.0 + 0.015 * next()));
            }
            slow = !slow;
        }
        out
    }

    #[test]
    fn sum_of_minima_recovers_the_fast_mode_of_a_bimodal_series() {
        let fast = [0.150, 0.260, 0.040];
        for seed in 1..20u64 {
            let samples = Samples {
                times: fast
                    .iter()
                    .enumerate()
                    .map(|(j, &f)| bimodal(f, 25, seed * 31 + j as u64))
                    .collect(),
            };
            let truth: f64 = fast.iter().sum();
            let est = samples.sum_of_minima(0..3);
            assert!(
                (est / truth - 1.0).abs() < 0.02,
                "seed {seed}: estimated {est}, fast mode {truth}"
            );
            // The median would not: half the samples sit in the slow mode.
            let medians: f64 = (0..3).map(|j| samples.median(j)).sum();
            assert!(medians >= est);
            assert!(samples.slow_phase_frac(0..3) > 0.2);
            assert!(samples.spread_max(0..3) >= 1.0);
        }
    }

    #[test]
    fn round_robin_interleaves_jobs_and_honours_the_pass_limits() {
        let mut order = Vec::new();
        let budget = Budget {
            time: Duration::ZERO,
            min_passes: 3,
            max_passes: 10,
        };
        let samples = round_robin::<()>(2, budget, |j| {
            order.push(j);
            Ok(j as f64 + 1.0)
        })
        .unwrap();
        assert_eq!(order, [0, 1, 0, 1, 0, 1]);
        assert_eq!(samples.passes(), 3);
        assert_eq!(samples.sum_of_minima(0..2), 3.0);

        let capped = Budget {
            time: Duration::from_secs(3600),
            min_passes: 1,
            max_passes: 4,
        };
        let samples = round_robin::<()>(1, capped, |_| Ok(1.0)).unwrap();
        assert_eq!(samples.passes(), 4);
    }

    #[test]
    fn round_robin_stops_at_the_first_error() {
        let budget = Budget {
            time: Duration::ZERO,
            min_passes: 5,
            max_passes: 5,
        };
        let mut calls = 0;
        let out = round_robin(2, budget, |j| {
            calls += 1;
            if calls == 4 {
                Err(j)
            } else {
                Ok(0.0)
            }
        });
        assert_eq!(out.unwrap_err(), 1);
    }

    #[test]
    fn median_of_even_and_odd_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
