//! Deterministic parallel sweep execution.
//!
//! Every figure of the paper is a sweep over independent simulation
//! points (`(topology, D, R, pattern, rate)` tuples). This module runs
//! such point sets on a work-stealing pool of scoped OS threads while
//! keeping the results **bit-identical to a sequential run**:
//!
//! * Each point's RNG seed is derived from a base seed and the point's
//!   *index* via a SplitMix64 hash ([`point_seed`]) — never from thread
//!   identity, scheduling order, or ambient entropy.
//! * Results are written into a slot addressed by the point's index and
//!   merged in index order, so the output vector is independent of which
//!   worker computed which point.
//!
//! Together these make `sweep(items, 1, f)` and `sweep(items, 64, f)`
//! produce byte-identical output for any pure `f`, which is what the
//! determinism regression tests assert on the exported CSVs.
//!
//! Observability composes with this per point: each point runs its own
//! [`crate::monitor::HealthMonitor`] and returns the
//! [`crate::monitor::HealthSummary`] as part of its result slot, so
//! summaries come back merged by point index.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// One step of the SplitMix64 sequence: mixes `state` into a
/// well-distributed 64-bit value (finalizer from Steele et al.,
/// "Fast Splittable Pseudorandom Number Generators").
///
/// Used as a hash: it is bijective on `u64`, so distinct point indices
/// can never collide into the same derived seed.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 hash of a byte string: `splitmix64(len)`, then one round
/// per byte. The sweep journal checksums its rows with it and scenario
/// traces their lines, so both file formats depend on its exact value.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = splitmix64(bytes.len() as u64);
    for &b in bytes {
        h = splitmix64(h ^ u64::from(b));
    }
    h
}

/// Derives the RNG seed for sweep point `index` from `base_seed`.
///
/// The double hash decorrelates both arguments: neighbouring indices
/// under the same base seed, and the same index under neighbouring base
/// seeds, yield unrelated streams.
pub fn point_seed(base_seed: u64, index: usize) -> u64 {
    splitmix64(base_seed.wrapping_add(splitmix64(index as u64)))
}

/// Runs `f` over `items` on `threads` workers, returning results in
/// item order regardless of thread count or scheduling.
///
/// `f` receives `(index, item)` so callers can derive per-point seeds
/// with [`point_seed`]. Work distribution: the index space is split
/// into one contiguous range per worker; a worker that exhausts its own
/// range steals from the victim with the most work remaining. Stealing
/// only changes *who* computes a point, never *what* is computed, so a
/// pure `f` makes the output deterministic by construction.
///
/// `threads == 0` is treated as 1. Panics in `f` propagate (the scope
/// joins all workers first).
pub fn sweep<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        // Sequential golden path: no pool, same results by definition.
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    // Task and result slots are addressed by point index; the mutexes
    // only guard the hand-off of each slot to exactly one worker.
    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    // Per-worker contiguous ranges `[claimed, end)`; `claimed` is the
    // shared cursor both the owner and thieves advance.
    let ranges: Vec<(AtomicUsize, usize)> = (0..threads)
        .map(|w| (AtomicUsize::new(w * n / threads), (w + 1) * n / threads))
        .collect();

    std::thread::scope(|scope| {
        for w in 0..threads {
            let (f, tasks, results, ranges) = (&f, &tasks, &results, &ranges);
            scope.spawn(move || loop {
                // Prefer the worker's own range; once dry, steal from
                // the victim with the most indices left.
                let victim = if ranges[w].0.load(Ordering::Relaxed) < ranges[w].1 {
                    w
                } else {
                    let best = ranges
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, (next, end))| {
                            end.saturating_sub(next.load(Ordering::Relaxed))
                        })
                        .map(|(v, _)| v)
                        .unwrap();
                    let (next, end) = &ranges[best];
                    if next.load(Ordering::Relaxed) >= *end {
                        break; // every range is exhausted
                    }
                    best
                };
                let i = ranges[victim].0.fetch_add(1, Ordering::Relaxed);
                if i >= ranges[victim].1 {
                    continue; // lost the claim race; re-scan
                }
                // A panic in `f` on another worker poisons nothing we
                // depend on, but the slot mutexes could still be
                // poisoned if that panic unwound through a lock; recover
                // the guard instead of compounding the failure (a
                // second panic while the first unwinds aborts the
                // process and kills the whole grid).
                if let Some(item) = tasks[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                {
                    let r = f(i, item);
                    *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every sweep slot is filled before the scope joins")
        })
        .collect()
}

/// Why a sweep point failed after all retry attempts were spent.
///
/// Returned (never thrown) by [`sweep_fallible`]: one point failing
/// leaves every other point's result intact, so a grid with a panicking
/// configuration still yields typed errors for the bad rows and
/// byte-identical results for the healthy ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The point's closure panicked on every attempt.
    Panicked {
        /// The final attempt's panic payload (if it was a string).
        message: String,
        /// Total attempts made (initial run plus retries).
        attempts: u32,
    },
    /// The point exceeded its cycle budget (the watchdog converted a
    /// suspected livelock into an error instead of spinning forever).
    BudgetExceeded {
        /// The cycle budget that was exhausted.
        budget: u64,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Panicked { message, attempts } => {
                write!(f, "point panicked after {attempts} attempt(s): {message}")
            }
            SweepError::BudgetExceeded { budget } => {
                write!(f, "point exceeded its cycle budget of {budget}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Derives the RNG seed for retry `attempt` of sweep point `index`.
///
/// Attempt 0 is exactly [`point_seed`], so a run with retries disabled
/// (or where no point ever fails) is bit-identical to the original
/// sweep. Later attempts fold the attempt number into the base seed
/// first, giving each retry a fresh but fully deterministic stream —
/// resuming a journaled sweep replays the same seeds.
pub fn retry_seed(base_seed: u64, index: usize, attempt: u32) -> u64 {
    if attempt == 0 {
        point_seed(base_seed, index)
    } else {
        point_seed(base_seed ^ splitmix64(u64::from(attempt)), index)
    }
}

/// Runs one point: up to `1 + retries` attempts, panics caught.
fn run_point<T, R, F>(f: &F, i: usize, item: &T, retries: u32) -> Result<R, SweepError>
where
    F: Fn(usize, u32, &T) -> Result<R, SweepError> + Sync,
{
    let mut last = SweepError::Panicked {
        message: String::new(),
        attempts: 0,
    };
    for attempt in 0..=retries {
        match catch_unwind(AssertUnwindSafe(|| f(i, attempt, item))) {
            Ok(Ok(r)) => return Ok(r),
            Ok(Err(e)) => last = e,
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                last = SweepError::Panicked {
                    message,
                    attempts: attempt + 1,
                };
            }
        }
    }
    Err(last)
}

/// [`sweep`] with per-point panic isolation, bounded retry, and typed
/// errors.
///
/// `f` receives `(index, attempt, &item)` and should derive its RNG
/// seed with [`retry_seed`] so attempt 0 matches a plain [`sweep`]'s
/// [`point_seed`] stream. Each point gets up to `1 + retries` attempts;
/// a panic is caught (on the worker that ran it — the rest of the pool
/// keeps draining the grid) and retried with the next attempt number.
/// A point that fails every attempt comes back as `Err` in its slot
/// while every other slot is unaffected, so the result vector always
/// has exactly `items.len()` entries in item order for any thread
/// count.
///
/// `done(&item, &result)` runs once per item, on the worker that ran
/// it, as soon as the item's final result is known — the place for
/// per-point side effects (a crash-safe journal append) that must not
/// wait for the whole sweep.
pub fn sweep_fallible<T, R, F, H>(
    items: Vec<T>,
    threads: usize,
    retries: u32,
    f: F,
    done: H,
) -> Vec<Result<R, SweepError>>
where
    T: Send + Sync,
    R: Send,
    F: Fn(usize, u32, &T) -> Result<R, SweepError> + Sync,
    H: Fn(&T, &Result<R, SweepError>) + Sync,
{
    sweep(items, threads, |i, item| {
        let result = run_point(&f, i, &item, retries);
        done(&item, &result);
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answers() {
        // Reference values of the canonical SplitMix64 stream seeded 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        let s1 = 0x9E37_79B9_7F4A_7C15u64;
        assert_eq!(splitmix64(s1), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn splitmix64_is_injective_on_small_range() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }

    #[test]
    fn point_seeds_are_distinct_and_stable() {
        let a = point_seed(42, 0);
        let b = point_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, point_seed(42, 0), "seed derivation must be pure");
        assert_ne!(point_seed(43, 0), a, "base seed must matter");
    }

    #[test]
    fn sweep_preserves_order_for_any_thread_count() {
        let expect: Vec<u64> = (0..257).map(|i| point_seed(7, i)).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = sweep((0..257).collect(), threads, |i, _item: usize| {
                point_seed(7, i)
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn sweep_handles_degenerate_sizes() {
        assert_eq!(sweep(Vec::<u8>::new(), 8, |_, x| x), Vec::<u8>::new());
        assert_eq!(sweep(vec![5], 8, |_, x: i32| x * 2), vec![10]);
        assert_eq!(sweep(vec![1, 2], 0, |_, x: i32| x + 1), vec![2, 3]);
    }

    #[test]
    fn retry_seed_attempt_zero_matches_point_seed() {
        for i in 0..32 {
            assert_eq!(retry_seed(42, i, 0), point_seed(42, i));
            assert_ne!(retry_seed(42, i, 1), point_seed(42, i));
            assert_ne!(retry_seed(42, i, 1), retry_seed(42, i, 2));
        }
        assert_eq!(retry_seed(42, 3, 2), retry_seed(42, 3, 2), "pure");
    }

    /// Suppresses the default panic hook's stderr spam for the tests
    /// below that panic on purpose. Installed once and filtered by
    /// thread name (libtest names worker threads after the test, and
    /// `sweep` names nothing — scoped workers inherit no name), so
    /// parallel test execution cannot race a save/restore pair.
    fn silence_intentional_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let intentional = std::thread::current()
                    .name()
                    .is_none_or(|n| n.contains("sweep_fallible"));
                if !intentional {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn sweep_fallible_isolates_panics_per_point() {
        silence_intentional_panics();
        for threads in [1, 2, 8] {
            let out = sweep_fallible(
                (0..16u64).collect(),
                threads,
                0,
                |i, attempt, &x| {
                    if i == 5 {
                        panic!("point 5 is broken");
                    }
                    if i == 9 {
                        return Err(SweepError::BudgetExceeded { budget: 1000 });
                    }
                    Ok((x, attempt))
                },
                |_, _| {},
            );
            assert_eq!(out.len(), 16, "threads={threads}");
            for (i, r) in out.iter().enumerate() {
                match i {
                    5 => assert_eq!(
                        *r,
                        Err(SweepError::Panicked {
                            message: "point 5 is broken".into(),
                            attempts: 1
                        })
                    ),
                    9 => assert_eq!(*r, Err(SweepError::BudgetExceeded { budget: 1000 })),
                    _ => assert_eq!(*r, Ok((i as u64, 0))),
                }
            }
        }
    }

    #[test]
    fn sweep_fallible_retries_with_fresh_attempt_numbers() {
        silence_intentional_panics();
        // Succeeds only on attempt 2: the retry loop must reach it and
        // report which attempt produced the result.
        let out = sweep_fallible(
            vec![7u64],
            1,
            3,
            |_i, attempt, &x| {
                if attempt < 2 {
                    panic!("flaky");
                }
                Ok((x, attempt))
            },
            |_, _| {},
        );
        assert_eq!(out, vec![Ok((7, 2))]);
        // Exhausted retries keep the last failure, with the total count.
        let out = sweep_fallible(
            vec![7u64],
            1,
            2,
            |_i, _attempt, _x| -> Result<(), _> { panic!("always") },
            |_, _| {},
        );
        assert_eq!(
            out,
            vec![Err(SweepError::Panicked {
                message: "always".into(),
                attempts: 3
            })]
        );
    }

    #[test]
    fn sweep_fallible_results_are_thread_invariant() {
        silence_intentional_panics();
        let run = |threads| {
            sweep_fallible(
                (0..64u64).collect(),
                threads,
                1,
                |i, attempt, _x| {
                    if i % 13 == 3 && attempt == 0 {
                        panic!("transient");
                    }
                    Ok(retry_seed(9, i, attempt))
                },
                |_, _| {},
            )
        };
        let golden = run(1);
        assert_eq!(run(2), golden);
        assert_eq!(run(8), golden);
    }

    #[test]
    fn sweep_with_uneven_work_still_ordered() {
        // Front-loaded costs force stealing; order must survive it.
        let items: Vec<u64> = (0..64).collect();
        let out = sweep(items, 8, |i, x| {
            let spin = if i < 8 { 200_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spin {
                acc = splitmix64(acc);
            }
            (i as u64, acc)
        });
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
        }
    }
}
