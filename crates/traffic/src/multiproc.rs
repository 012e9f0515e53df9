//! Multi-processor overlay traffic (paper Figure 15d).
//!
//! The paper replays SNIPER/PARSEC communication traces on a 32-PE
//! processor overlay. We synthesize per-benchmark traffic with matched
//! first-order characteristics — per-PE message intensity, locality (how
//! much traffic stays within a small neighborhood, e.g. `freqmine` is
//! "predominantly local" and gains nothing from a faster NoC), and a
//! shared-data hotspot component (coherence directories / shared heap).

use fasttrack_core::geom::Coord;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::scenario::{ReplaySource, ScenarioRecord};

/// Traffic profile of one PARSEC benchmark on the overlay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParsecProfile {
    /// Benchmark name as in the paper.
    pub name: &'static str,
    /// Messages generated per PE.
    pub messages_per_pe: u32,
    /// Probability a message targets a neighbor within the local radius.
    pub locality: f64,
    /// Probability a (non-local) message targets the hotspot set
    /// (shared-data homes).
    pub hotspot: f64,
    /// Mean cycles between message generations at one PE (compute/comm
    /// ratio; larger = sparser traffic).
    pub think_cycles: f64,
}

/// The Figure 15d suite (32 PEs). Locality/intensity follow the paper's
/// qualitative description: `freqmine` is local-dominated; `x264`,
/// `dedup`, and `vips` ship lots of shared data around.
pub fn parsec_benchmarks() -> Vec<ParsecProfile> {
    vec![
        ParsecProfile {
            name: "x264",
            messages_per_pe: 4000,
            locality: 0.15,
            hotspot: 0.35,
            think_cycles: 2.0,
        },
        ParsecProfile {
            name: "vips",
            messages_per_pe: 3500,
            locality: 0.25,
            hotspot: 0.30,
            think_cycles: 2.5,
        },
        ParsecProfile {
            name: "freqmine",
            messages_per_pe: 2500,
            locality: 0.85,
            hotspot: 0.05,
            think_cycles: 4.0,
        },
        ParsecProfile {
            name: "fluidanimate",
            messages_per_pe: 3000,
            locality: 0.55,
            hotspot: 0.15,
            think_cycles: 3.0,
        },
        ParsecProfile {
            name: "dedup",
            messages_per_pe: 3800,
            locality: 0.20,
            hotspot: 0.40,
            think_cycles: 2.0,
        },
        ParsecProfile {
            name: "blackscholes",
            messages_per_pe: 2000,
            locality: 0.40,
            hotspot: 0.20,
            think_cycles: 5.0,
        },
    ]
}

/// Generates the timed message trace of a profile on an `n × n` overlay
/// (the paper uses 32 PEs; pass the NoC side that hosts them).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn parsec_trace(profile: &ParsecProfile, n: u16, seed: u64) -> ReplaySource {
    assert!(n >= 2);
    let pes = n as usize * n as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    // Hotspot homes: a handful of PEs holding hot shared lines.
    let hotspots: Vec<usize> = (0..4).map(|_| rng.gen_range(0..pes)).collect();
    let mut events = Vec::with_capacity(pes * profile.messages_per_pe as usize);
    for pe in 0..pes {
        let src = Coord::from_node_id(pe, n);
        let mut t = 0u64;
        for _ in 0..profile.messages_per_pe {
            // Exponential-ish inter-arrival via geometric sampling.
            t += 1 + (profile.think_cycles * -(1.0 - rng.gen::<f64>()).ln()) as u64;
            let r: f64 = rng.gen();
            let dst = if r < profile.locality {
                // Neighbor within radius 1 (torus).
                let dx = rng.gen_range(-1i32..=1);
                let dy = rng.gen_range(-1i32..=1);
                let x = (src.x as i32 + dx).rem_euclid(n as i32) as u16;
                let y = (src.y as i32 + dy).rem_euclid(n as i32) as u16;
                Coord::new(x, y).to_node_id(n)
            } else if r < profile.locality + profile.hotspot {
                hotspots[rng.gen_range(0..hotspots.len())]
            } else {
                rng.gen_range(0..pes)
            };
            events.push(ScenarioRecord {
                cycle: t,
                src: pe,
                dst,
                tag: 0,
            });
        }
    }
    // Stable: one cycle's messages push in PE order.
    events.sort_by_key(|r| r.cycle);
    ReplaySource::new(n, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasttrack_core::config::{FtPolicy, NocConfig};
    use fasttrack_core::queue::InjectQueues;
    use fasttrack_core::sim::{SimOptions, SimSession, TrafficSource};

    #[test]
    fn suite_has_six_benchmarks() {
        let b = parsec_benchmarks();
        assert_eq!(b.len(), 6);
        let freqmine = b.iter().find(|p| p.name == "freqmine").unwrap();
        assert!(freqmine.locality > 0.8, "freqmine must be local-dominated");
    }

    #[test]
    fn trace_generates_expected_volume() {
        let profile = ParsecProfile {
            name: "test",
            messages_per_pe: 100,
            locality: 0.5,
            hotspot: 0.2,
            think_cycles: 1.0,
        };
        let mut trace = parsec_trace(&profile, 4, 1);
        let mut q = InjectQueues::new(16);
        trace.pump(u64::MAX, &mut q);
        assert_eq!(q.total_enqueued(), 1600);
    }

    #[test]
    fn locality_profile_respected() {
        let local = ParsecProfile {
            name: "local",
            messages_per_pe: 500,
            locality: 1.0,
            hotspot: 0.0,
            think_cycles: 1.0,
        };
        let mut trace = parsec_trace(&local, 6, 2);
        let mut q = InjectQueues::new(36);
        trace.pump(u64::MAX, &mut q);
        // All destinations within radius 1 of their source.
        for node in 0..36usize {
            let src = Coord::from_node_id(node, 6);
            while let Some(p) = q.pop(node) {
                let dx = (p.dst.x as i32 - src.x as i32)
                    .rem_euclid(6)
                    .min((src.x as i32 - p.dst.x as i32).rem_euclid(6));
                let dy = (p.dst.y as i32 - src.y as i32)
                    .rem_euclid(6)
                    .min((src.y as i32 - p.dst.y as i32).rem_euclid(6));
                assert!(dx <= 1 && dy <= 1, "non-local message {src} -> {}", p.dst);
            }
        }
    }

    #[test]
    fn overlay_workload_completes_on_both_nocs() {
        let profile = parsec_benchmarks()[5]; // blackscholes, smallest
        let opts = SimOptions::default();
        let mut t1 = parsec_trace(&profile, 4, 3);
        let hoplite = SimSession::new(&NocConfig::hoplite(4).unwrap())
            .options(opts)
            .run(&mut t1)
            .unwrap()
            .report;
        let mut t2 = parsec_trace(&profile, 4, 3);
        let ft = SimSession::new(&NocConfig::fasttrack(4, 2, 1, FtPolicy::Full).unwrap())
            .options(opts)
            .run(&mut t2)
            .unwrap()
            .report;
        assert!(!hoplite.truncated && !ft.truncated);
        assert_eq!(hoplite.stats.delivered, ft.stats.delivered);
        assert!(ft.cycles <= hoplite.cycles, "FT slower on overlay traffic");
    }
}
