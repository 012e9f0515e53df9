//! Fixtures the integration tests share: random packet batches, a source
//! that queues one batch on its first cycle, and small valid FastTrack
//! shapes. Each test binary uses only part of this module.
#![allow(dead_code)]

use fasttrack_core::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Arbitrary FastTrack configuration with the paper's validity rules
/// (`D % R == 0`, `R` tiles the ring) enforced by construction.
pub(crate) fn arb_ft_config() -> impl Strategy<Value = NocConfig> {
    (2u16..=3, any::<u8>(), any::<bool>()).prop_map(|(n_exp, sel, full)| {
        let n = 1u16 << n_exp; // 4 or 8
        let policy = if full {
            FtPolicy::Full
        } else {
            FtPolicy::Inject
        };
        let mut variants = Vec::new();
        for d in 1..=n / 2 {
            for r in 1..=d {
                if d % r == 0 && n.is_multiple_of(r) {
                    variants.push((d, r));
                }
            }
        }
        let (d, r) = variants[sel as usize % variants.len()];
        NocConfig::fasttrack(n, d, r, policy).unwrap()
    })
}

/// A batch of random packets for the given torus size: `per_pe` uniform
/// destinations per source node, in node order.
pub(crate) fn random_batch(n: u16, per_pe: usize, seed: u64) -> Vec<(usize, Coord)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes = n as usize * n as usize;
    let mut batch = Vec::new();
    for node in 0..nodes {
        for _ in 0..per_pe {
            let dst = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
            batch.push((node, dst));
        }
    }
    batch
}

/// A one-shot batch of random packets driven through the simulator's
/// [`TrafficSource`] interface.
pub(crate) struct BatchSource {
    items: Vec<(usize, Coord)>,
    pushed: bool,
}

impl BatchSource {
    /// [`random_batch`], all queued on the first cycle.
    pub(crate) fn random(n: u16, per_pe: usize, seed: u64) -> Self {
        BatchSource {
            items: random_batch(n, per_pe, seed),
            pushed: false,
        }
    }
}

impl TrafficSource for BatchSource {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        if !self.pushed {
            for &(src, dst) in &self.items {
                queues.push(src, dst, cycle, 0);
            }
            self.pushed = true;
        }
    }
    fn exhausted(&self) -> bool {
        self.pushed
    }
}
