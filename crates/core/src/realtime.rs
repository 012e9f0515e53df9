//! Real-time characterization: zero-load latencies per
//! source/destination pair.
//!
//! The paper's livelock scheme builds on HopliteRT (its ref \[30\]), whose
//! concern is *worst-case* traversal time. This module provides the two
//! ingredients a real-time analysis of a NoC needs:
//!
//! * [`zero_load_latency`] — the deterministic latency of a packet with
//!   no contention anywhere: the cycles of the links on
//!   [`Topology::zero_load_path`] (each engine's own routing rule: on
//!   the torus `routing::compute_prefs`, on the SHG its preference
//!   rows, on the mesh its XY `route_slot`; pipelined links pay their
//!   registers) plus the exit stage. Every engine hits it exactly for
//!   lone packets. It is also a floor on Hoplite, FTlite, the SHG and
//!   the mesh, but not under the FastTrack Full policy, where a
//!   deflected packet can turn onto the express lane a lone one would
//!   not board; and
//! * a rate-regulated traffic source (`fasttrack-traffic`'s
//!   `RegulatedSource`) — the admission model under which real-time NoC
//!   bounds are stated — pairs with these latencies in the integration
//!   tests.

use crate::topology::Topology;

/// Latency, in cycles, of a lone packet from node `src` to node `dst`
/// (enqueue at an idle PE through delivery): the cycles of every link
/// on its zero-load path, plus one for the exit stage. A self-send is
/// delivered at the next edge, in 1.
pub fn zero_load_latency(topo: &dyn Topology, src: usize, dst: usize) -> u64 {
    let links: u64 = topo
        .zero_load_path(src, dst)
        .iter()
        .map(|l| u64::from(l.cycles))
        .sum();
    links + 1
}

/// Zero-load latency statistics over all source/destination pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZeroLoadProfile {
    /// Mean over all ordered pairs (excluding self-sends).
    pub mean: f64,
    /// Worst pair.
    pub max: u64,
}

/// Computes the zero-load profile of a topology.
pub fn zero_load_profile(topo: &dyn Topology) -> ZeroLoadProfile {
    let nodes = topo.num_nodes();
    let mut sum = 0u64;
    let mut max = 0u64;
    let mut count = 0u64;
    for s in 0..nodes {
        for d in 0..nodes {
            if s == d {
                continue;
            }
            let lat = zero_load_latency(topo, s, d);
            sum += lat;
            max = max.max(lat);
            count += 1;
        }
    }
    ZeroLoadProfile {
        mean: sum as f64 / count as f64,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FtPolicy, NocConfig};
    use crate::topology::TorusTopology;

    #[test]
    fn fasttrack_cuts_zero_load_latency() {
        let hoplite = zero_load_profile(&TorusTopology::new(NocConfig::hoplite(8).unwrap()));
        let fast = zero_load_profile(&TorusTopology::new(
            NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap(),
        ));
        assert!(
            fast.mean < 0.8 * hoplite.mean,
            "{} vs {}",
            fast.mean,
            hoplite.mean
        );
        assert!(fast.max < hoplite.max);
        // Hoplite 8x8 worst pair: 7 + 7 hops + exit.
        assert_eq!(hoplite.max, 15);
    }
}
