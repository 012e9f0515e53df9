//! Analytical channel-load and saturation-throughput bounds, for any
//! [`Topology`].
//!
//! Deflection routing cannot exceed what the wiring admits: for a given
//! traffic pattern, the most-loaded channel bounds the sustainable
//! injection rate. This module charges every flow of an explicit
//! traffic matrix to the links of [`Topology::zero_load_path`] — the
//! path the engine gives a lone packet: on the torus the walk reads
//! `routing::compute_prefs`, on the SHG its preference rows, on the
//! mesh its XY `route_slot` — and from the per-link loads derives an
//! upper bound on saturation throughput. The simulator should approach
//! — and never exceed — these bounds; integration tests enforce both
//! directions.

use crate::topology::Topology;

/// Ideal per-link loads for one traffic matrix, in expected packets per
/// cycle per link, at an injection rate of 1 packet/PE/cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelLoads {
    /// Load on each link, in [`Topology::links`] order.
    pub links: Vec<f64>,
    /// Load on each node's exit (delivery) port.
    pub exit: Vec<f64>,
}

impl ChannelLoads {
    /// The maximum load over all links (the bottleneck channel).
    pub fn max_link_load(&self) -> f64 {
        self.links.iter().fold(0.0f64, |a, &b| a.max(b))
    }

    /// The maximum delivery-port load (one delivery per PE per cycle).
    pub fn max_exit_load(&self) -> f64 {
        self.exit.iter().fold(0.0f64, |a, &b| a.max(b))
    }

    /// Upper bound on the sustainable injection rate (packets per cycle
    /// per PE): the reciprocal of the binding resource load.
    ///
    /// Deflections only add load, so real (simulated) saturation
    /// throughput is at or below this bound.
    pub fn saturation_bound(&self) -> f64 {
        let binding = self.max_link_load().max(self.max_exit_load());
        if binding <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / binding
        }
    }

    /// Total ideal link traversals per injected packet (the mean length
    /// of the zero-load paths).
    pub fn mean_hops_per_packet(&self, total_rate: f64) -> f64 {
        if total_rate <= 0.0 {
            return 0.0;
        }
        self.links.iter().sum::<f64>() / total_rate
    }
}

/// A traffic matrix: `rate[src][dst]` in packets per cycle (callers
/// usually build it from a `Pattern`-style distribution summing to 1
/// per source row).
pub type TrafficMatrix = Vec<Vec<f64>>;

/// Builds a uniform-random traffic matrix (each PE sends to every other
/// PE with equal probability) at 1 packet/PE/cycle.
pub fn uniform_traffic(nodes: usize) -> TrafficMatrix {
    let p = 1.0 / (nodes as f64 - 1.0);
    (0..nodes)
        .map(|s| (0..nodes).map(|d| if s == d { 0.0 } else { p }).collect())
        .collect()
}

/// Builds a permutation traffic matrix from a destination map.
pub fn permutation_traffic(nodes: usize, dst_of: impl Fn(usize) -> usize) -> TrafficMatrix {
    let mut m = vec![vec![0.0; nodes]; nodes];
    for (s, row) in m.iter_mut().enumerate() {
        row[dst_of(s)] = 1.0;
    }
    m
}

/// Computes ideal channel loads for `traffic` on `topo`: each flow is
/// charged to every link of its zero-load path and to the exit of its
/// destination.
///
/// # Panics
///
/// Panics if the matrix dimensions do not match the topology.
pub fn channel_loads(topo: &dyn Topology, traffic: &TrafficMatrix) -> ChannelLoads {
    let nodes = topo.num_nodes();
    assert_eq!(traffic.len(), nodes, "traffic matrix row count");
    let links = topo.links();
    let mut loads = ChannelLoads {
        links: vec![0.0; links.len()],
        exit: vec![0.0; nodes],
    };
    for (s, row) in traffic.iter().enumerate() {
        assert_eq!(row.len(), nodes, "traffic matrix column count");
        for (d, &rate) in row.iter().enumerate() {
            if rate <= 0.0 {
                continue;
            }
            for hop in topo.zero_load_path(s, d) {
                let i = links
                    .binary_search_by_key(&(hop.src, hop.slot), |l| (l.src, l.slot))
                    .expect("links() is in (node, slot) order");
                loads.links[i] += rate;
            }
            loads.exit[d] += rate;
        }
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FtPolicy, NocConfig};
    use crate::geom::Coord;
    use crate::port::OutPort;
    use crate::topology::Topology;

    fn hoplite(n: u16) -> NocConfig {
        NocConfig::hoplite(n).unwrap()
    }

    fn ft(n: u16, d: u16, r: u16) -> NocConfig {
        NocConfig::fasttrack(n, d, r, FtPolicy::Full).unwrap()
    }

    /// The load on each node's `port` link (0 where it has none).
    fn on(topo: &NocConfig, loads: &ChannelLoads, port: OutPort) -> Vec<f64> {
        let mut per_node = vec![0.0; topo.num_nodes()];
        for (l, &load) in topo.links().iter().zip(&loads.links) {
            if l.port == port {
                per_node[l.src] = load;
            }
        }
        per_node
    }

    #[test]
    fn uniform_matrix_rows_sum_to_one() {
        let m = uniform_traffic(16);
        for row in &m {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn permutation_matrix_is_one_hot() {
        let m = permutation_traffic(4, |s| (s + 1) % 4);
        assert_eq!(m[0][1], 1.0);
        assert_eq!(m[3][0], 1.0);
        assert_eq!(m[0].iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn single_flow_charges_its_path() {
        let cfg = hoplite(4);
        let mut m = vec![vec![0.0; 16]; 16];
        // (0,0) -> (2,1): two east, one south.
        m[0][Coord::new(2, 1).to_node_id(4)] = 1.0;
        let loads = channel_loads(&cfg, &m);
        let east_short = on(&cfg, &loads, OutPort::EastSh);
        assert_eq!(east_short[Coord::new(0, 0).to_node_id(4)], 1.0);
        assert_eq!(east_short[Coord::new(1, 0).to_node_id(4)], 1.0);
        assert_eq!(
            on(&cfg, &loads, OutPort::SouthSh)[Coord::new(2, 0).to_node_id(4)],
            1.0
        );
        assert_eq!(loads.exit[Coord::new(2, 1).to_node_id(4)], 1.0);
        assert_eq!(east_short.iter().sum::<f64>(), 2.0);
        assert_eq!(loads.mean_hops_per_packet(1.0), 3.0);
    }

    #[test]
    fn express_path_offloads_short_links() {
        let cfg = ft(8, 2, 1);
        let mut m = vec![vec![0.0; 64]; 64];
        m[0][Coord::new(4, 0).to_node_id(8)] = 1.0; // dx=4, aligned
        let loads = channel_loads(&cfg, &m);
        assert_eq!(on(&cfg, &loads, OutPort::EastSh).iter().sum::<f64>(), 0.0);
        let east_express = on(&cfg, &loads, OutPort::EastEx);
        assert_eq!(east_express[Coord::new(0, 0).to_node_id(8)], 1.0);
        assert_eq!(east_express[Coord::new(2, 0).to_node_id(8)], 1.0);
        assert_eq!(loads.mean_hops_per_packet(1.0), 2.0);
    }

    #[test]
    fn hoplite_uniform_saturation_bound() {
        // Classic result: a unidirectional ring of size N under uniform
        // traffic carries ~N/2 average X hops per packet over N links;
        // the analytical bound for an 8x8 Hoplite torus lands near
        // 0.2-0.3 pkt/cycle/PE, well above the simulator's deflection-
        // limited ~0.11 but the same order.
        let cfg = hoplite(8);
        let loads = channel_loads(&cfg, &uniform_traffic(64));
        let bound = loads.saturation_bound();
        assert!((0.15..=0.5).contains(&bound), "bound {bound}");
    }

    #[test]
    fn fasttrack_raises_the_bound() {
        let uniform = uniform_traffic(64);
        let b_hoplite = channel_loads(&hoplite(8), &uniform).saturation_bound();
        let b_ft = channel_loads(&ft(8, 2, 1), &uniform).saturation_bound();
        assert!(
            b_ft > 1.3 * b_hoplite,
            "express links must raise the wiring bound: {b_hoplite} -> {b_ft}"
        );
        // Depopulation sits in between.
        let b_depop = channel_loads(&ft(8, 2, 2), &uniform).saturation_bound();
        assert!(b_depop > b_hoplite && b_depop <= b_ft + 1e-12);
    }

    #[test]
    fn transpose_bound_is_exit_or_turn_limited() {
        // Transpose on Hoplite: every packet of row y turns at column y —
        // the S_sh link out of (y,y) carries the whole row.
        let cfg = hoplite(8);
        let m = permutation_traffic(64, |s| {
            let c = Coord::from_node_id(s, 8);
            Coord::new(c.y, c.x).to_node_id(8)
        });
        let loads = channel_loads(&cfg, &m);
        // Bound ~ 1/7: seven packets (all but the diagonal one) share
        // the turn link.
        let bound = loads.saturation_bound();
        assert!((0.12..=0.2).contains(&bound), "bound {bound}");
    }

    #[test]
    fn mean_hops_shrink_with_express() {
        let uniform = uniform_traffic(64);
        let h = channel_loads(&hoplite(8), &uniform).mean_hops_per_packet(64.0);
        let f = channel_loads(&ft(8, 2, 1), &uniform).mean_hops_per_packet(64.0);
        // Uniform mean one-way distance (self excluded): 64*7/63.
        assert!((h - 448.0 / 63.0).abs() < 0.01, "hoplite mean hops {h}");
        assert!(f < 0.75 * h, "express should cut cycle count: {f} vs {h}");
    }

    #[test]
    #[should_panic(expected = "row count")]
    fn dimension_mismatch_panics() {
        channel_loads(&hoplite(4), &uniform_traffic(9));
    }
}
