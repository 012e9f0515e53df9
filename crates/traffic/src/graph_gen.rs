//! Graph substrate: synthetic generators standing in for the paper's
//! SNAP datasets (Figure 15b).
//!
//! Social/web graphs (wiki-Vote, soc-Slashdot0902, web-Google,
//! web-Stanford, amazon0302) are modeled with the R-MAT recursive
//! generator, which reproduces their power-law degree distributions and
//! community skew; roadNet-CA is modeled as a 2-D lattice with sparse
//! shortcuts (planar, almost entirely local). The large web graphs are
//! scaled down (documented per benchmark) to keep simulation tractable;
//! the traffic *geometry* — how edge endpoints spread across a vertex
//! partition — is what the NoC sees, and it is scale-free.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::partition::Partition;

/// A directed graph as an edge list over `0..num_vertices`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    num_vertices: usize,
    edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Builds a graph, dropping self-loops and duplicate edges.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub(crate) fn new(num_vertices: usize, mut edges: Vec<(u32, u32)>) -> Self {
        for &(u, v) in &edges {
            assert!((u as usize) < num_vertices && (v as usize) < num_vertices);
        }
        edges.retain(|&(u, v)| u != v);
        edges.sort_unstable();
        edges.dedup();
        Graph {
            num_vertices,
            edges,
        }
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Edge count.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges.
    pub(crate) fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }
}

/// R-MAT generator (Chakrabarti et al.): recursively partitions the
/// adjacency matrix with probabilities `(a, b, c, d)`; `a ≫ d` yields
/// the heavy-tailed, community-skewed structure of social/web graphs.
///
/// # Panics
///
/// Panics if `scale > 31` or the probabilities do not sum to ≈1.
pub fn rmat(scale: u32, edges: usize, a: f64, b: f64, c: f64, seed: u64) -> Graph {
    assert!(scale <= 31);
    let d = 1.0 - a - b - c;
    assert!(d >= -1e-9, "probabilities exceed 1");
    let n = 1usize << scale;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut list = Vec::with_capacity(edges);
    for _ in 0..edges {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.gen();
            if r < a {
                // top-left: nothing to add
            } else if r < a + b {
                v |= 1;
            } else if r < a + b + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        list.push((u, v));
    }
    Graph::new(n, list)
}

/// Road-network generator: a `side × side` 4-neighbor lattice with a
/// small fraction of shortcut edges (highway ramps).
pub fn road_network(side: usize, shortcut_fraction: f64, seed: u64) -> Graph {
    let n = side * side;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    let at = |x: usize, y: usize| (y * side + x) as u32;
    for y in 0..side {
        for x in 0..side {
            if x + 1 < side {
                edges.push((at(x, y), at(x + 1, y)));
                edges.push((at(x + 1, y), at(x, y)));
            }
            if y + 1 < side {
                edges.push((at(x, y), at(x, y + 1)));
                edges.push((at(x, y + 1), at(x, y)));
            }
        }
    }
    let shortcuts = (edges.len() as f64 * shortcut_fraction) as usize;
    for _ in 0..shortcuts {
        edges.push((rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)));
    }
    Graph::new(n, edges)
}

/// A named graph benchmark: a synthetic stand-in for one of the paper's
/// SNAP graphs.
#[derive(Debug, Clone)]
pub struct GraphBenchmark {
    /// Benchmark name as in the paper.
    pub name: &'static str,
    /// The synthetic graph.
    pub graph: Graph,
    /// True for graphs dominated by local structure (the paper notes
    /// roadNet-CA does not benefit from a faster NoC).
    pub local_dominated: bool,
    /// Vertex-to-PE partition preserving the benchmark's character:
    /// cyclic for scale-free graphs, 2-D blocks for road networks.
    pub partition: Partition,
}

/// The Figure 15b benchmark suite. Scale notes: wiki-Vote is near full
/// scale; Slashdot/amazon ~1/4; web-Google and web-Stanford ~1/8 and
/// ~1/4 respectively (R-MAT keeps their degree-skew geometry).
pub fn graph_benchmarks() -> Vec<GraphBenchmark> {
    vec![
        GraphBenchmark {
            name: "wiki-Vote",
            graph: rmat(13, 103_000, 0.57, 0.19, 0.19, 0xbee_f001),
            local_dominated: false,
            partition: Partition::Cyclic,
        },
        GraphBenchmark {
            name: "web-Stanford",
            graph: rmat(16, 580_000, 0.55, 0.20, 0.20, 0xbee_f002),
            local_dominated: false,
            partition: Partition::Cyclic,
        },
        GraphBenchmark {
            name: "web-Google",
            graph: rmat(16, 640_000, 0.57, 0.19, 0.19, 0xbee_f003),
            local_dominated: false,
            partition: Partition::Cyclic,
        },
        GraphBenchmark {
            name: "soc-Slashdot0902",
            graph: rmat(14, 230_000, 0.59, 0.18, 0.18, 0xbee_f004),
            local_dominated: false,
            partition: Partition::Cyclic,
        },
        GraphBenchmark {
            name: "roadNet-CA",
            graph: road_network(500, 0.01, 0xbee_f005),
            local_dominated: true,
            partition: Partition::Grid2d { side: 500 },
        },
        GraphBenchmark {
            name: "amazon0302",
            graph: rmat(15, 310_000, 0.50, 0.22, 0.22, 0xbee_f006),
            local_dominated: false,
            partition: Partition::Cyclic,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_dedups_and_drops_self_loops() {
        let g = Graph::new(4, vec![(0, 1), (0, 1), (2, 2), (3, 0)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 4);
    }

    #[test]
    fn rmat_power_law_degrees() {
        let g = rmat(12, 60_000, 0.57, 0.19, 0.19, 5);
        let mut out_deg = vec![0u32; g.num_vertices()];
        for &(u, _) in g.edges() {
            out_deg[u as usize] += 1;
        }
        let mut degs: Vec<_> = out_deg.into_iter().filter(|&d| d > 0).collect();
        degs.sort_unstable();
        let median = degs[degs.len() / 2];
        let max = *degs.last().unwrap();
        assert!(
            max > 20 * median,
            "R-MAT should be heavy-tailed: max {max}, median {median}"
        );
    }

    #[test]
    fn road_network_is_planar_local() {
        let g = road_network(50, 0.0, 1);
        // 4-neighbor lattice: every edge connects adjacent cells.
        for &(u, v) in g.edges() {
            let (ux, uy) = (u % 50, u / 50);
            let (vx, vy) = (v % 50, v / 50);
            let dist = (ux as i32 - vx as i32).abs() + (uy as i32 - vy as i32).abs();
            assert_eq!(dist, 1);
        }
        // Both directions present.
        assert_eq!(g.num_edges(), 2 * 2 * 50 * 49);
    }

    #[test]
    fn benchmark_suite_complete() {
        // Spot-check the cheap entries; full generation is covered by
        // `fasttrack figure fig15b`.
        let g = rmat(13, 103_000, 0.57, 0.19, 0.19, 0xbee_f001);
        assert!(g.num_edges() > 80_000);
        assert_eq!(g.num_vertices(), 8192);
    }
}
