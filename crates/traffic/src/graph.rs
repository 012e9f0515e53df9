//! Graph-analytics accelerator traffic (paper Figure 15b).
//!
//! Vertex-centric push model (one superstep of PageRank/BFS-style
//! processing): vertices are partitioned over the PEs (cyclic for
//! scale-free graphs, block for planar road networks — see
//! [`Partition`]), and every directed edge `(u, v)` produces a message
//! from `u`'s PE to `v`'s PE. Like SpMV this is throughput-bound: the
//! metric is the makespan of the edge-message batch.

use crate::graph_gen::Graph;
use crate::partition::Partition;
use crate::scenario::ReplaySource;
use crate::source::{batch_source, Message};

/// Extracts the edge-message batch for one push superstep.
pub(crate) fn graph_messages(graph: &Graph, pes: usize, partition: Partition) -> Vec<Message> {
    assert!(pes > 0);
    let total = graph.num_vertices();
    graph
        .edges()
        .iter()
        .map(|&(u, v)| Message {
            src: partition.owner(u, total, pes),
            dst: partition.owner(v, total, pes),
            tag: v as u64,
        })
        .collect()
}

/// Builds a ready-to-run traffic source for one superstep on an `n × n`
/// NoC.
pub fn graph_source(graph: &Graph, n: u16, partition: Partition) -> ReplaySource {
    let pes = n as usize * n as usize;
    batch_source(n, graph_messages(graph, pes, partition))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_gen::{rmat, road_network};
    use fasttrack_core::config::{FtPolicy, NocConfig};
    use fasttrack_core::sim::{SimOptions, SimSession};

    #[test]
    fn one_message_per_edge() {
        let g = rmat(10, 5000, 0.57, 0.19, 0.19, 2);
        let msgs = graph_messages(&g, 16, Partition::Cyclic);
        assert_eq!(msgs.len(), g.num_edges());
    }

    #[test]
    fn road_network_traffic_is_mostly_local_under_block_partition() {
        let g = road_network(64, 0.0, 3);
        let msgs = graph_messages(&g, 16, Partition::Block);
        let same_pe = msgs.iter().filter(|m| m.src == m.dst).count();
        assert!(
            same_pe as f64 > 0.7 * msgs.len() as f64,
            "expected PE-local structure: {same_pe}/{}",
            msgs.len()
        );
    }

    #[test]
    fn graph_superstep_ft_speedup() {
        let g = rmat(11, 20_000, 0.57, 0.19, 0.19, 4);
        let opts = SimOptions::default();
        let mut src = graph_source(&g, 4, Partition::Cyclic);
        let hoplite = SimSession::new(&NocConfig::hoplite(4).unwrap())
            .options(opts)
            .run(&mut src)
            .unwrap()
            .report;
        let mut src = graph_source(&g, 4, Partition::Cyclic);
        let ft = SimSession::new(&NocConfig::fasttrack(4, 2, 1, FtPolicy::Full).unwrap())
            .options(opts)
            .run(&mut src)
            .unwrap()
            .report;
        assert!(!hoplite.truncated && !ft.truncated);
        assert_eq!(hoplite.stats.delivered as usize, g.num_edges());
        let speedup = hoplite.cycles as f64 / ft.cycles as f64;
        assert!(speedup > 1.0, "expected FT speedup, got {speedup}");
    }
}
