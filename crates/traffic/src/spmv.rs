//! Sparse Matrix-Vector Multiplication (SpMV) accelerator traffic
//! (paper Figure 15a).
//!
//! The accelerator distributes matrix rows and vector entries over the
//! PEs (cyclic for scale-free matrices, block for banded/circuit ones —
//! see [`Partition`]). One SpMV iteration `y = A·x` generates, for every
//! nonzero `A[i][j]`, a message from the PE owning `x[j]` to the PE
//! accumulating row `i` (the vector-value fan-out). The workload is
//! throughput-bound: each PE streams its messages as fast as the NoC
//! accepts them, and the metric is the makespan of the whole batch.

use crate::matrix::SparseMatrix;
use crate::partition::Partition;
use crate::scenario::ReplaySource;
use crate::source::{batch_source, Message};

/// Extracts the SpMV message batch for one iteration of `y = A·x` on
/// `pes` processing elements under the given partition.
///
/// Messages whose producer and consumer land on the same PE are kept:
/// they still occupy the PE's injection port (local accumulate), exactly
/// one per nonzero, so Hoplite-vs-FastTrack comparisons stay fair.
pub fn spmv_messages(matrix: &SparseMatrix, pes: usize, partition: Partition) -> Vec<Message> {
    assert!(pes > 0);
    let n = matrix.n();
    let mut msgs = Vec::with_capacity(matrix.nnz());
    for (i, j) in matrix.iter() {
        msgs.push(Message {
            src: partition.owner(j, n, pes),
            dst: partition.owner(i, n, pes),
            tag: i as u64,
        });
    }
    msgs
}

/// Builds a ready-to-run traffic source for one SpMV iteration on an
/// `n × n` NoC.
pub fn spmv_source(matrix: &SparseMatrix, n: u16, partition: Partition) -> ReplaySource {
    let pes = n as usize * n as usize;
    batch_source(n, spmv_messages(matrix, pes, partition))
}

/// Iterative SpMV (`x ← A·x` repeated): each iteration's messages are
/// released only after the previous iteration fully drains — the global
/// barrier of an iterative solver. Exposes how NoC *latency* (not just
/// throughput) taxes convergence loops.
#[derive(Debug, Clone)]
pub struct IterativeSpmvSource {
    n: u16,
    messages: Vec<Message>,
    iterations_left: u32,
    outstanding: u64,
}

impl IterativeSpmvSource {
    /// Creates a source running `iterations` SpMV passes.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn new(matrix: &SparseMatrix, n: u16, partition: Partition, iterations: u32) -> Self {
        assert!(iterations > 0, "need at least one iteration");
        let pes = n as usize * n as usize;
        IterativeSpmvSource {
            n,
            messages: spmv_messages(matrix, pes, partition),
            iterations_left: iterations,
            outstanding: 0,
        }
    }

    /// Iterations not yet started.
    pub fn iterations_left(&self) -> u32 {
        self.iterations_left
    }
}

impl fasttrack_core::sim::TrafficSource for IterativeSpmvSource {
    fn pump(&mut self, cycle: u64, queues: &mut fasttrack_core::queue::InjectQueues) {
        if self.outstanding == 0 && self.iterations_left > 0 {
            for m in &self.messages {
                queues.push(
                    m.src,
                    fasttrack_core::geom::Coord::from_node_id(m.dst, self.n),
                    cycle,
                    m.tag,
                );
            }
            self.outstanding = self.messages.len() as u64;
            self.iterations_left -= 1;
        }
    }

    fn on_delivery(&mut self, _delivery: &fasttrack_core::packet::Delivery) {
        debug_assert!(self.outstanding > 0);
        self.outstanding -= 1;
    }

    fn exhausted(&self) -> bool {
        self.iterations_left == 0 && self.outstanding == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{banded, circuit, SparseMatrix};
    use fasttrack_core::config::{FtPolicy, NocConfig};
    use fasttrack_core::sim::{SimOptions, SimSession};

    #[test]
    fn message_count_equals_nnz() {
        let m = circuit(200, 4, 1, 2, 1);
        let msgs = spmv_messages(&m, 16, Partition::Cyclic);
        assert_eq!(msgs.len(), m.nnz());
    }

    #[test]
    fn diagonal_messages_stay_local() {
        let m = SparseMatrix::from_coords(32, (0..32).map(|i| (i, i)).collect());
        for p in [Partition::Cyclic, Partition::Block] {
            for msg in spmv_messages(&m, 16, p) {
                assert_eq!(msg.src, msg.dst);
            }
        }
    }

    #[test]
    fn block_partition_keeps_banded_traffic_local() {
        let m = banded(1600, 5, 0, 3);
        let msgs = spmv_messages(&m, 16, Partition::Block);
        let same_pe = msgs.iter().filter(|m| m.src == m.dst).count();
        assert!(
            same_pe as f64 > 0.8 * msgs.len() as f64,
            "banded + block should be mostly PE-local: {same_pe}/{}",
            msgs.len()
        );
    }

    #[test]
    fn iterative_spmv_barriers_between_passes() {
        use fasttrack_core::sim::SimSession;
        let m = circuit(300, 4, 1, 2, 5);
        let cfg = NocConfig::hoplite(4).unwrap();
        // One pass vs five passes: with a barrier between passes the
        // makespan scales roughly linearly.
        let mut one = IterativeSpmvSource::new(&m, 4, Partition::Cyclic, 1);
        let r1 = SimSession::new(&cfg).run(&mut one).unwrap().report;
        let mut five = IterativeSpmvSource::new(&m, 4, Partition::Cyclic, 5);
        let r5 = SimSession::new(&cfg).run(&mut five).unwrap().report;
        assert!(!r1.truncated && !r5.truncated);
        assert_eq!(r5.stats.delivered, 5 * r1.stats.delivered);
        assert!(one.iterations_left() == 0 && five.iterations_left() == 0);
        let ratio = r5.cycles as f64 / r1.cycles as f64;
        assert!(
            (4.0..=6.5).contains(&ratio),
            "barrier scaling off: {ratio:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        IterativeSpmvSource::new(&circuit(10, 2, 1, 0, 1), 2, Partition::Cyclic, 0);
    }

    #[test]
    fn spmv_runs_to_completion_and_ft_wins() {
        let m = circuit(800, 4, 2, 3, 11);
        let opts = SimOptions::default();
        let hoplite = {
            let mut src = spmv_source(&m, 4, Partition::Cyclic);
            SimSession::new(&NocConfig::hoplite(4).unwrap())
                .options(opts)
                .run(&mut src)
                .unwrap()
                .report
        };
        let ft = {
            let mut src = spmv_source(&m, 4, Partition::Cyclic);
            SimSession::new(&NocConfig::fasttrack(4, 2, 1, FtPolicy::Full).unwrap())
                .options(opts)
                .run(&mut src)
                .unwrap()
                .report
        };
        assert!(!hoplite.truncated && !ft.truncated);
        assert_eq!(hoplite.stats.delivered, m.nnz() as u64);
        assert_eq!(ft.stats.delivered, m.nnz() as u64);
        let speedup = hoplite.cycles as f64 / ft.cycles as f64;
        assert!(
            speedup > 1.0,
            "FastTrack should speed up SpMV, got {speedup}"
        );
    }
}
