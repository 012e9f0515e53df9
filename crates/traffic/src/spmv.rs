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
pub(crate) fn spmv_messages(
    matrix: &SparseMatrix,
    pes: usize,
    partition: Partition,
) -> Vec<Message> {
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
