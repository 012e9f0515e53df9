//! Sparse-matrix substrate: a CSR matrix type and structural generators
//! standing in for the paper's Matrix Market benchmarks.
//!
//! We cannot ship the Matrix Market files, so each benchmark is replaced
//! by a *synthetic matrix with matched structure class and scale*
//! (documented in `DESIGN.md`): circuit matrices (add20, the bomhof
//! set) are diagonal-dominant with banded local coupling plus a few
//! dense rows/columns; memplus is a larger banded circuit; human_gene2
//! is a dense power-law (gene co-expression) matrix, scaled down to keep
//! simulation tractable. SpMV NoC traffic depends only on the nonzero
//! *communication geometry*, which these generators reproduce.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A sparse matrix in compressed-sparse-row form (pattern only — SpMV
/// traffic does not care about values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseMatrix {
    /// Matrix dimension (square).
    n: usize,
    /// CSR row pointers (`n + 1` entries).
    row_ptr: Vec<u32>,
    /// CSR column indices.
    col_idx: Vec<u32>,
}

impl SparseMatrix {
    /// Builds a matrix from a list of `(row, col)` coordinates;
    /// duplicates are dropped.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub(crate) fn from_coords(n: usize, mut coords: Vec<(u32, u32)>) -> Self {
        for &(r, c) in &coords {
            assert!(
                (r as usize) < n && (c as usize) < n,
                "entry ({r},{c}) out of range"
            );
        }
        coords.sort_unstable();
        coords.dedup();
        let mut row_ptr = vec![0u32; n + 1];
        for &(r, _) in &coords {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = coords.into_iter().map(|(_, c)| c).collect();
        SparseMatrix {
            n,
            row_ptr,
            col_idx,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= n`.
    pub(crate) fn row(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize]
    }

    /// Iterates all `(row, col)` coordinates.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n).flat_map(move |r| self.row(r).iter().map(move |&c| (r as u32, c)))
    }
}

/// Circuit-style matrix (SPICE netlists like add20 / bomhof): full
/// diagonal, a local coupling band, sparse random off-band entries, and
/// a few dense rows/columns (supply nets touching everything).
pub fn circuit(
    n: usize,
    band: usize,
    offband_per_row: usize,
    dense_lines: usize,
    seed: u64,
) -> SparseMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coords = Vec::new();
    for i in 0..n as u32 {
        coords.push((i, i));
        for _ in 0..2 {
            let off = rng.gen_range(1..=band.max(1)) as i64;
            let j = (i as i64 + if rng.gen() { off } else { -off }).rem_euclid(n as i64) as u32;
            coords.push((i, j));
            coords.push((j, i)); // structural symmetry, like circuit matrices
        }
        for _ in 0..offband_per_row {
            coords.push((i, rng.gen_range(0..n as u32)));
        }
    }
    for _ in 0..dense_lines {
        let line = rng.gen_range(0..n as u32);
        for j in (0..n as u32).step_by(3) {
            coords.push((line, j));
            coords.push((j, line));
        }
    }
    SparseMatrix::from_coords(n, coords)
}

/// Power-law matrix (gene co-expression style, human_gene2): row degrees
/// follow a heavy-tailed distribution, columns drawn preferentially from
/// a hot set.
pub fn power_law(n: usize, avg_nnz_per_row: usize, alpha: f64, seed: u64) -> SparseMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coords = Vec::new();
    for i in 0..n as u32 {
        // Pareto-ish row degree with mean ~avg_nnz_per_row.
        let u: f64 = rng.gen_range(1e-6..1.0f64);
        let deg = ((avg_nnz_per_row as f64 * (1.0 - 1.0 / alpha)) * u.powf(-1.0 / alpha))
            .min(n as f64 / 2.0) as usize;
        for _ in 0..deg.max(1) {
            // Preferential attachment to low indices (the hot genes).
            let v: f64 = rng.gen_range(1e-9..1.0f64);
            let j = ((n as f64) * v.powf(3.0)) as u32 % n as u32;
            coords.push((i, j));
        }
        coords.push((i, i));
    }
    SparseMatrix::from_coords(n, coords)
}

/// Banded matrix (memory-circuit style, memplus): full diagonal plus a
/// dense local band and occasional long-range entries.
pub fn banded(n: usize, band: usize, longrange_per_row: usize, seed: u64) -> SparseMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coords = Vec::new();
    for i in 0..n as u32 {
        let lo = i.saturating_sub(band as u32);
        let hi = (i + band as u32).min(n as u32 - 1);
        for j in lo..=hi {
            if rng.gen::<f64>() < 0.6 {
                coords.push((i, j));
            }
        }
        coords.push((i, i));
        for _ in 0..longrange_per_row {
            coords.push((i, rng.gen_range(0..n as u32)));
        }
    }
    SparseMatrix::from_coords(n, coords)
}

/// A named SpMV benchmark: a synthetic stand-in for one of the paper's
/// Matrix Market matrices (Figure 15a).
#[derive(Debug, Clone)]
pub struct MatrixBenchmark {
    /// Benchmark name as it appears in the paper.
    pub name: &'static str,
    /// The synthetic matrix.
    pub matrix: SparseMatrix,
    /// True for benchmarks dominated by local coupling (the paper notes
    /// hamm_memplus "does not need nor benefit from a faster NoC").
    pub local_dominated: bool,
}

/// The Figure 15a benchmark suite. Scales follow the real matrices
/// (human_gene2 is scaled down ~4× to keep runtimes sane; its traffic
/// geometry — dense power-law fan-in — is preserved).
pub fn spmv_benchmarks() -> Vec<MatrixBenchmark> {
    vec![
        MatrixBenchmark {
            name: "hamm_memplus",
            matrix: banded(17758, 8, 1, 0x5eed_0001),
            local_dominated: true,
        },
        MatrixBenchmark {
            name: "bomhof_circuit_3",
            matrix: circuit(12127, 6, 1, 6, 0x5eed_0002),
            local_dominated: false,
        },
        MatrixBenchmark {
            name: "bomhof_circuit_2",
            matrix: circuit(4510, 5, 1, 4, 0x5eed_0003),
            local_dominated: true,
        },
        MatrixBenchmark {
            name: "bomhof_circuit_1",
            matrix: circuit(2624, 5, 2, 4, 0x5eed_0004),
            local_dominated: false,
        },
        MatrixBenchmark {
            name: "human_gene2",
            matrix: power_law(3500, 120, 1.6, 0x5eed_0005),
            local_dominated: false,
        },
        MatrixBenchmark {
            name: "add20",
            matrix: circuit(2395, 4, 2, 3, 0x5eed_0006),
            local_dominated: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_coords_builds_csr() {
        let m = SparseMatrix::from_coords(3, vec![(2, 1), (0, 0), (0, 2), (2, 1)]);
        assert_eq!(m.n(), 3);
        assert_eq!(m.nnz(), 3); // duplicate dropped
        assert_eq!(m.row(0), &[0, 2]);
        assert_eq!(m.row(1), &[] as &[u32]);
        assert_eq!(m.row(2), &[1]);
        let coords: Vec<_> = m.iter().collect();
        assert_eq!(coords, vec![(0, 0), (0, 2), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_coords_bounds_checked() {
        SparseMatrix::from_coords(2, vec![(0, 5)]);
    }

    #[test]
    fn circuit_matrix_structure() {
        let m = circuit(500, 5, 1, 2, 42);
        // Full diagonal present.
        for i in 0..500 {
            assert!(m.row(i).contains(&(i as u32)), "missing diagonal at {i}");
        }
        // Dense lines create a few high-degree rows.
        let max_deg = (0..500).map(|i| m.row(i).len()).max().unwrap();
        assert!(max_deg > 100, "no dense line found (max degree {max_deg})");
        // But the median row stays sparse.
        let mut degs: Vec<_> = (0..500).map(|i| m.row(i).len()).collect();
        degs.sort_unstable();
        assert!(degs[250] < 20);
    }

    #[test]
    fn power_law_has_heavy_tail() {
        let m = power_law(1000, 20, 1.6, 7);
        let mut degs: Vec<_> = (0..1000).map(|i| m.row(i).len()).collect();
        degs.sort_unstable();
        let median = degs[500];
        let p99 = degs[990];
        assert!(
            p99 as f64 > 4.0 * median as f64,
            "tail p99={p99} median={median}"
        );
        // Hot columns: low indices are referenced far more often.
        let mut col_counts = vec![0u32; 1000];
        for (_, c) in m.iter() {
            col_counts[c as usize] += 1;
        }
        let hot: u32 = col_counts[..100].iter().sum();
        let cold: u32 = col_counts[900..].iter().sum();
        assert!(
            hot > 5 * cold,
            "no preferential attachment: {hot} vs {cold}"
        );
    }

    #[test]
    fn banded_matrix_is_local() {
        let m = banded(1000, 6, 0, 9);
        for (r, c) in m.iter() {
            assert!((r as i64 - c as i64).abs() <= 6);
        }
    }

    #[test]
    fn benchmark_suite_shapes() {
        // Generate the small ones only (skip memplus/bomhof_3 scale for
        // unit-test speed — covered by integration tests).
        let add20 = circuit(2395, 4, 2, 3, 0x5eed_0006);
        // Real add20 has ~13k-17k nonzeros; structure class matters more
        // than the exact count, but stay in the right ballpark.
        assert!(
            (8_000..40_000).contains(&add20.nnz()),
            "add20 nnz {}",
            add20.nnz()
        );
        let gene = power_law(3500, 120, 1.6, 0x5eed_0005);
        assert!(
            gene.nnz() > 200_000,
            "human_gene2 should be dense-ish: {}",
            gene.nnz()
        );
    }
}
