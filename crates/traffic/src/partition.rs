//! Data-to-PE partitioning strategies.
//!
//! How matrix rows / graph vertices map onto PEs decides whether data
//! locality becomes *NoC* locality. Scale-free workloads use a cyclic
//! (hash) partition to spread hub vertices; banded circuits and road
//! networks use a block partition so neighboring elements land on the
//! same or adjacent PEs — which is why the paper's local benchmarks
//! (hamm_memplus, roadNet-CA, freqmine) "do not need nor benefit from a
//! faster NoC".

/// An element-to-PE assignment strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partition {
    /// Element `i` lives on PE `i % pes` — balances heavy-tailed degree
    /// distributions, scatters local structure across the machine.
    Cyclic,
    /// Contiguous blocks of `ceil(total/pes)` elements per PE —
    /// preserves banded/spatial locality.
    Block,
    /// 2-D block partition for elements that are cells of a
    /// `side × side` grid (road networks): the grid is tiled by the
    /// (square) PE array, so spatial neighbors stay on the same or an
    /// adjacent PE at *every* PE count.
    Grid2d {
        /// Grid side length (element id = `y * side + x`).
        side: u32,
    },
}

impl Partition {
    /// PE owning element `i` out of `total`, across `pes` PEs.
    ///
    /// # Panics
    ///
    /// Panics if `pes == 0` or `i >= total`.
    pub(crate) fn owner(self, i: u32, total: usize, pes: usize) -> usize {
        assert!(pes > 0, "need at least one PE");
        assert!((i as usize) < total, "element {i} out of {total}");
        match self {
            Partition::Cyclic => i as usize % pes,
            Partition::Block => {
                let block = total.div_ceil(pes);
                (i as usize / block).min(pes - 1)
            }
            Partition::Grid2d { side } => {
                let pe_side = (pes as f64).sqrt() as usize;
                assert_eq!(pe_side * pe_side, pes, "Grid2d needs a square PE array");
                let side = side as usize;
                let (x, y) = (i as usize % side, i as usize / side);
                let block = side.div_ceil(pe_side);
                let (px, py) = ((x / block).min(pe_side - 1), (y / block).min(pe_side - 1));
                py * pe_side + px
            }
        }
    }

    /// The partition matching a benchmark's character: block for
    /// local-dominated workloads, cyclic otherwise.
    pub fn for_local_dominated(local: bool) -> Partition {
        if local {
            Partition::Block
        } else {
            Partition::Cyclic
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_wraps() {
        assert_eq!(Partition::Cyclic.owner(0, 100, 16), 0);
        assert_eq!(Partition::Cyclic.owner(17, 100, 16), 1);
        assert_eq!(Partition::Cyclic.owner(99, 100, 16), 3);
    }

    #[test]
    fn block_is_contiguous_and_covers_all_pes() {
        let total = 100;
        let pes = 16;
        let mut last = 0;
        for i in 0..total as u32 {
            let o = Partition::Block.owner(i, total, pes);
            assert!(o >= last, "block owners must be monotone");
            assert!(o < pes);
            last = o;
        }
        assert_eq!(Partition::Block.owner(0, total, pes), 0);
        assert_eq!(Partition::Block.owner(99, total, pes), 14); // ceil(100/16)=7; 99/7=14
    }

    #[test]
    fn block_neighbors_stay_close() {
        // Adjacent elements map to the same or the next PE.
        for i in 0..999u32 {
            let a = Partition::Block.owner(i, 1000, 16);
            let b = Partition::Block.owner(i + 1, 1000, 16);
            assert!(b == a || b == a + 1);
        }
    }

    #[test]
    fn grid2d_preserves_spatial_locality() {
        // 100x100 grid over 16 PEs (4x4): 4-neighbors stay on the same
        // or an edge-adjacent PE tile.
        let side = 100u32;
        let p = Partition::Grid2d { side };
        let total = (side * side) as usize;
        for v in 0..(total as u32 - side) {
            if v % side == side - 1 {
                continue;
            }
            let a = p.owner(v, total, 16);
            let right = p.owner(v + 1, total, 16);
            let down = p.owner(v + side, total, 16);
            let (ax, ay) = (a % 4, a / 4);
            for b in [right, down] {
                let (bx, by) = (b % 4, b / 4);
                assert!(ax.abs_diff(bx) <= 1 && ay.abs_diff(by) <= 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "square PE array")]
    fn grid2d_requires_square_pes() {
        Partition::Grid2d { side: 10 }.owner(0, 100, 12);
    }

    #[test]
    fn selection_helper() {
        assert_eq!(Partition::for_local_dominated(true), Partition::Block);
        assert_eq!(Partition::for_local_dominated(false), Partition::Cyclic);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn bounds_checked() {
        Partition::Cyclic.owner(10, 10, 4);
    }
}
