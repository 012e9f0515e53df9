//! Synthetic traffic patterns (paper §VI: RANDOM, LOCAL, BITCOMPL,
//! TRANSPOSE).
//!
//! A pattern maps a source node to a destination; stochastic patterns
//! draw from a caller-supplied RNG so experiments stay reproducible.

use fasttrack_core::geom::Coord;
use rand::Rng;

/// A synthetic destination-selection pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Uniformly random destination, excluding the source itself.
    Random,
    /// Uniform over nodes within torus Manhattan distance `radius`
    /// (excluding the source).
    Local {
        /// Neighborhood radius (≥ 1).
        radius: u16,
    },
    /// Bit-complement: node id maps to its bitwise complement
    /// (`dst.x = N-1-x`, `dst.y = N-1-y` for power-of-two `N`).
    BitComplement,
    /// Matrix transpose: `(x, y) → (y, x)`.
    Transpose,
    /// Tornado: half-way around the X ring (`(x, y) → (x + N/2, y)`).
    Tornado,
    /// Hotspot: with probability `fraction` (percent), target one of the
    /// four fixed hotspot nodes; otherwise uniform random.
    Hotspot {
        /// Percent of traffic aimed at the hotspot set (1–100).
        percent: u8,
    },
    /// Perfect shuffle on the node id bits (`rotate-left` of the id),
    /// for power-of-two systems.
    Shuffle,
    /// Bit-reversal of the node id, for power-of-two systems.
    BitReverse,
}

impl Pattern {
    /// The four patterns evaluated in the paper, in its plotting order.
    pub const PAPER_SET: [Pattern; 4] = [
        Pattern::BitComplement,
        Pattern::Local { radius: 3 },
        Pattern::Random,
        Pattern::Transpose,
    ];

    /// Short uppercase name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Pattern::Random => "RANDOM",
            Pattern::Local { .. } => "LOCAL",
            Pattern::BitComplement => "BITCOMPL",
            Pattern::Transpose => "TRANSPOSE",
            Pattern::Tornado => "TORNADO",
            Pattern::Hotspot { .. } => "HOTSPOT",
            Pattern::Shuffle => "SHUFFLE",
            Pattern::BitReverse => "BITREV",
        }
    }

    /// Whether the pattern is defined on an `n × n` grid: the bit
    /// permutations ([`Pattern::Shuffle`], [`Pattern::BitReverse`])
    /// need a power-of-two side.
    pub fn admits_side(self, n: u16) -> bool {
        n.is_power_of_two() || !matches!(self, Pattern::Shuffle | Pattern::BitReverse)
    }

    /// Draws a destination for a packet injected at `src` on an `n × n`
    /// torus.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (no valid destination distinct from the source
    /// for the stochastic patterns), if `radius == 0` for
    /// [`Pattern::Local`], or if the pattern does not
    /// [admit](Pattern::admits_side) the side.
    pub(crate) fn destination<R: Rng + ?Sized>(self, src: Coord, n: u16, rng: &mut R) -> Coord {
        assert!(n >= 2, "pattern needs at least a 2x2 torus");
        match self {
            Pattern::Random => loop {
                let d = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
                if d != src {
                    return d;
                }
            },
            Pattern::Local { radius } => {
                assert!(radius > 0, "local radius must be positive");
                let r = radius.min(n - 1) as i32;
                loop {
                    let dx = rng.gen_range(-r..=r);
                    let dy = rng.gen_range(-r..=r);
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    if dx.abs() + dy.abs() > r {
                        continue;
                    }
                    let x = (src.x as i32 + dx).rem_euclid(n as i32) as u16;
                    let y = (src.y as i32 + dy).rem_euclid(n as i32) as u16;
                    return Coord::new(x, y);
                }
            }
            Pattern::BitComplement => Coord::new(n - 1 - src.x, n - 1 - src.y),
            Pattern::Transpose => Coord::new(src.y, src.x),
            Pattern::Tornado => Coord::new((src.x + n / 2) % n, src.y),
            Pattern::Hotspot { percent } => {
                assert!((1..=100).contains(&percent), "hotspot percent out of range");
                if rng.gen_range(0..100) < percent as u32 {
                    // Fixed hotspot set: the four quadrant centers.
                    let q = n / 4;
                    let spots = [
                        Coord::new(q, q),
                        Coord::new(n - 1 - q, q),
                        Coord::new(q, n - 1 - q),
                        Coord::new(n - 1 - q, n - 1 - q),
                    ];
                    spots[rng.gen_range(0..spots.len())]
                } else {
                    Pattern::Random.destination(src, n, rng)
                }
            }
            Pattern::Shuffle => {
                let bits = bit_width(n);
                let id = src.to_node_id(n) as u32;
                let mask = (1u32 << (2 * bits)) - 1;
                let shuffled = ((id << 1) | (id >> (2 * bits - 1))) & mask;
                Coord::from_node_id(shuffled as usize, n)
            }
            Pattern::BitReverse => {
                let bits = 2 * bit_width(n);
                let id = src.to_node_id(n) as u32;
                let mut rev = 0u32;
                for b in 0..bits {
                    if id & (1 << b) != 0 {
                        rev |= 1 << (bits - 1 - b);
                    }
                }
                Coord::from_node_id(rev as usize, n)
            }
        }
    }
}

/// log2 of a power-of-two torus side.
fn bit_width(n: u16) -> u32 {
    assert!(n.is_power_of_two(), "bit patterns need power-of-two N");
    n.trailing_zeros()
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn random_excludes_self_and_covers_torus() {
        let mut r = rng();
        let src = Coord::new(3, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let d = Pattern::Random.destination(src, 4, &mut r);
            assert_ne!(d, src);
            seen.insert(d);
        }
        assert_eq!(seen.len(), 15); // all nodes except the source
    }

    #[test]
    fn local_respects_radius() {
        let mut r = rng();
        let src = Coord::new(0, 0);
        let n = 8;
        for _ in 0..1000 {
            let d = Pattern::Local { radius: 3 }.destination(src, n, &mut r);
            assert_ne!(d, src);
            // Torus Manhattan distance.
            let dx = d.x.min(n - d.x);
            let dy = d.y.min(n - d.y);
            assert!(dx + dy <= 3, "{d} too far");
        }
    }

    #[test]
    fn bit_complement_is_deterministic_involution() {
        let mut r = rng();
        let n = 8;
        for x in 0..n {
            for y in 0..n {
                let src = Coord::new(x, y);
                let d = Pattern::BitComplement.destination(src, n, &mut r);
                assert_eq!(d, Coord::new(7 - x, 7 - y));
                assert_eq!(Pattern::BitComplement.destination(d, n, &mut r), src);
            }
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mut r = rng();
        let d = Pattern::Transpose.destination(Coord::new(2, 5), 8, &mut r);
        assert_eq!(d, Coord::new(5, 2));
        // Diagonal nodes map to themselves (delivered locally).
        let d = Pattern::Transpose.destination(Coord::new(4, 4), 8, &mut r);
        assert_eq!(d, Coord::new(4, 4));
    }

    #[test]
    fn tornado_wraps_halfway() {
        let mut r = rng();
        assert_eq!(
            Pattern::Tornado.destination(Coord::new(6, 1), 8, &mut r),
            Coord::new(2, 1)
        );
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let mut r = rng();
        let n = 8;
        let mut hot_hits = 0;
        let pattern = Pattern::Hotspot { percent: 60 };
        let spots = [
            Coord::new(2, 2),
            Coord::new(5, 2),
            Coord::new(2, 5),
            Coord::new(5, 5),
        ];
        for _ in 0..2000 {
            let d = pattern.destination(Coord::new(0, 0), n, &mut r);
            if spots.contains(&d) {
                hot_hits += 1;
            }
        }
        // 60% directed + a little random spillover.
        assert!((1000..1500).contains(&hot_hits), "hot hits {hot_hits}");
    }

    #[test]
    #[should_panic(expected = "percent out of range")]
    fn hotspot_percent_validated() {
        Pattern::Hotspot { percent: 0 }.destination(Coord::new(0, 0), 8, &mut rng());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = rng();
        let n = 8;
        let mut seen = std::collections::HashSet::new();
        for id in 0..64 {
            let d = Pattern::Shuffle.destination(Coord::from_node_id(id, n), n, &mut r);
            seen.insert(d.to_node_id(n));
        }
        // A rotate-left is a bijection on ids.
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn bit_reverse_is_an_involution() {
        let mut r = rng();
        let n = 8;
        for id in 0..64 {
            let src = Coord::from_node_id(id, n);
            let d = Pattern::BitReverse.destination(src, n, &mut r);
            let back = Pattern::BitReverse.destination(d, n, &mut r);
            assert_eq!(back, src);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bit_patterns_need_power_of_two() {
        assert!(Pattern::Shuffle.admits_side(8) && Pattern::BitReverse.admits_side(2));
        assert!(!Pattern::Shuffle.admits_side(6) && !Pattern::BitReverse.admits_side(3));
        assert!(Pattern::Random.admits_side(3) && Pattern::BitComplement.admits_side(6));
        Pattern::Shuffle.destination(Coord::new(0, 0), 6, &mut rng());
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(Pattern::Random.name(), "RANDOM");
        assert_eq!(Pattern::Local { radius: 2 }.to_string(), "LOCAL");
        assert_eq!(Pattern::PAPER_SET.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least a 2x2")]
    fn tiny_torus_rejected() {
        Pattern::Random.destination(Coord::new(0, 0), 1, &mut rng());
    }
}
