//! Torus geometry: node coordinates and modular distance arithmetic.
//!
//! FastTrack (like Hoplite) uses a **unidirectional** 2-D torus: packets
//! travel only east in the X dimension and only south in the Y dimension,
//! wrapping around at the edges. All "distances" here are therefore the
//! one-way ring distances `(dst - src) mod N`, never the shortest
//! bidirectional distance.

use std::fmt;

/// A router/PE coordinate on an `N × N` torus.
///
/// `x` grows eastward, `y` grows southward (matching the paper's Figure 8,
/// where packets drop "down the Y ring one switch at a time").
///
/// # Examples
///
/// ```
/// use fasttrack_core::geom::Coord;
///
/// let c = Coord::new(3, 1);
/// assert_eq!(c.x, 3);
/// assert_eq!(c.to_node_id(8), 11);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Coord {
    /// Column (eastward).
    pub x: u16,
    /// Row (southward).
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate. No bounds are checked here; bounds are
    /// validated when the coordinate meets a concrete topology.
    pub const fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Linearizes to a node id in row-major order (`y * n + x`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coordinate lies outside the torus.
    pub fn to_node_id(self, n: u16) -> usize {
        debug_assert!(
            self.x < n && self.y < n,
            "coord {self} outside {n}x{n} torus"
        );
        self.y as usize * n as usize + self.x as usize
    }

    /// Inverse of [`Coord::to_node_id`].
    pub fn from_node_id(id: usize, n: u16) -> Self {
        Coord {
            x: (id % n as usize) as u16,
            y: (id / n as usize) as u16,
        }
    }

    /// One-way (eastward) ring distance from `self.x` to `dst.x`.
    pub fn dx_to(self, dst: Coord, n: u16) -> u16 {
        ring_delta(self.x, dst.x, n)
    }

    /// One-way (southward) ring distance from `self.y` to `dst.y`.
    pub fn dy_to(self, dst: Coord, n: u16) -> u16 {
        ring_delta(self.y, dst.y, n)
    }

    /// Coordinate reached by moving `hops <= n` east.
    pub fn east(self, hops: u16, n: u16) -> Coord {
        Coord::new(ring_add(self.x, hops, n), self.y)
    }

    /// Coordinate reached by moving `hops <= n` south.
    pub(crate) fn south(self, hops: u16, n: u16) -> Coord {
        Coord::new(self.x, ring_add(self.y, hops, n))
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// One-way ring distance `(to - from) mod n` on a unidirectional ring.
#[inline]
pub(crate) fn ring_delta(from: u16, to: u16, n: u16) -> u16 {
    debug_assert!(n > 0 && from < n && to < n);
    // Both operands are already reduced, so `(to - from) mod n` is one
    // compare-and-add: no division on the per-lookup path.
    if to >= from {
        to - from
    } else {
        to + n - from
    }
}

/// `(pos + hops) mod n` for a reduced position and at most one full lap,
/// by compare-and-subtract.
#[inline]
fn ring_add(pos: u16, hops: u16, n: u16) -> u16 {
    debug_assert!(pos < n && hops <= n);
    let sum = pos + hops;
    if sum >= n {
        sum - n
    } else {
        sum
    }
}

/// Greatest common divisor (used for express-ring reachability).
pub(crate) fn gcd(a: u16, b: u16) -> u16 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = 8;
        for id in 0..(n as usize * n as usize) {
            let c = Coord::from_node_id(id, n);
            assert_eq!(c.to_node_id(n), id);
        }
    }

    #[test]
    fn node_id_is_row_major() {
        assert_eq!(Coord::new(0, 0).to_node_id(4), 0);
        assert_eq!(Coord::new(3, 0).to_node_id(4), 3);
        assert_eq!(Coord::new(0, 1).to_node_id(4), 4);
        assert_eq!(Coord::new(3, 3).to_node_id(4), 15);
    }

    #[test]
    fn ring_delta_wraps_past_the_edge() {
        assert_eq!(ring_delta(1, 5, 8), 4);
        assert_eq!(ring_delta(5, 1, 8), 4); // wraps east past the edge
        assert_eq!(ring_delta(3, 3, 8), 0);
    }

    #[test]
    fn ring_delta_basic() {
        assert_eq!(ring_delta(0, 0, 4), 0);
        assert_eq!(ring_delta(0, 3, 4), 3);
        assert_eq!(ring_delta(3, 0, 4), 1);
        assert_eq!(ring_delta(2, 1, 4), 3);
    }

    #[test]
    fn ring_delta_symmetry_complement() {
        // For distinct points, east distance + return distance == n.
        let n = 16;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    assert_eq!(ring_delta(a, b, n) + ring_delta(b, a, n), n);
                }
            }
        }
    }

    #[test]
    fn east_south_wrap() {
        let c = Coord::new(6, 7);
        assert_eq!(c.east(3, 8), Coord::new(1, 7));
        assert_eq!(c.south(2, 8), Coord::new(6, 1));
        assert_eq!(c.east(8, 8), c);
    }

    /// The compare-and-subtract forms against the `%` they replaced, on
    /// every operand pair of every ring up to 64.
    #[test]
    fn ring_arithmetic_matches_modulo() {
        for n in 1..=64u16 {
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(ring_delta(a, b, n), (b + n - a) % n, "{a}->{b} on {n}");
                }
                // `b` as a hop count: zero to one full lap.
                for hops in 0..=n {
                    let wrapped = (a + hops) % n;
                    let at = Coord::new(a, a);
                    assert_eq!(at.east(hops, n), Coord::new(wrapped, a));
                    assert_eq!(at.south(hops, n), Coord::new(a, wrapped));
                }
            }
        }
    }

    #[test]
    fn dx_dy_match_ring_delta() {
        let n = 8;
        let a = Coord::new(5, 2);
        let b = Coord::new(1, 6);
        assert_eq!(a.dx_to(b, n), 4);
        assert_eq!(a.dy_to(b, n), 4);
        assert_eq!(b.dx_to(a, n), 4);
    }

    #[test]
    fn gcd_values() {
        assert_eq!(gcd(8, 2), 2);
        assert_eq!(gcd(8, 3), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(12, 18), 6);
    }

    #[test]
    fn display_format() {
        assert_eq!(Coord::new(3, 1).to_string(), "(3,1)");
    }
}
