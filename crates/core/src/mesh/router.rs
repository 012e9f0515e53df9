//! Mesh directions and XY dimension-ordered routing.

use crate::geom::Coord;

/// A mesh link direction. `South` is increasing `y`, matching the torus
/// convention of the torus engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Dir {
    /// Toward decreasing `y`.
    North,
    /// Toward increasing `x`.
    East,
    /// Toward increasing `y`.
    South,
    /// Toward decreasing `x`.
    West,
}

impl Dir {
    /// All directions, in arbitration index order.
    pub(crate) const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    /// Dense index (0..4).
    pub(crate) fn index(self) -> usize {
        match self {
            Dir::North => 0,
            Dir::East => 1,
            Dir::South => 2,
            Dir::West => 3,
        }
    }

    /// The direction a packet *arrives from* when sent this way.
    #[cfg(test)]
    pub(crate) fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::East => Dir::West,
            Dir::South => Dir::North,
            Dir::West => Dir::East,
        }
    }

    /// The neighbor of `at` in this direction on an `n × n` mesh, or
    /// `None` at the mesh edge (no wraparound).
    pub(crate) fn neighbor(self, at: Coord, n: u16) -> Option<Coord> {
        match self {
            Dir::North => (at.y > 0).then(|| Coord::new(at.x, at.y - 1)),
            Dir::South => (at.y + 1 < n).then(|| Coord::new(at.x, at.y + 1)),
            Dir::West => (at.x > 0).then(|| Coord::new(at.x - 1, at.y)),
            Dir::East => (at.x + 1 < n).then(|| Coord::new(at.x + 1, at.y)),
        }
    }
}

/// Where a packet at `at` heading for `dst` wants to go next under XY
/// dimension-ordered routing (`None` = eject here).
pub(crate) fn xy_route(at: Coord, dst: Coord) -> Option<Dir> {
    if at.x < dst.x {
        Some(Dir::East)
    } else if at.x > dst.x {
        Some(Dir::West)
    } else if at.y < dst.y {
        Some(Dir::South)
    } else if at.y > dst.y {
        Some(Dir::North)
    } else {
        None
    }
}

/// Minimal hop count between two mesh nodes.
#[cfg(test)]
pub(crate) fn mesh_distance(a: Coord, b: Coord) -> u32 {
    (a.x.abs_diff(b.x) + a.y.abs_diff(b.y)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposites() {
        for d in Dir::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
        assert_eq!(Dir::East.opposite(), Dir::West);
    }

    #[test]
    fn indices_dense() {
        let mut seen = [false; 4];
        for d in Dir::ALL {
            assert!(!seen[d.index()]);
            seen[d.index()] = true;
        }
    }

    #[test]
    fn neighbors_respect_mesh_edges() {
        let n = 4;
        assert_eq!(Dir::North.neighbor(Coord::new(0, 0), n), None);
        assert_eq!(Dir::West.neighbor(Coord::new(0, 0), n), None);
        assert_eq!(Dir::East.neighbor(Coord::new(3, 0), n), None);
        assert_eq!(Dir::South.neighbor(Coord::new(0, 3), n), None);
        assert_eq!(
            Dir::East.neighbor(Coord::new(1, 1), n),
            Some(Coord::new(2, 1))
        );
        assert_eq!(
            Dir::North.neighbor(Coord::new(1, 1), n),
            Some(Coord::new(1, 0))
        );
    }

    #[test]
    fn xy_routes_x_first() {
        let dst = Coord::new(3, 3);
        assert_eq!(xy_route(Coord::new(0, 0), dst), Some(Dir::East));
        assert_eq!(xy_route(Coord::new(5, 0), dst), Some(Dir::West));
        assert_eq!(xy_route(Coord::new(3, 0), dst), Some(Dir::South));
        assert_eq!(xy_route(Coord::new(3, 5), dst), Some(Dir::North));
        assert_eq!(xy_route(dst, dst), None);
    }

    #[test]
    fn distance_is_manhattan() {
        assert_eq!(mesh_distance(Coord::new(0, 0), Coord::new(3, 2)), 5);
        assert_eq!(mesh_distance(Coord::new(3, 2), Coord::new(0, 0)), 5);
        assert_eq!(mesh_distance(Coord::new(1, 1), Coord::new(1, 1)), 0);
    }
}
