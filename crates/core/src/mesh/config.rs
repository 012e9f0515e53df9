//! Buffered-mesh configuration.

use std::fmt;

/// Errors raised when validating a [`MeshConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshConfigError {
    /// The mesh needs at least 2×2 routers.
    SystemTooSmall {
        /// Offending side length.
        n: u16,
    },
    /// Input buffers need at least one slot.
    ZeroBufferDepth,
}

impl fmt::Display for MeshConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshConfigError::SystemTooSmall { n } => {
                write!(f, "mesh side {n} too small, need n >= 2")
            }
            MeshConfigError::ZeroBufferDepth => f.write_str("buffer depth must be at least 1"),
        }
    }
}

impl std::error::Error for MeshConfigError {}

/// A buffered 2-D mesh NoC: five-port routers (the paper's "buffered
/// low-radix" class — CONNECT, Split-Merge, OpenSMART), XY
/// dimension-ordered routing, input FIFOs with credit-based flow
/// control, round-robin output arbitration, single-flit packets.
///
/// It prints as `Mesh 8x8 (depth 4)`, the name
/// [`TopologySpec::display_name`](crate::topology::TopologySpec::display_name)
/// gives every fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    n: u16,
    buffer_depth: usize,
}

impl MeshConfig {
    /// Creates an `n × n` mesh with the given input-FIFO depth.
    ///
    /// # Errors
    ///
    /// Returns a [`MeshConfigError`] when `n < 2` or `buffer_depth == 0`.
    pub fn new(n: u16, buffer_depth: usize) -> Result<Self, MeshConfigError> {
        if n < 2 {
            return Err(MeshConfigError::SystemTooSmall { n });
        }
        if buffer_depth == 0 {
            return Err(MeshConfigError::ZeroBufferDepth);
        }
        Ok(MeshConfig { n, buffer_depth })
    }

    /// Mesh side length.
    pub(crate) fn n(&self) -> u16 {
        self.n
    }

    /// Total routers/PEs.
    pub fn num_nodes(&self) -> usize {
        self.n as usize * self.n as usize
    }

    /// Input FIFO depth per port.
    pub(crate) fn buffer_depth(&self) -> usize {
        self.buffer_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config() {
        let c = MeshConfig::new(8, 4).unwrap();
        assert_eq!(c.n(), 8);
        assert_eq!(c.num_nodes(), 64);
        assert_eq!(c.buffer_depth(), 4);
    }

    #[test]
    fn validation() {
        assert_eq!(
            MeshConfig::new(1, 4).unwrap_err(),
            MeshConfigError::SystemTooSmall { n: 1 }
        );
        assert_eq!(
            MeshConfig::new(4, 0).unwrap_err(),
            MeshConfigError::ZeroBufferDepth
        );
        assert!(MeshConfigError::ZeroBufferDepth
            .to_string()
            .contains("depth"));
    }
}
