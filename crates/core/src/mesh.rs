//! A buffered, credit-flow-controlled 2-D mesh NoC — the "buffered
//! low-radix router" class (CONNECT, Split-Merge, OpenSMART) that the
//! FastTrack paper compares against in Table I and Figure 1.
//!
//! Five-port routers with per-input FIFOs, XY dimension-ordered routing,
//! round-robin output arbitration, and credit-based backpressure.
//! Packets are single-flit (matching the Hoplite-family comparison).
//! Buffered routers never deflect: losers wait. On an FPGA this costs
//! ~20× the LUTs of a Hoplite switch and halves the clock (Table I) —
//! which is exactly the trade-off the figure-1 bench quantifies by
//! simulation.
//!
//! ```
//! use fasttrack_core::geom::Coord;
//! use fasttrack_core::mesh::{MeshConfig, MeshNoc};
//! use fasttrack_core::queue::InjectQueues;
//! use fasttrack_core::sim::SimEngine;
//! use fasttrack_core::trace::NullSink;
//!
//! let mut noc = MeshNoc::new(MeshConfig::new(4, 4)?);
//! let mut queues = InjectQueues::new(16);
//! queues.push(0, Coord::new(3, 3), 0, 0);
//! let mut deliveries = Vec::new();
//! while noc.in_flight() > 0 || !queues.is_empty() {
//!     noc.step_cycle(&mut queues, &mut deliveries, &mut NullSink);
//! }
//! assert_eq!(deliveries.len(), 1);
//! assert_eq!(deliveries[0].packet.short_hops, 6); // Manhattan distance
//! # Ok::<(), fasttrack_core::mesh::MeshConfigError>(())
//! ```

mod config;
mod noc;
mod router;
mod sim;
mod topology;

pub use config::{MeshConfig, MeshConfigError};
pub use noc::MeshNoc;
pub use sim::MeshBackend;
pub(crate) use topology::MeshTopology;
