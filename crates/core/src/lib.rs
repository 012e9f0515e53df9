//! # fasttrack-core
//!
//! A cycle-accurate simulator for **Hoplite** and **FastTrack** bufferless,
//! deflection-routed FPGA overlay NoCs, reproducing the NoC architecture of
//! *FastTrack: Leveraging Heterogeneous FPGA Wires to Design Low-cost
//! High-performance Soft NoCs* (ISCA 2018).
//!
//! ## Model
//!
//! * **Topology** — an `N × N` unidirectional torus. FastTrack adds
//!   *express links* that jump `D` routers per cycle, braided through each
//!   ring; the depopulation factor `R` places express-capable routers
//!   every `R` positions (`FT(N², D, R)` in the paper's notation).
//! * **Routers** — bufferless, deflection-routed, dimension-ordered (X
//!   before Y), with the paper's priority and livelock rules: the
//!   `W → S` turn has the highest priority, express inputs beat short
//!   inputs, express packets leave the express lane only at the
//!   `W_ex → S_sh` / `N_ex → E_sh` turns, and the PE injects last.
//! * **Delivery** — the packet exit shares the `S_sh` port (Hoplite's
//!   two-mux switch) unless configured otherwise.
//!
//! ## Quick start
//!
//! ```
//! use fasttrack_core::prelude::*;
//!
//! // FT(64, 2, 1): an 8x8 torus with length-2 express links everywhere.
//! let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full)?;
//! let mut noc = Noc::new(cfg);
//! let mut queues = InjectQueues::new(64);
//! queues.push(0, Coord::new(4, 4), 0, 0);
//!
//! let mut deliveries = Vec::new();
//! while noc.in_flight() > 0 || !queues.is_empty() {
//!     noc.step(&mut queues, &mut deliveries, None);
//! }
//! assert_eq!(deliveries.len(), 1);
//! assert_eq!(deliveries[0].packet.express_hops, 4); // two legs of 2 hops
//! # Ok::<(), fasttrack_core::config::ConfigError>(())
//! ```
//!
//! Higher-level experiments compose a [`sim::SimSession`] around a
//! [`sim::TrafficSource`]; traffic generators live in the
//! `fasttrack-traffic` crate and FPGA wire/fit/clock models in `fasttrack-fpga`.

#![warn(missing_docs)]

mod alloc;
pub mod analysis;
pub mod attribution;
pub mod config;
pub mod export;
pub mod fallback;
pub mod fault;
pub mod geom;
pub mod kernel;
pub mod mesh;
pub mod metrics;
pub mod monitor;
pub mod multichannel;
pub mod noc;
pub mod packet;
pub mod port;
pub mod profile;
pub mod queue;
pub mod realtime;
pub mod resources;
pub mod router;
mod routing;
pub mod shg;
pub mod sim;
pub mod stats;
pub mod sweep;
pub mod topology;
pub mod trace;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::attribution::{
        AttributionConfig, AttributionReport, AttributionSink, LatencyComponent, PacketAttribution,
        PacketJourney,
    };
    pub use crate::config::{ConfigError, ExitPolicy, FtPolicy, LinkPipeline, NocConfig};
    pub use crate::export::{ChromeTraceSink, NdjsonSink};
    pub use crate::fallback::{FallbackAction, FallbackConfig, FallbackError};
    pub use crate::fault::{Fault, FaultError, FaultPlan, FaultSpec, StormSpec};
    pub use crate::geom::Coord;
    pub use crate::kernel::{RouteLut, RouteMode};
    pub use crate::mesh::{MeshBackend, MeshConfig, MeshNoc};
    pub use crate::metrics::{EpochStats, WindowedMetrics};
    pub use crate::monitor::{
        Anomaly, DetectorConfig, FlightRecorder, HealthMonitor, HealthReport, HealthSummary,
        MetricValue, MetricsRegistry, MonitorConfig,
    };
    pub use crate::multichannel::MultiNoc;
    pub use crate::noc::Noc;
    pub use crate::packet::{Delivery, Packet, PacketId, PendingPacket};
    pub use crate::port::{InPort, OutPort};
    pub use crate::profile::{PhaseStat, ProfileSummary, SessionProfile, Span, SpanRecorder};
    pub use crate::queue::InjectQueues;
    pub use crate::shg::{ShgBackend, ShgNoc};
    pub use crate::sim::{
        SessionBackend, SimEngine, SimOptions, SimOutcome, SimReport, SimSession, SpecBackend,
        SpecEngine, TorusBackend, TorusEngine, TrafficSource,
    };
    pub use crate::stats::{Histogram, LatencyStats, LinkUsage, PortCounters, SimStats};
    pub use crate::sweep::{point_seed, retry_seed, splitmix64, sweep, sweep_fallible, SweepError};
    pub use crate::topology::{
        topology_of, LinkDesc, MonitorShape, ShgConfig, ShgConfigError, ShgTopology, TopoRouteLut,
        Topology, TopologySpec, TopologySpecError, WireClass,
    };
    pub use crate::trace::{EventSink, NullSink, SimEvent, VecSink};
}
