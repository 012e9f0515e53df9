//! # fasttrack
//!
//! A full reproduction of *FastTrack: Leveraging Heterogeneous FPGA Wires
//! to Design Low-cost High-performance Soft NoCs* (ISCA 2018) as a Rust
//! library: a cycle-accurate simulator for Hoplite and FastTrack
//! bufferless deflection-routed FPGA overlay NoCs, calibrated FPGA
//! cost/timing/power models for the Xilinx Virtex-7 485T, and the
//! paper's complete workload suite.
//!
//! This facade re-exports the three member crates and the mesh
//! baseline:
//!
//! * [`core`] (`fasttrack-core`) — topology, routers, routing, the
//!   simulation engine, multi-channel NoCs, and statistics.
//! * [`fpga`] (`fasttrack-fpga`) — wire-delay characterization, LUT/FF
//!   cost, routability, and power/energy models.
//! * [`traffic`] (`fasttrack-traffic`) — synthetic patterns plus SpMV,
//!   graph analytics, token LU dataflow, and multiprocessor-overlay
//!   workload generators.
//! * [`mesh`] (`fasttrack_core::mesh`) — the buffered
//!   credit-flow-controlled 2-D mesh baseline (the Table I / Figure 1
//!   comparison class).
//!
//! ## Quick start
//!
//! ```
//! use fasttrack::prelude::*;
//!
//! // FT(64, 2, 1): 8x8 torus, express links of length 2 everywhere.
//! let ft = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full)?;
//! let hoplite = NocConfig::hoplite(8)?;
//!
//! // Saturating uniform-random traffic, 100 packets per PE.
//! let run = |cfg: &NocConfig| {
//!     let mut src = BernoulliSource::new(8, Pattern::Random, 1.0, 100, 7);
//!     SimSession::new(cfg).run(&mut src).unwrap().report
//! };
//! let (ft_run, hoplite_run) = (run(&ft), run(&hoplite));
//! assert!(ft_run.sustained_rate_per_pe() > 1.5 * hoplite_run.sustained_rate_per_pe());
//! # Ok::<(), fasttrack::core::config::ConfigError>(())
//! ```
//!
//! The checked figure catalog regenerating every table and figure of
//! the paper lives in the `fasttrack-bench` crate (`fasttrack figure
//! --all`); runnable scenarios are under `examples/`.

pub use fasttrack_core as core;
pub use fasttrack_core::mesh;
pub use fasttrack_fpga as fpga;
pub use fasttrack_traffic as traffic;

/// One-stop imports for applications.
pub mod prelude {
    pub use fasttrack_core::prelude::*;
    pub use fasttrack_fpga::device::Device;
    pub use fasttrack_fpga::power::PowerModel;
    pub use fasttrack_fpga::resources::{noc_cost, NocCost};
    pub use fasttrack_fpga::routability::noc_frequency_mhz;
    pub use fasttrack_traffic::partition::Partition;
    pub use fasttrack_traffic::pattern::Pattern;
    pub use fasttrack_traffic::scenario::ReplaySource;
    pub use fasttrack_traffic::source::{BernoulliSource, Message};
}
