//! # fasttrack-fpga
//!
//! FPGA device, wire-delay, resource, routability, and power models for
//! FastTrack NoC cost analysis, calibrated against everything the paper
//! measured on the Xilinx Virtex-7 485T:
//!
//! * [`wire`] — the §III wire characterization (Figures 4 and 6): how far
//!   a signal travels in one clock, with and without LUT stages in the
//!   path, and how physical express bypass wires keep frequency high.
//! * [`resources`] — NoC cost: `fasttrack_core::resources`' LUTs and
//!   FFs plus wire bundles (Tables I and II, Figures 1 and 14).
//! * [`routability`] — does a configuration fit the device, and at what
//!   frequency (Table II, Figure 10).
//! * [`power`] — dynamic power and workload energy (Table II, Figure 19).
//! * [`published`] — literature numbers for competing routers (Table I).
//! * [`placement`] — linear vs folded torus layout wire-length analysis
//!   (the §V layout choice).
//! * [`hyperflex`] — the §VII pipelined-interconnect (Stratix 10
//!   HyperFlex) trade-off model.
//!
//! The Vivado toolchain and silicon are obviously not reproducible in a
//! library; these are *calibrated analytic models* that return the
//! paper's reported values at the paper's design points and extrapolate
//! with the physically-motivated trends described in each module.
//!
//! ```
//! use fasttrack_core::config::{NocConfig, FtPolicy};
//! use fasttrack_fpga::{device::Device, resources::noc_cost, routability::noc_frequency_mhz};
//!
//! let device = Device::virtex7_485t();
//! let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full)?;
//! let cost = noc_cost(&cfg, 256);
//! assert_eq!(cost.luts, 104_064); // paper Table II: 104 K
//! let mhz = noc_frequency_mhz(&device, &cfg, 256, 1).expect("fits");
//! assert!(mhz > 300.0);
//! # Ok::<(), fasttrack_core::config::ConfigError>(())
//! ```

#![warn(missing_docs)]

pub mod device;
pub mod hyperflex;
pub mod placement;
pub mod power;
pub mod published;
pub mod resources;
pub mod routability;
pub mod wire;

pub use device::Device;
pub use power::PowerModel;
