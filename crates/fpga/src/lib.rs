//! # fasttrack-fpga
//!
//! FPGA device, wire-delay, resource, routability, and power models for
//! NoC cost analysis, calibrated against everything the FastTrack paper
//! measured on the Xilinx Virtex-7 485T:
//!
//! * [`wire`] — the §III wire characterization (Figures 4 and 6): how far
//!   a signal travels in one clock, with and without LUT stages in the
//!   path, and how physical express bypass wires keep frequency high.
//! * [`resources`] — NoC cost: `fasttrack_core::resources`' LUTs and
//!   FFs plus wire bundles (Tables I and II, Figures 1 and 14).
//! * [`routability`] — does a fabric fit the device, and at what
//!   frequency (Table II, Figure 10).
//! * [`power`] — dynamic power and workload energy (Table II, Figure 19).
//! * [`published`] — literature numbers for competing routers (Table I).
//!
//! Every model takes a `&dyn Topology` and reads only its price
//! ([`Topology::resource_cost`]), its links' wire class, span and
//! cycles ([`Topology::links`]), its routers' LUT depth
//! ([`Topology::lut_stages`]) and its side, so the torus, the Sparse
//! Hamming Graph and the buffered mesh are priced, wired, clocked and
//! powered by one rule.
//!
//! The Vivado toolchain and silicon are obviously not reproducible in a
//! library; these are *calibrated analytic models* that return the
//! paper's reported values at the paper's design points and extrapolate
//! with the physically-motivated trends described in each module.
//!
//! ```
//! use fasttrack_core::config::{NocConfig, FtPolicy};
//! use fasttrack_core::topology::{ShgConfig, ShgTopology};
//! use fasttrack_fpga::{device::Device, resources::noc_cost, routability::noc_frequency_mhz};
//!
//! let device = Device::virtex7_485t();
//! let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full)?;
//! let cost = noc_cost(&cfg, 256);
//! assert_eq!(cost.luts, 104_064); // paper Table II: 104 K
//! let mhz = noc_frequency_mhz(&device, &cfg, 256, 1).expect("fits");
//! assert!(mhz > 300.0);
//! // A Sparse Hamming Graph's stride-2 wires clock like FT(64,2,1)'s.
//! let shg = ShgTopology::new(ShgConfig::new(8, 2).unwrap());
//! assert_eq!(noc_frequency_mhz(&device, &shg, 256, 1), Ok(mhz));
//! # Ok::<(), fasttrack_core::config::ConfigError>(())
//! ```
//!
//! [`Topology::resource_cost`]: fasttrack_core::topology::Topology::resource_cost
//! [`Topology::links`]: fasttrack_core::topology::Topology::links
//! [`Topology::lut_stages`]: fasttrack_core::topology::Topology::lut_stages

#![warn(missing_docs)]

pub mod device;
pub mod power;
pub mod published;
pub mod resources;
pub mod routability;
pub mod wire;

pub use device::Device;
pub use power::PowerModel;
