//! # fasttrack-traffic
//!
//! Traffic generation for FastTrack NoC evaluation: the paper's synthetic
//! patterns and the four FPGA-accelerator case studies.
//!
//! * [`pattern`] — RANDOM / LOCAL / BITCOMPL / TRANSPOSE destination maps.
//! * [`source`] — the open-loop Bernoulli injector and the [`Message`]
//!   a closed workload is made of.
//! * [`scenario`] — recorded push schedules and [`ReplaySource`], which
//!   plays every fixed schedule: case-study and serialization batches,
//!   PARSEC traces, text traces ([`trace_io`]) and recorded scenarios.
//!   Every source implements [`fasttrack_core::sim::TrafficSource`].
//! * [`matrix`] + [`spmv`] — synthetic Matrix-Market-class matrices and
//!   Sparse Matrix-Vector Multiplication traffic (Figure 15a).
//! * [`graph_gen`] + [`graph`] — R-MAT / road-network graphs and
//!   vertex-push analytics traffic (Figure 15b).
//! * [`dataflow`] — token LU-factorization DAGs and a dependency-driven
//!   latency-sensitive source (Figure 15c).
//! * [`multiproc`] — PARSEC-like multiprocessor-overlay traces
//!   (Figure 15d).
//!
//! ```
//! use fasttrack_core::prelude::*;
//! use fasttrack_traffic::pattern::Pattern;
//! use fasttrack_traffic::source::BernoulliSource;
//!
//! let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full)?;
//! let mut src = BernoulliSource::new(8, Pattern::Random, 0.3, 100, 42);
//! let report = SimSession::new(&cfg).run(&mut src).unwrap().report;
//! assert_eq!(report.stats.delivered, 6400);
//! # Ok::<(), fasttrack_core::config::ConfigError>(())
//! ```

#![warn(missing_docs)]

pub mod adversarial;
pub mod dataflow;
pub mod graph;
pub mod graph_gen;
pub mod matrix;
pub mod multiproc;
pub mod partition;
pub mod pattern;
pub mod regulated;
pub mod scenario;
pub mod serialize;
pub mod source;
pub mod spmv;
pub mod trace_io;

pub use partition::Partition;
pub use pattern::Pattern;
pub use scenario::{
    RecordingSource, ReplaySource, ScenarioHeader, ScenarioRecord, ScenarioTrace, TraceError,
};
pub use source::{BernoulliSource, Message};
