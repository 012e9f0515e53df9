//! # fasttrack-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! FastTrack paper. Each `benches/` target is one experiment
//! (`cargo bench -p fasttrack-bench --bench fig11_sustained_rate`);
//! running `cargo bench` reproduces the full evaluation and mirrors each
//! table as CSV under `target/paper_results/`.
//!
//! Set `FASTTRACK_QUICK=1` to trim workload sizes for a smoke pass.

#![warn(missing_docs)]

pub mod fuzz;
pub mod journal;
pub mod runner;
pub mod table;

pub use fuzz::{fuzz, FailureClass, FuzzConfig, FuzzFailure, FuzzOutcome};
pub use journal::{grid_fingerprint, run_journaled, JournalError, SweepJournal, SweepOutcome};
pub use runner::{
    packets_per_pe, parallel_map, quick_mode, run_pattern, run_point, speedup, storm_json,
    sweep_csv, FallibleSweepOptions, NocUnderTest, PointSlo, SloSpec, SweepGrid, SweepPoint,
    SweepRow, SweepTiming, INJECTION_RATES, PE_LADDER,
};
pub use table::Table;
