//! # fasttrack-bench
//!
//! The experiment harness: the deterministic sweep grid the CLI's
//! `sweep` / `storm` / `compare` run through ([`runner`]), its
//! crash-safe journal ([`journal`]), the scenario fuzzer ([`mod@fuzz`]),
//! and the figure catalog ([`figures`]) that regenerates every table
//! and figure of the FastTrack paper and executes the paper's shape
//! claims as checks — `fasttrack figure --all --out <dir>` at full
//! scale, `cargo test` at reduced scale.

#![warn(missing_docs)]

pub mod figures;
pub mod fuzz;
pub mod journal;
pub mod runner;
mod table;

pub use fuzz::{fuzz, FailureClass, FuzzConfig, FuzzFailure, FuzzOutcome};
pub use journal::{run_journaled, JournalError, PointOutcome, SweepOutcome};
pub use runner::{
    storm_json, sweep_csv, FallibleSweepOptions, NocUnderTest, SloSpec, SweepGrid, SweepPoint,
    SweepRow, SweepTiming, INJECTION_RATES,
};
pub use table::{csv_field, Table};
