//! # fasttrack-cli
//!
//! Command-line interface for the FastTrack NoC simulator. The binary is
//! `fasttrack`; all logic lives in this library so it is unit-testable:
//!
//! * [`spec`] — textual NoC/pattern specifications (`ft:8:2:1`,
//!   `local:2`),
//! * [`args`] — dependency-free `--flag value` parsing,
//! * [`commands`] — the `simulate` / `sweep` / `cost` / `trace`
//!   subcommands.
//!
//! ```sh
//! fasttrack simulate --noc ft:8:2:1 --pattern random --rate 0.5
//! fasttrack cost --noc ft:8:2:1 --width 256
//! fasttrack sweep --noc hoplite:8 --pattern bitcompl
//! fasttrack trace --noc hoplite:8 --file my.trace
//! ```

#![warn(missing_docs)]

pub mod args;
pub mod commands;
mod run_spec;
pub mod spec;

pub use commands::{run, CliError, USAGE};
