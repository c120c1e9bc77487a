//! # ts-bench — the figures, the ablations and the probes
//!
//! One binary, `ts-bench <experiment> [flags]` (run with `--release`;
//! `ts-bench list` prints the table in [`experiments`]): Figure 3
//! throughput, Figure 4 oversubscription, the open-loop service tail and
//! the ablations. Each is a list of cells for the
//! one [`sweep`] loop; [`bespoke::probes`] times the single-thread fast
//! paths the frozen `benchmark/` package has no probe for. [`pairs`] runs
//! two builds of that package against each other. [`trace`] renders the
//! `--trace-out` chrome trace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bespoke;
pub mod cli;
pub mod experiments;
pub mod pairs;
pub mod sweep;
pub mod trace;
