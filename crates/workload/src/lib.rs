//! # ts-workload — workload generation and the throughput harness
//!
//! Reproduces the paper's §6 "Methodology": uniform keys, 20% updates
//! (half inserts / half removes), prefill to the target size, timed
//! multi-thread measurement, averaged over runs by the calling binary.
//!
//! * [`params`] — the exact Figure 3 / Figure 4 parameter presets;
//! * [`dist`] — key distributions (uniform per the paper; zipfian for the
//!   skew ablation);
//! * [`mix`] — deterministic per-thread operation streams;
//! * [`load`] — the load-generation layer ([`LoadModel`]): the classic
//!   closed loop, or an open-loop Poisson arrival schedule with
//!   coordinated-omission-correct per-op latency;
//! * [`registry`] — the scheme and structure factories
//!   ([`SchemeKind::with`], [`StructureKind::build_set`]): one match arm
//!   per variant, the only harness code that names concrete types;
//! * [`runner`] — the one measurement loop ([`run_combo`]): one structure
//!   per cell, monomorphic in the cell's scheme `S`, over a
//!   registry-built `Arc<dyn ConcurrentSet<S>>` (the priority queue joins
//!   as [`StructureKind::Pq`]);
//! * [`report`] — figure-style series tables + JSON lines.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dist;
pub mod json;
pub mod load;
pub mod mix;
pub mod params;
pub mod registry;
pub mod report;
pub mod runner;

pub use dist::{KeyDist, ZipfSampler};
pub use load::{ArrivalSchedule, LatencySummary, LoadModel, OpenLoopExtras};
pub use mix::{prefill_keys, Op, OpMix};
pub use params::{SchemeKind, StructureKind, WorkloadParams};
pub use report::Report;
pub use runner::{run_combo, stats_json, CollectorReport, RunResult};
