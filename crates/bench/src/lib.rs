//! # ts-bench — figure regeneration binaries and micro-benchmarks
//!
//! Binaries (run with `--release`):
//!
//! * `fig3_throughput` — Figure 3: throughput vs threads, 3 structures ×
//!   5 schemes.
//! * `fig4_oversub` — Figure 4: oversubscription, 3 structures ×
//!   {leaky, epoch, threadscan} (+ the tuned 4096-buffer hash line).
//! * `ablation_buffer_size` — delete-buffer size sweep (§6 tuning note).
//! * `ablation_update_ratio` — update-percentage sweep.
//!
//! Criterion benches cover the micro costs: marking kernels, delete-buffer
//! ops, signal round-trips, full collect phases, structure op latency.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
