//! # ts-alloc — the pool the benchmark probe `alloc.pool_node_ns` measures
//!
//! No structure uses this crate: nodes are `Box`es (README, "Measured and
//! removed", has the numbers). It is the path the frozen benchmark still
//! times — [`pool::PoolHandle::alloc_node`] and [`pool::dealloc_node`]
//! over thread-local magazines ([`pool`]), the per-class central depot
//! ([`central`]), the size-class table ([`size_classes`]) and its
//! spinlock ([`spin`]) — kept unchanged so the probe keeps its meaning,
//! and deleted with the probe at the next benchmark re-cut (ROADMAP
//! carry-over).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod central;
pub mod pool;
pub mod size_classes;
pub mod spin;
mod stats;
