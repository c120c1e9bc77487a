//! # ts-alloc — the evaluation's allocator substrate
//!
//! The paper's §6 setup notes: *"For all tests, we used the highly
//! scalable TCMalloc allocator."* A memory-reclamation benchmark is only
//! as honest as its allocator — with a contended global heap, `free`
//! serializes the very threads whose scalability is being measured. This
//! crate is a from-scratch TCMalloc-shaped allocator providing the same
//! property TCMalloc contributes to the paper's testbed: **malloc/free
//! that do not contend in the common case**.
//!
//! Architecture (a faithful miniature of Ghemawat & Menage's design):
//!
//! * **Size classes** ([`size_classes`]) — small requests round up to one
//!   of ~28 classes, 16 B … 4 KiB, all 16-byte aligned.
//! * **Thread caches** ([`cache`]) — a per-thread array of intrusive
//!   free lists, one per class. Allocation and deallocation are plain
//!   pointer pops/pushes with **no atomics at all** in the hot path.
//! * **Central depot** ([`central`]) — per-class spinlocked free lists
//!   that thread caches fill from / flush to in batches, amortizing the
//!   lock to one acquisition per `BATCH` operations.
//! * **Spans** — the depot grows by carving 64 KiB spans from the system
//!   allocator into objects. Spans live for the process lifetime (as in
//!   TCMalloc, memory is recycled through the class lists, not returned
//!   to the OS).
//! * **Large requests** (> 4 KiB or alignment > 16) pass straight through
//!   to the system allocator; `GlobalAlloc`'s layout contract makes the
//!   dispatch deterministic on both `alloc` and `dealloc`.
//!
//! Use it as a drop-in global allocator:
//!
//! ```
//! use ts_alloc::TsAlloc;
//!
//! // In a binary: #[global_allocator] static ALLOC: TsAlloc = TsAlloc;
//! let stats = ts_alloc::stats();
//! assert_eq!(stats.small_allocs, stats.small_allocs); // counters exposed
//! ```
//!
//! The `ablation_allocator` bench binary runs the paper's list workload
//! with this allocator installed (`--real-alloc`) or, without the flag,
//! on the system allocator, for comparison.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod central;
pub mod global;
pub mod pool;
pub mod size_classes;
pub mod spin;
pub mod stats;
pub mod switchable;

pub use global::TsAlloc;
pub use pool::{dealloc_node, pool_bytes_resident, pool_stats, PoolHandle, PoolStats};
pub use size_classes::{class_size, NUM_CLASSES};
pub use stats::{stats, AllocStats};
pub use switchable::{enable_ts_alloc, ts_alloc_enabled, SwitchableAlloc};
