//! # threadscan — automatic and scalable memory reclamation
//!
//! A from-scratch Rust implementation of **ThreadScan** (Alistarh,
//! Leiserson, Matveev, Shavit — SPAA 2015): concurrent memory reclamation
//! that is *automatic* — no per-read hazard publication, no epoch
//! discipline. Threads hand unlinked nodes to [`ThreadHandle::retire`];
//! when the fresh half of a per-thread delete buffer fills, that thread
//! becomes the reclaimer, aggregates all buffers, and asks every registered
//! thread (via the [`Platform`], normally OS signals) to conservatively
//! scan its own stack and registers for references. Unreferenced nodes go
//! back to the threads that retired them, which free one per later retire;
//! referenced ones survive to the next phase.
//!
//! This crate is the platform-neutral protocol core. Pair it with:
//!
//! * [`ts-sigscan`](../ts_sigscan/index.html) — the real thing: POSIX
//!   signals, stack-bounds discovery, `ucontext` register capture;
//! * [`ts-simthread`](../ts_simthread/index.html) — a deterministic
//!   simulated platform (shadow stacks, virtual signals) for protocol
//!   testing and model checking.
//!
//! ## Quick start
//!
//! ```
//! use threadscan::{Collector, NullPlatform};
//!
//! // NullPlatform frees everything unconditionally — fine for a
//! // single-threaded demo; use ts-sigscan's SignalPlatform in real code.
//! let collector = Collector::new(NullPlatform);
//! let handle = collector.register();
//!
//! let node = Box::into_raw(Box::new([0u8; 64]));
//! // ... unlink `node` from your data structure, then:
//! unsafe { handle.retire(node) };
//! handle.flush(); // normally happens automatically when the buffer fills
//! assert_eq!(collector.stats().freed, 1);
//! ```
//!
//! ## Assumptions (paper §3.2, Assumption 1)
//!
//! 1. Retired nodes are already unreachable from shared memory.
//! 2. Reclamation events per method call are bounded (deletes are batched).
//! 3. References are visible to a conservative word scan: word-aligned
//!    (low-order tag bits allowed), not hidden by XOR-style obfuscation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod collector;
pub mod config;
pub mod errors;
pub mod hist;
pub mod master;
pub mod platform;
pub mod retired;
pub mod roots;
pub mod round;
pub mod scan;
pub mod selfscan;
pub mod session;
pub mod stats;
pub mod telemetry;

pub use collector::{Collector, ThreadHandle};
pub use config::CollectorConfig;
pub use errors::HeapBlockError;
pub use hist::Hist;
pub use platform::{NullPlatform, Platform, RegistryKey, ScanOutcome};
pub use retired::{DropFn, Retired};
pub use roots::{ThreadRoots, MAX_HEAP_BLOCKS};
pub use round::{Round, ScanClaim};
pub use selfscan::{capture_context, SelfScanContext};
pub use session::ScanSession;
pub use stats::{CollectorStats, StatsSnapshot};
pub use telemetry::{PhaseEvent, PhaseKind, TelemetrySink};
