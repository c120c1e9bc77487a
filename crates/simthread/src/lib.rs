//! # ts-simthread — deterministic simulated platform for ThreadScan
//!
//! The real ThreadScan platform (`ts-sigscan`) interrupts threads with POSIX
//! signals and conservatively scans raw stacks; correct, but inherently
//! nondeterministic (dead stack slots, register spills, scheduling). This
//! crate substitutes each OS piece with an explicit, deterministic one and
//! shares the rest, so the *protocol* — buffering, aggregation, marking,
//! sweeping, survivor carry-over, the round — can be tested exhaustively:
//!
//! | paper / sigscan | here |
//! |---|---|
//! | thread stack + registers | [`ShadowStack`]: explicit root words |
//! | the round: announce, scan and ack once, wait (`threadscan::Round::run`) | the same `Round::run`, one `Round` per collector |
//! | POSIX signal delivery | [`SimPlatform::poll`] claims the round and scans |
//! | OS guarantees delivery to stalled threads | reclaimer force-scan after a grace period (none for [`SimPlatform::direct`]) |
//!
//! [`model::run_model`] runs seeded random schedules of the protocol's
//! abstract operations and checks the paper's Lemma 1 (no rooted node is
//! ever freed — asserted inside every node destructor) and Lemma 4 (all
//! unrooted retired nodes are freed within bounded phases).
//!
//! Every choice point of the model goes through `ts_choose::Chooser`, so
//! the explorer in `ts-choose` upgrades those checks from randomized to
//! **exhaustive** at small bounds: a DFS scheduler enumerates *every*
//! interleaving of a scenario's choice points, and any failing schedule is
//! replayable from its printed decision string (see `tests/exhaustive.rs`
//! for the named handshake scenarios backing the memory-ordering policy
//! table in the README).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod model;
pub mod shadow;
pub mod virtsig;

pub use model::{run_model, run_model_with, ModelConfig, ModelMachine, ModelReport};
pub use shadow::ShadowStack;
pub use virtsig::{SimPlatform, SimRecord};
