//! # ts-smr — the reclamation schemes from the ThreadScan evaluation
//!
//! One trait ([`Smr`] / [`SmrHandle`]) and the five schemes of §6
//! "Techniques", each faithful to the cost model the paper assigns it:
//!
//! | scheme | per-read cost | per-op cost | retire cost |
//! |---|---|---|---|
//! | [`Leaky`] | none | none | counter bump (leak) |
//! | [`HazardPointers`] | publish + SeqCst fence + validate | clear slots | list push; scan at threshold |
//! | [`EpochScheme`] | none | two counter writes | bag push; advance at threshold |
//! | `EpochScheme::slow` | none | two writes (+40 ms stall for one errant thread) | as epoch |
//! | [`ThreadScanSmr`] | none | none | buffer push; signal round when full |
//!
//! Data structures in `ts-structures` are written once against the trait
//! and get all five schemes for free — which is how the paper's Figure 3
//! and Figure 4 comparisons are produced.
//!
//! Operations are bracketed by the RAII [`Guard`] returned from
//! [`SmrHandle::pin`] (see [`guard`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod epoch;
pub mod guard;
pub mod hazard;
pub mod leaky;
pub mod threadscan_smr;

pub use api::{retire_box, DropFn, Smr, SmrHandle};
pub use epoch::{EpochHandle, EpochScheme};
pub use guard::Guard;
pub use hazard::{HazardPointers, HpHandle};
pub use leaky::{Leaky, LeakyHandle};
pub use threadscan_smr::{ThreadScanHandle, ThreadScanSmr};
