//! # threadscan-repro — reproduction of *ThreadScan: Automatic and
//! Scalable Memory Reclamation* (SPAA 2015)
//!
//! Façade crate re-exporting the workspace:
//!
//! * [`threadscan`] — the collector core (delete buffers, conservative
//!   marking, sweep);
//! * [`sigscan`] — the POSIX-signal platform (the paper's mechanism);
//! * [`simthread`] — the deterministic simulated platform and protocol
//!   model checker;
//! * [`smr`] — the five reclamation schemes of the evaluation;
//! * [`structures`] — Harris list, lock-free hash table, lazy skip list,
//!   lazy list, Shavit–Lotan priority queue, split-ordered hash table;
//! * [`workload`] — the §6 methodology harness (uniform/zipfian mixes,
//!   set and priority-queue runners).
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! figure-regeneration binaries.

#![warn(missing_docs)]

pub use threadscan;
pub use ts_sigscan as sigscan;
pub use ts_simthread as simthread;
pub use ts_smr as smr;
pub use ts_structures as structures;
pub use ts_workload as workload;

/// Convenience: a ThreadScan SMR scheme over real POSIX signals with the
/// paper-default configuration.
pub fn default_threadscan() -> ts_smr::ThreadScanSmr<ts_sigscan::SignalPlatform> {
    ts_smr::ThreadScanSmr::new(
        ts_sigscan::SignalPlatform::new().expect("POSIX signal platform unavailable"),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_constructs_real_scheme() {
        use ts_smr::Smr;
        let scheme = super::default_threadscan();
        assert_eq!(scheme.name(), "threadscan");
        let _h = scheme.register();
    }
}
