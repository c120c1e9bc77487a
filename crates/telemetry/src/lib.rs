//! # ts-telemetry — async-signal-safe phase tracing
//!
//! Per-collect timelines for the ThreadScan runtime (no external
//! dependencies — std plus the shared [`threadscan::hist`] bucket math):
//!
//! * **the event log** ([`ring`]): one process-wide, preallocated,
//!   write-once log of [`ring::CAPACITY`] events whose record path is
//!   safe to call from the sigscan signal handler — no locks, no
//!   allocation; events past the end are dropped and counted in
//!   [`ring::dropped_events`], never silently lost;
//! * **the sink** ([`sink`]): what a collector calls with each phase
//!   event, one log write.
//!
//! [`drain_events`] hands the recorded events, in the order they were
//! recorded, to whoever renders them (`ts-bench --trace-out` writes a
//! chrome://tracing document, one track per recording thread).
//!
//! This crate keeps no counters of its own. What a collect did is
//! counted once, in `CollectorStats`, and read with `Collector::stats()`
//! whether or not a sink is installed; the log carries the same
//! per-collect numbers as event payloads (`CollectBegin.arg` = entries,
//! `FreeEnd.arg` = reclaimer frees, `AllAcked.arg` = acks,
//! `CollectEnd.arg` = survivors) next to their timestamps.
//!
//! ## Hooking up a collector
//!
//! ```
//! use threadscan::{Collector, CollectorConfig, NullPlatform};
//!
//! let config = CollectorConfig::default().with_telemetry(ts_telemetry::sink());
//! let collector = Collector::with_config(NullPlatform, config);
//! let counters = collector.stats();
//! let events = ts_telemetry::drain_events();
//! # let _ = (counters, events);
//! ```
//!
//! Telemetry is strictly opt-in: a collector without the sink executes
//! zero additional atomic operations on its hot paths (the hook is a
//! branch on a plain `Option` field — see `threadscan::telemetry`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ring;

pub use ring::{drain_events, dropped_events, monotonic_ns, EventRecord};

use threadscan::TelemetrySink;

/// The telemetry sink to install via
/// `CollectorConfig::with_telemetry`: every phase event becomes one
/// async-signal-safe log write ([`ring::record`]), nothing else. Also
/// anchors the monotonic clock, so it is set before any event is stamped.
pub fn sink() -> TelemetrySink {
    ring::init_clock();
    TelemetrySink {
        record: ring::record,
    }
}

/// Serializes tests that touch the process-global log.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use threadscan::{Collector, CollectorConfig, NullPlatform, PhaseKind};

    #[test]
    fn ring_carries_the_per_collect_totals_of_a_real_collector() {
        let _lock = test_lock();
        ring::reset_for_test();
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default()
                .with_buffer_capacity(8)
                .with_telemetry(sink()),
        );
        let handle = collector.register();
        for _ in 0..18 {
            let p = Box::into_raw(Box::new([0u8; 64]));
            unsafe { handle.retire(p) };
        }
        // Four phases (retires 5, 9, 13 and 17 found the fresh half
        // full), then a forced one over the 2 fresh and 2 still-parked
        // nodes.
        handle.flush();
        drop(handle);
        let snap = collector.stats();
        assert_eq!(snap.collects, 5);
        assert_eq!(snap.mailbox_frees, 14, "one per retire");
        assert_eq!(
            snap.freed - snap.mailbox_frees,
            4,
            "the forced phase's share"
        );
        assert_eq!(snap.overflow_frees, 0);

        // The events repeat every one of those per-collect numbers, so a
        // trace alone can rebuild them.
        let events = drain_events();
        let args_of = |kind: PhaseKind| {
            events
                .iter()
                .filter(move |e| e.kind == kind)
                .map(|e| e.arg as usize)
        };
        assert_eq!(args_of(PhaseKind::CollectBegin).count(), snap.collects);
        assert_eq!(args_of(PhaseKind::CollectBegin).sum::<usize>(), 18);
        assert_eq!(args_of(PhaseKind::FreeEnd).sum::<usize>(), 4);
        assert_eq!(args_of(PhaseKind::CollectEnd).count(), snap.collects);
        assert!(args_of(PhaseKind::CollectEnd).all(|survivors| survivors == 0));
        assert_eq!(dropped_events(), 0);
    }

    #[test]
    fn phase_events_flow_to_rings_via_collector() {
        let _lock = test_lock();
        ring::reset_for_test();
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default()
                .with_buffer_capacity(8)
                .with_telemetry(sink()),
        );
        let handle = collector.register();
        for _ in 0..8 {
            let p = Box::into_raw(Box::new([0u8; 64]));
            unsafe { handle.retire(p) };
        }
        drop(handle);
        let events = drain_events();
        use PhaseKind::*;
        for kind in [
            CollectBegin,
            SortBegin,
            SortEnd,
            FreeBegin,
            FreeEnd,
            CollectEnd,
        ] {
            assert!(
                events.iter().any(|e| e.kind == kind),
                "phase {kind:?} must be stamped"
            );
        }
    }
}
