//! # ts-telemetry — async-signal-safe observability
//!
//! Live metrics and per-collect timelines for the ThreadScan runtime,
//! built from three pillars (no external dependencies — std plus the
//! shared [`threadscan::hist`] bucket math):
//!
//! * a process-wide **metrics registry** ([`metrics`]): lock-free
//!   registration of `&'static` counters, gauges, and log2 histograms
//!   with label support, one namespace shared by the collector, the
//!   node pools, and the workload runners;
//! * **per-thread event rings** ([`ring`]): a preallocated,
//!   overwrite-oldest record path safe to call from the sigscan signal
//!   handler — no locks, no allocation, loss accounted in
//!   [`ring::dropped_events`];
//! * **exporters** ([`export`]): Prometheus text exposition and
//!   chrome://tracing span trees with one track per scanned thread.
//!
//! ## Hooking up a collector
//!
//! ```
//! use threadscan::{Collector, CollectorConfig, NullPlatform};
//!
//! let config = CollectorConfig::default().with_telemetry(ts_telemetry::sink());
//! let collector = Collector::with_config(NullPlatform, config);
//! # let _ = collector;
//! let metrics_page = ts_telemetry::render_prometheus();
//! # let _ = metrics_page;
//! ```
//!
//! Telemetry is strictly opt-in: a collector without the sink executes
//! zero additional atomic operations on its hot paths (the hook is a
//! branch on a plain `Option` field — see `threadscan::telemetry`).
//!
//! ## Naming conventions
//!
//! Metrics are `snake_case` with a subsystem prefix
//! (`threadscan_`, `threadscan_pool_`, `threadscan_worker_`,
//! `threadscan_telemetry_`); counters end in `_total`, histograms of
//! durations in `_duration_ns`. Static dimension splits use labels.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod export;
pub mod metrics;
pub mod ring;

pub use export::{render_chrome_trace, render_chrome_trace_from, render_prometheus};
pub use metrics::{
    register_callback_gauge, register_counter, register_gauge, register_hist, AtomicHist,
    CallbackGauge, Counter, Gauge,
};
pub use ring::{drain_events, dropped_events, monotonic_ns, set_ring_capacity, EventRecord};

use threadscan::{CollectSummary, Hist, PhaseEvent, TelemetrySink};

/// Reclamation phases completed (collector wired via
/// [`sink`]); mirrors `CollectorStats::collects` summed over all
/// telemetry-enabled collectors.
static COLLECTS: Counter = Counter::new();
/// Nodes freed by reclaimers themselves (mailbox hand-offs excluded).
static FREED: Counter = Counter::new();
/// Nodes freed by their owners out of their mailboxes
/// (`StatsSnapshot::mailbox_frees`, reported one collect late).
static MAILBOX_FREES: Counter = Counter::new();
/// Nodes reclaimers freed because no mailbox would take them
/// (`StatsSnapshot::overflow_frees`).
static OVERFLOW_FREES: Counter = Counter::new();
/// Retired entries aggregated into master buffers.
static ENTRIES: Counter = Counter::new();
/// Threads that completed scans, summed over phases.
static THREADS_SCANNED: Counter = Counter::new();
/// Survivors carried out of the most recent phase.
static SURVIVORS_LAST: Gauge = Gauge::new();
/// Retired-but-unfreed nodes after the most recent phase.
static PENDING_LAST: Gauge = Gauge::new();
/// Whole-collect latency, identical bucket math to
/// `CollectorStats::collect_ns_hist`.
static COLLECT_DURATION: AtomicHist = AtomicHist::new();

static DROPPED_EVENTS_GAUGE: CallbackGauge = CallbackGauge::new(ring::dropped_events);
static RINGS_CLAIMED_GAUGE: CallbackGauge = CallbackGauge::new(ring::rings_claimed);

/// Registers the built-in collector metrics and starts the monotonic
/// clock. Idempotent; called automatically by [`sink`].
pub fn enable() {
    ring::init_clock();
    register_counter(
        "threadscan_collects_total",
        "Reclamation phases completed by telemetry-enabled collectors.",
        &[],
        &COLLECTS,
    );
    register_counter(
        "threadscan_freed_total",
        "Nodes freed by reclaimers themselves (mailbox hand-offs excluded).",
        &[],
        &FREED,
    );
    register_counter(
        "threadscan_mailbox_frees_total",
        "Nodes freed by their owners, one per retire, out of their mailboxes.",
        &[],
        &MAILBOX_FREES,
    );
    register_counter(
        "threadscan_overflow_frees_total",
        "Nodes reclaimers freed themselves because no mailbox would take them.",
        &[],
        &OVERFLOW_FREES,
    );
    register_counter(
        "threadscan_collect_entries_total",
        "Retired entries aggregated into master buffers.",
        &[],
        &ENTRIES,
    );
    register_counter(
        "threadscan_threads_scanned_total",
        "Threads that completed scans, summed over phases.",
        &[],
        &THREADS_SCANNED,
    );
    register_gauge(
        "threadscan_survivors",
        "Marked nodes carried out of the most recent phase.",
        &[],
        &SURVIVORS_LAST,
    );
    register_gauge(
        "threadscan_pending_nodes",
        "Retired-but-unfreed backlog after the most recent phase.",
        &[],
        &PENDING_LAST,
    );
    register_hist(
        "threadscan_collect_duration_ns",
        "Whole-collect latency (same log2 buckets as CollectorStats).",
        &[],
        &COLLECT_DURATION,
    );
    register_callback_gauge(
        "threadscan_telemetry_dropped_events",
        "Phase events lost to ring overwrites, torn reads, or slot exhaustion.",
        &[],
        &DROPPED_EVENTS_GAUGE,
    );
    register_callback_gauge(
        "threadscan_telemetry_rings",
        "Event ring slots claimed by threads so far.",
        &[],
        &RINGS_CLAIMED_GAUGE,
    );
}

/// The async-signal-safe record path: one ring write, nothing else.
fn record_impl(ev: PhaseEvent) {
    ring::record(ev);
}

/// End-of-collect roll-up into the registry (reclaimer context — atomics
/// only, but free to be several of them).
fn summary_impl(s: &CollectSummary) {
    COLLECTS.inc();
    FREED.add(s.freed as u64);
    MAILBOX_FREES.add(s.mailbox_frees as u64);
    OVERFLOW_FREES.add(s.overflow_frees as u64);
    ENTRIES.add(s.entries as u64);
    THREADS_SCANNED.add(s.threads_scanned as u64);
    SURVIVORS_LAST.set(s.survivors as u64);
    PENDING_LAST.set(s.pending as u64);
    COLLECT_DURATION.record(s.ns);
}

/// The telemetry sink to install via
/// `CollectorConfig::with_telemetry`. Also performs [`enable`], so the
/// built-in metrics exist by the time the first phase reports.
pub fn sink() -> TelemetrySink {
    enable();
    TelemetrySink {
        record: record_impl,
        collect_summary: summary_impl,
    }
}

/// Snapshot of the registry's collect-latency histogram (the registry
/// twin of `StatsSnapshot::collect_ns_hist`).
pub fn collect_duration_hist() -> Hist {
    COLLECT_DURATION.snapshot()
}

/// Serializes tests that touch the process-global registry, rings, or
/// built-in counters.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use threadscan::hist::BUCKETS;
    use threadscan::{Collector, CollectorConfig, NullPlatform};

    #[test]
    fn sink_feeds_builtin_metrics_through_a_real_collector() {
        let _lock = test_lock();
        let collects_before = COLLECTS.get();
        let freed_before = FREED.get();
        let mailbox_before = MAILBOX_FREES.get();
        let overflow_before = OVERFLOW_FREES.get();
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
        assert_eq!(COLLECTS.get() - collects_before, 5);
        assert_eq!(MAILBOX_FREES.get() - mailbox_before, 14, "one per retire");
        assert_eq!(FREED.get() - freed_before, 4, "the forced phase's share");
        assert_eq!(OVERFLOW_FREES.get() - overflow_before, 0);
        let page = render_prometheus();
        assert!(page.contains("# TYPE threadscan_collects_total counter"));
        assert!(page.contains("threadscan_collect_duration_ns_count"));
    }

    #[test]
    fn registry_collect_hist_equals_stats_snapshot_hist() {
        // Satellite pin: the collect-latency histogram published into the
        // registry must be bucket-for-bucket equal to the one in
        // `CollectorStats` — `/metrics` and JSON reports can never
        // disagree. Both sides record the same `ns` through the same
        // `threadscan::hist::bucket`, so the delta across this collector's
        // lifetime must match its snapshot exactly.
        let _lock = test_lock();
        let before = collect_duration_hist();
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default()
                .with_buffer_capacity(4)
                .with_telemetry(sink()),
        );
        let handle = collector.register();
        for _ in 0..64 {
            let p = Box::into_raw(Box::new([0u8; 64]));
            unsafe { handle.retire(p) };
        }
        drop(handle);
        let snap = collector.stats();
        assert!(snap.collects >= 16);
        let after = collect_duration_hist();
        for i in 0..BUCKETS {
            let delta = after.counts()[i] - before.counts()[i];
            assert_eq!(
                delta, snap.collect_ns_hist[i] as u64,
                "bucket {i}: registry delta must equal the stats histogram"
            );
        }
        // Old snapshot API is unchanged and still self-consistent.
        assert_eq!(
            snap.collect_ns_hist.iter().sum::<usize>(),
            snap.collects,
            "snapshot histogram still covers every phase"
        );
    }

    #[test]
    fn phase_events_flow_to_rings_via_collector() {
        let _lock = test_lock();
        ring::reset_rings_for_test();
        ring::set_ring_capacity(ring::RING_CAP);
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
        use threadscan::PhaseKind::*;
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
        // All events of one collect share a collect id, and the trace
        // renderer can reconstruct the span tree from them.
        let id = events
            .iter()
            .find(|e| e.kind == CollectBegin)
            .map(|e| e.collect_id)
            .unwrap();
        let of_collect: Vec<EventRecord> = events
            .iter()
            .copied()
            .filter(|e| e.collect_id == id)
            .collect();
        let json = render_chrome_trace_from(&of_collect);
        assert!(json.contains("\"name\":\"collect\""));
        assert!(json.contains("\"name\":\"sort\""));
        assert!(json.contains("\"name\":\"free\""));
    }
}
