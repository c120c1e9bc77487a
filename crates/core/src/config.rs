//! Collector configuration.
//!
//! The paper's interface is "Malloc and Free" plus one tuning note (§6):
//! the length of the per-thread delete buffer. That, and whether phase
//! telemetry is on, is all there is to configure.

use crate::telemetry::TelemetrySink;

/// Tuning knobs for a [`crate::Collector`].
#[derive(Clone, Debug)]
pub struct CollectorConfig {
    /// Capacity of each per-thread delete buffer, in retired nodes, at
    /// least 2, rounded **up** to the next power of two when a thread
    /// registers, so that it splits into two equal stages. Paper
    /// default (§6): 1024 ("configured to store up to 1024 pointers per
    /// thread"); Figure 4's tuned hash-table line uses 4096 ("increasing
    /// the length of the per-thread delete buffer length to 4096").
    ///
    /// The budget covers both stages of the buffer: a thread becomes
    /// reclaimer when a retire finds its fresh retires at **half** of
    /// it, and the other half is its mailbox of nodes proven
    /// reclaimable. It frees those one right before each allocation it
    /// announces (`ThreadHandle::before_alloc`), and one per retire once
    /// fresh + parked reach half of `buffer_capacity`, so it never holds
    /// more than that half unfreed.
    pub buffer_capacity: usize,
    /// Phase-event sink (see [`crate::telemetry`]). `None` (default)
    /// means telemetry is off and the collect/scan hot paths execute no
    /// additional atomic operations — the check is a branch on a plain
    /// field.
    pub telemetry: Option<TelemetrySink>,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        Self {
            buffer_capacity: 1024,
            telemetry: None,
        }
    }
}

impl CollectorConfig {
    /// Builder-style override of the buffer capacity. Non-power-of-two
    /// values are rounded up when each buffer is created.
    pub fn with_buffer_capacity(mut self, cap: usize) -> Self {
        check_buffer_capacity(cap);
        self.buffer_capacity = cap;
        self
    }

    /// Builder-style telemetry hookup: phase events flow into `sink`
    /// (typically `ts_telemetry::sink()`).
    /// See [`crate::telemetry`] for the sink's safety contract.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = Some(sink);
        self
    }
}

/// Panics unless `cap` can be split into a fresh half and a mailbox half
/// of at least one node each. `buffer_capacity` is a `pub` field, so the
/// builder cannot be the only gate: [`crate::Collector::with_config`],
/// where the value is consumed, runs the same check.
pub(crate) fn check_buffer_capacity(cap: usize) {
    assert!(cap >= 2, "buffer capacity must be at least 2, got {cap}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> TelemetrySink {
        fn rec(_: crate::telemetry::PhaseEvent) {}
        TelemetrySink { record: rec }
    }

    #[test]
    fn defaults_match_paper() {
        // No `..`: adding a knob breaks this line, and whoever adds it
        // says here which two values are in use and where each one wins
        // (ROADMAP aim 2; README "Measured and removed").
        let CollectorConfig {
            buffer_capacity,
            telemetry,
        } = CollectorConfig::default();
        assert_eq!(buffer_capacity, 1024);
        assert!(telemetry.is_none(), "telemetry must be opt-in");
    }

    #[test]
    fn sink_is_the_one_signal_safe_channel() {
        // No `..`, as above: a second callback on the sink is a second
        // accumulator for something `Collector::stats()` already counts.
        let TelemetrySink { record } = sink();
        record(crate::telemetry::PhaseEvent {
            kind: crate::telemetry::PhaseKind::Announce,
            collect_id: 1,
            arg: 0,
        });
    }

    #[test]
    fn builder_overrides_compose() {
        let cfg = CollectorConfig::default()
            .with_buffer_capacity(256)
            .with_telemetry(sink());
        assert_eq!(cfg.buffer_capacity, 256);
        assert!(cfg.telemetry.is_some());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_buffer_rejected() {
        let _ = CollectorConfig::default().with_buffer_capacity(1);
    }

    #[test]
    fn telemetry_builder_installs_sink_and_stays_clonable() {
        let cfg = CollectorConfig::default().with_telemetry(sink());
        assert!(cfg.telemetry.is_some());
        let copy = cfg.clone();
        assert!(format!("{copy:?}").contains("TelemetrySink"));
    }
}
