//! Collector configuration.
//!
//! Defaults follow the paper's experimental setup (§6): 1024 pointers per
//! thread, with the hash-table experiments in Figure 4 tuned to 4096.

use std::sync::Arc;

use crate::telemetry::TelemetrySink;

/// When the collector initiates reclamation phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CollectPolicy {
    /// The paper's trigger: a thread collects exactly when a retire
    /// finds the fresh stage of its own delete buffer full (half of
    /// [`CollectorConfig::buffer_capacity`]). No other signal is
    /// consulted, and the retire path touches no shared counter.
    #[default]
    Fixed,
    /// Fixed's full-buffer trigger **plus** a pending-garbage controller:
    /// a retire also initiates a collect when the process-wide count of
    /// retired nodes no scan has yet proven reclaimable crosses
    /// [`CollectorConfig::pending_high_watermark`], or when the external
    /// pressure source (typically the node pools' bytes-resident gauge)
    /// crosses [`CollectorConfig::pressure_high_watermark`]. Hysteresis:
    /// after firing, the controller re-arms only once pending drops below
    /// half the watermark, so oversubscribed runs — where survivors keep
    /// pending permanently high — cannot collect-storm.
    Adaptive,
}

/// An externally supplied heap-pressure gauge for the adaptive policy —
/// bytes of allocator memory currently resident, polled (relaxed, cheap)
/// on the retire path. Typically wraps
/// `ts_alloc::pool_bytes_resident`; injected as a closure so the
/// collector stays allocator-agnostic.
#[derive(Clone)]
pub struct PressureSource(Arc<dyn Fn() -> usize + Send + Sync>);

impl PressureSource {
    /// Wraps a bytes-resident gauge.
    pub fn new(f: impl Fn() -> usize + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }

    /// Reads the gauge.
    #[inline]
    pub fn bytes(&self) -> usize {
        (self.0)()
    }
}

impl std::fmt::Debug for PressureSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PressureSource(..)")
    }
}

/// How a scanned word is matched against the sorted delete buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchMode {
    /// Mark node `i` when a scanned word `w` satisfies
    /// `addr[i] <= w < addr[i] + size[i]`.
    ///
    /// This subsumes exact matching and additionally catches *interior*
    /// pointers (`&node.next`, skip-tower levels, …), which Rust code holds
    /// routinely. Strictly more conservative than the paper: it never frees
    /// anything the paper's exact match would retain.
    Range,
    /// Mark node `i` only when `w & !low_bit_mask == addr[i]`, the paper's
    /// §4.2 behaviour ("masks off the low-order bits"). Exposed for the
    /// matching-mode ablation; unsafe to combine with data structures that
    /// hold interior pointers.
    Exact,
}

/// Tuning knobs for a [`crate::Collector`].
#[derive(Clone, Debug)]
pub struct CollectorConfig {
    /// Capacity of each per-thread delete buffer, in retired nodes,
    /// rounded **up** to the next power of two at buffer creation (the
    /// rings' index arithmetic requires it; see
    /// [`LocalBuffer::new`](crate::buffer::LocalBuffer::new)). Paper
    /// default: 1024 ("configured to store up to 1024 pointers per
    /// thread"); Figure 4's tuned hash-table line uses 4096.
    ///
    /// The budget covers both stages of the buffer: a thread becomes
    /// reclaimer when a retire finds its fresh retires at **half** of
    /// it, and the other half is its mailbox of nodes proven
    /// reclaimable, which it frees one per retire. A thread therefore
    /// never holds more than `buffer_capacity` unfreed nodes of its own.
    pub buffer_capacity: usize,
    /// Word-matching strategy for the conservative scan.
    pub match_mode: MatchMode,
    /// Low-order bits ignored during exact matching, to tolerate tag bits
    /// such as Harris-list deletion marks. The paper masks low-order bits;
    /// 0b111 tolerates any tagging in the low three bits of 8-byte-aligned
    /// nodes. Must be a contiguous low-bit mask (`2^k - 1`): exact
    /// matching pre-masks the sorted buffer keys, and only a contiguous
    /// mask preserves their order (checked in debug builds when a master
    /// buffer is built in Exact mode).
    pub low_bit_mask: usize,
    /// Maximum number of registered per-thread heap blocks (§4.3 extension).
    pub max_heap_blocks: usize,
    /// When collects are initiated (see [`CollectPolicy`]). Default:
    /// [`CollectPolicy::Fixed`], the paper's full-buffer trigger.
    pub collect_policy: CollectPolicy,
    /// Adaptive only: count of retired nodes no scan has yet proven
    /// reclaimable (buffered, surviving or orphaned — nodes parked in
    /// mailboxes are excluded, since no collect frees them sooner) above
    /// which a retire initiates a collect even though every local buffer
    /// is still below its trigger. `0` (default) auto-sizes to a quarter
    /// of the aggregate buffer capacity of the currently registered
    /// threads — i.e. collect when the backlog reaches what the Fixed
    /// policy would accumulate across half the fleet.
    pub pending_high_watermark: usize,
    /// Adaptive only: allocator bytes-resident level (read from
    /// [`Self::pressure_source`]) above which a retire initiates a
    /// collect. `0` (default) disables the heap-pressure trigger.
    pub pressure_high_watermark: usize,
    /// Adaptive only: the bytes-resident gauge backing the heap-pressure
    /// trigger; `None` (default) disables it.
    pub pressure_source: Option<PressureSource>,
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
            match_mode: MatchMode::Range,
            low_bit_mask: 0b111,
            max_heap_blocks: 16,
            collect_policy: CollectPolicy::default(),
            pending_high_watermark: 0,
            pressure_high_watermark: 0,
            pressure_source: None,
            telemetry: None,
        }
    }
}

impl CollectorConfig {
    /// The paper's stock configuration (Figure 3).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// The tuned configuration used for the hash table in Figure 4
    /// ("increasing the length of the per-thread delete buffer length to
    /// 4096").
    pub fn paper_oversubscribed_hash() -> Self {
        Self {
            buffer_capacity: 4096,
            ..Self::default()
        }
    }

    /// Builder-style override of the buffer capacity. Non-power-of-two
    /// values are rounded up when each buffer is created.
    pub fn with_buffer_capacity(mut self, cap: usize) -> Self {
        assert!(cap >= 2, "buffer capacity must be at least 2");
        self.buffer_capacity = cap;
        self
    }

    /// Builder-style override of the match mode.
    pub fn with_match_mode(mut self, mode: MatchMode) -> Self {
        self.match_mode = mode;
        self
    }

    /// Builder-style override of the collect policy.
    pub fn with_collect_policy(mut self, policy: CollectPolicy) -> Self {
        self.collect_policy = policy;
        self
    }

    /// Builder-style override of the adaptive pending watermark
    /// (`0` = auto-size from the registered buffers).
    pub fn with_pending_high_watermark(mut self, watermark: usize) -> Self {
        self.pending_high_watermark = watermark;
        self
    }

    /// Builder-style heap-pressure trigger: initiate a collect when
    /// `source` reports at least `bytes_high_watermark` resident bytes.
    /// Only consulted under [`CollectPolicy::Adaptive`].
    pub fn with_pressure_source(
        mut self,
        source: PressureSource,
        bytes_high_watermark: usize,
    ) -> Self {
        assert!(
            bytes_high_watermark > 0,
            "pressure watermark must be positive"
        );
        self.pressure_source = Some(source);
        self.pressure_high_watermark = bytes_high_watermark;
        self
    }

    /// Builder-style telemetry hookup: phase events and collect
    /// summaries flow into `sink` (typically `ts_telemetry::sink()`).
    /// See [`crate::telemetry`] for the sink's safety contract.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = Some(sink);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = CollectorConfig::default();
        assert_eq!(cfg.buffer_capacity, 1024);
        assert_eq!(cfg.match_mode, MatchMode::Range);
        assert_eq!(
            cfg.collect_policy,
            CollectPolicy::Fixed,
            "the paper's fixed full-buffer trigger must stay the default"
        );
        assert_eq!(cfg.pending_high_watermark, 0);
        assert_eq!(cfg.pressure_high_watermark, 0);
        assert!(cfg.pressure_source.is_none());
        assert!(cfg.telemetry.is_none(), "telemetry must be opt-in");
    }

    #[test]
    fn oversubscribed_hash_preset_uses_4096() {
        assert_eq!(
            CollectorConfig::paper_oversubscribed_hash().buffer_capacity,
            4096
        );
    }

    #[test]
    fn builder_overrides_compose() {
        let cfg = CollectorConfig::default()
            .with_buffer_capacity(256)
            .with_match_mode(MatchMode::Exact);
        assert_eq!(cfg.buffer_capacity, 256);
        assert_eq!(cfg.match_mode, MatchMode::Exact);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_buffer_rejected() {
        let _ = CollectorConfig::default().with_buffer_capacity(1);
    }

    #[test]
    fn policy_builders_compose_and_stay_clonable() {
        let gauge = PressureSource::new(|| 4096);
        let cfg = CollectorConfig::default()
            .with_collect_policy(CollectPolicy::Adaptive)
            .with_pending_high_watermark(512)
            .with_pressure_source(gauge, 1 << 20);
        assert_eq!(cfg.collect_policy, CollectPolicy::Adaptive);
        assert_eq!(cfg.pending_high_watermark, 512);
        assert_eq!(cfg.pressure_high_watermark, 1 << 20);
        // Config must remain Clone + Debug with a live gauge attached.
        let copy = cfg.clone();
        assert_eq!(copy.pressure_source.as_ref().unwrap().bytes(), 4096);
        assert!(format!("{copy:?}").contains("PressureSource"));
    }

    #[test]
    fn telemetry_builder_installs_sink_and_stays_clonable() {
        fn rec(_: crate::telemetry::PhaseEvent) {}
        fn sum(_: &crate::telemetry::CollectSummary) {}
        let cfg = CollectorConfig::default().with_telemetry(TelemetrySink {
            record: rec,
            collect_summary: sum,
        });
        assert!(cfg.telemetry.is_some());
        let copy = cfg.clone();
        assert!(format!("{copy:?}").contains("TelemetrySink"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_pressure_watermark_rejected() {
        let _ = CollectorConfig::default().with_pressure_source(PressureSource::new(|| 0), 0);
    }
}
