//! Telemetry hook points: how a collector publishes phase events.
//!
//! The protocol core stays dependency-free, so this module defines only
//! the *shape* of telemetry — a [`TelemetrySink`] holding one plain
//! function pointer — and leaves the implementation (the event log) to
//! the `ts-telemetry` crate, which hands a sink to
//! [`CollectorConfig::with_telemetry`](crate::CollectorConfig::with_telemetry).
//! Counters are not telemetry: every per-collect total is a
//! [`StatsSnapshot`](crate::StatsSnapshot) field, read with
//! `Collector::stats()`, sink or no sink.
//!
//! Two contracts matter:
//!
//! 1. **Async-signal-safety.** [`TelemetrySink::record`] is called from
//!    the sigscan signal handler (for [`PhaseKind::ScanBegin`] /
//!    [`PhaseKind::ScanEnd`]). An implementation must not allocate,
//!    lock, or panic on that path.
//! 2. **Zero cost when off.** The sink travels as
//!    `Option<TelemetrySink>` in plain (non-atomic) fields — config,
//!    scan session. When it is `None`, the hot paths execute no extra
//!    atomic operations at all; the check is one branch on a plain load.

use core::sync::atomic::{AtomicU64, Ordering};

macro_rules! phases {
    ($($(#[$doc:meta])+ $kind:ident = $code:literal => $label:literal,)+) => {
        /// What a [`PhaseEvent`] marks within a reclamation phase.
        ///
        /// Paired `*Begin`/`*End` kinds bracket spans; the rest are instants.
        /// Discriminants are stable and public so sinks can pack a kind into
        /// an event-log word via [`PhaseKind::code`] and recover it with
        /// [`PhaseKind::from_code`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum PhaseKind {
            $($(#[$doc])+ $kind = $code,)+
        }

        /// All kinds, in discriminant order (handy for exporters and tests).
        pub const PHASE_KINDS: [PhaseKind; [$($code),+].len()] = [$(PhaseKind::$kind),+];

        impl PhaseKind {
            /// Inverse of [`PhaseKind::code`]; `None` for unknown codes.
            pub const fn from_code(code: u64) -> Option<Self> {
                match code {
                    $($code => Some(Self::$kind),)+
                    _ => None,
                }
            }

            /// Human/trace-facing name (`snake_case`, stable).
            pub const fn label(self) -> &'static str {
                match self {
                    $(Self::$kind => $label,)+
                }
            }
        }
    };
}

// Every kind is declared once here, with its doc comment, its stable
// wire code (never 0) and its trace label. The list generates
// `PhaseKind`, `PHASE_KINDS`, `PhaseKind::from_code` and
// `PhaseKind::label`.
phases! {
    /// Reclaimer entered `collect`: buffers drained, master build next.
    /// `arg` = number of retired entries aggregated this phase.
    CollectBegin = 1 => "collect",
    /// Master-buffer build (sort) started.
    SortBegin = 2 => "sort",
    /// Master-buffer build finished. `arg` = entry count.
    SortEnd = 3 => "sort_end",
    /// Scan round opened; signals are about to be broadcast.
    /// `arg` = number of threads expected to acknowledge.
    Announce = 4 => "announce",
    /// One signal was delivered to a peer thread. `arg` = target ordinal
    /// within this round's broadcast (0-based).
    SignalSent = 5 => "signal_sent",
    /// A thread (handler or self-scan) began scanning its roots.
    /// Recorded *inside the signal handler* — the sink must be
    /// async-signal-safe.
    ScanBegin = 6 => "scan",
    /// A thread finished scanning, immediately before its ACK.
    /// `arg` = words scanned so far session-wide (approximate attribution).
    ScanEnd = 7 => "scan_end",
    /// Every expected acknowledgment arrived. `arg` = acks counted.
    AllAcked = 8 => "all_acked",
    /// Sweep started: unmarked nodes are about to be handed back to the
    /// threads' mailboxes (or, on a forced collect, freed). `arg` =
    /// candidate node count.
    FreeBegin = 9 => "free",
    /// Sweep finished. `arg` = nodes the reclaimer freed itself.
    FreeEnd = 10 => "free_end",
    /// Reclaimer left `collect`. `arg` = survivor count.
    CollectEnd = 11 => "collect_end",
}

impl PhaseKind {
    /// Stable wire code for event-log packing. Never 0, so an unpublished
    /// log cell cannot alias a real event.
    #[inline]
    pub const fn code(self) -> u64 {
        self as u64
    }
}

/// One phase event, as handed to [`TelemetrySink::record`].
///
/// Deliberately timestamp-free: the sink stamps monotonic nanoseconds at
/// record time, so the core never takes a clock reading on behalf of a
/// sink that may not want one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseEvent {
    /// Which phase boundary this is.
    pub kind: PhaseKind,
    /// Which collect it belongs to. Monotonic per process (from
    /// [`next_collect_id`]); lets exporters group events from concurrent
    /// collectors and interleaved threads into per-collect span trees.
    pub collect_id: u64,
    /// Kind-specific payload; see each [`PhaseKind`] variant.
    pub arg: u64,
}

/// Telemetry callbacks, as installed via
/// [`CollectorConfig::with_telemetry`](crate::CollectorConfig::with_telemetry).
///
/// A sink is a `Copy` plain `fn` pointer — no allocation, no vtable
/// indirection through fat pointers on the signal path, and a cheap
/// plain-field `Option` check when disabled.
#[derive(Clone, Copy)]
pub struct TelemetrySink {
    /// Records one phase event. **Must be async-signal-safe**: called
    /// from the sigscan signal handler for scan events. No allocation,
    /// no locks, no panics.
    pub record: fn(PhaseEvent),
}

impl TelemetrySink {
    /// Convenience wrapper: stamp one phase event.
    #[inline]
    pub fn event(&self, kind: PhaseKind, collect_id: u64, arg: u64) {
        (self.record)(PhaseEvent {
            kind,
            collect_id,
            arg,
        });
    }
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TelemetrySink(..)")
    }
}

/// Process-wide collect-id source. Only called when telemetry is
/// enabled, so the disabled hot path never touches this atomic. Starts
/// at 1: id 0 is reserved as "no collect".
pub fn next_collect_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_never_zero() {
        for k in PHASE_KINDS {
            assert_ne!(k.code(), 0, "{k:?} must not alias an empty ring cell");
            assert_eq!(PhaseKind::from_code(k.code()), Some(k));
        }
        assert_eq!(PhaseKind::from_code(0), None);
        assert_eq!(PhaseKind::from_code(255), None);
    }

    #[test]
    fn collect_ids_are_monotonic_and_nonzero() {
        let a = next_collect_id();
        let b = next_collect_id();
        assert!(a >= 1);
        assert!(b > a);
    }

    #[test]
    fn sink_is_copy_debug_and_dispatches() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static HITS: AtomicU64 = AtomicU64::new(0);
        fn rec(ev: PhaseEvent) {
            HITS.fetch_add(ev.arg, Ordering::Relaxed);
        }
        let sink = TelemetrySink { record: rec };
        let copy = sink; // Copy
        copy.event(PhaseKind::Announce, 7, 5);
        assert_eq!(HITS.load(Ordering::Relaxed), 5);
        assert_eq!(format!("{sink:?}"), "TelemetrySink(..)");
    }
}
