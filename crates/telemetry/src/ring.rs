//! Per-thread event ring buffers with an async-signal-safe record path.
//!
//! Storage is fully preallocated: a fixed array of [`MAX_RINGS`] rings,
//! each a power-of-two array of cells, all in BSS. A thread claims a
//! ring slot on its first record (one `fetch_add` on a global counter,
//! cached in const-initialized, `Drop`-free TLS) and keeps it for the
//! process lifetime. Recording is then:
//!
//! 1. `head.fetch_add(1)` — reserves an absolute sequence number. A
//!    signal handler interrupting mid-record reserves a *different*
//!    number, so same-thread reentrancy lands in a different cell;
//! 2. invalidate the cell (`stamp ← 0`), store timestamp/kind/arg;
//! 3. publish (`stamp ← seq + 1`, `Release`).
//!
//! No locks, no allocation, no panics — safe from a signal handler. The
//! ring overwrites oldest on overflow; the reader accounts every
//! overwritten or torn cell in [`dropped_events`], so loss is visible
//! rather than silent.
//!
//! Readers ([`drain_events`]) serialize on a std mutex (they are never
//! in signal context) and validate each cell with a seqlock-style
//! stamp / payload / stamp-recheck read.

use std::cell::Cell as StdCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use threadscan::{PhaseEvent, PhaseKind};

/// Maximum threads that can own a ring; later threads drop events (and
/// are counted in [`dropped_events`]).
pub const MAX_RINGS: usize = 256;

/// Cells per ring — the compile-time maximum (and default) capacity.
pub const RING_CAP: usize = 1024;

/// One published event cell. `stamp` is the absolute sequence number
/// plus one (0 = never written / mid-write), stored last with `Release`.
struct Cell {
    stamp: AtomicU64,
    ts_ns: AtomicU64,
    /// `collect_id << 8 | kind_code`.
    code: AtomicU64,
    arg: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_CELL: Cell = Cell {
    stamp: AtomicU64::new(0),
    ts_ns: AtomicU64::new(0),
    code: AtomicU64::new(0),
    arg: AtomicU64::new(0),
};

struct EventRing {
    /// Next absolute sequence number to write.
    head: AtomicU64,
    /// First absolute sequence number not yet drained.
    tail: AtomicU64,
    /// Events lost from this ring (overwritten before a drain, or torn
    /// by an overwrite during one). Maintained by the reader.
    dropped: AtomicU64,
    cells: [Cell; RING_CAP],
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_RING: EventRing = EventRing {
    head: AtomicU64::new(0),
    tail: AtomicU64::new(0),
    dropped: AtomicU64::new(0),
    cells: [EMPTY_CELL; RING_CAP],
};

static RINGS: [EventRing; MAX_RINGS] = [EMPTY_RING; MAX_RINGS];

/// Next unclaimed ring slot.
static NEXT_RING: AtomicUsize = AtomicUsize::new(0);

/// Events dropped because every ring slot was already claimed.
static SLOT_EXHAUSTED: AtomicU64 = AtomicU64::new(0);

/// Runtime ring capacity minus one. Defaults to the full `RING_CAP`;
/// shrinkable (to a smaller power of two) so overflow accounting can be
/// exercised without recording thousands of events.
static CAP_MASK: AtomicUsize = AtomicUsize::new(RING_CAP - 1);

/// Serializes drains (readers only — never signal context).
static DRAIN_LOCK: Mutex<()> = Mutex::new(());

/// TLS slot values: `usize::MAX` = not yet claimed, `NO_SLOT` = tried
/// and found every ring taken.
const UNCLAIMED: usize = usize::MAX;
const NO_SLOT: usize = usize::MAX - 1;

thread_local! {
    /// This thread's ring index. Const-initialized and `Drop`-free, so
    /// reading it from a signal handler neither allocates nor runs TLS
    /// destructors — the same pattern as sigscan's handler context.
    static RING_SLOT: StdCell<usize> = const { StdCell::new(UNCLAIMED) };
}

/// Monotonic clock anchor. `OnceLock::get` is one atomic load;
/// `Instant::elapsed` is a vDSO `clock_gettime` — both fine in signal
/// context. Initialized by [`init_clock`] (from `sink`), so the
/// anchor is set before any sink can be installed.
static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Sets the monotonic-ns epoch to "now" (first call wins). Idempotent.
pub(crate) fn init_clock() {
    let _ = ANCHOR.set(Instant::now());
}

/// Nanoseconds since `init_clock`; 0 if it never ran.
#[inline]
pub fn monotonic_ns() -> u64 {
    match ANCHOR.get() {
        Some(anchor) => anchor.elapsed().as_nanos() as u64,
        None => 0,
    }
}

/// Shrinks (or restores) the per-ring capacity. Testing hook for
/// overflow accounting: `cap` must be a power of two `<= RING_CAP`.
/// Not synchronized with in-flight writers — call only around quiesced
/// rings (tests hold the crate's global test lock).
pub fn set_ring_capacity(cap: usize) {
    assert!(
        cap.is_power_of_two() && cap <= RING_CAP,
        "ring capacity must be a power of two <= {RING_CAP}"
    );
    CAP_MASK.store(cap - 1, Ordering::Relaxed);
}

/// The current per-ring capacity in events.
pub fn ring_capacity() -> usize {
    CAP_MASK.load(Ordering::Relaxed) + 1
}

/// The calling thread's ring slot, claiming one on first use.
/// Async-signal-safe: a const-init TLS read plus (first time only) one
/// `fetch_add`. Returns `None` when all [`MAX_RINGS`] slots are taken.
#[inline]
fn my_slot() -> Option<usize> {
    RING_SLOT.with(|slot| {
        let cur = slot.get();
        match cur {
            UNCLAIMED => {
                let claimed = NEXT_RING.fetch_add(1, Ordering::Relaxed);
                if claimed < MAX_RINGS {
                    slot.set(claimed);
                    Some(claimed)
                } else {
                    slot.set(NO_SLOT);
                    None
                }
            }
            NO_SLOT => None,
            s => Some(s),
        }
    })
}

/// Records one phase event into the calling thread's ring.
/// Async-signal-safe: no locks, no allocation, overwrite-oldest.
#[inline]
pub fn record(ev: PhaseEvent) {
    let Some(slot) = my_slot() else {
        SLOT_EXHAUSTED.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let ring = &RINGS[slot];
    let mask = CAP_MASK.load(Ordering::Relaxed) as u64;
    let seq = ring.head.fetch_add(1, Ordering::Relaxed);
    let cell = &ring.cells[(seq & mask) as usize];
    // Invalidate first so a concurrent reader can never pair the old
    // stamp with new payload words.
    cell.stamp.store(0, Ordering::Release);
    cell.ts_ns.store(monotonic_ns(), Ordering::Relaxed);
    cell.code
        .store((ev.collect_id << 8) | ev.kind.code(), Ordering::Relaxed);
    cell.arg.store(ev.arg, Ordering::Relaxed);
    cell.stamp.store(seq + 1, Ordering::Release);
}

/// One event read back out of a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Ring (thread) the event was recorded on.
    pub ring: usize,
    /// Absolute per-ring sequence number.
    pub seq: u64,
    /// Monotonic nanoseconds since `init_clock`.
    pub ts_ns: u64,
    /// Phase boundary kind.
    pub kind: PhaseKind,
    /// Collect the event belongs to.
    pub collect_id: u64,
    /// Kind-specific payload.
    pub arg: u64,
}

/// Drains every ring: returns all readable events (ring-major, sequence
/// ascending) and advances the read cursors. Events overwritten before
/// this drain — or torn by an overwrite during it — are counted into
/// [`dropped_events`] instead of returned.
pub fn drain_events() -> Vec<EventRecord> {
    let _guard = DRAIN_LOCK.lock().unwrap();
    let cap = ring_capacity() as u64;
    let mut out = Vec::new();
    for (ring_idx, ring) in RINGS.iter().enumerate() {
        let head = ring.head.load(Ordering::Acquire);
        let tail = ring.tail.load(Ordering::Relaxed);
        if head == tail {
            continue;
        }
        // Anything older than one capacity behind the writer is gone.
        let lo = tail.max(head.saturating_sub(cap));
        if lo > tail {
            ring.dropped.fetch_add(lo - tail, Ordering::Relaxed);
        }
        for seq in lo..head {
            let cell = &ring.cells[(seq % cap) as usize];
            if cell.stamp.load(Ordering::Acquire) != seq + 1 {
                // Mid-write or already overwritten by a racing writer.
                ring.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let ts_ns = cell.ts_ns.load(Ordering::Relaxed);
            let code = cell.code.load(Ordering::Relaxed);
            let arg = cell.arg.load(Ordering::Relaxed);
            if cell.stamp.load(Ordering::Acquire) != seq + 1 {
                ring.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match PhaseKind::from_code(code & 0xff) {
                Some(kind) => out.push(EventRecord {
                    ring: ring_idx,
                    seq,
                    ts_ns,
                    kind,
                    collect_id: code >> 8,
                    arg,
                }),
                None => {
                    ring.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        ring.tail.store(head, Ordering::Relaxed);
    }
    out
}

/// Total events lost so far: ring overwrites, torn reads, and records
/// from threads that found every ring slot taken. Only drains move the
/// overwrite component, so call [`drain_events`] first for an up-to-date
/// figure.
pub fn dropped_events() -> u64 {
    RINGS
        .iter()
        .map(|r| r.dropped.load(Ordering::Relaxed))
        .sum::<u64>()
        + SLOT_EXHAUSTED.load(Ordering::Relaxed)
}

/// Testing hook: empties every ring and zeroes cursors and drop
/// counters. Claimed TLS slots stay claimed (threads keep their rings).
/// Not synchronized with writers — callers quiesce first.
pub fn reset_rings_for_test() {
    let _guard = DRAIN_LOCK.lock().unwrap();
    for ring in &RINGS {
        ring.head.store(0, Ordering::Relaxed);
        ring.tail.store(0, Ordering::Relaxed);
        ring.dropped.store(0, Ordering::Relaxed);
        for cell in &ring.cells {
            cell.stamp.store(0, Ordering::Relaxed);
        }
    }
    SLOT_EXHAUSTED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn ev(kind: PhaseKind, collect_id: u64, arg: u64) -> PhaseEvent {
        PhaseEvent {
            kind,
            collect_id,
            arg,
        }
    }

    #[test]
    fn record_and_drain_round_trip() {
        let _lock = test_lock();
        reset_rings_for_test();
        set_ring_capacity(RING_CAP);
        init_clock();
        record(ev(PhaseKind::CollectBegin, 42, 7));
        record(ev(PhaseKind::CollectEnd, 42, 1));
        let mine: Vec<EventRecord> = drain_events()
            .into_iter()
            .filter(|e| e.collect_id == 42)
            .collect();
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].kind, PhaseKind::CollectBegin);
        assert_eq!(mine[0].arg, 7);
        assert_eq!(mine[1].kind, PhaseKind::CollectEnd);
        assert!(mine[1].ts_ns >= mine[0].ts_ns, "timestamps are monotonic");
        assert_eq!(mine[0].ring, mine[1].ring, "same thread, same ring");
    }

    #[test]
    fn tiny_ring_overflow_is_counted_not_silent() {
        let _lock = test_lock();
        reset_rings_for_test();
        set_ring_capacity(8);
        init_clock();
        for i in 0..20 {
            record(ev(PhaseKind::SignalSent, 77, i));
        }
        let mine: Vec<EventRecord> = drain_events()
            .into_iter()
            .filter(|e| e.collect_id == 77)
            .collect();
        assert_eq!(mine.len(), 8, "ring keeps the newest capacity-many");
        assert_eq!(mine.last().unwrap().arg, 19, "newest survives");
        assert_eq!(mine.first().unwrap().arg, 12, "oldest kept is head - cap");
        assert_eq!(dropped_events(), 12, "12 overwritten events accounted");
        set_ring_capacity(RING_CAP);
    }

    #[test]
    fn distinct_threads_get_distinct_rings() {
        let _lock = test_lock();
        reset_rings_for_test();
        set_ring_capacity(RING_CAP);
        init_clock();
        record(ev(PhaseKind::Announce, 99, 0));
        std::thread::spawn(|| record(ev(PhaseKind::ScanBegin, 99, 0)))
            .join()
            .unwrap();
        let mine: Vec<EventRecord> = drain_events()
            .into_iter()
            .filter(|e| e.collect_id == 99)
            .collect();
        assert_eq!(mine.len(), 2);
        assert_ne!(mine[0].ring, mine[1].ring);
    }

    #[test]
    fn drain_is_consuming() {
        let _lock = test_lock();
        reset_rings_for_test();
        record(ev(PhaseKind::SortBegin, 55, 0));
        assert_eq!(
            drain_events().iter().filter(|e| e.collect_id == 55).count(),
            1
        );
        assert_eq!(
            drain_events().iter().filter(|e| e.collect_id == 55).count(),
            0,
            "second drain sees nothing new"
        );
    }
}
