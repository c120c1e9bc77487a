//! The process-wide event log, with an async-signal-safe record path.
//!
//! Storage is one preallocated array of [`CAPACITY`] cells in BSS, each
//! written at most once, in the order events are recorded. Recording is:
//!
//! 1. `HEAD.fetch_add(1)` reserves a global sequence number. A signal
//!    handler interrupting mid-record reserves a *different* number, so
//!    same-thread reentrancy lands in a different cell. A number past the
//!    log's end drops the event;
//! 2. store the timestamp, the thread's ordinal and the payload;
//! 3. publish by storing the code (`collect_id << 8 | kind`) last, with
//!    `Release`. Kind codes are never 0, so a zero code means "reserved,
//!    not yet published".
//!
//! No locks, no allocation, no panics — safe from a signal handler. The
//! log never overwrites: it keeps a process's first [`CAPACITY`] events
//! and counts every later one in [`dropped_events`], so a trace is either
//! complete or says how much it lost.
//!
//! Readers ([`drain_events`]) serialize on a std mutex (they are never in
//! signal context) and return published cells in sequence order from a
//! cursor, stopping at the first cell that is still being written.

use std::cell::Cell as StdCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use threadscan::{PhaseEvent, PhaseKind};

/// Cells in the log: the events one process can record.
pub const CAPACITY: usize = 1 << 18;

/// One event cell. `record` stores `code` last (`Release`) and the drain
/// loads it first (`Acquire`): a non-zero code makes the other words visible.
struct Cell {
    ts_ns: AtomicU64,
    thread: AtomicU64,
    arg: AtomicU64,
    /// `collect_id << 8 | kind_code`.
    code: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_CELL: Cell = Cell {
    ts_ns: AtomicU64::new(0),
    thread: AtomicU64::new(0),
    arg: AtomicU64::new(0),
    code: AtomicU64::new(0),
};

static CELLS: [Cell; CAPACITY] = [EMPTY_CELL; CAPACITY];

/// Next sequence number to reserve. Past [`CAPACITY`] it also counts the
/// events dropped.
static HEAD: AtomicU64 = AtomicU64::new(0);

/// Next thread ordinal to hand out.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// First sequence number not yet drained; its mutex serializes readers
/// (never signal context).
static CURSOR: Mutex<u64> = Mutex::new(0);

/// Thread-ordinal value before a thread's first record.
const UNASSIGNED: u64 = u64::MAX;

thread_local! {
    /// This thread's ordinal. Const-initialized and `Drop`-free, so
    /// reading it from a signal handler neither allocates nor runs TLS
    /// destructors — the same pattern as sigscan's handler context.
    static THREAD: StdCell<u64> = const { StdCell::new(UNASSIGNED) };
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

/// The calling thread's ordinal, assigned on its first record.
/// Async-signal-safe: a const-init TLS read plus (first time only) one
/// `fetch_add`.
#[inline]
fn thread_ordinal() -> u64 {
    THREAD.with(|ordinal| {
        if ordinal.get() == UNASSIGNED {
            ordinal.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        ordinal.get()
    })
}

/// Records one phase event into the log, or drops it once the log is
/// full. Async-signal-safe: no locks, no allocation, no panics.
#[inline]
pub fn record(ev: PhaseEvent) {
    let seq = HEAD.fetch_add(1, Ordering::Relaxed);
    let Some(cell) = CELLS.get(seq as usize) else {
        return;
    };
    cell.ts_ns.store(monotonic_ns(), Ordering::Relaxed);
    cell.thread.store(thread_ordinal(), Ordering::Relaxed);
    cell.arg.store(ev.arg, Ordering::Relaxed);
    cell.code
        .store((ev.collect_id << 8) | ev.kind.code(), Ordering::Release);
}

/// One event read back out of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Ordinal of the thread that recorded the event, in the order threads
    /// first recorded.
    pub thread: u64,
    /// Position in the log: the order events were recorded in.
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

/// The drain cursor, locked; a panicking reader leaves it consistent.
fn cursor() -> MutexGuard<'static, u64> {
    CURSOR.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns the events published since the last drain, in sequence order,
/// and advances the cursor past them. Stops at the first cell reserved
/// but not yet published; the next drain resumes there.
pub fn drain_events() -> Vec<EventRecord> {
    let mut cursor = cursor();
    let end = HEAD.load(Ordering::Relaxed).min(CAPACITY as u64);
    let mut out = Vec::with_capacity(end.saturating_sub(*cursor) as usize);
    for seq in *cursor..end {
        let cell = &CELLS[seq as usize];
        let code = cell.code.load(Ordering::Acquire);
        let Some(kind) = PhaseKind::from_code(code & 0xff) else {
            break;
        };
        out.push(EventRecord {
            thread: cell.thread.load(Ordering::Relaxed),
            seq,
            ts_ns: cell.ts_ns.load(Ordering::Relaxed),
            kind,
            collect_id: code >> 8,
            arg: cell.arg.load(Ordering::Relaxed),
        });
    }
    *cursor += out.len() as u64;
    out
}

/// Events dropped so far because the log was full.
pub fn dropped_events() -> u64 {
    HEAD.load(Ordering::Relaxed).saturating_sub(CAPACITY as u64)
}

/// Testing hook: empties the log and zeroes the cursor and the drop
/// count. Threads keep their ordinals. Not synchronized with writers —
/// callers quiesce first.
pub fn reset_for_test() {
    let mut cursor = cursor();
    let end = HEAD.load(Ordering::Relaxed).min(CAPACITY as u64);
    for cell in &CELLS[..end as usize] {
        cell.code.store(0, Ordering::Relaxed);
    }
    HEAD.store(0, Ordering::Relaxed);
    *cursor = 0;
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
        reset_for_test();
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
        assert_eq!(mine[0].thread, mine[1].thread, "same thread, same ordinal");
    }

    #[test]
    fn full_log_overflow_is_counted_not_silent() {
        let _lock = test_lock();
        reset_for_test();
        init_clock();
        let total = CAPACITY as u64 + 20;
        for i in 0..total {
            record(ev(PhaseKind::SignalSent, 77, i));
        }
        let drained = drain_events();
        assert_eq!(drained.len(), CAPACITY, "the log keeps the first CAPACITY");
        assert!(
            drained
                .iter()
                .zip(0..)
                .all(|(e, i)| (e.seq, e.arg, e.collect_id) == (i, i, 77)),
            "in the order they were recorded"
        );
        assert_eq!(dropped_events(), 20, "every later event is counted");
        assert!(drain_events().is_empty(), "a second drain has nothing new");
        reset_for_test();
    }

    #[test]
    fn distinct_threads_get_distinct_rings() {
        let _lock = test_lock();
        reset_for_test();
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
        assert_ne!(mine[0].thread, mine[1].thread);
    }

    #[test]
    fn drain_stops_at_a_reserved_but_unpublished_cell() {
        let _lock = test_lock();
        reset_for_test();
        record(ev(PhaseKind::SortBegin, 56, 0));
        // A writer that has reserved the next cell but not published it.
        HEAD.fetch_add(1, Ordering::Relaxed);
        assert_eq!(drain_events().len(), 1);
        assert!(drain_events().is_empty(), "waits at the unpublished cell");
        CELLS[1]
            .code
            .store((56 << 8) | PhaseKind::SortEnd.code(), Ordering::Release);
        let late = drain_events();
        assert_eq!(late.len(), 1, "resumes once it is published");
        assert_eq!((late[0].seq, late[0].kind), (1, PhaseKind::SortEnd));
    }

    #[test]
    fn drain_is_consuming() {
        let _lock = test_lock();
        reset_for_test();
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
