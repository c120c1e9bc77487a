//! A signal round allocates nothing: `Round::run` signals straight from
//! the records its caller passes in, instead of copying them every round.
//!
//! The counting allocator counts the calling thread's allocations only,
//! so neither the test harness nor the signalled peer shows up in the
//! count. It lives in this test binary alone, with this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, OnceLock};

use threadscan::master::MasterBuffer;
use threadscan::retired::{noop_drop, Retired};
use threadscan::{
    capture_context, CollectorConfig, Platform, RegistryKey, Round, ScanClaim, ThreadRoots,
    MAX_HEAP_BLOCKS,
};
use ts_sigscan::SignalPlatform;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Const-initialized and `Drop`-free,
    /// so the allocator can bump it without allocating.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only a const-initialized thread-local cell.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// How many allocations the calling thread makes inside `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Raises its flag when dropped, so the peer stops however the scope is
/// left — a panic included — and the join cannot hang.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn signal_rounds_allocate_nothing() {
    const ROUNDS: usize = 20;
    let platform = SignalPlatform::new().unwrap();
    let round = Arc::new(Round::new());
    // SAFETY: this test makes all of the platform's registrations and runs
    // all of its rounds, one at a time; each round gets both records, each
    // with its thread, and each record is unregistered on its own thread
    // before it is dropped.
    let key = unsafe { RegistryKey::new() };
    let register = || {
        let roots = Arc::new(ThreadRoots::new(MAX_HEAP_BLOCKS));
        let record = platform.register_current(&key, ScanClaim::at(&round, roots));
        (std::thread::current().id(), record)
    };
    let me = register();
    let entries = (1..=8)
        // SAFETY: made-up addresses, never dereferenced or reclaimed.
        .map(|i| unsafe { Retired::from_raw_parts(0x10_0000 * i, 64, noop_drop) })
        .collect();
    let master = MasterBuffer::new(entries, &CollectorConfig::default());
    // One session per round (a session counts its round's acks), and the
    // boundary context, both built before anything is counted.
    let sessions: Vec<_> = (0..ROUNDS).map(|_| master.session()).collect();
    let ctx = capture_context();
    let mut scanned = [0usize; ROUNDS];
    let (stop, registered) = (AtomicBool::new(false), Barrier::new(2));
    let peer = OnceLock::new();

    let allocations = std::thread::scope(|s| {
        let _stop = StopOnDrop(&stop);
        s.spawn(|| {
            let _ = peer.set(register());
            registered.wait();
            // Busy: every round interrupts a running thread.
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            platform.unregister_current(&key, &peer.get().unwrap().1);
        });
        registered.wait();
        let (peer_id, peer_record) = peer.get().unwrap();
        let records = [(me.0, &me.1), (*peer_id, peer_record)];
        allocations_during(|| {
            for (session, scanned) in sessions.iter().zip(&mut scanned) {
                *scanned = round.run(&platform, &key, session, &ctx, records.into_iter());
            }
        })
    });
    platform.unregister_current(&key, &me.1);
    assert_eq!(scanned, [2; ROUNDS], "the peer and the reclaimer itself");
    assert_eq!(round.id(), ROUNDS);
    assert_eq!(allocations, 0, "{ROUNDS} signal rounds allocated");
}
