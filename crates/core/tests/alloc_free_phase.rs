//! A steady-state reclamation phase allocates nothing: the collector keeps
//! every buffer a phase works in — the master buffer's arrays, the
//! reclaimable and survivor lists, the per-phase slot list — so once the
//! first phase has sized them, triggered and forced phases reuse them.
//!
//! The counting allocator counts the calling thread's allocations only,
//! so the test harness's own threads cannot show up in the count. It
//! lives in this test binary alone, with this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use threadscan::{Collector, CollectorConfig, NullPlatform};

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

/// The hash table's node size.
type Node = [u8; 176];

#[test]
fn steady_state_phases_allocate_nothing() {
    const CAPACITY: usize = 64;
    const PHASES: usize = 50;
    let half = CAPACITY / 2;
    let collector = Collector::with_config(
        NullPlatform,
        CollectorConfig::default().with_buffer_capacity(CAPACITY),
    );
    let handle = collector.register();
    // Every node the test retires, allocated before anything is counted:
    // a retire then allocates only if its phase does.
    let nodes: Vec<*mut Node> = (0..(PHASES + 1) * half + 1)
        .map(|_| Box::into_raw(Box::new([0u8; 176])))
        .collect();
    let mut nodes = nodes.into_iter();

    // Warm-up: the retire after the first half-capacity runs phase 1,
    // which sizes the phase's buffers.
    for node in nodes.by_ref().take(half + 1) {
        // SAFETY: a fresh box, never shared, retired once.
        unsafe { handle.retire(node) };
    }
    assert_eq!(collector.stats().collects, 1);

    let allocations = allocations_during(|| {
        for node in nodes.by_ref() {
            // SAFETY: as above.
            unsafe { handle.retire(node) };
        }
        handle.flush();
    });
    let snap = collector.stats();
    assert_eq!(
        snap.collects,
        1 + PHASES + 1,
        "triggered phases plus the flush"
    );
    assert_eq!(
        allocations, 0,
        "{PHASES} triggered phases and a forced one allocated"
    );
    assert_eq!(snap.freed, snap.retired, "the flush freed everything");
    drop(handle);
}
