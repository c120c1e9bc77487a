//! The collector owns no threads.
//!
//! Sorting happens on the reclaiming thread, so running phases — however
//! large — must leave the process's thread count unchanged. This file is
//! its own test binary with a single `#[test]` so no sibling test can
//! spawn (or still be tearing down) a thread while it counts.

#![cfg(target_os = "linux")]

use threadscan::retired::noop_drop;
use threadscan::{Collector, CollectorConfig, NullPlatform};

/// Number of OS threads in this process.
fn task_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn collecting_large_phases_spawns_no_threads() {
    const PHASE: usize = 8192;
    const PHASES: usize = 4;

    let before = task_count();
    let collector = Collector::with_config(
        NullPlatform,
        // A phase starts when the fresh half of the buffer fills.
        CollectorConfig::default().with_buffer_capacity(2 * PHASE),
    );
    let handle = collector.register();
    for i in 0..PHASE * PHASES {
        // Scrambled, distinct, never-dereferenced addresses.
        let addr = 0x10_0000 + (i * 7919 % (PHASE * PHASES)) * 64;
        // SAFETY: `noop_drop` never touches the address.
        unsafe { handle.retire_raw(addr, 64, noop_drop) };
    }
    let snap = collector.stats();
    assert_eq!(
        snap.collects,
        PHASES - 1,
        "each full fresh half is one phase"
    );
    assert_eq!(snap.freed, PHASE * (PHASES - 1), "the last batch is fresh");
    handle.flush();
    let during = task_count();
    let snap = collector.stats();
    assert_eq!((snap.collects, snap.freed), (PHASES, PHASE * PHASES));
    drop(handle);
    drop(collector);

    assert_eq!(during, before, "a live collector that has run phases");
    assert_eq!(task_count(), before, "after the collector is gone");
}
