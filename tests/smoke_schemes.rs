//! Fast cross-scheme smoke test.
//!
//! Constructs each of the five reclamation schemes of the evaluation
//! through `ts_smr::api` and runs a short two-thread
//! insert/remove/contains round on the Harris list under each. The point
//! is latency-to-signal: a scheme whose registration, protection, or
//! retire path regresses fails here in seconds, long before the heavier
//! conformance/oracle suites get to it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use ts_sigscan::SignalPlatform;
use ts_smr::{EpochScheme, HazardPointers, Leaky, Smr, ThreadScanSmr};
use ts_structures::{ConcurrentSet, HarrisList};

/// Two threads, disjoint key stripes plus a contended stripe; every
/// operation's return value is checked against what a set must do.
fn smoke<S: Smr>(scheme: Arc<S>) {
    const PER_THREAD_KEYS: u64 = 128;
    let list = Arc::new(HarrisList::<S>::new());
    let barrier = Arc::new(Barrier::new(2));
    let contended_inserts = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for t in 0..2u64 {
            let scheme = Arc::clone(&scheme);
            let list = Arc::clone(&list);
            let barrier = Arc::clone(&barrier);
            let contended_inserts = Arc::clone(&contended_inserts);
            s.spawn(move || {
                let handle = scheme.register();
                barrier.wait();

                // Private stripe: fully deterministic outcomes.
                let base = 1_000 * (t + 1);
                for k in base..base + PER_THREAD_KEYS {
                    assert!(list.insert(&handle, k), "fresh key {k} must insert");
                    assert!(list.contains(&handle, k), "key {k} must be visible");
                }
                for k in (base..base + PER_THREAD_KEYS).step_by(2) {
                    assert!(list.remove(&handle, k), "key {k} must remove once");
                    assert!(!list.remove(&handle, k), "key {k} must not remove twice");
                    assert!(!list.contains(&handle, k), "key {k} must be gone");
                }

                // Contended stripe: both threads race on the same keys;
                // exactly one insert per key may win.
                for k in 0..PER_THREAD_KEYS {
                    if list.insert(&handle, k) {
                        contended_inserts.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Handle drops before the thread exits (required by the
                // signal platform's thread discipline).
            });
        }
    });

    assert_eq!(
        contended_inserts.load(Ordering::Relaxed),
        PER_THREAD_KEYS,
        "each contended key must be inserted exactly once"
    );

    // Survivor count: per thread, half the private stripe survived, plus
    // the contended stripe once.
    let handle = scheme.register();
    let mut resident = 0u64;
    for t in 0..2u64 {
        let base = 1_000 * (t + 1);
        resident += (base..base + PER_THREAD_KEYS)
            .filter(|&k| list.contains(&handle, k))
            .count() as u64;
    }
    resident += (0..PER_THREAD_KEYS)
        .filter(|&k| list.contains(&handle, k))
        .count() as u64;
    assert_eq!(resident, PER_THREAD_KEYS / 2 * 2 + PER_THREAD_KEYS);

    scheme.quiesce();
    drop(handle);
}

#[test]
fn leaky_smoke() {
    let scheme = Arc::new(Leaky::new());
    assert_eq!(scheme.name(), "leaky");
    smoke(scheme);
}

#[test]
fn hazard_pointers_smoke() {
    let scheme = Arc::new(HazardPointers::new());
    assert_eq!(scheme.name(), "hazard");
    smoke(scheme);
}

#[test]
fn epoch_smoke() {
    let scheme = Arc::new(EpochScheme::new());
    assert_eq!(scheme.name(), "epoch");
    smoke(scheme);
}

#[test]
fn threadscan_smoke() {
    let scheme = Arc::new(ThreadScanSmr::new(
        SignalPlatform::new().expect("signal platform"),
    ));
    assert_eq!(scheme.name(), "threadscan");
    smoke(scheme);
}
