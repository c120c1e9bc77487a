//! The Shavit–Lotan priority queue churning under ThreadScan with real
//! POSIX signals: producers and consumers race `insert`/`delete_min`
//! while the collector reclaims unlinked skip nodes mid-traversal.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use threadscan::CollectorConfig;
use ts_sigscan::SignalPlatform;
use ts_smr::{Smr, ThreadScanSmr};
use ts_structures::{ConcurrentSet, PriorityQueue};

type Ts = ThreadScanSmr<SignalPlatform>;

fn scheme(buffer: usize) -> Arc<Ts> {
    Arc::new(ThreadScanSmr::with_config(
        SignalPlatform::new().unwrap(),
        CollectorConfig::default().with_buffer_capacity(buffer),
    ))
}

#[test]
fn producers_and_consumers_under_real_signals() {
    const PRODUCERS: u64 = 2;
    const PER_PRODUCER: u64 = 2_000;
    let scheme = scheme(128); // small buffer: force real collect rounds
    let pq = Arc::new(PriorityQueue::<Ts>::new());
    let consumed = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let scheme = Arc::clone(&scheme);
            let pq = Arc::clone(&pq);
            s.spawn(move || {
                let h = scheme.register();
                for i in 0..PER_PRODUCER {
                    assert!(pq.insert(&h, t * 1_000_000 + i));
                }
            });
        }
        for _ in 0..2 {
            let scheme = Arc::clone(&scheme);
            let pq = Arc::clone(&pq);
            let consumed = Arc::clone(&consumed);
            s.spawn(move || {
                let h = scheme.register();
                let mut dry = 0;
                while dry < 500 {
                    match pq.delete_min(&h) {
                        Some(_) => {
                            consumed.fetch_add(1, Ordering::Relaxed);
                            dry = 0;
                        }
                        None => {
                            dry += 1;
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });

    let drained = consumed.load(Ordering::Relaxed);
    let resident = pq.len_sequential() as u64;
    assert_eq!(
        drained + resident,
        PRODUCERS * PER_PRODUCER,
        "drained {drained} + resident {resident} must cover all inserts"
    );

    // The queue retired (drained) nodes through the collector; after a
    // quiesce the books must nearly balance (conservative stack scans may
    // pin a handful of survivors).
    scheme.quiesce();
    let stats = scheme.stats();
    assert!(
        stats.collects > 0,
        "a 128-entry buffer and thousands of retires must trigger collects"
    );
    assert!(
        scheme.outstanding() < 256,
        "outstanding {} after quiesce",
        scheme.outstanding()
    );
}

#[test]
fn single_thread_drain_order_survives_reclamation() {
    let scheme = scheme(64);
    let pq = PriorityQueue::<Ts>::new();
    let h = scheme.register();
    for k in (0..1_000u64).rev() {
        assert!(pq.insert(&h, k));
    }
    // Draining retires nodes as we go; order must hold even as collect
    // rounds run underneath the traversals.
    for want in 0..1_000u64 {
        assert_eq!(pq.delete_min(&h), Some(want));
    }
    assert_eq!(pq.delete_min(&h), None);
    drop(h);
    scheme.quiesce();
    assert!(scheme.stats().freed > 0, "reclamation must have happened");
}
