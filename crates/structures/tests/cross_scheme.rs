//! Cross-scheme structure tests: the same workloads must behave
//! identically under every reclamation scheme — schemes differ only in
//! *when* memory returns, never in set semantics.

use std::sync::Arc;

use ts_smr::{EpochScheme, HazardPointers, Leaky, Smr};
use ts_structures::{
    ConcurrentSet, HarrisList, LazyList, LockFreeHashTable, PriorityQueue, SkipList,
    SplitOrderedSet, REQUIRED_SLOTS,
};

/// One deterministic mixed workload, checked against its expected final
/// state, runnable under any scheme and structure.
fn deterministic_churn<S: Smr, T: ConcurrentSet<S>>(scheme: &S, set: &T) {
    let h = scheme.register();
    // Insert 0..200, remove multiples of 3, re-insert multiples of 9.
    for k in 0..200u64 {
        assert!(set.insert(&h, k));
    }
    for k in (0..200u64).step_by(3) {
        assert!(set.remove(&h, k));
    }
    for k in (0..200u64).step_by(9) {
        assert!(set.insert(&h, k));
    }
    for k in 0..200u64 {
        let expect = k % 3 != 0 || k % 9 == 0;
        assert_eq!(set.contains(&h, k), expect, "key {k}");
    }
}

#[test]
fn all_structures_under_every_scheme_agree() {
    // Same deterministic workload, every scheme/structure pair.
    macro_rules! run_all {
        ($scheme:expr, $ty:ty) => {{
            let s = $scheme;
            deterministic_churn(&s, &HarrisList::<$ty>::new());
            deterministic_churn(&s, &LockFreeHashTable::<$ty>::new(16));
            deterministic_churn(&s, &SkipList::<$ty>::new());
            deterministic_churn(&s, &LazyList::<$ty>::new());
            deterministic_churn(&s, &SplitOrderedSet::<$ty>::with_buckets(16));
        }};
    }
    run_all!(Leaky::new(), Leaky);
    run_all!(EpochScheme::with_threshold(8), EpochScheme);
    run_all!(
        HazardPointers::with_params(REQUIRED_SLOTS, 16),
        HazardPointers
    );
}

#[test]
fn lazy_list_and_harris_list_agree_under_concurrency() {
    // Both list algorithms implement the same abstract set; run the same
    // disjoint-range workload on both and compare final key sets.
    let epoch = Arc::new(EpochScheme::with_threshold(32));
    let harris = Arc::new(HarrisList::<EpochScheme>::new());
    let lazy = Arc::new(LazyList::<EpochScheme>::new());

    std::thread::scope(|s| {
        for t in 0..4u64 {
            let epoch = Arc::clone(&epoch);
            let harris = Arc::clone(&harris);
            let lazy = Arc::clone(&lazy);
            s.spawn(move || {
                let h = epoch.register();
                let base = t * 1000;
                for i in 0..100u64 {
                    harris.insert(&h, base + i);
                    lazy.insert(&h, base + i);
                    if i % 4 == 0 {
                        harris.remove(&h, base + i);
                        lazy.remove(&h, base + i);
                    }
                }
            });
        }
    });
    assert_eq!(harris.keys_sequential(), lazy.keys_sequential());
}

/// The priority queue's API differs from `ConcurrentSet`, so it gets its
/// own deterministic workload: interleaved inserts and delete_mins whose
/// final drain order is fully determined.
fn pq_churn<S: Smr>(scheme: &S) {
    let pq = PriorityQueue::<S>::new();
    let h = scheme.register();
    for k in (0..100u64).rev() {
        assert!(pq.insert(&h, k));
    }
    // Drain the bottom half; the queue must yield 0..50 in order.
    for want in 0..50u64 {
        assert_eq!(pq.delete_min(&h), Some(want));
    }
    // Refill interleaved below the current minimum.
    for k in 0..25u64 {
        assert!(pq.insert(&h, k * 2));
    }
    let mut last = None;
    let mut drained = 0usize;
    while let Some(k) = pq.delete_min(&h) {
        if let Some(prev) = last {
            assert!(k > prev, "out of order: {prev} then {k}");
        }
        last = Some(k);
        drained += 1;
    }
    assert_eq!(drained, 75, "50 survivors + 25 refills");
}

#[test]
fn priority_queue_agrees_under_every_scheme() {
    pq_churn(&Leaky::new());
    pq_churn(&EpochScheme::with_threshold(8));
    pq_churn(&HazardPointers::with_params(REQUIRED_SLOTS, 16));
}

#[test]
fn split_ordered_and_fixed_hash_agree_under_concurrency() {
    // The resizable and fixed tables implement the same abstract set; the
    // same disjoint-range workload must produce identical key sets.
    let epoch = Arc::new(EpochScheme::with_threshold(32));
    let fixed = Arc::new(LockFreeHashTable::<EpochScheme>::new(64));
    let split = Arc::new(SplitOrderedSet::<EpochScheme>::with_buckets(4));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let epoch = Arc::clone(&epoch);
            let fixed = Arc::clone(&fixed);
            let split = Arc::clone(&split);
            s.spawn(move || {
                let h = epoch.register();
                let base = t * 1000;
                for i in 0..100u64 {
                    fixed.insert(&h, base + i);
                    split.insert(&h, base + i);
                    if i % 4 == 0 {
                        fixed.remove(&h, base + i);
                        split.remove(&h, base + i);
                    }
                }
            });
        }
    });
    let h = epoch.register();
    for t in 0..4u64 {
        for i in 0..100u64 {
            let k = t * 1000 + i;
            assert_eq!(
                fixed.contains(&h, k),
                split.contains(&h, k),
                "tables disagree on key {k}"
            );
        }
    }
}
