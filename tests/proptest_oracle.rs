//! Property tests: each structure must behave exactly like a `BTreeSet`
//! over arbitrary operation sequences (sequential linearization oracle),
//! under both a trivial scheme and a real reclaiming scheme (epoch with a
//! tiny threshold, so reclamation happens *during* the sequence).

use std::collections::BTreeSet;

use ts_choose::{check_inputs, Chooser};
use ts_smr::{EpochScheme, HazardPointers, Leaky, Smr};
use ts_structures::{
    ConcurrentSet, HarrisList, LockFreeHashTable, PriorityQueue, SkipList, SplitOrderedSet,
    REQUIRED_SLOTS,
};

/// Runs one to `max_ops - 1` uniformly drawn insert/remove/contains
/// operations on keys in `0..key_space` against `set` and a `BTreeSet`.
fn check_against_oracle<S: Smr, T: ConcurrentSet<S>>(
    ch: &mut dyn Chooser,
    scheme: &S,
    set: &T,
    key_space: usize,
    max_ops: usize,
) {
    let handle = scheme.register();
    let mut oracle = BTreeSet::new();
    for _ in 0..1 + ch.choose("ops", max_ops - 1) {
        let op = ch.choose("op", 3);
        let k = ch.choose("key", key_space) as u64;
        match op {
            0 => assert_eq!(set.insert(&handle, k), oracle.insert(k), "insert({k})"),
            1 => assert_eq!(set.remove(&handle, k), oracle.remove(&k), "remove({k})"),
            _ => assert_eq!(
                set.contains(&handle, k),
                oracle.contains(&k),
                "contains({k})"
            ),
        }
    }
    // Final membership must agree everywhere.
    for k in 0..64 {
        assert_eq!(set.contains(&handle, k), oracle.contains(&k), "final({k})");
    }
}

#[test]
fn harris_list_matches_btreeset() {
    check_inputs("harris_list_matches_btreeset", 4096, 48, |ch| {
        let scheme = Leaky::new();
        let set = HarrisList::<Leaky>::new();
        check_against_oracle(ch, &scheme, &set, 64, 200);
    });
}

#[test]
fn harris_list_matches_btreeset_with_live_reclamation() {
    check_inputs(
        "harris_list_matches_btreeset_with_live_reclamation",
        4096,
        48,
        |ch| {
            // Epoch threshold 2: frees happen mid-sequence, catching
            // use-after-free of just-removed nodes.
            let scheme = EpochScheme::with_threshold(2);
            let set = HarrisList::<EpochScheme>::new();
            check_against_oracle(ch, &scheme, &set, 64, 200);
        },
    );
}

#[test]
fn hash_table_matches_btreeset() {
    check_inputs("hash_table_matches_btreeset", 4096, 48, |ch| {
        let scheme = EpochScheme::with_threshold(2);
        let set = LockFreeHashTable::<EpochScheme>::new(8);
        check_against_oracle(ch, &scheme, &set, 256, 200);
    });
}

#[test]
fn skiplist_matches_btreeset() {
    check_inputs("skiplist_matches_btreeset", 4096, 48, |ch| {
        let scheme = EpochScheme::with_threshold(2);
        let set = SkipList::<EpochScheme>::new();
        check_against_oracle(ch, &scheme, &set, 64, 200);
    });
}

#[test]
fn skiplist_matches_btreeset_under_hazard_pointers() {
    check_inputs(
        "skiplist_matches_btreeset_under_hazard_pointers",
        4096,
        48,
        |ch| {
            let scheme = HazardPointers::with_params(REQUIRED_SLOTS, 4);
            let set = SkipList::<HazardPointers>::new();
            check_against_oracle(ch, &scheme, &set, 32, 120);
        },
    );
}

#[test]
fn split_ordered_matches_btreeset() {
    check_inputs("split_ordered_matches_btreeset", 4096, 48, |ch| {
        // Tiny initial table + live reclamation: splits happen mid-sequence.
        let scheme = EpochScheme::with_threshold(2);
        let set = SplitOrderedSet::<EpochScheme>::with_buckets(2);
        check_against_oracle(ch, &scheme, &set, 256, 200);
    });
}

/// The priority queue must behave exactly like a `BTreeSet` drained
/// through `pop_first` over arbitrary insert/delete-min/peek streams.
#[test]
fn priority_queue_matches_btreeset_oracle() {
    check_inputs("priority_queue_matches_btreeset_oracle", 4096, 48, |ch| {
        let scheme = EpochScheme::with_threshold(2);
        let pq = PriorityQueue::<EpochScheme>::new();
        let handle = scheme.register();
        let mut oracle = BTreeSet::new();
        for _ in 0..1 + ch.choose("ops", 199) {
            match ch.choose("op", 3) {
                0 => {
                    let k = ch.choose("key", 64) as u64;
                    assert_eq!(pq.insert(&handle, k), oracle.insert(k));
                }
                1 => assert_eq!(pq.delete_min(&handle), oracle.pop_first()),
                _ => assert_eq!(pq.peek_min(&handle), oracle.first().copied()),
            }
        }
        let mut rest: Vec<u64> = Vec::new();
        while let Some(k) = pq.delete_min(&handle) {
            rest.push(k);
        }
        let want: Vec<u64> = oracle.into_iter().collect();
        assert_eq!(rest, want, "final drain must be the sorted residue");
    });
}
