//! Property tests for the growable segment-tree directory and the
//! split-ordered table built on it.
//!
//! Two oracles: the raw [`GrowableDirectory`] must behave like a
//! `HashMap<usize, value>` over arbitrary store/load sequences whose
//! indices straddle segment boundaries (forcing mid-sequence grows), and
//! a [`SplitOrderedSet`] configured to split eagerly (tiny initial table,
//! load factor 1) must behave like a `BTreeSet` while its directory
//! crosses the height-1 → height-2 boundary.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::Ordering;

use ts_choose::{check_inputs, Chooser};
use ts_smr::{Leaky, Smr};
use ts_structures::growable_dir::SEG_LEN;
use ts_structures::{ConcurrentSet, GrowableDirectory, SplitOrderedSet};

/// Sentinel non-null pointers; never dereferenced.
fn val(x: usize) -> *mut u8 {
    (x * 8 + 8) as *mut u8
}

/// An index clustered around segment-boundary powers, so sequences keep
/// crossing grow thresholds.
fn index(ch: &mut dyn Chooser) -> usize {
    let (lo, hi) = [
        (0, 2 * SEG_LEN),
        (SEG_LEN * SEG_LEN - 4, SEG_LEN * SEG_LEN + 4),
        ((1 << 20) - 4, (1 << 20) + 4),
        (0, SEG_LEN * SEG_LEN * 4),
    ][ch.choose("index region", 4)];
    lo + ch.choose("index", hi - lo)
}

#[test]
fn growable_directory_matches_hashmap_oracle() {
    check_inputs(
        "growable_directory_matches_hashmap_oracle",
        4096,
        48,
        |ch| {
            let dir = GrowableDirectory::new();
            let mut oracle: HashMap<usize, usize> = HashMap::new();
            for _ in 0..1 + ch.choose("ops", 299) {
                if ch.choose("op", 2) == 0 {
                    let (i, v) = (index(ch), 1 + ch.choose("value", 999));
                    dir.entry(i).store(val(v), Ordering::Release);
                    oracle.insert(i, v);
                } else {
                    let i = index(ch);
                    let want = oracle.get(&i).map_or(core::ptr::null_mut(), |&v| val(v));
                    assert_eq!(dir.entry(i).load(Ordering::Acquire), want, "load({i})");
                }
            }
            // Final sweep: every written slot still resolves through the
            // (possibly much taller) root to the same leaf.
            for (&i, &v) in &oracle {
                assert_eq!(dir.entry(i).load(Ordering::Acquire), val(v), "final({i})");
            }
            assert!(dir.capacity() > oracle.keys().copied().max().unwrap_or(0));
        },
    );
}

#[test]
fn eager_split_table_matches_btreeset_across_segment_boundaries() {
    check_inputs(
        "eager_split_table_matches_btreeset_across_segment_boundaries",
        4096,
        48,
        |ch| {
            let scheme = Leaky::new();
            let handle = scheme.register();
            let set = SplitOrderedSet::<Leaky>::with_buckets(2).with_load_factor(1);
            let mut oracle = BTreeSet::new();
            for _ in 0..1 + ch.choose("ops", 1499) {
                // Insert-heavy, 4:1:1, so the table actually grows past
                // one root segment; the first three alternatives are the
                // three kinds, so small bounds see all of them.
                let op = ch.choose("op", 6);
                let k = ch.choose("key", 2048) as u64;
                match op {
                    1 => assert_eq!(set.remove(&handle, k), oracle.remove(&k), "remove({k})"),
                    2 => assert_eq!(
                        set.contains(&handle, k),
                        oracle.contains(&k),
                        "contains({k})"
                    ),
                    _ => assert_eq!(set.insert(&handle, k), oracle.insert(k), "insert({k})"),
                }
            }
            // `keys_sequential` walks the list in split (bit-reversed-hash)
            // order; sort to compare membership.
            let mut keys: Vec<u64> = set.keys_sequential();
            keys.sort_unstable();
            let want: Vec<u64> = oracle.iter().copied().collect();
            assert_eq!(keys, want, "final membership");
        },
    );
}

/// Deterministic companion: enough eager inserts push the directory past
/// its first 256-entry segment (height 2), and nothing is lost.
#[test]
fn eager_inserts_cross_the_first_segment_boundary() {
    let scheme = Leaky::new();
    let handle = scheme.register();
    let set = SplitOrderedSet::<Leaky>::with_buckets(2).with_load_factor(1);
    for k in 0..600u64 {
        assert!(set.insert(&handle, k));
    }
    assert!(
        set.bucket_count() >= 512,
        "load factor 1 must have split past one segment (got {})",
        set.bucket_count()
    );
    let mut keys = set.keys_sequential();
    keys.sort_unstable();
    assert_eq!(keys, (0..600).collect::<Vec<u64>>());
}
