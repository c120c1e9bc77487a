//! Split-ordered-list hash table (Shalev–Shavit, "Split-Ordered Lists:
//! Lock-Free Extensible Hash Tables", JACM 2006) — cited by the paper's
//! introduction (\[42\]) as one of the high-performance structures built on
//! unsynchronized traversals.
//!
//! The entire table is **one** Harris lock-free sorted list; buckets are
//! *dummy* nodes threaded into it at split-order positions. Every search,
//! insert and remove is the [`HarrisList`](crate::HarrisList)'s own code,
//! started at the key's bucket dummy instead of at a list head. Keys are
//! sorted by their **bit-reversed** hash, so doubling the bucket count
//! never moves an item: the new bucket's dummy simply splits an existing
//! bucket's chain in place. This makes resizing lock-free and incremental
//! — and gives the reclamation scheme a workout the fixed-bucket
//! [`LockFreeHashTable`](crate::LockFreeHashTable) cannot: bucket chains
//! are split *while* readers traverse them and removed nodes are retired
//! mid-split.
//!
//! Reclamation discipline: regular nodes are unlinked with the Harris
//! two-phase mark + unlink and retired through the [`Smr`] scheme by
//! whoever performs the physical unlink; dummy nodes are never removed
//! (they live until the table drops), so bucket-entry reads need no
//! protection.
//!
//! The bucket directory is a [`GrowableDirectory`] — a lock-free
//! segment-tree array with a height-tagged root pointer — so the table
//! grows unboundedly (the old hard cap was 2^20 buckets) with no
//! stop-the-world resize: doubling the bucket count is one CAS on `size`,
//! and the directory adds tree levels on demand as new bucket indices are
//! touched.

use core::marker::PhantomData;
use core::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use ts_smr::{Guard, Smr, SmrHandle};

use crate::growable_dir::{GrowableDirectory, MAX_CAPACITY};
use crate::harris_list::{self, live_sequential, HarrisNode};
use crate::set_trait::ConcurrentSet;
use crate::tagged::untagged;

/// Default items per bucket that trigger a size doubling (the classic
/// algorithm's load factor; the paper's fixed table targets 32 — here
/// splitting keeps chains near this bound instead). Tunable per table via
/// [`SplitOrderedSet::with_load_factor`].
pub const DEFAULT_LOAD_FACTOR: usize = 4;

#[repr(C)]
struct SoNode {
    /// Tagged next pointer (low bit = logically deleted). First field, so
    /// interior pointers resolve to the node address under range matching.
    next: AtomicPtr<u8>,
    /// Split-order key: bit-reversed hash with LSB 1 for regular nodes,
    /// bit-reversed bucket index (LSB 0) for dummies. Primary sort key.
    skey: u64,
    /// The application key (0 for dummies; disambiguated by skey's LSB).
    key: u64,
}

impl SoNode {
    fn new((skey, key): (u64, u64)) -> Self {
        Self {
            next: AtomicPtr::new(std::ptr::null_mut()),
            skey,
            key,
        }
    }

    #[inline]
    fn is_dummy(&self) -> bool {
        self.skey & 1 == 0
    }
}

impl HarrisNode for SoNode {
    /// `(skey, key)` in lexicographic order: dummies never tie with
    /// regulars (skey LSBs differ) and regular ties (63-bit hash
    /// collisions) break on the application key.
    type Key = (u64, u64);

    #[inline]
    fn next(&self) -> &AtomicPtr<u8> {
        &self.next
    }

    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.skey, self.key)
    }
}

/// 64-bit finalizer (splitmix64): spreads application keys over the full
/// hash space so bucket selection and split order are uniform.
#[inline]
fn hash64(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Split-order key of a regular item: set the top bit (so regulars sort
/// after every dummy of their bucket), then bit-reverse (LSB becomes 1).
#[inline]
fn so_regular_key(hash: u64) -> u64 {
    (hash | (1 << 63)).reverse_bits()
}

/// Split-order key of bucket `b`'s dummy: bit-reversed index (LSB 0).
#[inline]
fn so_dummy_key(bucket: usize) -> u64 {
    (bucket as u64).reverse_bits()
}

/// The split-ordered hash set.
pub struct SplitOrderedSet<S: Smr> {
    /// Growable directory of bucket-dummy pointers, indexed by bucket.
    /// Tree levels and segments allocate lazily as buckets are touched.
    /// Bucket 0's dummy is also the head of the whole list.
    directory: GrowableDirectory,
    /// Current bucket count (power of two, ≤ the directory's capacity).
    size: AtomicUsize,
    /// Resident item count (drives the load-factor splits).
    count: AtomicUsize,
    /// Items per bucket beyond which the bucket count doubles.
    load_factor: usize,
    _scheme: PhantomData<fn(&S)>,
}

impl<S: Smr> SplitOrderedSet<S> {
    /// An empty set with the directory's native starting bucket count.
    pub fn new() -> Self {
        Self::with_buckets(crate::growable_dir::SEG_LEN)
    }

    /// An empty set starting at `initial_buckets` (rounded up to a power
    /// of two, clamped to what the directory can ever address).
    pub fn with_buckets(initial_buckets: usize) -> Self {
        let size = initial_buckets.next_power_of_two().clamp(2, MAX_CAPACITY);
        let set = Self {
            directory: GrowableDirectory::new(),
            size: AtomicUsize::new(size),
            count: AtomicUsize::new(0),
            load_factor: DEFAULT_LOAD_FACTOR,
            _scheme: PhantomData,
        };
        let head = Box::into_raw(Box::new(SoNode::new((so_dummy_key(0), 0))));
        set.directory.entry(0).store(head.cast(), Ordering::Release);
        set
    }

    /// Builder: items-per-bucket threshold beyond which the bucket count
    /// doubles (default [`DEFAULT_LOAD_FACTOR`]). Lower values split more
    /// eagerly; `0` doubles on every insert (useful to exercise deep
    /// directory growth quickly in tests).
    pub fn with_load_factor(mut self, load_factor: usize) -> Self {
        self.load_factor = load_factor;
        self
    }

    /// The configured items-per-bucket split threshold.
    pub fn load_factor(&self) -> usize {
        self.load_factor
    }

    /// Current bucket count (diagnostics / tests).
    pub fn bucket_count(&self) -> usize {
        self.size.load(Ordering::Acquire)
    }

    /// Resident items (linearizable only when quiescent).
    pub fn len_estimate(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Bucket `b`'s parent: `b` with its highest set bit cleared.
    #[inline]
    fn parent(bucket: usize) -> usize {
        debug_assert!(bucket > 0);
        bucket & !(1usize << (usize::BITS - 1 - bucket.leading_zeros()))
    }

    /// Returns the (immortal) dummy node for `bucket`, lazily threading it
    /// — and transitively its ancestors' — into the list.
    fn bucket_dummy(&self, g: &Guard<'_, S::Handle>, bucket: usize) -> &SoNode {
        let entry = self.directory.entry(bucket);
        if entry.load(Ordering::Acquire).is_null() {
            let parent = self.bucket_dummy(g, Self::parent(bucket));
            // Insert-if-absent starting at the parent's chain. Dummies are
            // never retired, so they skip the scheme's allocation hook: an
            // insert calls it once, for its own node.
            let key = (so_dummy_key(bucket), 0);
            let (Ok(dummy) | Err(dummy)) = harris_list::insert(g, &parent.next, key, || {
                Box::into_raw(Box::new(SoNode::new(key)))
            });
            // Publish. A racing initializer found or threaded the same
            // node, so the CAS only makes the first publication explicit.
            let _ = entry.compare_exchange(
                std::ptr::null_mut(),
                dummy.cast(),
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
        // SAFETY: the entry holds a dummy, and dummies are never retired:
        // they live until the set drops.
        unsafe { &*entry.load(Ordering::Acquire).cast::<SoNode>() }
    }

    /// The field a step on `key` starts from (its bucket dummy's `next`)
    /// and `key`'s split-order key.
    #[inline]
    fn locate(&self, g: &Guard<'_, S::Handle>, key: u64) -> (&AtomicPtr<u8>, (u64, u64)) {
        let hash = hash64(key);
        let size = self.size.load(Ordering::Acquire);
        let dummy = self.bucket_dummy(g, (hash as usize) & (size - 1));
        (&dummy.next, (so_regular_key(hash), key))
    }

    /// Doubles the bucket count when the load factor is exceeded. The
    /// only bound is the directory's addressable capacity (2^56 buckets)
    /// — there is no resize pause: the new buckets' dummies thread in
    /// lazily as operations touch them.
    fn maybe_split(&self) {
        let size = self.size.load(Ordering::Acquire);
        if size < MAX_CAPACITY
            && self.count.load(Ordering::Acquire) > size.saturating_mul(self.load_factor)
        {
            // One winner doubles; losers see the new size on their next op.
            let _ = self
                .size
                .compare_exchange(size, size * 2, Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// Sequential dump of resident application keys, in split order
    /// (tests only).
    pub fn keys_sequential(&self) -> Vec<u64> {
        live_sequential::<SoNode>(self.directory.entry(0))
            .filter(|n| !n.is_dummy())
            .map(|n| n.key)
            .collect()
    }
}

impl<S: Smr> Default for SplitOrderedSet<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Smr> ConcurrentSet<S> for SplitOrderedSet<S> {
    fn contains(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        let (start, key) = self.locate(&g, key);
        harris_list::contains::<SoNode, _>(&g, start, key)
    }

    fn insert(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        let (start, key) = self.locate(&g, key);
        let inserted = harris_list::insert(&g, start, key, || g.alloc(SoNode::new(key))).is_ok();
        if inserted {
            self.count.fetch_add(1, Ordering::AcqRel);
            self.maybe_split();
        }
        inserted
    }

    fn remove(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        let (start, key) = self.locate(&g, key);
        // Remove is the one step that marks a node: dummies are never marked.
        debug_assert_eq!(key.0 & 1, 1, "remove must target a regular key");
        let removed = harris_list::remove::<SoNode, _>(&g, start, key);
        if removed {
            self.count.fetch_sub(1, Ordering::AcqRel);
        }
        removed
    }

    fn kind(&self) -> &'static str {
        "split-ordered"
    }

    fn bucket_count(&self) -> Option<usize> {
        Some(SplitOrderedSet::bucket_count(self))
    }
}

impl<S: Smr> Drop for SplitOrderedSet<S> {
    fn drop(&mut self) {
        // Exclusive access: free the whole chain (dummies + regulars);
        // the directory's own Drop then frees the segment tree (its leaf
        // slots point at dummies already freed here, which is fine — the
        // directory never dereferences or frees leaf values).
        let mut cur = self.directory.entry(0).load(Ordering::Relaxed);
        while !cur.is_null() {
            // SAFETY: &mut self; each node freed exactly once (next read
            // before the node is freed).
            unsafe {
                let node = Box::from_raw(untagged(cur).cast::<SoNode>());
                cur = node.next.load(Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ts_smr::{EpochScheme, HazardPointers, Leaky};

    #[test]
    fn split_order_keys_sort_dummies_before_their_items() {
        // A bucket's dummy must precede every regular key hashing there.
        for key in [0u64, 1, 7, 42, 1 << 40, u64::MAX] {
            let h = hash64(key);
            let bucket = (h as usize) & (crate::growable_dir::SEG_LEN - 1);
            assert!(
                so_dummy_key(bucket) < so_regular_key(h),
                "dummy({bucket}) must sort before item {key}"
            );
        }
    }

    #[test]
    fn split_order_key_ties_break_on_the_application_key() {
        // The two hashes differ only in bit 63, which `so_regular_key`
        // overwrites: one split-order key, so one bucket at every size,
        // and only the `(skey, key)` tie-break tells the keys apart.
        const TIED: [u64; 2] = [7, 0x2a4f_72a4_a438_b0f1];
        assert_eq!(hash64(TIED[0]) ^ hash64(TIED[1]), 1 << 63);
        assert_eq!(
            so_regular_key(hash64(TIED[0])),
            so_regular_key(hash64(TIED[1]))
        );
        let scheme = Leaky::new();
        let h = scheme.register();
        // Each order inserts `a` first and removes it first, so the key
        // sorting lower is both inserted and removed before the other once.
        for [a, b] in [TIED, [TIED[1], TIED[0]]] {
            let set = SplitOrderedSet::<Leaky>::with_buckets(2);
            assert!(set.insert(&h, a));
            assert!(set.contains(&h, a) && !set.contains(&h, b));
            assert!(!set.remove(&h, b), "{b:#x} is absent");
            assert!(set.insert(&h, b) && !set.insert(&h, a));
            assert!(set.contains(&h, a) && set.contains(&h, b));
            assert!(set.remove(&h, a));
            assert!(!set.contains(&h, a) && set.contains(&h, b));
            assert!(set.remove(&h, b));
            assert!(!set.contains(&h, b) && set.keys_sequential().is_empty());
        }
    }

    #[test]
    fn child_dummy_sorts_after_parent_dummy() {
        for bucket in [1usize, 2, 3, 200, 255, 256, 1000] {
            let parent = SplitOrderedSet::<Leaky>::parent(bucket);
            assert!(
                so_dummy_key(parent) < so_dummy_key(bucket),
                "parent({bucket}) = {parent} must sort first"
            );
        }
    }

    #[test]
    fn parent_clears_highest_bit() {
        assert_eq!(SplitOrderedSet::<Leaky>::parent(1), 0);
        assert_eq!(SplitOrderedSet::<Leaky>::parent(5), 1);
        assert_eq!(SplitOrderedSet::<Leaky>::parent(256), 0);
        assert_eq!(SplitOrderedSet::<Leaky>::parent(257), 1);
        assert_eq!(SplitOrderedSet::<Leaky>::parent(0b1100), 0b0100);
    }

    #[test]
    fn load_factor_knob_controls_split_frequency() {
        // Same key stream, two thresholds: the eager table must end with
        // strictly more buckets than the lazy one, and both keep the keys.
        let scheme = Leaky::new();
        let h = scheme.register();
        let eager = SplitOrderedSet::<Leaky>::with_buckets(2).with_load_factor(1);
        let lazy = SplitOrderedSet::<Leaky>::with_buckets(2).with_load_factor(16);
        assert_eq!(eager.load_factor(), 1);
        assert_eq!(lazy.load_factor(), 16);
        for k in 0..512u64 {
            assert!(eager.insert(&h, k));
            assert!(lazy.insert(&h, k));
        }
        assert!(
            eager.bucket_count() > lazy.bucket_count(),
            "load factor 1 ({} buckets) must split more than 16 ({} buckets)",
            eager.bucket_count(),
            lazy.bucket_count()
        );
        for k in 0..512u64 {
            assert!(eager.contains(&h, k) && lazy.contains(&h, k), "key {k}");
        }
    }

    #[test]
    fn default_load_factor_matches_documented_value() {
        let set = SplitOrderedSet::<Leaky>::new();
        assert_eq!(set.load_factor(), DEFAULT_LOAD_FACTOR);
        assert_eq!(DEFAULT_LOAD_FACTOR, 4);
    }

    #[test]
    fn bucket_count_surfaces_through_the_set_trait() {
        let scheme = Leaky::new();
        let h = scheme.register();
        let set = SplitOrderedSet::<Leaky>::with_buckets(4);
        let as_set: &dyn ConcurrentSet<Leaky> = &set;
        assert_eq!(as_set.bucket_count(), Some(4));
        for k in 0..256u64 {
            set.insert(&h, k);
        }
        assert_eq!(as_set.bucket_count(), Some(set.bucket_count()));
        assert!(as_set.bucket_count().unwrap() > 4);
    }

    macro_rules! so_semantics {
        ($modname:ident, $ty:ty, $scheme:expr) => {
            mod $modname {
                use super::*;

                #[test]
                fn roundtrip() {
                    let scheme = $scheme;
                    let set = SplitOrderedSet::<$ty>::new();
                    let h = scheme.register();
                    assert!(!set.contains(&h, 10));
                    assert!(set.insert(&h, 10));
                    assert!(!set.insert(&h, 10));
                    assert!(set.contains(&h, 10));
                    assert!(set.remove(&h, 10));
                    assert!(!set.remove(&h, 10));
                    assert!(!set.contains(&h, 10));
                }

                #[test]
                fn many_keys_roundtrip() {
                    let scheme = $scheme;
                    let set = SplitOrderedSet::<$ty>::with_buckets(4);
                    let h = scheme.register();
                    for k in 0..500u64 {
                        assert!(set.insert(&h, k * 7));
                    }
                    assert_eq!(set.len_estimate(), 500);
                    for k in 0..500u64 {
                        assert!(set.contains(&h, k * 7), "key {}", k * 7);
                        assert!(!set.contains(&h, k * 7 + 1));
                    }
                    for k in 0..500u64 {
                        assert!(set.remove(&h, k * 7));
                    }
                    assert_eq!(set.len_estimate(), 0);
                    assert!(set.keys_sequential().is_empty());
                }
            }
        };
    }

    so_semantics!(leaky_semantics, Leaky, Leaky::new());
    so_semantics!(epoch_semantics, EpochScheme, EpochScheme::with_threshold(8));
    so_semantics!(
        hazard_semantics,
        HazardPointers,
        HazardPointers::with_params(3, 8)
    );

    #[test]
    fn table_splits_under_load() {
        let scheme = Leaky::new();
        let set = SplitOrderedSet::<Leaky>::with_buckets(2);
        let h = scheme.register();
        assert_eq!(set.bucket_count(), 2);
        for k in 0..256u64 {
            set.insert(&h, k);
        }
        assert!(
            set.bucket_count() > 2,
            "bucket count must double under load, still {}",
            set.bucket_count()
        );
        for k in 0..256u64 {
            assert!(set.contains(&h, k), "key {k} lost across splits");
        }
    }

    #[test]
    fn keys_survive_splits_triggered_by_other_threads() {
        let scheme = Arc::new(EpochScheme::with_threshold(64));
        let set = Arc::new(SplitOrderedSet::<EpochScheme>::with_buckets(2));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let scheme = Arc::clone(&scheme);
                let set = Arc::clone(&set);
                s.spawn(move || {
                    let h = scheme.register();
                    let base = t * 100_000;
                    for i in 0..400u64 {
                        assert!(set.insert(&h, base + i));
                    }
                    for i in (0..400u64).step_by(4) {
                        assert!(set.remove(&h, base + i));
                    }
                    for i in 0..400u64 {
                        assert_eq!(set.contains(&h, base + i), i % 4 != 0);
                    }
                });
            }
        });
        assert_eq!(set.len_estimate(), 4 * 300);
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }

    #[test]
    fn readers_race_removals_under_hazard_pointers() {
        let scheme = Arc::new(HazardPointers::with_params(3, 32));
        let set = Arc::new(SplitOrderedSet::<HazardPointers>::with_buckets(4));
        {
            let h = scheme.register();
            for k in 0..256u64 {
                set.insert(&h, k);
            }
        }
        std::thread::scope(|s| {
            for _ in 0..3 {
                let scheme = Arc::clone(&scheme);
                let set = Arc::clone(&set);
                s.spawn(move || {
                    let h = scheme.register();
                    for _ in 0..30 {
                        for k in 0..256u64 {
                            let _ = set.contains(&h, k);
                        }
                    }
                });
            }
            let scheme2 = Arc::clone(&scheme);
            let set2 = Arc::clone(&set);
            s.spawn(move || {
                let h = scheme2.register();
                for k in 0..256u64 {
                    assert!(set2.remove(&h, k));
                }
            });
        });
        assert!(set.keys_sequential().is_empty());
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }

    #[test]
    fn drop_frees_dummies_segments_and_items() {
        let scheme = Leaky::new();
        let set = SplitOrderedSet::<Leaky>::with_buckets(2);
        let h = scheme.register();
        for k in 0..2_000u64 {
            set.insert(&h, k);
        }
        drop(set); // leak/double-free asserted by sanitizer runs
    }
}
