//! Lock-free hash table — the paper's second evaluation structure.
//!
//! §6: "The Synchrobench suite provided a hash table that used its own
//! lock-free linked list for its buckets. This implementation was replaced
//! with the \[25\] list." — i.e. a fixed array of buckets, each a Harris
//! lock-free list. The paper sizes it for an expected bucket length of 32
//! (131,072 nodes over a 262,144-key range).

use ts_smr::Smr;

use crate::harris_list::HarrisList;
use crate::set_trait::ConcurrentSet;

/// Fixed-capacity lock-free hash set: `buckets` Harris lists.
pub struct LockFreeHashTable<S: Smr> {
    buckets: Box<[HarrisList<S>]>,
    mask: u64,
}

impl<S: Smr> LockFreeHashTable<S> {
    /// A table with `buckets` buckets (rounded up to a power of two).
    pub fn new(buckets: usize) -> Self {
        let n = buckets.next_power_of_two().max(1);
        Self {
            buckets: (0..n).map(|_| HarrisList::new()).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// The paper's Figure 3 sizing: expected bucket length 32 for a target
    /// of `expected_nodes` resident keys.
    pub fn for_expected_nodes(expected_nodes: usize) -> Self {
        Self::new((expected_nodes / 32).max(1))
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn bucket(&self, key: u64) -> &HarrisList<S> {
        // Multiplicative (Fibonacci) hashing: keys in benchmarks are
        // near-uniform already, but cheap mixing keeps adversarial
        // stride patterns from clustering.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.buckets[(h & self.mask) as usize]
    }

    /// Sequential total of unmarked nodes (diagnostics/tests).
    pub fn len_sequential(&self) -> usize {
        self.buckets.iter().map(|b| b.len_sequential()).sum()
    }
}

impl<S: Smr> ConcurrentSet<S> for LockFreeHashTable<S> {
    fn contains(&self, handle: &S::Handle, key: u64) -> bool {
        self.bucket(key).contains(handle, key)
    }

    fn insert(&self, handle: &S::Handle, key: u64) -> bool {
        self.bucket(key).insert(handle, key)
    }

    fn remove(&self, handle: &S::Handle, key: u64) -> bool {
        self.bucket(key).remove(handle, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ts_smr::{EpochScheme, HazardPointers, Leaky, Smr};

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        assert_eq!(LockFreeHashTable::<Leaky>::new(1000).bucket_count(), 1024);
        assert_eq!(LockFreeHashTable::<Leaky>::new(1).bucket_count(), 1);
        assert_eq!(
            LockFreeHashTable::<Leaky>::for_expected_nodes(131_072).bucket_count(),
            4096,
            "paper sizing: 131072 nodes / 32 per bucket"
        );
    }

    #[test]
    fn basic_set_semantics() {
        let scheme = Leaky::new();
        let table = LockFreeHashTable::<Leaky>::new(16);
        let h = scheme.register();
        for k in 0..100u64 {
            assert!(table.insert(&h, k));
            assert!(!table.insert(&h, k));
        }
        assert_eq!(table.len_sequential(), 100);
        for k in 0..100u64 {
            assert!(table.contains(&h, k));
        }
        for k in (0..100u64).step_by(2) {
            assert!(table.remove(&h, k));
        }
        assert_eq!(table.len_sequential(), 50);
        for k in 0..100u64 {
            assert_eq!(table.contains(&h, k), k % 2 == 1);
        }
    }

    #[test]
    fn keys_distribute_across_buckets() {
        let scheme = Leaky::new();
        let table = LockFreeHashTable::<Leaky>::new(64);
        let h = scheme.register();
        for k in 0..6400u64 {
            table.insert(&h, k);
        }
        // With multiplicative hashing, no bucket should be pathological.
        let max_bucket = table
            .buckets
            .iter()
            .map(|b| b.len_sequential())
            .max()
            .unwrap();
        assert!(
            max_bucket < 400,
            "bucket of {max_bucket} for 6400 keys over 64 buckets"
        );
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let scheme = Arc::new(EpochScheme::with_threshold(64));
        let table = Arc::new(LockFreeHashTable::<EpochScheme>::new(32));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let scheme = Arc::clone(&scheme);
                let table = Arc::clone(&table);
                s.spawn(move || {
                    let h = scheme.register();
                    let base = t * 100_000;
                    for i in 0..500u64 {
                        assert!(table.insert(&h, base + i));
                    }
                    for i in 0..500u64 {
                        assert!(table.contains(&h, base + i));
                    }
                    for i in (0..500u64).step_by(2) {
                        assert!(table.remove(&h, base + i));
                    }
                });
            }
        });
        assert_eq!(table.len_sequential(), 8 * 250);
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }

    #[test]
    fn hazard_pointer_traffic_on_short_buckets() {
        // The paper's point: HP cost is low here because bucket traversals
        // are short. This just exercises correctness of that path.
        let scheme = Arc::new(HazardPointers::with_params(4, 16));
        let table = Arc::new(LockFreeHashTable::<HazardPointers>::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let scheme = Arc::clone(&scheme);
                let table = Arc::clone(&table);
                s.spawn(move || {
                    let h = scheme.register();
                    for i in 0..1000u64 {
                        let k = (t * 7919 + i * 104729) % 4096;
                        match i % 3 {
                            0 => drop(table.insert(&h, k)),
                            1 => drop(table.contains(&h, k)),
                            _ => drop(table.remove(&h, k)),
                        }
                    }
                });
            }
        });
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }
}
