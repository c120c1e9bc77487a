//! Several structure types, one collector: the set-shaped adapter.
//!
//! [`ConcurrentSet<S>`] is object-safe, so a *heterogeneous* run — several
//! different structures sharing one collector — holds them all as
//! `Arc<dyn ConcurrentSet<S>>` while every one of them retires through
//! the *same* scheme instance `S`. The one evaluation structure that is
//! not a set joins through [`PqAsSet`], which adapts the Shavit–Lotan
//! [`PriorityQueue`]: `insert` maps to a queue insert, `remove` to
//! `delete_min` (the key argument picks no particular element),
//! `contains` to `peek_min` (non-emptiness).

use core::sync::atomic::{AtomicUsize, Ordering};

use ts_smr::Smr;

use crate::priority_queue::PriorityQueue;
use crate::set_trait::ConcurrentSet;

/// The Shavit–Lotan priority queue behind the set-shaped interface.
///
/// A priority queue has no membership query, so the mapping reinterprets
/// the set ops as queue traffic: `insert(k)` inserts priority `k`,
/// `remove(_)` pops the minimum (`true` if the queue was non-empty), and
/// `contains(_)` peeks (`true` if non-empty). The `key` argument of
/// `remove`/`contains` is ignored — what matters for the reclamation
/// benchmark is that deletions unlink and retire real nodes through the
/// scheme under test, which `delete_min` does.
pub struct PqAsSet<S: Smr> {
    inner: PriorityQueue<S>,
    /// Pops that found the queue empty — diagnostics for mix tuning.
    empty_pops: AtomicUsize,
}

impl<S: Smr> PqAsSet<S> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            inner: PriorityQueue::new(),
            empty_pops: AtomicUsize::new(0),
        }
    }

    /// The wrapped queue.
    pub fn inner(&self) -> &PriorityQueue<S> {
        &self.inner
    }

    /// How many `remove` calls found the queue empty.
    pub fn empty_pops(&self) -> usize {
        self.empty_pops.load(Ordering::Relaxed)
    }
}

impl<S: Smr> Default for PqAsSet<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Smr> ConcurrentSet<S> for PqAsSet<S> {
    fn contains(&self, handle: &S::Handle, _key: u64) -> bool {
        self.inner.peek_min(handle).is_some()
    }

    fn insert(&self, handle: &S::Handle, key: u64) -> bool {
        self.inner.insert(handle, key)
    }

    fn remove(&self, handle: &S::Handle, _key: u64) -> bool {
        let popped = self.inner.delete_min(handle).is_some();
        if !popped {
            self.empty_pops.fetch_add(1, Ordering::Relaxed);
        }
        popped
    }

    fn kind(&self) -> &'static str {
        "priority-queue"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HarrisList, SplitOrderedSet};
    use std::sync::Arc;
    use ts_smr::Leaky;

    #[test]
    fn heterogeneous_structures_share_one_scheme() {
        let scheme = Leaky::new();
        let h = scheme.register();
        let sets: Vec<Arc<dyn ConcurrentSet<Leaky>>> = vec![
            Arc::new(HarrisList::<Leaky>::new()),
            Arc::new(SplitOrderedSet::<Leaky>::new()),
            Arc::new(PqAsSet::<Leaky>::new()),
        ];
        for set in &sets {
            assert!(set.insert(&h, 7));
            assert!(set.contains(&h, 7));
        }
        assert_eq!(
            sets.iter().map(|s| s.kind()).collect::<Vec<_>>(),
            ["harris-list", "split-ordered", "priority-queue"]
        );
        // Only the bucketed table reports a bucket count.
        assert_eq!(sets[0].bucket_count(), None);
        assert!(sets[1].bucket_count().is_some());
        assert_eq!(sets[2].bucket_count(), None);
    }

    #[test]
    fn erased_ops_agree_with_the_generic_trait() {
        let scheme = Leaky::new();
        let h = scheme.register();
        let set = SplitOrderedSet::<Leaky>::new();
        assert!(set.insert(&h, 1));
        let dyn_set: &dyn ConcurrentSet<Leaky> = &set;
        assert!(!dyn_set.insert(&h, 1), "duplicate visible through erasure");
        assert!(dyn_set.contains(&h, 1));
        assert!(dyn_set.remove(&h, 1));
        assert!(!set.contains(&h, 1));
    }

    #[test]
    fn pq_adapter_maps_set_ops_to_queue_ops() {
        let scheme = Leaky::new();
        let h = scheme.register();
        let pq = PqAsSet::<Leaky>::new();
        assert!(!pq.contains(&h, 0), "empty queue");
        assert!(!pq.remove(&h, 0), "pop on empty");
        assert_eq!(pq.empty_pops(), 1);
        assert!(pq.insert(&h, 9));
        assert!(pq.insert(&h, 3));
        assert!(!pq.insert(&h, 3), "duplicate priority");
        // `contains`/`remove` ignore the key: they see the minimum.
        assert!(pq.contains(&h, 999));
        assert!(pq.remove(&h, 999));
        assert_eq!(pq.inner().peek_min(&h), Some(9), "3 popped first");
        assert!(pq.remove(&h, 0));
        assert!(!pq.contains(&h, 0));
        assert_eq!(pq.empty_pops(), 1, "successful pops not counted");
    }
}
