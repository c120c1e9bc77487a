//! The priority queue behind the set-shaped interface.
//!
//! The one evaluation structure that is not a set joins the harness's
//! object-safe [`ConcurrentSet<S>`] through [`PqAsSet`], which adapts the
//! Shavit–Lotan [`PriorityQueue`]: `insert` maps to a queue insert,
//! `remove` to `delete_min` (the key argument picks no particular
//! element), `contains` to `peek_min` (non-emptiness).

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
    use crate::SplitOrderedSet;
    use ts_smr::Leaky;

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
