//! Skiplist-based concurrent priority queue (Shavit–Lotan).
//!
//! The paper's introduction names priority queues among the structures
//! built on unsynchronized traversals (its citations [3, 43]); this module
//! implements the classic Shavit–Lotan design: the lazy [`SkipList`]
//! ordered by priority, plus a claim flag per node. `delete_min` first
//! *logically* deletes the smallest unclaimed node by atomically claiming
//! it, and only then removes it physically, through the same removal step
//! as the set's `remove`. Between the claim and the unlink the node is
//! still walked over by concurrent traversals — which is precisely the
//! invisible-reader pattern that makes reclamation interesting:
//!
//! * [`PriorityQueue::delete_min`] traverses the bottom level with no
//!   locks until its claim CAS, so a node it inspects may be concurrently
//!   claimed, unlinked, and retired by another consumer.
//! * The physical unlink retires the node through the [`Smr`] scheme;
//!   under ThreadScan nothing else is required, under hazard pointers the
//!   traversal's `load_protected` calls pay the per-step fence.
//!
//! Priorities are distinct `u64`s while resident (a second insert of a
//! live priority fails), matching the integer-set semantics of the other
//! evaluation structures. A queue's traffic all passes the head, which is
//! why the skip list's head is a locked sentinel (see its module docs).

use core::sync::atomic::Ordering;

use ts_smr::{Guard, Smr, SmrHandle};

use crate::set_trait::ConcurrentSet;
use crate::skiplist::{watchdog, SkipList, SkipNode, MAX_HEIGHT, REQUIRED_SLOTS};

/// The full-height node the queue's walks read.
type Node = SkipNode<MAX_HEIGHT>;

/// Shavit–Lotan priority queue: smallest-priority-first `delete_min`,
/// lock-free logical deletion, lazy physical removal, reclamation via `S`.
///
/// Behind the harness's set-shaped [`ConcurrentSet`] interface,
/// `insert(k)` inserts priority `k`, `remove(_)` pops the minimum (`true`
/// if the queue was non-empty) and `contains(_)` peeks (`true` if
/// non-empty); the key argument of the last two is ignored.
pub struct PriorityQueue<S: Smr> {
    /// Ordered by priority; only this layer sets its nodes' `claimed`.
    list: SkipList<S>,
}

impl<S: Smr> PriorityQueue<S> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            list: SkipList::new(),
        }
    }

    /// The first bottom-level node that is linked, unmarked and
    /// unclaimed — with `claim`, the first one this thread then wins the
    /// claim CAS on. It stays protected in `g`'s roving curr slot.
    fn first_unclaimed(&self, g: &Guard<'_, S::Handle>, claim: bool) -> Option<*mut Node> {
        let mut spins = 0u64;
        'retry: loop {
            watchdog(&mut spins, "priority queue walk");
            // Two roving slots, swapped as in the set's `contains`.
            let mut pred_slot = 2 * MAX_HEIGHT;
            let mut curr_slot = 2 * MAX_HEIGHT + 1;
            let mut curr = g.load(curr_slot, &self.list.head.next[0]) as *mut Node;
            while !curr.is_null() {
                // SAFETY: curr protected in curr_slot.
                let node = unsafe { &*curr };
                if node.fully_linked.load(Ordering::Acquire)
                    && !node.marked.load(Ordering::Acquire)
                    && !node.claimed.load(Ordering::Acquire)
                    && (!claim
                        || node
                            .claimed
                            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok())
                {
                    return Some(curr);
                }
                // Already claimed / not yet linked / being removed: step
                // over it (the claimer unlinks it). `node` becomes the
                // pred, still protected in what is now pred_slot.
                std::mem::swap(&mut pred_slot, &mut curr_slot);
                curr = g.load(curr_slot, &node.next[0]) as *mut Node;
                if node.marked.load(Ordering::Acquire) {
                    continue 'retry;
                }
            }
            return None;
        }
    }

    /// Removes and returns the smallest priority, or `None` when the queue
    /// is (momentarily) empty.
    ///
    /// Logical deletion is the claim CAS on the first eligible bottom-level
    /// node; the claimer then marks it and removes it exactly like a set
    /// remove, retiring the unlinked node through the scheme.
    pub fn delete_min(&self, h: &S::Handle) -> Option<u64> {
        let g = h.pin();
        debug_assert!(g.protection_slots().is_none_or(|n| n >= REQUIRED_SLOTS));
        let victim = self.first_unclaimed(&g, true)?;
        // SAFETY: only the claimer marks, unlinks and retires the victim.
        let node = unsafe { &*victim };
        let key = node.key;
        node.lock();
        node.marked.store(true, Ordering::Release);
        let mut preds = [std::ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [std::ptr::null_mut(); MAX_HEIGHT];
        self.list.find(&g, key, &mut preds, &mut succs);
        self.list
            .unlink_and_retire(&g, victim, &mut preds, &mut succs);
        Some(key)
    }

    /// The smallest resident (unclaimed) priority, if any. Lock-free,
    /// write-free bottom-level walk — an invisible reader. Not wait-free:
    /// the walk restarts from the head when its pred turns out marked.
    pub fn peek_min(&self, h: &S::Handle) -> Option<u64> {
        let g = h.pin();
        // SAFETY: the node is still protected by `g`.
        self.first_unclaimed(&g, false).map(|n| unsafe { (*n).key })
    }

    /// Sequential dump of resident (unclaimed, unmarked) priorities in
    /// ascending order (tests only).
    pub fn keys_sequential(&self) -> Vec<u64> {
        self.list.keys_sequential()
    }

    /// Sequential count of resident priorities (tests only).
    pub fn len_sequential(&self) -> usize {
        self.list.len_sequential()
    }
}

impl<S: Smr> Default for PriorityQueue<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Smr> ConcurrentSet<S> for PriorityQueue<S> {
    fn contains(&self, h: &S::Handle, _key: u64) -> bool {
        self.peek_min(h).is_some()
    }

    /// Inserts priority `key`; `false` if a node with that priority is
    /// still resident (claimed-but-unremoved counts as resident).
    fn insert(&self, h: &S::Handle, key: u64) -> bool {
        self.list.insert(h, key)
    }

    fn remove(&self, h: &S::Handle, _key: u64) -> bool {
        self.delete_min(h).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ts_smr::{EpochScheme, HazardPointers, Leaky};

    #[test]
    fn node_layout_keeps_tower_first() {
        assert_eq!(core::mem::offset_of!(Node, next), 0);
        assert_eq!(REQUIRED_SLOTS, 26);
        // The claim flag rides in the set node's padding.
        assert_eq!(core::mem::size_of::<Node>(), 120);
    }

    #[test]
    fn set_ops_map_to_queue_ops() {
        let scheme = Leaky::new();
        let h = scheme.register();
        let pq = PriorityQueue::<Leaky>::new();
        assert!(!pq.contains(&h, 0), "empty queue");
        assert!(!pq.remove(&h, 0), "pop on empty");
        assert!(pq.insert(&h, 9));
        assert!(pq.insert(&h, 3));
        assert!(!pq.insert(&h, 3), "duplicate priority");
        // `contains`/`remove` ignore the key: they see the minimum.
        assert!(pq.contains(&h, 999));
        assert!(pq.remove(&h, 999));
        assert_eq!(pq.peek_min(&h), Some(9), "3 popped first");
        assert!(pq.remove(&h, 0));
        assert!(!pq.contains(&h, 0));
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let scheme = Leaky::new();
        let pq = PriorityQueue::<Leaky>::new();
        let h = scheme.register();
        assert_eq!(pq.delete_min(&h), None);
        assert_eq!(pq.peek_min(&h), None);
        assert_eq!(pq.len_sequential(), 0);
    }

    macro_rules! pq_semantics {
        ($modname:ident, $ty:ty, $scheme:expr) => {
            mod $modname {
                use super::*;

                #[test]
                fn drains_in_priority_order() {
                    let scheme = $scheme;
                    let pq = PriorityQueue::<$ty>::new();
                    let h = scheme.register();
                    let keys = [44u64, 2, 99, 17, 8, 63, 30, 5, 71];
                    for &k in &keys {
                        assert!(pq.insert(&h, k));
                    }
                    let mut want = keys.to_vec();
                    want.sort_unstable();
                    assert_eq!(pq.peek_min(&h), Some(want[0]));
                    let mut got = Vec::new();
                    while let Some(k) = pq.delete_min(&h) {
                        got.push(k);
                    }
                    assert_eq!(got, want);
                    assert_eq!(pq.len_sequential(), 0);
                }

                #[test]
                fn duplicate_priority_rejected_until_removed() {
                    let scheme = $scheme;
                    let pq = PriorityQueue::<$ty>::new();
                    let h = scheme.register();
                    assert!(pq.insert(&h, 7));
                    assert!(!pq.insert(&h, 7));
                    assert_eq!(pq.delete_min(&h), Some(7));
                    assert!(pq.insert(&h, 7), "priority reusable after removal");
                }
            }
        };
    }

    pq_semantics!(leaky_semantics, Leaky, Leaky::new());
    pq_semantics!(epoch_semantics, EpochScheme, EpochScheme::with_threshold(8));
    pq_semantics!(
        hazard_semantics,
        HazardPointers,
        HazardPointers::with_params(REQUIRED_SLOTS, 8)
    );

    #[test]
    fn peek_skips_claimed_nodes() {
        // Claim the minimum by hand (simulating a mid-delete_min consumer)
        // and check peek/delete_min step over it.
        let scheme = Leaky::new();
        let pq = PriorityQueue::<Leaky>::new();
        let h = scheme.register();
        for k in [10u64, 20, 30] {
            pq.insert(&h, k);
        }
        let first = pq.list.head.next[0].load(Ordering::Acquire) as *const Node;
        // SAFETY: one thread, nothing removed: `first` is the live node 10.
        unsafe { (*first).claimed.store(true, Ordering::Release) };
        assert_eq!(pq.peek_min(&h), Some(20));
        assert_eq!(pq.delete_min(&h), Some(20));
        assert_eq!(pq.keys_sequential(), vec![30]);
    }

    /// The regression behind the sentinel-head design: concurrent front
    /// inserts racing `delete_min` must neither resurrect spliced-out
    /// nodes nor lose fresh ones. (With lock-free head entries this
    /// live-locked within milliseconds.)
    #[test]
    fn front_inserts_race_delete_min_without_resurrection() {
        let scheme = Arc::new(Leaky::new());
        let pq = Arc::new(PriorityQueue::<Leaky>::new());
        let produced = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let consumed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let scheme = Arc::clone(&scheme);
                let pq = Arc::clone(&pq);
                let produced = Arc::clone(&produced);
                let consumed = Arc::clone(&consumed);
                s.spawn(move || {
                    let h = scheme.register();
                    let mut seed = 0x1234_5678u64 ^ (t + 1);
                    for _ in 0..20_000 {
                        seed = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        if seed & 1 == 0 {
                            if pq.insert(&h, seed >> 1) {
                                produced.fetch_add(1, Ordering::Relaxed);
                            }
                        } else if pq.delete_min(&h).is_some() {
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let p = produced.load(Ordering::Relaxed);
        let c = consumed.load(Ordering::Relaxed);
        assert_eq!(
            p - c,
            pq.len_sequential() as u64,
            "inserted minus drained must equal resident"
        );
        // Each pop retires its node exactly once: no double, no missed
        // retire in the shared removal step.
        assert_eq!(scheme.leaked() as u64, c, "retires vs pops");
    }

    #[test]
    fn concurrent_producers_and_consumers_drain_exactly_once() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 500;
        let scheme = Arc::new(EpochScheme::with_threshold(64));
        let pq = Arc::new(PriorityQueue::<EpochScheme>::new());
        let drained = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
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
            for _ in 0..3 {
                let scheme = Arc::clone(&scheme);
                let pq = Arc::clone(&pq);
                let drained = Arc::clone(&drained);
                s.spawn(move || {
                    let h = scheme.register();
                    let mut local = Vec::new();
                    let mut dry = 0;
                    while dry < 200 {
                        match pq.delete_min(&h) {
                            Some(k) => {
                                local.push(k);
                                dry = 0;
                            }
                            None => {
                                dry += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    drained.lock().extend(local);
                });
            }
        });
        // Leftovers (consumers may give up before producers finish on a
        // 1-CPU box) plus drained items must equal the inserted set.
        let mut all = drained.lock().clone();
        all.extend(pq.keys_sequential());
        all.sort_unstable();
        let mut want: Vec<u64> = (0..PRODUCERS)
            .flat_map(|t| (0..PER_PRODUCER).map(move |i| t * 1_000_000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(all, want, "every priority drained or resident exactly once");
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }

    #[test]
    fn consumers_race_under_hazard_pointers() {
        let scheme = Arc::new(HazardPointers::with_params(REQUIRED_SLOTS, 32));
        let pq = Arc::new(PriorityQueue::<HazardPointers>::new());
        {
            let h = scheme.register();
            for k in 0..512u64 {
                pq.insert(&h, k);
            }
        }
        let total = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let scheme = Arc::clone(&scheme);
                let pq = Arc::clone(&pq);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    let h = scheme.register();
                    let mut count = 0u64;
                    while pq.delete_min(&h).is_some() {
                        count += 1;
                    }
                    total.fetch_add(count, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 512);
        assert_eq!(pq.len_sequential(), 0);
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }

    #[test]
    fn per_consumer_sequence_is_monotonic_when_alone() {
        // A single consumer with no concurrent inserts must observe a
        // strictly increasing sequence.
        let scheme = EpochScheme::with_threshold(16);
        let pq = PriorityQueue::<EpochScheme>::new();
        let h = scheme.register();
        for k in (0..256u64).rev() {
            pq.insert(&h, k);
        }
        let mut last = None;
        while let Some(k) = pq.delete_min(&h) {
            if let Some(prev) = last {
                assert!(k > prev, "delete_min went backwards: {prev} then {k}");
            }
            last = Some(k);
        }
        assert_eq!(last, Some(255));
    }
}
