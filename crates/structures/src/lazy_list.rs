//! The lazy list (Heller, Herlihy, Luchangco, Moir, Scherer, Shavit,
//! OPODIS 2005) — the algorithm the paper's *introduction* uses to motivate
//! unsynchronized traversals:
//!
//! > "modifications to the list are done by acquiring fine-grained locks on
//! > the two nodes adjacent to where an insert or remove of a node is to
//! > take place ... the frequent search operations ... are executed by
//! > reading along the sequence of pointers from the list head, ignoring
//! > the locks, and thus incurring no synchronization overhead."
//!
//! `contains` is wait-free and write-free; `insert`/`remove` lock `pred`
//! and `curr`, validate, and retry on conflict. Removal marks the victim
//! before unlinking, and the remover retires it through the scheme.

use core::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::marker::PhantomData;

use ts_smr::{Guard, Smr, SmrHandle};

use crate::set_trait::ConcurrentSet;

/// Padding to the paper's 172-byte node size, matching the Harris list so
/// the two lists differ only in algorithm.
const NODE_PAD: usize = 128;

const SLOT_A: usize = 0;
const SLOT_B: usize = 1;

#[repr(C)]
struct LazyNode {
    /// Plain (untagged) pointer to the next node; first field.
    next: AtomicPtr<u8>,
    key: u64,
    lock: AtomicBool,
    marked: AtomicBool,
    _pad: [u8; NODE_PAD],
}

impl LazyNode {
    fn new(key: u64, next: *mut u8) -> LazyNode {
        LazyNode {
            next: AtomicPtr::new(next),
            key,
            lock: AtomicBool::new(false),
            marked: AtomicBool::new(false),
            _pad: [0; NODE_PAD],
        }
    }

    fn lock(&self) {
        while self
            .lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
    }

    fn unlock(&self) {
        self.lock.store(false, Ordering::Release);
    }
}

/// The lazy list: fine-grained locking for updates, invisible traversals
/// for everything.
pub struct LazyList<S: Smr> {
    /// Sentinel-free head: acts as the predecessor pointer of the first
    /// node. Conceptually an immortal, unmarked pred.
    head: AtomicPtr<u8>,
    /// Lock guarding head-position updates (plays the role of the head
    /// sentinel's node lock).
    head_lock: AtomicBool,
    _scheme: PhantomData<fn(&S)>,
}

// SAFETY: shared state is atomics; node lifetime is managed through `S`.
unsafe impl<S: Smr> Send for LazyList<S> {}
unsafe impl<S: Smr> Sync for LazyList<S> {}

impl<S: Smr> LazyList<S> {
    /// An empty lazy list.
    pub fn new() -> Self {
        Self {
            head: AtomicPtr::new(std::ptr::null_mut()),
            head_lock: AtomicBool::new(false),
            _scheme: PhantomData,
        }
    }

    fn lock_pred(&self, pred: *mut LazyNode) {
        if pred.is_null() {
            while self
                .head_lock
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                std::hint::spin_loop();
            }
        } else {
            // SAFETY: caller protects pred.
            unsafe { (*pred).lock() };
        }
    }

    fn unlock_pred(&self, pred: *mut LazyNode) {
        if pred.is_null() {
            self.head_lock.store(false, Ordering::Release);
        } else {
            // SAFETY: locked above.
            unsafe { (*pred).unlock() };
        }
    }

    fn pred_field(&self, pred: *mut LazyNode) -> &AtomicPtr<u8> {
        if pred.is_null() {
            &self.head
        } else {
            // SAFETY: caller protects pred.
            unsafe { &(*pred).next }
        }
    }

    /// Lazy-list validation: pred unmarked, curr unmarked, pred.next ==
    /// curr. Caller holds both locks and protections.
    fn validate(&self, pred: *mut LazyNode, curr: *mut LazyNode) -> bool {
        let pred_ok = if pred.is_null() {
            true
        } else {
            // SAFETY: locked + protected.
            !unsafe { (*pred).marked.load(Ordering::Acquire) }
        };
        let curr_ok = curr.is_null() || !unsafe { (*curr).marked.load(Ordering::Acquire) };
        pred_ok && curr_ok && self.pred_field(pred).load(Ordering::Acquire) as *mut LazyNode == curr
    }

    /// Unsynchronized search: returns protected `(pred, curr)` with
    /// `curr.key >= key` (curr possibly null). Never writes shared memory.
    ///
    /// Restarts when the node it just advanced past turns out deleted: a
    /// deleted node's (frozen) next field is not a sound protection
    /// source for hazard schemes — the successor may already be retired
    /// through its live predecessor.
    fn search(&self, g: &Guard<'_, S::Handle>, key: u64) -> (*mut LazyNode, *mut LazyNode) {
        'retry: loop {
            let mut pred: *mut LazyNode = std::ptr::null_mut();
            let mut pred_slot = SLOT_A;
            let mut curr_slot = SLOT_B;
            let mut curr = g.load(curr_slot, self.pred_field(pred)) as *mut LazyNode;
            while !curr.is_null() {
                // SAFETY: curr protected in curr_slot.
                let node = unsafe { &*curr };
                if node.key >= key {
                    break;
                }
                pred = curr;
                std::mem::swap(&mut pred_slot, &mut curr_slot);
                // pred is now protected in pred_slot (it was curr's slot);
                // protect the successor in the freed slot.
                curr = g.load(curr_slot, &node.next) as *mut LazyNode;
                // The chain is sound only if pred was still live when its
                // next field was read (marking is monotonic, so checking
                // afterwards suffices).
                if node.marked.load(Ordering::Acquire) {
                    continue 'retry;
                }
            }
            return (pred, curr);
        }
    }

    /// Sequential key dump (tests; unmarked nodes only).
    pub fn keys_sequential(&self) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut cur = self.head.load(Ordering::Acquire) as *const LazyNode;
        while !cur.is_null() {
            let node = unsafe { &*cur };
            if !node.marked.load(Ordering::Acquire) {
                keys.push(node.key);
            }
            cur = node.next.load(Ordering::Acquire) as *const LazyNode;
        }
        keys
    }

    /// Sequential length (tests).
    pub fn len_sequential(&self) -> usize {
        self.keys_sequential().len()
    }
}

impl<S: Smr> Default for LazyList<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Smr> ConcurrentSet<S> for LazyList<S> {
    /// The introduction's unsynchronized traversal: reads along the chain,
    /// ignoring all locks; wait-free.
    fn contains(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        let (_, curr) = self.search(&g, key);
        if curr.is_null() {
            false
        } else {
            // SAFETY: protected by search.
            let node = unsafe { &*curr };
            node.key == key && !node.marked.load(Ordering::Acquire)
        }
    }

    fn insert(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        loop {
            let (pred, curr) = self.search(&g, key);
            if !curr.is_null() {
                // SAFETY: protected.
                let node = unsafe { &*curr };
                if node.key == key && !node.marked.load(Ordering::Acquire) {
                    break false;
                }
            }
            self.lock_pred(pred);
            if self.validate(pred, curr) {
                let node = g.alloc(LazyNode::new(key, curr as *mut u8));
                self.pred_field(pred)
                    .store(node as *mut u8, Ordering::Release);
                self.unlock_pred(pred);
                break true;
            }
            self.unlock_pred(pred);
            // Validation failed: retry from a fresh search.
        }
    }

    fn remove(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        loop {
            let (pred, curr) = self.search(&g, key);
            if curr.is_null() || unsafe { (*curr).key } != key {
                break false;
            }
            // SAFETY: protected.
            let curr_node = unsafe { &*curr };
            if curr_node.marked.load(Ordering::Acquire) {
                break false; // already logically deleted
            }
            self.lock_pred(pred);
            curr_node.lock();
            if self.validate(pred, curr) {
                // Logical deletion first (readers see it immediately) ...
                curr_node.marked.store(true, Ordering::Release);
                // ... then physical unlink.
                self.pred_field(pred)
                    .store(curr_node.next.load(Ordering::Acquire), Ordering::Release);
                curr_node.unlock();
                self.unlock_pred(pred);
                // SAFETY: we unlinked it under both locks: unique retire.
                unsafe { g.retire_box(curr) };
                break true;
            }
            curr_node.unlock();
            self.unlock_pred(pred);
        }
    }

    fn kind(&self) -> &'static str {
        "lazy-list"
    }
}

impl<S: Smr> Drop for LazyList<S> {
    fn drop(&mut self) {
        let mut cur = self.head.load(Ordering::Relaxed);
        while !cur.is_null() {
            // SAFETY: &mut self; chain links each node once (next read
            // before the node is freed).
            unsafe {
                let node = Box::from_raw(cur.cast::<LazyNode>());
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
    fn node_padded_to_paper_size() {
        assert_eq!(core::mem::size_of::<LazyNode>(), 152);
    }

    macro_rules! lazy_semantics {
        ($modname:ident, $ty:ty, $scheme:expr) => {
            mod $modname {
                use super::*;

                #[test]
                fn roundtrip_and_order() {
                    let scheme = $scheme;
                    let list = LazyList::<$ty>::new();
                    let h = scheme.register();
                    for k in [9u64, 3, 7, 1, 5] {
                        assert!(list.insert(&h, k));
                        assert!(!list.insert(&h, k));
                    }
                    assert_eq!(list.keys_sequential(), vec![1, 3, 5, 7, 9]);
                    assert!(list.contains(&h, 7));
                    assert!(!list.contains(&h, 8));
                    assert!(list.remove(&h, 7));
                    assert!(!list.remove(&h, 7));
                    assert_eq!(list.keys_sequential(), vec![1, 3, 5, 9]);
                }
            }
        };
    }

    lazy_semantics!(leaky_semantics, Leaky, Leaky::new());
    lazy_semantics!(epoch_semantics, EpochScheme, EpochScheme::with_threshold(2));
    lazy_semantics!(
        hazard_semantics,
        HazardPointers,
        HazardPointers::with_params(4, 2)
    );

    #[test]
    fn concurrent_adjacent_updates_stay_consistent() {
        // The introduction's claim: adjacent-node locking means low
        // contention — but when threads DO collide on neighbours, the
        // validate/retry protocol must keep the list a set.
        let scheme = Arc::new(EpochScheme::with_threshold(16));
        let list = Arc::new(LazyList::<EpochScheme>::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let scheme = Arc::clone(&scheme);
                let list = Arc::clone(&list);
                s.spawn(move || {
                    let h = scheme.register();
                    // Everyone fights over keys 0..16 (adjacent nodes).
                    for i in 0..2000u64 {
                        let k = (t + i) % 16;
                        if i % 2 == 0 {
                            list.insert(&h, k);
                        } else {
                            list.remove(&h, k);
                        }
                    }
                });
            }
        });
        let keys = list.keys_sequential();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        assert!(keys.iter().all(|&k| k < 16));
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }

    #[test]
    fn readers_never_block_on_writers() {
        // A writer holds its locks for a long time (simulated by a slow
        // validate loop via contention); readers must still complete.
        let scheme = Arc::new(EpochScheme::with_threshold(64));
        let list = Arc::new(LazyList::<EpochScheme>::new());
        {
            let h = scheme.register();
            for k in 0..64u64 {
                list.insert(&h, k);
            }
        }
        use std::sync::atomic::AtomicU64;
        let reads_done = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            let stop = Arc::new(AtomicBool::new(false));
            for _ in 0..2 {
                let scheme = Arc::clone(&scheme);
                let list = Arc::clone(&list);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let h = scheme.register();
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        list.remove(&h, i % 64);
                        list.insert(&h, i % 64);
                        i += 1;
                    }
                });
            }
            let scheme2 = Arc::clone(&scheme);
            let list2 = Arc::clone(&list);
            let reads = Arc::clone(&reads_done);
            let stop2 = Arc::clone(&stop);
            s.spawn(move || {
                let h = scheme2.register();
                for i in 0..50_000u64 {
                    std::hint::black_box(list2.contains(&h, i % 64));
                }
                reads.store(50_000, Ordering::SeqCst);
                stop2.store(true, Ordering::SeqCst);
            });
        });
        assert_eq!(reads_done.load(Ordering::SeqCst), 50_000);
    }
}
