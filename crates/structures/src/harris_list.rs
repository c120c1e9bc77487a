//! Harris' lock-free linked list (DISC 2001), the paper's first evaluation
//! structure (§6: "Code was adapted for C from the Java provided in \[25\].
//! Each node was padded to 172 bytes to avoid false sharing.").
//!
//! * A node here is one link and one key, 16 bytes, not the paper's 172:
//!   unpadded, a 1 024-node list walks in L1 and the 131 072-node hash
//!   table fits in L2, and the padding bought no measured gain against
//!   false sharing (README, "Unpadded Harris nodes").
//! * Sorted singly-linked list of `u64` keys.
//! * Deletion is two-phase: CAS the victim's own `next` pointer to set the
//!   mark bit (logical), then CAS the predecessor's `next` to unlink it
//!   (physical). Whoever performs the *physical* unlink retires the node
//!   through the reclamation scheme.
//! * Traversals are unsynchronized reads; under hazard pointers each step
//!   goes through the guard's protected load (publish + fence +
//!   validate), which is precisely the cost the paper charges that
//!   scheme.
//!
//! Every operation opens an RAII [`Guard`] via `handle.pin()`; loads and
//! retires go through the guard, so the begin/end bracket can never be
//! mismatched.
//!
//! The algorithm's steps (search with helping unlink, the read-only
//! `contains` walk, insert-if-absent and mark-then-unlink remove) are
//! written once here, generic over the node and over the field a walk
//! starts from. [`HarrisList`] starts them at its head; the
//! [`SplitOrderedSet`](crate::SplitOrderedSet) starts them at a bucket
//! dummy's `next`, since its whole table is one such list.

use core::marker::PhantomData;
use core::sync::atomic::{AtomicPtr, Ordering};

use ts_smr::{Guard, Smr, SmrHandle};

use crate::set_trait::ConcurrentSet;
use crate::tagged::{is_marked, marked, untagged};

/// Protection-slot roles during traversal.
const SLOT_A: usize = 0;
const SLOT_B: usize = 1;
const SLOT_C: usize = 2;

/// A node the Harris steps below walk.
///
/// The steps trust the `start` field they are given, so they stay
/// crate-private and every caller passes one that keeps this contract:
/// each node reachable from `start` is a `Self` made by `Box::new` and
/// retired only by a step's unlink, and `start` outlives the guard (a
/// list's head, or the `next` of a node that is never retired).
pub(crate) trait HarrisNode {
    /// The sort key: a list holds each key once, in ascending order.
    type Key: Ord + Copy;

    /// Tagged pointer to the next node (low bit = logically deleted).
    fn next(&self) -> &AtomicPtr<u8>;

    /// This node's key.
    fn key(&self) -> Self::Key;
}

#[repr(C)]
pub(crate) struct Node {
    /// Tagged pointer to the next node (low bit = logically deleted).
    /// First field, so an interior pointer to it equals the node address.
    next: AtomicPtr<u8>,
    key: u64,
}

impl Node {
    fn new(key: u64) -> Self {
        Self {
            next: AtomicPtr::new(std::ptr::null_mut()),
            key,
        }
    }
}

impl HarrisNode for Node {
    type Key = u64;

    #[inline]
    fn next(&self) -> &AtomicPtr<u8> {
        &self.next
    }

    #[inline]
    fn key(&self) -> u64 {
        self.key
    }
}

/// Finds the first node from `start` with `node.key() >= key`.
///
/// Returns `(prev_field, curr)` where `*prev_field == curr` at
/// observation time and `curr` (possibly null) is unmarked. Unlinks
/// (and retires) marked nodes encountered on the way — Harris' helping
/// rule; the unlinking thread owns the retire.
#[inline]
fn search<N: HarrisNode, H: SmrHandle>(
    g: &Guard<'_, H>,
    start: &AtomicPtr<u8>,
    key: N::Key,
) -> (*const AtomicPtr<u8>, *mut N) {
    'retry: loop {
        let mut prev: *const AtomicPtr<u8> = start;
        // Slots: prev's node (none yet), curr, next — rotate as we walk.
        let mut curr_slot = SLOT_A;
        let mut prev_slot = SLOT_B; // unused until we advance once
        let mut curr = g.load(curr_slot, start);
        loop {
            let curr_node_ptr = untagged(curr) as *mut N;
            if curr_node_ptr.is_null() {
                return (prev, std::ptr::null_mut());
            }
            // SAFETY: curr is protected (hazard) or the scheme
            // guarantees grace (epoch/threadscan/leaky).
            let curr_node = unsafe { &*curr_node_ptr };
            let next_slot = SLOT_A + SLOT_B + SLOT_C - prev_slot - curr_slot;
            let next = g.load(next_slot, curr_node.next());
            if is_marked(next) {
                // curr is logically deleted: attempt physical unlink.
                // SAFETY: prev is `start` or the field of a protected node.
                match unsafe { &*prev }.compare_exchange(
                    curr,
                    untagged(next),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        // We unlinked it: we retire it.
                        // SAFETY: the node is now unreachable from the
                        // list and this is the only unlink (the CAS).
                        unsafe { g.retire_box(curr_node_ptr) };
                        curr = untagged(next);
                        curr_slot = next_slot;
                        continue;
                    }
                    Err(_) => continue 'retry,
                }
            }
            if curr_node.key() >= key {
                return (prev, curr_node_ptr);
            }
            prev = curr_node.next();
            prev_slot = curr_slot;
            curr_slot = next_slot;
            curr = next;
        }
    }
}

/// Whether `key` is in the list from `start`: a read-only walk with two
/// alternating protection slots that unlinks nothing.
#[inline]
pub(crate) fn contains<N: HarrisNode, H: SmrHandle>(
    g: &Guard<'_, H>,
    start: &AtomicPtr<u8>,
    key: N::Key,
) -> bool {
    'retry: loop {
        let mut slot = SLOT_A;
        let mut curr = g.load(slot, start);
        loop {
            let node_ptr = untagged(curr) as *const N;
            if node_ptr.is_null() {
                break 'retry false;
            }
            // SAFETY: protected (hazard) or grace-protected node.
            let node = unsafe { &*node_ptr };
            let other = SLOT_A + SLOT_B - slot;
            let next = g.load(other, node.next());
            if node.key() >= key {
                break 'retry node.key() == key && !is_marked(next);
            }
            if is_marked(next) {
                // `node` was deleted under us. Its frozen next field
                // is not a sound protection source (the successor may
                // already be retired through its live predecessor):
                // restart from `start`.
                continue 'retry;
            }
            slot = other;
            curr = next;
        }
    }
}

/// Inserts `key` into the list from `start` if it is absent. Returns the
/// published node, or the node already holding `key`.
///
/// `alloc` makes the node, with a null `next`. It runs once a search shows
/// `key` absent, and at most once: the node is kept across CAS retries,
/// and freed with `Box::from_raw` if a racing insert of `key` wins.
#[inline]
pub(crate) fn insert<N: HarrisNode, H: SmrHandle>(
    g: &Guard<'_, H>,
    start: &AtomicPtr<u8>,
    key: N::Key,
    mut alloc: impl FnMut() -> *mut N,
) -> Result<*mut N, *mut N> {
    let mut node: *mut N = std::ptr::null_mut();
    loop {
        let (prev, curr) = search::<N, H>(g, start, key);
        // SAFETY: curr is protected by search's final state.
        if !curr.is_null() && unsafe { (*curr).key() } == key {
            if !node.is_null() {
                // A racing insert of `key` won after our first search.
                // SAFETY: `node` was never published.
                drop(unsafe { Box::from_raw(node) });
            }
            break Err(curr);
        }
        if node.is_null() {
            node = alloc();
        }
        // SAFETY: node is ours until the CAS publishes it.
        unsafe { (*node).next().store(curr as *mut u8, Ordering::Relaxed) };
        // SAFETY: prev is `start` or the field of a protected node.
        match unsafe { &*prev }.compare_exchange(
            curr as *mut u8,
            node as *mut u8,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => break Ok(node),
            Err(_) => continue,
        }
    }
}

/// Removes `key` from the list from `start`: marks its node, then unlinks
/// and retires it. Returns whether this call's mark deleted it.
#[inline]
pub(crate) fn remove<N: HarrisNode, H: SmrHandle>(
    g: &Guard<'_, H>,
    start: &AtomicPtr<u8>,
    key: N::Key,
) -> bool {
    loop {
        let (prev, curr) = search::<N, H>(g, start, key);
        // SAFETY: curr is protected by search's final state.
        let Some(curr_node) = (unsafe { curr.as_ref() }) else {
            break false;
        };
        if curr_node.key() != key {
            break false;
        }
        let next = curr_node.next().load(Ordering::Acquire);
        if is_marked(next) {
            continue; // concurrently deleted; re-search to help unlink
        }
        // Logical deletion: set the mark bit on curr's next pointer.
        if curr_node
            .next()
            .compare_exchange(next, marked(next), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // Physical unlink; on failure a helping search does it.
            // SAFETY: prev is `start` or the field of a protected node.
            if unsafe { &*prev }
                .compare_exchange(
                    curr as *mut u8,
                    untagged(next),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                // SAFETY: we performed the unlink; single retire.
                unsafe { g.retire_box(curr) };
            } else {
                let _ = search::<N, H>(g, start, key); // helper unlinks + retires
            }
            break true;
        }
        // Mark CAS failed (insertion after curr, or a race): retry.
    }
}

/// The unmarked nodes from `start` on, in list order. For tests and
/// diagnostics on a quiescent list (not linearizable).
pub(crate) fn live_sequential<'a, N: HarrisNode + 'a>(
    start: &'a AtomicPtr<u8>,
) -> impl Iterator<Item = &'a N> + 'a {
    // SAFETY: callers walk a quiescent list, where no node reachable
    // from `start` is retired while `start` is borrowed.
    let node = |p: *mut u8| unsafe { (untagged(p) as *const N).as_ref() };
    std::iter::successors(node(start.load(Ordering::Acquire)), move |n| {
        node(n.next().load(Ordering::Acquire))
    })
    .filter(|n| !is_marked(n.next().load(Ordering::Acquire)))
}

/// The lock-free sorted linked list.
pub struct HarrisList<S: Smr> {
    /// Acts as the predecessor field for the first node.
    head: AtomicPtr<u8>,
    _scheme: PhantomData<fn(&S)>,
}

impl<S: Smr> HarrisList<S> {
    /// An empty list.
    pub fn new() -> Self {
        Self {
            head: AtomicPtr::new(std::ptr::null_mut()),
            _scheme: PhantomData,
        }
    }

    /// Sequential length (test/diagnostic; not linearizable).
    pub fn len_sequential(&self) -> usize {
        live_sequential::<Node>(&self.head).count()
    }

    /// Sequential key dump (test/diagnostic; unmarked nodes only).
    pub fn keys_sequential(&self) -> Vec<u64> {
        live_sequential::<Node>(&self.head).map(|n| n.key).collect()
    }
}

impl<S: Smr> Default for HarrisList<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Smr> ConcurrentSet<S> for HarrisList<S> {
    fn contains(&self, h: &S::Handle, key: u64) -> bool {
        contains::<Node, _>(&h.pin(), &self.head, key)
    }

    fn insert(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        insert(&g, &self.head, key, || g.alloc(Node::new(key))).is_ok()
    }

    fn remove(&self, h: &S::Handle, key: u64) -> bool {
        remove::<Node, _>(&h.pin(), &self.head, key)
    }
}

impl<S: Smr> Drop for HarrisList<S> {
    fn drop(&mut self) {
        // Exclusive access: free every remaining node directly.
        let mut cur = untagged(self.head.load(Ordering::Relaxed));
        while !cur.is_null() {
            // SAFETY: &mut self means no concurrent access; each node is
            // freed exactly once along the chain (next read before free).
            unsafe {
                let node = Box::from_raw(cur.cast::<Node>());
                cur = untagged(node.next.load(Ordering::Relaxed));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ts_smr::{EpochScheme, HazardPointers, Leaky};

    /// Shared semantics tests, instantiated per scheme (each scheme takes
    /// a genuinely different code path through `load_protected`/`retire`).
    macro_rules! semantics_tests {
        ($modname:ident, $ty:ty, $scheme:expr) => {
            mod $modname {
                use super::*;

                #[test]
                fn insert_contains_remove_roundtrip() {
                    let scheme = $scheme;
                    let list = HarrisList::<$ty>::new();
                    let h = scheme.register();
                    assert!(!list.contains(&h, 5));
                    assert!(list.insert(&h, 5));
                    assert!(!list.insert(&h, 5), "duplicate insert");
                    assert!(list.contains(&h, 5));
                    assert!(list.remove(&h, 5));
                    assert!(!list.remove(&h, 5), "double remove");
                    assert!(!list.contains(&h, 5));
                }

                #[test]
                fn keys_stay_sorted_and_unique() {
                    let scheme = $scheme;
                    let list = HarrisList::<$ty>::new();
                    let h = scheme.register();
                    for k in [5u64, 1, 9, 3, 7, 1, 9] {
                        list.insert(&h, k);
                    }
                    assert_eq!(list.keys_sequential(), vec![1, 3, 5, 7, 9]);
                    list.remove(&h, 5);
                    list.remove(&h, 1);
                    assert_eq!(list.keys_sequential(), vec![3, 7, 9]);
                }

                #[test]
                fn boundary_keys_work() {
                    let scheme = $scheme;
                    let list = HarrisList::<$ty>::new();
                    let h = scheme.register();
                    assert!(list.insert(&h, 0));
                    assert!(list.insert(&h, u64::MAX));
                    assert!(list.contains(&h, 0));
                    assert!(list.contains(&h, u64::MAX));
                    assert!(list.remove(&h, 0));
                    assert!(list.contains(&h, u64::MAX));
                }
            }
        };
    }

    semantics_tests!(leaky_semantics, Leaky, Leaky::new());
    semantics_tests!(epoch_semantics, EpochScheme, EpochScheme::with_threshold(4));
    semantics_tests!(
        hazard_semantics,
        HazardPointers,
        HazardPointers::with_params(4, 4)
    );

    #[test]
    fn node_is_one_link_and_one_key() {
        // Unpadded (the paper's §6 pads to 172 bytes): 16 bytes, so
        // glibc hands each node a 32-byte chunk, two to a cache line.
        assert_eq!(core::mem::size_of::<Node>(), 16);
        assert_eq!(core::mem::align_of::<Node>(), 8);
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let scheme = Arc::new(EpochScheme::with_threshold(64));
        let list = Arc::new(HarrisList::<EpochScheme>::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let scheme = Arc::clone(&scheme);
                let list = Arc::clone(&list);
                s.spawn(move || {
                    let h = scheme.register();
                    for i in 0..200u64 {
                        assert!(list.insert(&h, t * 1000 + i));
                    }
                });
            }
        });
        let keys = list.keys_sequential();
        assert_eq!(keys.len(), 1600);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted unique");
    }

    #[test]
    fn concurrent_mixed_churn_preserves_set_semantics() {
        // Every thread owns a disjoint key range and toggles membership;
        // the final state must match each thread's local parity.
        let scheme = Arc::new(EpochScheme::with_threshold(32));
        let list = Arc::new(HarrisList::<EpochScheme>::new());
        let expected: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let scheme = Arc::clone(&scheme);
                    let list = Arc::clone(&list);
                    s.spawn(move || {
                        let h = scheme.register();
                        let base = t * 10_000;
                        let mut mine = Vec::new();
                        for i in 0..100u64 {
                            let k = base + i;
                            assert!(list.insert(&h, k));
                            if i % 3 == 0 {
                                assert!(list.remove(&h, k));
                            } else {
                                mine.push(k);
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut want: Vec<u64> = expected.into_iter().flatten().collect();
        want.sort_unstable();
        assert_eq!(list.keys_sequential(), want);
    }

    #[test]
    fn hazard_scheme_survives_concurrent_reads_during_removal() {
        let scheme = Arc::new(HazardPointers::with_params(4, 8));
        let list = Arc::new(HarrisList::<HazardPointers>::new());
        {
            let h = scheme.register();
            for k in 0..128u64 {
                list.insert(&h, k);
            }
        }
        std::thread::scope(|s| {
            // Readers hammer contains while a writer removes everything.
            for _ in 0..3 {
                let scheme = Arc::clone(&scheme);
                let list = Arc::clone(&list);
                s.spawn(move || {
                    let h = scheme.register();
                    for round in 0..50 {
                        for k in 0..128u64 {
                            let _ = list.contains(&h, k);
                        }
                        let _ = round;
                    }
                });
            }
            let scheme2 = Arc::clone(&scheme);
            let list2 = Arc::clone(&list);
            s.spawn(move || {
                let h = scheme2.register();
                for k in 0..128u64 {
                    assert!(list2.remove(&h, k));
                }
            });
        });
        assert_eq!(list.len_sequential(), 0);
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0, "all removed nodes reclaimed");
    }

    #[test]
    fn drop_frees_remaining_nodes() {
        // Leak-detection via a counting scheme is covered in integration
        // tests; here we just make sure Drop walks a populated list.
        let scheme = Leaky::new();
        let list = HarrisList::<Leaky>::new();
        let h = scheme.register();
        for k in 0..50u64 {
            list.insert(&h, k);
        }
        drop(list); // must not leak or double-free (asserted by miri/asan runs)
    }
}
