//! Skiplist-based concurrent priority queue (Shavit–Lotan).
//!
//! The paper's introduction names priority queues among the structures
//! built on unsynchronized traversals (its citations [3, 43]); this module
//! implements the classic Shavit–Lotan design: a lazy skip list ordered by
//! priority, where `delete_min` first *logically* deletes the smallest
//! unclaimed node by atomically claiming it, and only then removes it
//! physically. Between the claim and the unlink the node is still walked
//! over by concurrent traversals — which is precisely the
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
//! evaluation structures.
//!
//! # The sentinel head
//!
//! Predecessors are locked before relinking, and the head is a **real
//! sentinel node with a real lock** — not a bare array of head pointers.
//! With lock-free head entries, two critical sections whose pred is the
//! head (a `delete_min` splicing the first node out and an `insert` at
//! the front) both validate `head.next == X` and then both store,
//! un-serialized — a check-then-act race that resurrects the spliced-out
//! node. A priority queue concentrates *all* its traffic at the head, so
//! unlike a uniform-keyed set, this race fires in milliseconds. The
//! sentinel participates in the same lock protocol as every other node
//! and is never marked, claimed, or removed.

use core::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::cell::Cell;
use std::marker::PhantomData;

use ts_smr::{Guard, Smr, SmrHandle};

/// Maximum tower height; same fan-out rationale as the set skip list.
pub const PQ_MAX_HEIGHT: usize = 12;

/// Hazard slots one priority-queue operation may hold simultaneously: a
/// pred/succ pair per level plus two roving slots for bottom-level walks.
pub const PQ_REQUIRED_SLOTS: usize = 2 * PQ_MAX_HEIGHT + 2;

#[repr(C)]
struct PqNode {
    /// Tower of next pointers; first field so interior pointers resolve to
    /// the node itself under the collector's range matching.
    next: [AtomicPtr<u8>; PQ_MAX_HEIGHT],
    key: u64,
    top_level: usize,
    lock: AtomicBool,
    /// Physical-removal mark: set (under the node lock) by the thread that
    /// unlinks the node. Traversals treat a marked pred as a broken
    /// protection chain and restart.
    marked: AtomicBool,
    /// Logical-deletion flag for `delete_min`: won by exactly one consumer
    /// via CAS. A claimed-but-unmarked node is no longer part of the
    /// queue's value but still physically present.
    claimed: AtomicBool,
    fully_linked: AtomicBool,
    /// Debug tombstone: set after the full physical unlink so debug builds
    /// can assert that no thread ever re-links a removed node.
    unlinked: AtomicBool,
}

impl PqNode {
    fn new(key: u64, top_level: usize) -> Self {
        Self {
            next: [(); PQ_MAX_HEIGHT].map(|_| AtomicPtr::new(std::ptr::null_mut())),
            key,
            top_level,
            lock: AtomicBool::new(false),
            marked: AtomicBool::new(false),
            claimed: AtomicBool::new(false),
            fully_linked: AtomicBool::new(false),
            unlinked: AtomicBool::new(false),
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

/// Debug-build tripwire: panics if a retry loop spins absurdly long,
/// turning silent livelocks into diagnosable failures.
#[inline]
fn watchdog(counter: &mut u64, what: &str) {
    *counter += 1;
    if cfg!(debug_assertions) && *counter > 200_000_000 {
        panic!("priority queue live-lock suspected in {what}");
    }
}

/// Shavit–Lotan priority queue: smallest-priority-first `delete_min`,
/// lock-free logical deletion, lazy physical removal, reclamation via `S`.
pub struct PriorityQueue<S: Smr> {
    /// Sentinel head (see module docs): locked like any node, never
    /// marked/claimed/removed; its key is never compared. It frees
    /// with the queue, never through a retire.
    head: Box<PqNode>,
    _scheme: PhantomData<fn(&S)>,
}

// SAFETY: shared state is atomics; node lifetime is managed through `S`.
unsafe impl<S: Smr> Send for PriorityQueue<S> {}
unsafe impl<S: Smr> Sync for PriorityQueue<S> {}

thread_local! {
    static PQ_HEIGHT_RNG: Cell<u64> = const { Cell::new(0xA076_1D64_78BD_642F) };
}

/// Geometric(1/2) tower height in `0..PQ_MAX_HEIGHT` (see the set
/// skip list's `random_top_level` for the construction).
fn random_top_level() -> usize {
    PQ_HEIGHT_RNG.with(|state| {
        let mut x = state.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.set(x);
        let mixed = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        ((mixed.trailing_ones() as usize) % PQ_MAX_HEIGHT).min(PQ_MAX_HEIGHT - 1)
    })
}

impl<S: Smr> PriorityQueue<S> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            head: Box::new(PqNode::new(0, PQ_MAX_HEIGHT - 1)),
            _scheme: PhantomData,
        }
    }

    /// The sentinel as a node pointer (for pred arrays).
    #[inline]
    fn sentinel(&self) -> *mut PqNode {
        &*self.head as *const PqNode as *mut PqNode
    }

    /// Whether a (protected) pred has been physically marked — the
    /// traversal's protection chain is broken and it must restart. The
    /// sentinel is never marked.
    #[inline]
    fn pred_died(pred: *mut PqNode) -> bool {
        // SAFETY: pred is the sentinel or protected by the caller.
        unsafe { (*pred).marked.load(Ordering::Acquire) }
    }

    /// Full find (identical protocol to the set skip list): fills
    /// `preds`/`succs` per level, returns the first level where `key` was
    /// found. Each level owns the hazard-slot pair `{2l, 2l+1}`; advancing
    /// swaps slot roles so the node whose field is being read is always
    /// protected. Preds start at the (immortal) sentinel.
    fn find(
        &self,
        g: &Guard<'_, S::Handle>,
        key: u64,
        preds: &mut [*mut PqNode; PQ_MAX_HEIGHT],
        succs: &mut [*mut PqNode; PQ_MAX_HEIGHT],
    ) -> Option<usize> {
        let mut spins = 0u64;
        'retry: loop {
            watchdog(&mut spins, "find");
            let mut lfound = None;
            let mut pred: *mut PqNode = self.sentinel();
            for level in (0..PQ_MAX_HEIGHT).rev() {
                let mut pred_slot = 2 * level;
                let mut curr_slot = 2 * level + 1;
                // SAFETY: pred is the sentinel or protected
                // (higher-level slot).
                let mut pred_field: &AtomicPtr<u8> = unsafe { &(*pred).next[level] };
                let mut curr = g.load(curr_slot, pred_field) as *mut PqNode;
                if Self::pred_died(pred) {
                    continue 'retry;
                }
                loop {
                    if curr.is_null() {
                        break;
                    }
                    // SAFETY: curr protected in curr_slot.
                    let curr_node = unsafe { &*curr };
                    if curr_node.key >= key {
                        break;
                    }
                    pred = curr;
                    std::mem::swap(&mut pred_slot, &mut curr_slot);
                    // SAFETY: pred protected in pred_slot.
                    pred_field = unsafe { &(*pred).next[level] };
                    curr = g.load(curr_slot, pred_field) as *mut PqNode;
                    if Self::pred_died(pred) {
                        continue 'retry;
                    }
                }
                preds[level] = pred;
                succs[level] = curr;
                if lfound.is_none() && !curr.is_null() {
                    // SAFETY: protected.
                    if unsafe { (*curr).key } == key {
                        lfound = Some(level);
                    }
                }
            }
            return lfound;
        }
    }

    /// Unlocks `preds[0..=locked_levels]`, skipping duplicates (a pred —
    /// including the sentinel — may repeat across levels under one lock).
    fn unlock_preds(preds: &[*mut PqNode; PQ_MAX_HEIGHT], locked_levels: usize) {
        let mut prev: *mut PqNode = std::ptr::null_mut();
        for &p in preds.iter().take(locked_levels + 1) {
            if p != prev {
                // SAFETY: locked by us; locked nodes are never retired by
                // others.
                unsafe { (*p).unlock() };
                prev = p;
            }
        }
    }

    /// Locks and validates `preds[0..=top]` against `expect_succ`. The
    /// sentinel locks like any node (see module docs — this is what makes
    /// head-pred critical sections mutually exclusive). On `false` the
    /// caller must `unlock_preds` up to the returned level.
    fn lock_and_validate(
        &self,
        preds: &[*mut PqNode; PQ_MAX_HEIGHT],
        top: usize,
        expect_succ: impl Fn(usize) -> *mut PqNode,
    ) -> (bool, usize) {
        let mut prev: *mut PqNode = std::ptr::null_mut();
        let mut locked_up_to = 0usize;
        let mut valid = true;
        for (level, &pred) in preds.iter().enumerate().take(top + 1) {
            if pred != prev {
                // SAFETY: pred is the sentinel or protected from find.
                unsafe { (*pred).lock() };
                prev = pred;
            }
            locked_up_to = level;
            // SAFETY: locked above. The sentinel is never marked.
            let pred_node = unsafe { &*pred };
            let pred_ok = !pred_node.marked.load(Ordering::Acquire);
            let link_ok =
                pred_node.next[level].load(Ordering::Acquire) as *mut PqNode == expect_succ(level);
            valid = pred_ok && link_ok;
            if !valid {
                break;
            }
        }
        (valid, locked_up_to)
    }

    /// Inserts priority `key`; `false` if a node with that priority is
    /// still resident (claimed-but-unremoved counts as resident).
    pub fn insert(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        debug_assert!(g.protection_slots().is_none_or(|n| n >= PQ_REQUIRED_SLOTS));
        let top = random_top_level();
        let mut preds = [std::ptr::null_mut(); PQ_MAX_HEIGHT];
        let mut succs = [std::ptr::null_mut(); PQ_MAX_HEIGHT];
        let mut spins = 0u64;
        'retry: loop {
            watchdog(&mut spins, "insert");
            if let Some(lfound) = self.find(&g, key, &mut preds, &mut succs) {
                let found = succs[lfound];
                // SAFETY: protected by find.
                let found_node = unsafe { &*found };
                if !found_node.marked.load(Ordering::Acquire) {
                    let mut fl_spins = 0u64;
                    while !found_node.fully_linked.load(Ordering::Acquire) {
                        watchdog(&mut fl_spins, "insert fully_linked wait");
                        std::hint::spin_loop();
                    }
                    break 'retry false;
                }
                continue 'retry; // removal in flight; retry
            }
            let (valid, locked) = self.lock_and_validate(&preds, top, |l| succs[l]);
            if !valid {
                Self::unlock_preds(&preds, locked);
                continue 'retry;
            }
            let node = Box::into_raw(Box::new(PqNode::new(key, top)));
            // SAFETY: node is private until linked below.
            let node_ref = unsafe { &*node };
            for (level, &succ) in succs.iter().enumerate().take(top + 1) {
                debug_assert!(
                    // SAFETY: succ validated reachable under the pred lock.
                    succ.is_null() || !unsafe { (*succ).unlinked.load(Ordering::Acquire) },
                    "insert adopting a fully-unlinked succ"
                );
                node_ref.next[level].store(succ as *mut u8, Ordering::Relaxed);
            }
            for (level, &pred) in preds.iter().enumerate().take(top + 1) {
                // SAFETY: locked + validated.
                unsafe { &(*pred).next[level] }.store(node as *mut u8, Ordering::Release);
            }
            node_ref.fully_linked.store(true, Ordering::Release);
            Self::unlock_preds(&preds, locked);
            break 'retry true;
        }
    }

    /// Removes and returns the smallest priority, or `None` when the queue
    /// is (momentarily) empty.
    ///
    /// Logical deletion is the claim CAS on the first eligible bottom-level
    /// node; physical removal then proceeds exactly like a set remove, and
    /// the unlinked node is retired through the scheme.
    pub fn delete_min(&self, h: &S::Handle) -> Option<u64> {
        let g = h.pin();
        debug_assert!(g.protection_slots().is_none_or(|n| n >= PQ_REQUIRED_SLOTS));
        let mut spins = 0u64;
        let claimed = 'retry: loop {
            watchdog(&mut spins, "delete_min");
            // Bottom-level walk with two roving slots (same protocol as
            // the set skip list's `contains`).
            let mut pred_slot = 2 * PQ_MAX_HEIGHT;
            let mut curr_slot = 2 * PQ_MAX_HEIGHT + 1;
            let mut pred: *mut PqNode = self.sentinel();
            // SAFETY: the sentinel is immortal.
            let mut curr = g.load(curr_slot, unsafe { &(*pred).next[0] }) as *mut PqNode;
            loop {
                if curr.is_null() {
                    break 'retry None;
                }
                // SAFETY: curr protected in curr_slot.
                let node = unsafe { &*curr };
                if node.fully_linked.load(Ordering::Acquire)
                    && !node.marked.load(Ordering::Acquire)
                    && !node.claimed.load(Ordering::Acquire)
                    && node
                        .claimed
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    break 'retry Some((curr, node.key));
                }
                // Already claimed / not yet linked / being removed: step
                // over it (the claimer will unlink it).
                pred = curr;
                std::mem::swap(&mut pred_slot, &mut curr_slot);
                // SAFETY: pred protected in pred_slot.
                let pred_field = unsafe { &(*pred).next[0] };
                curr = g.load(curr_slot, pred_field) as *mut PqNode;
                if Self::pred_died(pred) {
                    continue 'retry;
                }
            }
        };
        claimed.map(|(victim, key)| {
            self.remove_physically(&g, victim, key);
            key
        })
    }

    /// The smallest resident (unclaimed) priority, if any. Wait-free,
    /// write-free bottom-level walk — an invisible reader.
    pub fn peek_min(&self, h: &S::Handle) -> Option<u64> {
        let g = h.pin();
        let mut spins = 0u64;
        'retry: loop {
            watchdog(&mut spins, "peek_min");
            let mut pred_slot = 2 * PQ_MAX_HEIGHT;
            let mut curr_slot = 2 * PQ_MAX_HEIGHT + 1;
            let mut pred: *mut PqNode = self.sentinel();
            // SAFETY: the sentinel is immortal.
            let mut curr = g.load(curr_slot, unsafe { &(*pred).next[0] }) as *mut PqNode;
            loop {
                if curr.is_null() {
                    break 'retry None;
                }
                // SAFETY: curr protected in curr_slot.
                let node = unsafe { &*curr };
                if node.fully_linked.load(Ordering::Acquire)
                    && !node.marked.load(Ordering::Acquire)
                    && !node.claimed.load(Ordering::Acquire)
                {
                    break 'retry Some(node.key);
                }
                pred = curr;
                std::mem::swap(&mut pred_slot, &mut curr_slot);
                // SAFETY: pred protected in pred_slot.
                let pred_field = unsafe { &(*pred).next[0] };
                curr = g.load(curr_slot, pred_field) as *mut PqNode;
                if Self::pred_died(pred) {
                    continue 'retry;
                }
            }
        }
    }

    /// Physically removes a node this thread claimed: mark (under the node
    /// lock), unlink every level, retire. Claim ownership makes this the
    /// unique remover, so raw access to `victim` stays sound across
    /// retries.
    fn remove_physically(&self, g: &Guard<'_, S::Handle>, victim: *mut PqNode, key: u64) {
        // SAFETY: we hold the claim; only the claimer marks and retires.
        let victim_node = unsafe { &*victim };
        let top = victim_node.top_level;
        victim_node.lock();
        victim_node.marked.store(true, Ordering::Release);
        let mut preds = [std::ptr::null_mut(); PQ_MAX_HEIGHT];
        let mut succs = [std::ptr::null_mut(); PQ_MAX_HEIGHT];
        let mut spins = 0u64;
        loop {
            watchdog(&mut spins, "remove_physically");
            let lfound = self.find(g, key, &mut preds, &mut succs);
            // We are the only unlinker, so the victim stays findable until
            // we unlink it.
            debug_assert!(
                lfound.is_some() && succs[lfound.unwrap()] == victim,
                "claimed node must stay findable until its owner unlinks it"
            );
            let (valid, locked) = self.lock_and_validate(&preds, top, |_| victim);
            if !valid {
                Self::unlock_preds(&preds, locked);
                continue;
            }
            for level in (0..=top).rev() {
                let succ = victim_node.next[level].load(Ordering::Acquire);
                debug_assert!(
                    // SAFETY: next chain is frozen while we hold the lock.
                    succ.is_null()
                        || !unsafe { (*(succ as *mut PqNode)).unlinked.load(Ordering::Acquire) },
                    "unlink splicing a fully-unlinked succ"
                );
                // SAFETY: preds locked + validated.
                unsafe { &(*preds[level]).next[level] }.store(succ, Ordering::Release);
            }
            victim_node.unlinked.store(true, Ordering::Release);
            victim_node.unlock();
            Self::unlock_preds(&preds, locked);
            // SAFETY: unlinked from every level; claim ownership makes
            // this the unique retire.
            unsafe { g.retire_box(victim) };
            return;
        }
    }

    /// Sequential dump of resident (unclaimed, unmarked) priorities in
    /// ascending order (tests only).
    pub fn keys_sequential(&self) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut cur = self.head.next[0].load(Ordering::Acquire) as *const PqNode;
        while !cur.is_null() {
            let node = unsafe { &*cur };
            if !node.marked.load(Ordering::Acquire) && !node.claimed.load(Ordering::Acquire) {
                keys.push(node.key);
            }
            cur = node.next[0].load(Ordering::Acquire) as *const PqNode;
        }
        keys
    }

    /// Sequential count of resident priorities (tests only).
    pub fn len_sequential(&self) -> usize {
        self.keys_sequential().len()
    }
}

impl<S: Smr> Default for PriorityQueue<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Smr> Drop for PriorityQueue<S> {
    fn drop(&mut self) {
        // Exclusive access: the bottom level links every remaining node
        // exactly once; the sentinel frees with the Box.
        let mut cur = self.head.next[0].load(Ordering::Relaxed);
        while !cur.is_null() {
            // SAFETY: &mut self; next read before the node is freed.
            unsafe {
                let node = Box::from_raw(cur.cast::<PqNode>());
                cur = node.next[0].load(Ordering::Relaxed);
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
    fn node_layout_keeps_tower_first() {
        assert_eq!(core::mem::offset_of!(PqNode, next), 0);
        assert_eq!(PQ_REQUIRED_SLOTS, 26);
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
        HazardPointers::with_params(PQ_REQUIRED_SLOTS, 8)
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
        let first = pq.head.next[0].load(Ordering::Acquire) as *const PqNode;
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
        let scheme = Arc::new(HazardPointers::with_params(PQ_REQUIRED_SLOTS, 32));
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
