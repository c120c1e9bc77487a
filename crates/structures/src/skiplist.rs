//! Lock-based optimistic skip list — the paper's third evaluation
//! structure (§6: "Lock-based Skip List ... with 104 byte nodes
//! (representing the maximum size due to height)"), the engine under
//! [`PriorityQueue`](crate::PriorityQueue), and, at tower height 1, the
//! introduction's [`LazyList`](crate::LazyList).
//!
//! This is the lazy skip list of Herlihy, Lev, Luchangco and Shavit
//! ("A Simple Optimistic Skiplist Algorithm", SIROCCO 2007), which is the
//! lazy list of Heller et al. grown into towers. [`LazySkipList`] takes
//! its tower height `L` as a const generic; [`SkipList`] is the engine at
//! [`MAX_HEIGHT`] and `LazyList` the engine at height 1, where each step
//! below is the lazy list's own (an unlocked search that restarts at a
//! marked pred; lock the pred, validate it unmarked and still linked to
//! the succ; mark, then unlink under the locks):
//!
//! * **Traversals take no locks** — `contains` is lock-free and invisible
//!   (it writes nothing shared, and restarts from the head when its pred
//!   turns out marked, so it is not wait-free), which is exactly what
//!   makes reclamation hard and this structure a good ThreadScan testcase.
//! * `insert`/`remove` lock only the affected predecessors per level,
//!   validate optimistically, and retry on conflict.
//! * Removal marks the victim (logical) before unlinking every level
//!   (physical), then retires it through the reclamation scheme. Only the
//!   marking thread retires, so the victim cannot be freed while a
//!   concurrent remover still examines it. The set's `remove` and the
//!   queue's `delete_min` share that step, `unlink_and_retire`; they
//!   differ only in how they pick the victim (a key, or a claim CAS on
//!   the first unclaimed node).
//!
//! # The sentinel head
//!
//! The head is a **sentinel node with a real lock**, not a bare array of
//! head pointers. Two critical sections whose pred is the head — a
//! removal splicing out the first node and an insert at the front — must
//! be mutually exclusive: with lock-free head entries both validate
//! `head.next == X` and then both store, un-serialized, a check-then-act
//! race that resurrects the spliced-out node. The sentinel takes part in
//! the same lock protocol as every other node and is never marked,
//! claimed or removed. A uniform-keyed set rarely meets the race; a
//! priority queue sends *all* its traffic through the head and met it
//! within milliseconds (`head_contention_churn_stays_consistent` and
//! `front_inserts_race_delete_min_without_resurrection` pin it).

use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::cell::Cell;
use std::marker::PhantomData;

use ts_smr::{Guard, Smr, SmrHandle};

use crate::set_trait::ConcurrentSet;

/// Maximum tower height. 2^12 = 4096× fan-out covers the paper's 128,000
/// resident keys with headroom.
pub const MAX_HEIGHT: usize = 12;

/// Hazard-pointer slots required by one skip-list or priority-queue
/// operation: a pred and a succ per level, plus two roving slots for
/// `contains` and the queue's bottom-level walk. A lazy list, one level,
/// needs 4.
pub const REQUIRED_SLOTS: usize = 2 * MAX_HEIGHT + 2;

#[repr(C)]
pub(crate) struct SkipNode<const L: usize> {
    /// Tower of next pointers (level 0 = full list). First field so
    /// interior pointers resolve to the node under range matching.
    pub(crate) next: [AtomicPtr<u8>; L],
    pub(crate) key: u64,
    top_level: usize,
    lock: AtomicBool,
    /// Logical deletion: set under the node lock by the one thread that
    /// will unlink and retire the node. Traversals treat a marked pred as
    /// a broken protection chain and restart.
    pub(crate) marked: AtomicBool,
    pub(crate) fully_linked: AtomicBool,
    /// The priority queue's `delete_min` claim, won by exactly one
    /// consumer via CAS; the set never sets it. Sits in what would
    /// otherwise be padding.
    pub(crate) claimed: AtomicBool,
    /// Debug tombstone, written only in debug builds after the full
    /// unlink, so they can assert no thread ever re-links a removed node.
    unlinked: AtomicBool,
}

impl<const L: usize> SkipNode<L> {
    fn new(key: u64, top_level: usize) -> Self {
        Self {
            next: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            key,
            top_level,
            lock: AtomicBool::new(false),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(false),
            claimed: AtomicBool::new(false),
            unlinked: AtomicBool::new(false),
        }
    }

    /// Spinlock acquire (per-node fine-grained lock, as in the paper's
    /// "fine-grained locks on the two nodes adjacent" description).
    pub(crate) fn lock(&self) {
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
pub(crate) fn watchdog(counter: &mut u64, what: &str) {
    *counter += 1;
    if cfg!(debug_assertions) && *counter > 200_000_000 {
        panic!("skip list live-lock suspected in {what}");
    }
}

/// The lock-based skip list with towers of at most `L` levels, reached
/// only through [`SkipList`] and [`LazyList`](crate::LazyList).
pub struct LazySkipList<S: Smr, const L: usize> {
    /// Sentinel head node (see module docs); its key is conceptually −∞
    /// and never compared. It frees with the list, never through a
    /// retire.
    pub(crate) head: Box<SkipNode<L>>,
    _scheme: PhantomData<fn(&S)>,
}

/// The lock-based skip list: the engine at full tower height.
pub type SkipList<S> = LazySkipList<S, MAX_HEIGHT>;

// SAFETY: shared state is atomics; node lifetime is managed through `S`.
unsafe impl<S: Smr, const L: usize> Send for LazySkipList<S, L> {}
// SAFETY: as for `Send`.
unsafe impl<S: Smr, const L: usize> Sync for LazySkipList<S, L> {}

/// Hands each thread's height generator a distinct seed.
static NEXT_RNG_STREAM: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread xorshift state for geometric tower heights, seeded on
    /// first use from [`NEXT_RNG_STREAM`] through SplitMix64 so no two
    /// threads draw the same sequence. `| 1`: xorshift's all-zero state
    /// is a fixed point.
    static HEIGHT_RNG: Cell<u64> =
        Cell::new(splitmix64(NEXT_RNG_STREAM.fetch_add(1, Ordering::Relaxed)) | 1);
}

/// SplitMix64's output function: spreads consecutive counter values (the
/// skip list's height seeds) and application keys (the split-ordered
/// set's hash) over the whole 64-bit space. The crate's one copy.
#[inline]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Geometric(1/2) top level in `0..L`, from a thread-local xorshift64*
/// generator (no allocation, no locking).
fn random_top_level<const L: usize>() -> usize {
    HEIGHT_RNG.with(|state| {
        let mut x = state.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.set(x);
        let mixed = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (mixed.trailing_ones() as usize) % L
    })
}

impl<S: Smr, const L: usize> LazySkipList<S, L> {
    /// Hazard-pointer slots one operation uses: the pair `{2l, 2l + 1}`
    /// per level for `find`, then the roving pair `{2L, 2L + 1}`.
    const SLOTS: usize = 2 * L + 2;

    /// An empty list.
    pub fn new() -> Self {
        Self {
            head: Box::new(SkipNode::new(0, L - 1)),
            _scheme: PhantomData,
        }
    }

    /// The sentinel as a node pointer (for pred arrays).
    #[inline]
    fn sentinel(&self) -> *mut SkipNode<L> {
        &*self.head as *const SkipNode<L> as *mut SkipNode<L>
    }

    /// Full find: fills `preds`/`succs` for every level and returns the
    /// level at which `key` was first found. Null pointers denote the
    /// (virtual) +∞ tail; preds start at the sentinel.
    ///
    /// Hazard protocol: each level owns the slot pair `{2l, 2l+1}`.
    /// Advancing transfers protection **by swapping slot roles** (the node
    /// already protected as curr simply *becomes* the pred) — never by
    /// re-loading a pointer into the pred slot, which would leave the node
    /// whose field is being read momentarily unprotected. The final
    /// pred/succ of every level remain protected in that level's pair (or
    /// a higher level's, when the pred was inherited), so the caller can
    /// lock and validate them safely.
    pub(crate) fn find(
        &self,
        g: &Guard<'_, S::Handle>,
        key: u64,
        preds: &mut [*mut SkipNode<L>; L],
        succs: &mut [*mut SkipNode<L>; L],
    ) -> Option<usize> {
        let mut spins = 0u64;
        'retry: loop {
            watchdog(&mut spins, "find");
            let mut lfound = None;
            let mut pred: *mut SkipNode<L> = self.sentinel();
            for level in (0..L).rev() {
                // curr/pred protection alternates between this level's two
                // slots; `pred` enters protected by a higher level's slot
                // (or is the immortal sentinel).
                let mut pred_slot = 2 * level;
                let mut curr_slot = 2 * level + 1;
                // SAFETY: pred is the sentinel or protected
                // (higher-level slot).
                let mut pred_field: &AtomicPtr<u8> = unsafe { &(*pred).next[level] };
                let mut curr = g.load(curr_slot, pred_field) as *mut SkipNode<L>;
                // The protection chain requires that pred was live when
                // its field was read; marking is monotonic, so a
                // post-load check suffices. A marked pred's (stale) next
                // could point at an already-retired node — restart.
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
                    // Advance: the protected curr *becomes* the pred (slot
                    // role swap, no re-load); the next node is loaded into
                    // the slot that held the now-dead previous pred.
                    pred = curr;
                    std::mem::swap(&mut pred_slot, &mut curr_slot);
                    // SAFETY: pred protected in pred_slot.
                    pred_field = unsafe { &(*pred).next[level] };
                    curr = g.load(curr_slot, pred_field) as *mut SkipNode<L>;
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

    /// Whether a (protected) pred node has been logically deleted —
    /// breaking the traversal's protection chain. The sentinel is never
    /// marked.
    #[inline]
    fn pred_died(pred: *mut SkipNode<L>) -> bool {
        // SAFETY: pred is the sentinel or protected by the caller.
        unsafe { (*pred).marked.load(Ordering::Acquire) }
    }

    /// Unlocks `preds[0..=locked_levels]`, skipping duplicates (a pred —
    /// including the sentinel — may repeat across levels under one lock).
    fn unlock_preds(preds: &[*mut SkipNode<L>; L], locked_levels: usize) {
        let mut prev: *mut SkipNode<L> = std::ptr::null_mut();
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
    /// sentinel locks like any node — this is what makes head-pred
    /// critical sections mutually exclusive (see module docs). On `false`
    /// the caller must `unlock_preds` up to the returned level.
    fn lock_and_validate(
        preds: &[*mut SkipNode<L>; L],
        top: usize,
        expect_succ: impl Fn(usize) -> *mut SkipNode<L>,
    ) -> (bool, usize) {
        let mut prev: *mut SkipNode<L> = std::ptr::null_mut();
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
            let link_ok = pred_node.next[level].load(Ordering::Acquire) as *mut SkipNode<L>
                == expect_succ(level);
            valid = pred_ok && link_ok;
            if !valid {
                break;
            }
        }
        (valid, locked_up_to)
    }

    /// The removal step the set's `remove` and the queue's `delete_min`
    /// share. `victim` is locked and marked by this thread, which makes
    /// it the one thread that unlinks and retires it, so raw access to it
    /// stays sound across retries; `preds`/`succs` hold a `find` of its
    /// key. Re-finds until the preds validate, then unlinks every level,
    /// unlocks and retires.
    pub(crate) fn unlink_and_retire(
        &self,
        g: &Guard<'_, S::Handle>,
        victim: *mut SkipNode<L>,
        preds: &mut [*mut SkipNode<L>; L],
        succs: &mut [*mut SkipNode<L>; L],
    ) {
        // SAFETY: see above — only the marking thread retires the victim.
        let victim_node = unsafe { &*victim };
        let top = victim_node.top_level;
        let mut spins = 0u64;
        let locked = loop {
            debug_assert!(
                succs[top] == victim,
                "a marked node must stay findable until its marker unlinks it"
            );
            let (valid, locked) = Self::lock_and_validate(preds, top, |_| victim);
            if valid {
                break locked;
            }
            Self::unlock_preds(preds, locked);
            watchdog(&mut spins, "unlink");
            self.find(g, victim_node.key, preds, succs);
        };
        for level in (0..=top).rev() {
            let succ = victim_node.next[level].load(Ordering::Acquire);
            // SAFETY: the victim's links are frozen while it is locked, so
            // each succ is still linked and allocated.
            let succ_node = unsafe { succ.cast::<SkipNode<L>>().as_ref() };
            debug_assert!(
                succ_node.is_none_or(|s| !s.unlinked.load(Ordering::Acquire)),
                "unlink splicing a fully-unlinked succ"
            );
            // SAFETY: preds locked + validated.
            unsafe { &(*preds[level]).next[level] }.store(succ, Ordering::Release);
        }
        if cfg!(debug_assertions) {
            victim_node.unlinked.store(true, Ordering::Release);
        }
        victim_node.unlock();
        Self::unlock_preds(preds, locked);
        // SAFETY: unlinked from every level; the mark ownership makes
        // this the unique retire.
        unsafe { g.retire_box(victim) };
    }

    /// Sequential bottom-level key dump (tests; nodes neither marked nor
    /// claimed, i.e. the queue's resident priorities too).
    pub fn keys_sequential(&self) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut cur = self.head.next[0].load(Ordering::Acquire) as *const SkipNode<L>;
        while !cur.is_null() {
            // SAFETY: tests call this with no concurrent removal, so every
            // linked node is allocated.
            let node = unsafe { &*cur };
            if !node.marked.load(Ordering::Acquire) && !node.claimed.load(Ordering::Acquire) {
                keys.push(node.key);
            }
            cur = node.next[0].load(Ordering::Acquire) as *const SkipNode<L>;
        }
        keys
    }

    /// Sequential size (tests).
    pub fn len_sequential(&self) -> usize {
        self.keys_sequential().len()
    }
}

impl<S: Smr, const L: usize> Default for LazySkipList<S, L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Smr, const L: usize> ConcurrentSet<S> for LazySkipList<S, L> {
    /// Lock-free, write-free membership test — the "unsynchronized
    /// traversal" of the paper's introduction. Not wait-free: a walk
    /// whose pred turns out marked restarts from the head.
    fn contains(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        // Two roving slots; protection moves by swapping roles, and the
        // traversal restarts if a pred turns out deleted (see `find`).
        'retry: loop {
            let mut pred_slot = 2 * L;
            let mut curr_slot = 2 * L + 1;
            let mut pred: *mut SkipNode<L> = self.sentinel();
            let mut found: *mut SkipNode<L> = std::ptr::null_mut();
            for level in (0..L).rev() {
                // SAFETY: pred protected in pred_slot (or the sentinel).
                let mut pred_field: &AtomicPtr<u8> = unsafe { &(*pred).next[level] };
                let mut curr = g.load(curr_slot, pred_field) as *mut SkipNode<L>;
                if Self::pred_died(pred) {
                    continue 'retry;
                }
                loop {
                    if curr.is_null() {
                        break;
                    }
                    // SAFETY: protected in curr_slot.
                    let curr_node = unsafe { &*curr };
                    if curr_node.key > key {
                        break;
                    }
                    if curr_node.key == key {
                        found = curr;
                        break;
                    }
                    // Advance by slot-role swap; old pred's slot is
                    // recycled for the new curr.
                    pred = curr;
                    std::mem::swap(&mut pred_slot, &mut curr_slot);
                    // SAFETY: pred protected in pred_slot.
                    pred_field = unsafe { &(*pred).next[level] };
                    curr = g.load(curr_slot, pred_field) as *mut SkipNode<L>;
                    if Self::pred_died(pred) {
                        continue 'retry;
                    }
                }
                if !found.is_null() {
                    break;
                }
            }
            break 'retry if found.is_null() {
                false
            } else {
                // SAFETY: `found` is protected in curr_slot.
                let node = unsafe { &*found };
                node.fully_linked.load(Ordering::Acquire) && !node.marked.load(Ordering::Acquire)
            };
        }
    }

    /// Inserts `key`; `false` while a node with that key is resident — a
    /// found, unmarked node counts as present, claimed or not.
    fn insert(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        debug_assert!(g.protection_slots().is_none_or(|n| n >= Self::SLOTS));
        let top = random_top_level::<L>();
        let mut preds = [std::ptr::null_mut(); L];
        let mut succs = [std::ptr::null_mut(); L];
        let mut spins = 0u64;
        'retry: loop {
            watchdog(&mut spins, "insert");
            if let Some(lfound) = self.find(&g, key, &mut preds, &mut succs) {
                let found = succs[lfound];
                // SAFETY: protected by find.
                let found_node = unsafe { &*found };
                if !found_node.marked.load(Ordering::Acquire) {
                    // Wait for the inserter to finish linking, then report
                    // "already present".
                    let mut link_spins = 0u64;
                    while !found_node.fully_linked.load(Ordering::Acquire) {
                        watchdog(&mut link_spins, "insert's fully_linked wait");
                        std::hint::spin_loop();
                    }
                    break 'retry false;
                }
                // Found but marked: its removal is in flight; retry.
                continue 'retry;
            }
            let (valid, locked) = Self::lock_and_validate(&preds, top, |l| succs[l]);
            if !valid {
                Self::unlock_preds(&preds, locked);
                continue 'retry;
            }
            let node = g.alloc(SkipNode::<L>::new(key, top));
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

    fn remove(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        debug_assert!(g.protection_slots().is_none_or(|n| n >= Self::SLOTS));
        let mut preds = [std::ptr::null_mut(); L];
        let mut succs = [std::ptr::null_mut(); L];
        let Some(level) = self.find(&g, key, &mut preds, &mut succs) else {
            return false;
        };
        let victim = succs[level];
        // SAFETY: protected by find.
        let cand = unsafe { &*victim };
        if !(cand.fully_linked.load(Ordering::Acquire)
            && cand.top_level == level
            && !cand.marked.load(Ordering::Acquire))
        {
            return false;
        }
        cand.lock();
        if cand.marked.load(Ordering::Acquire) {
            cand.unlock();
            return false;
        }
        cand.marked.store(true, Ordering::Release);
        self.unlink_and_retire(&g, victim, &mut preds, &mut succs);
        true
    }
}

impl<S: Smr, const L: usize> Drop for LazySkipList<S, L> {
    fn drop(&mut self) {
        // Exclusive access: free the bottom-level chain (it contains every
        // node exactly once); the sentinel frees with the Box.
        let mut cur = self.head.next[0].load(Ordering::Relaxed);
        while !cur.is_null() {
            // SAFETY: &mut self; bottom level links every node once (next
            // read before the node is freed).
            unsafe {
                let node = Box::from_raw(cur.cast::<SkipNode<L>>());
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
    fn node_layout_is_reasonable() {
        // Paper: ≤104-byte nodes (variable height). Ours are fixed-height
        // towers; assert we stay cache-friendly rather than exact.
        assert!(core::mem::size_of::<SkipNode<MAX_HEIGHT>>() <= 136);
        assert_eq!(REQUIRED_SLOTS, 26);
        // The lazy list's node is the one-level tower.
        assert_eq!(core::mem::size_of::<SkipNode<1>>(), 32);
        assert_eq!(SkipList::<Leaky>::SLOTS, REQUIRED_SLOTS);
        assert_eq!(crate::LazyList::<Leaky>::SLOTS, 4);
    }

    #[test]
    fn random_levels_are_geometricish() {
        let mut counts = [0usize; MAX_HEIGHT];
        for _ in 0..20_000 {
            counts[random_top_level::<MAX_HEIGHT>()] += 1;
        }
        assert!(counts[0] > counts[2], "level 0 must dominate level 2");
        assert!(
            counts[0] > 5_000,
            "about half of towers should be height 1, got {}",
            counts[0]
        );
    }

    #[test]
    fn threads_draw_distinct_tower_heights() {
        let first_64 = || {
            std::thread::spawn(|| {
                (0..64)
                    .map(|_| random_top_level::<MAX_HEIGHT>())
                    .collect::<Vec<_>>()
            })
            .join()
            .unwrap()
        };
        assert_ne!(first_64(), first_64());
    }

    macro_rules! skiplist_semantics {
        ($modname:ident, $ty:ty, $scheme:expr) => {
            mod $modname {
                use super::*;

                #[test]
                fn roundtrip() {
                    let scheme = $scheme;
                    let sl = SkipList::<$ty>::new();
                    let h = scheme.register();
                    assert!(!sl.contains(&h, 10));
                    assert!(sl.insert(&h, 10));
                    assert!(!sl.insert(&h, 10));
                    assert!(sl.contains(&h, 10));
                    assert!(sl.remove(&h, 10));
                    assert!(!sl.remove(&h, 10));
                    assert!(!sl.contains(&h, 10));
                }

                #[test]
                fn bulk_sorted() {
                    let scheme = $scheme;
                    let sl = SkipList::<$ty>::new();
                    let h = scheme.register();
                    let keys = [44u64, 2, 99, 17, 8, 63, 30, 5, 71];
                    for &k in &keys {
                        assert!(sl.insert(&h, k));
                    }
                    let mut want = keys.to_vec();
                    want.sort_unstable();
                    assert_eq!(sl.keys_sequential(), want);
                    for &k in &keys {
                        assert!(sl.contains(&h, k));
                    }
                    for &k in &keys {
                        assert!(sl.remove(&h, k));
                    }
                    assert_eq!(sl.len_sequential(), 0);
                }
            }
        };
    }

    skiplist_semantics!(leaky_semantics, Leaky, Leaky::new());
    skiplist_semantics!(epoch_semantics, EpochScheme, EpochScheme::with_threshold(8));
    skiplist_semantics!(
        hazard_semantics,
        HazardPointers,
        HazardPointers::with_params(REQUIRED_SLOTS, 8)
    );

    #[test]
    fn concurrent_disjoint_ranges() {
        let scheme = Arc::new(EpochScheme::with_threshold(64));
        let sl = Arc::new(SkipList::<EpochScheme>::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let scheme = Arc::clone(&scheme);
                let sl = Arc::clone(&sl);
                s.spawn(move || {
                    let h = scheme.register();
                    let base = t * 100_000;
                    for i in 0..300u64 {
                        assert!(sl.insert(&h, base + i));
                    }
                    for i in (0..300u64).step_by(3) {
                        assert!(sl.remove(&h, base + i));
                    }
                    for i in 0..300u64 {
                        assert_eq!(sl.contains(&h, base + i), i % 3 != 0);
                    }
                });
            }
        });
        assert_eq!(sl.len_sequential(), 8 * 200);
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }

    #[test]
    fn concurrent_same_key_contention() {
        // All threads fight over the same tiny key space; set semantics
        // (no duplicates, remove⇒was present) must survive.
        let scheme = Arc::new(EpochScheme::with_threshold(16));
        let sl = Arc::new(SkipList::<EpochScheme>::new());
        use std::sync::atomic::AtomicI64;
        let balance: Arc<[AtomicI64; 8]> = Arc::new([(); 8].map(|_| AtomicI64::new(0)));
        std::thread::scope(|s| {
            for t in 0..8usize {
                let scheme = Arc::clone(&scheme);
                let sl = Arc::clone(&sl);
                let balance = Arc::clone(&balance);
                s.spawn(move || {
                    let h = scheme.register();
                    for i in 0..2_000usize {
                        let k = ((t * 31 + i * 17) % 8) as u64;
                        if (t + i) % 2 == 0 {
                            if sl.insert(&h, k) {
                                balance[k as usize].fetch_add(1, Ordering::SeqCst);
                            }
                        } else if sl.remove(&h, k) {
                            balance[k as usize].fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        // Successful inserts minus successful removes must equal final
        // membership, per key.
        for k in 0..8u64 {
            let b = balance[k as usize].load(Ordering::SeqCst);
            let present = sl.keys_sequential().contains(&k);
            assert_eq!(
                b,
                if present { 1 } else { 0 },
                "key {k}: balance {b} vs present {present}"
            );
        }
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }

    /// Regression for the sentinel-head race: all traffic on the smallest
    /// keys makes the head the pred of nearly every critical section;
    /// with lock-free head entries, a front remove and a front insert
    /// could both validate against the same link and resurrect a
    /// spliced-out node.
    #[test]
    fn head_contention_churn_stays_consistent() {
        let scheme = Arc::new(EpochScheme::with_threshold(16));
        let sl = Arc::new(SkipList::<EpochScheme>::new());
        use std::sync::atomic::AtomicI64;
        let balance: Arc<[AtomicI64; 4]> = Arc::new([(); 4].map(|_| AtomicI64::new(0)));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let scheme = Arc::clone(&scheme);
                let sl = Arc::clone(&sl);
                let balance = Arc::clone(&balance);
                s.spawn(move || {
                    let h = scheme.register();
                    let mut seed = 0xACE1u64 ^ (t as u64);
                    for _ in 0..5_000usize {
                        seed = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let k = (seed >> 60) % 4; // only keys 0..4: head preds
                        if seed & 1 == 0 {
                            if sl.insert(&h, k) {
                                balance[k as usize].fetch_add(1, Ordering::SeqCst);
                            }
                        } else if sl.remove(&h, k) {
                            balance[k as usize].fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        for k in 0..4u64 {
            let b = balance[k as usize].load(Ordering::SeqCst);
            let present = sl.keys_sequential().contains(&k);
            assert_eq!(b, i64::from(present), "key {k}: balance {b} vs {present}");
        }
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }

    /// Threads race to remove (and re-insert) the same few keys: every
    /// successful remove must retire its node exactly once.
    #[test]
    fn each_successful_remove_retires_exactly_once() {
        let scheme = Arc::new(Leaky::new());
        let sl = Arc::new(SkipList::<Leaky>::new());
        let removed = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let scheme = Arc::clone(&scheme);
                let sl = Arc::clone(&sl);
                let removed = Arc::clone(&removed);
                s.spawn(move || {
                    let h = scheme.register();
                    let mut seed = 0x5EED_u64 ^ t;
                    for _ in 0..5_000usize {
                        seed = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let k = (seed >> 60) % 8;
                        if seed & 1 == 0 {
                            sl.insert(&h, k);
                        } else if sl.remove(&h, k) {
                            removed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let removed = removed.load(Ordering::Relaxed);
        assert!(removed > 0);
        assert_eq!(scheme.leaked(), removed, "retires vs successful removes");
    }

    #[test]
    fn readers_race_removals_under_hazard_pointers() {
        let scheme = Arc::new(HazardPointers::with_params(REQUIRED_SLOTS, 32));
        let sl = Arc::new(SkipList::<HazardPointers>::new());
        {
            let h = scheme.register();
            for k in 0..256u64 {
                sl.insert(&h, k);
            }
        }
        std::thread::scope(|s| {
            for _ in 0..3 {
                let scheme = Arc::clone(&scheme);
                let sl = Arc::clone(&sl);
                s.spawn(move || {
                    let h = scheme.register();
                    for _ in 0..30 {
                        for k in 0..256u64 {
                            let _ = sl.contains(&h, k);
                        }
                    }
                });
            }
            let scheme2 = Arc::clone(&scheme);
            let sl2 = Arc::clone(&sl);
            s.spawn(move || {
                let h = scheme2.register();
                for k in 0..256u64 {
                    assert!(sl2.remove(&h, k));
                }
            });
        });
        assert_eq!(sl.len_sequential(), 0);
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }
}
