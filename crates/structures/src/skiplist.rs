//! Lock-based optimistic skip list — the paper's third evaluation
//! structure (§6: "Lock-based Skip List ... with 104 byte nodes
//! (representing the maximum size due to height)").
//!
//! This is the lazy skip list of Herlihy, Lev, Luchangco and Shavit
//! ("A Simple Optimistic Skiplist Algorithm", SIROCCO 2007):
//!
//! * **Traversals take no locks** — `contains` is wait-free and invisible,
//!   which is exactly what makes reclamation hard and this structure a
//!   good ThreadScan testcase.
//! * `insert`/`remove` lock only the affected predecessors per level,
//!   validate optimistically, and retry on conflict.
//! * Removal marks the victim (logical) before unlinking every level
//!   (physical), then retires it through the reclamation scheme. Only the
//!   marking thread retires, so the victim cannot be freed while a
//!   concurrent remover still examines it.
//! * The head is a **sentinel node with a real lock**, not a bare array
//!   of pointers: two critical sections whose pred is the head (a remove
//!   splicing out the first node and an insert at the front) must be
//!   mutually exclusive, or their validate-then-store sequences race and
//!   can resurrect a spliced-out node. The priority queue variant of this
//!   structure hit exactly that race under `delete_min` pressure; see
//!   `priority_queue`'s module docs.

use core::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::cell::Cell;
use std::marker::PhantomData;

use ts_smr::{Guard, Smr, SmrHandle};

use crate::set_trait::ConcurrentSet;

/// Maximum tower height. 2^12 = 4096× fan-out covers the paper's 128,000
/// resident keys with headroom.
pub const MAX_HEIGHT: usize = 12;

/// Hazard-pointer slots required by one skip-list operation: a pred and a
/// succ per level, plus two roving slots for `contains`.
pub const REQUIRED_SLOTS: usize = 2 * MAX_HEIGHT + 2;

#[repr(C)]
struct SkipNode {
    /// Tower of next pointers (level 0 = full list). First field so
    /// interior pointers resolve to the node under range matching.
    next: [AtomicPtr<u8>; MAX_HEIGHT],
    key: u64,
    top_level: usize,
    lock: AtomicBool,
    marked: AtomicBool,
    fully_linked: AtomicBool,
}

impl SkipNode {
    fn new(key: u64, top_level: usize) -> Self {
        Self {
            next: [(); MAX_HEIGHT].map(|_| AtomicPtr::new(std::ptr::null_mut())),
            key,
            top_level,
            lock: AtomicBool::new(false),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(false),
        }
    }

    /// Spinlock acquire (per-node fine-grained lock, as in the paper's
    /// "fine-grained locks on the two nodes adjacent" description).
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

/// The lock-based skip list.
pub struct SkipList<S: Smr> {
    /// Sentinel head node; its key is conceptually −∞ and never compared.
    /// It locks like any node and is never marked or removed. It frees
    /// with the list, never through a retire.
    head: Box<SkipNode>,
    _scheme: PhantomData<fn(&S)>,
}

// SAFETY: shared state is atomics; node lifetime is managed through `S`.
unsafe impl<S: Smr> Send for SkipList<S> {}
unsafe impl<S: Smr> Sync for SkipList<S> {}

thread_local! {
    /// Cheap per-thread xorshift state for geometric tower heights.
    static HEIGHT_RNG: Cell<u64> = const { Cell::new(0x9E3779B97F4A7C15) };
}

/// Geometric(1/2) tower height in `1..=MAX_HEIGHT`, from a thread-local
/// xorshift64* generator (no allocation, no locking).
fn random_top_level() -> usize {
    HEIGHT_RNG.with(|state| {
        let mut x = state.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.set(x);
        // Mix in the thread so identically-seeded threads diverge.
        let mixed = x.wrapping_mul(0x2545F4914F6CDD1D);
        ((mixed.trailing_ones() as usize) % MAX_HEIGHT).min(MAX_HEIGHT - 1)
    })
}

impl<S: Smr> SkipList<S> {
    /// An empty skip list.
    pub fn new() -> Self {
        Self {
            head: Box::new(SkipNode::new(0, MAX_HEIGHT - 1)),
            _scheme: PhantomData,
        }
    }

    /// The sentinel as a node pointer (for pred arrays).
    #[inline]
    fn sentinel(&self) -> *mut SkipNode {
        &*self.head as *const SkipNode as *mut SkipNode
    }

    /// Full find: fills `preds`/`succs` for every level and returns the
    /// level at which `key` was first found. Null pointers denote the
    /// (virtual) +∞ tail; `preds[l]` null denotes the head tower.
    ///
    /// Hazard protocol: each level owns the slot pair `{2l, 2l+1}`.
    /// Advancing transfers protection **by swapping slot roles** (the node
    /// already protected as curr simply *becomes* the pred) — never by
    /// re-loading a pointer into the pred slot, which would leave the node
    /// whose field is being read momentarily unprotected. The final
    /// pred/succ of every level remain protected in that level's pair (or
    /// a higher level's, when the pred was inherited), so the caller can
    /// lock and validate them safely.
    fn find(
        &self,
        g: &Guard<'_, S::Handle>,
        key: u64,
        preds: &mut [*mut SkipNode; MAX_HEIGHT],
        succs: &mut [*mut SkipNode; MAX_HEIGHT],
    ) -> Option<usize> {
        'retry: loop {
            let mut lfound = None;
            let mut pred: *mut SkipNode = self.sentinel();
            for level in (0..MAX_HEIGHT).rev() {
                // curr/pred protection alternates between this level's two
                // slots; `pred` enters protected by a higher level's slot
                // (or is the immortal sentinel).
                let mut pred_slot = 2 * level;
                let mut curr_slot = 2 * level + 1;
                // SAFETY: pred is the sentinel or protected
                // (higher-level slot).
                let mut pred_field: &AtomicPtr<u8> = unsafe { &(*pred).next[level] };
                let mut curr = g.load(curr_slot, pred_field) as *mut SkipNode;
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
                    curr = g.load(curr_slot, pred_field) as *mut SkipNode;
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
    fn pred_died(pred: *mut SkipNode) -> bool {
        // SAFETY: pred is the sentinel or protected by the caller.
        unsafe { (*pred).marked.load(Ordering::Acquire) }
    }

    /// Unlocks `preds[0..=locked_levels]`, skipping duplicates (a pred —
    /// including the sentinel — may repeat across levels under one lock).
    fn unlock_preds(preds: &[*mut SkipNode; MAX_HEIGHT], locked_levels: usize) {
        let mut prev: *mut SkipNode = std::ptr::null_mut();
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
        preds: &[*mut SkipNode; MAX_HEIGHT],
        top: usize,
        expect_succ: impl Fn(usize) -> *mut SkipNode,
    ) -> (bool, usize) {
        let mut prev: *mut SkipNode = std::ptr::null_mut();
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
            let link_ok = pred_node.next[level].load(Ordering::Acquire) as *mut SkipNode
                == expect_succ(level);
            valid = pred_ok && link_ok;
            if !valid {
                break;
            }
        }
        (valid, locked_up_to)
    }
}

impl<S: Smr> Default for SkipList<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Smr> ConcurrentSet<S> for SkipList<S> {
    /// Wait-free, lock-free, write-free membership test — the
    /// "unsynchronized traversal" of the paper's introduction.
    fn contains(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        // Two roving slots; protection moves by swapping roles, and the
        // traversal restarts if a pred turns out deleted (see `find`).
        'retry: loop {
            let mut pred_slot = 2 * MAX_HEIGHT;
            let mut curr_slot = 2 * MAX_HEIGHT + 1;
            let mut pred: *mut SkipNode = self.sentinel();
            let mut found: *mut SkipNode = std::ptr::null_mut();
            for level in (0..MAX_HEIGHT).rev() {
                // SAFETY: pred protected in pred_slot (or the sentinel).
                let mut pred_field: &AtomicPtr<u8> = unsafe { &(*pred).next[level] };
                let mut curr = g.load(curr_slot, pred_field) as *mut SkipNode;
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
                    curr = g.load(curr_slot, pred_field) as *mut SkipNode;
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

    fn insert(&self, h: &S::Handle, key: u64) -> bool {
        let g = h.pin();
        debug_assert!(g.protection_slots().is_none_or(|n| n >= REQUIRED_SLOTS));
        let top = random_top_level();
        let mut preds = [std::ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [std::ptr::null_mut(); MAX_HEIGHT];
        'retry: loop {
            if let Some(lfound) = self.find(&g, key, &mut preds, &mut succs) {
                let found = succs[lfound];
                // SAFETY: protected by find.
                let found_node = unsafe { &*found };
                if !found_node.marked.load(Ordering::Acquire) {
                    // Wait for the inserter to finish linking, then report
                    // "already present".
                    while !found_node.fully_linked.load(Ordering::Acquire) {
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
            let node = g.alloc(SkipNode::new(key, top));
            // SAFETY: node is private until linked below.
            let node_ref = unsafe { &*node };
            for (level, &succ) in succs.iter().enumerate().take(top + 1) {
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
        debug_assert!(g.protection_slots().is_none_or(|n| n >= REQUIRED_SLOTS));
        let mut preds = [std::ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [std::ptr::null_mut(); MAX_HEIGHT];
        let mut victim: *mut SkipNode = std::ptr::null_mut();
        let mut marked_by_us = false;
        let mut top = 0usize;
        'retry: loop {
            let lfound = self.find(&g, key, &mut preds, &mut succs);
            if !marked_by_us {
                let Some(level) = lfound else {
                    break 'retry false;
                };
                let candidate = succs[level];
                // SAFETY: protected by find.
                let cand = unsafe { &*candidate };
                if !(cand.fully_linked.load(Ordering::Acquire)
                    && cand.top_level == level
                    && !cand.marked.load(Ordering::Acquire))
                {
                    break 'retry false;
                }
                top = cand.top_level;
                cand.lock();
                if cand.marked.load(Ordering::Acquire) {
                    cand.unlock();
                    break 'retry false;
                }
                cand.marked.store(true, Ordering::Release);
                marked_by_us = true;
                victim = candidate;
                // From here the victim cannot be retired by anyone else
                // (only the marking thread retires), so raw access to it
                // stays sound across retries.
            }
            // SAFETY: see invariant above.
            let victim_node = unsafe { &*victim };
            let (valid, locked) = Self::lock_and_validate(&preds, top, |_| victim);
            if !valid {
                Self::unlock_preds(&preds, locked);
                continue 'retry;
            }
            for level in (0..=top).rev() {
                // SAFETY: preds locked + validated.
                unsafe { &(*preds[level]).next[level] }.store(
                    victim_node.next[level].load(Ordering::Acquire),
                    Ordering::Release,
                );
            }
            victim_node.unlock();
            Self::unlock_preds(&preds, locked);
            // SAFETY: unlinked from every level; the mark ownership makes
            // this the unique retire.
            unsafe { g.retire_box(victim) };
            break 'retry true;
        }
    }

    fn kind(&self) -> &'static str {
        "skip-list"
    }
}

impl<S: Smr> SkipList<S> {
    /// Sequential bottom-level key dump (tests; unmarked nodes only).
    pub fn keys_sequential(&self) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut cur = self.head.next[0].load(Ordering::Acquire) as *const SkipNode;
        while !cur.is_null() {
            let node = unsafe { &*cur };
            if !node.marked.load(Ordering::Acquire) {
                keys.push(node.key);
            }
            cur = node.next[0].load(Ordering::Acquire) as *const SkipNode;
        }
        keys
    }

    /// Sequential size (tests).
    pub fn len_sequential(&self) -> usize {
        self.keys_sequential().len()
    }
}

impl<S: Smr> Drop for SkipList<S> {
    fn drop(&mut self) {
        // Exclusive access: free the bottom-level chain (it contains every
        // node exactly once); the sentinel frees with the Box.
        let mut cur = self.head.next[0].load(Ordering::Relaxed);
        while !cur.is_null() {
            // SAFETY: &mut self; bottom level links every node once (next
            // read before the node is freed).
            unsafe {
                let node = Box::from_raw(cur.cast::<SkipNode>());
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
        assert!(core::mem::size_of::<SkipNode>() <= 136);
        assert_eq!(REQUIRED_SLOTS, 26);
    }

    #[test]
    fn random_levels_are_geometricish() {
        let mut counts = [0usize; MAX_HEIGHT];
        for _ in 0..20_000 {
            counts[random_top_level()] += 1;
        }
        assert!(counts[0] > counts[2], "level 0 must dominate level 2");
        assert!(
            counts[0] > 5_000,
            "about half of towers should be height 1, got {}",
            counts[0]
        );
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
