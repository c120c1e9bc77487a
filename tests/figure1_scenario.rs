//! The paper's Figure 1, literally: thread T1 disconnects node B and calls
//! free(B) while thread T2 holds a private reference to B and reads
//! through it. ThreadScan must (a) not free B while T2 can still read it,
//! and (b) free B afterwards.
//!
//! The figure runs `ROUNDS` times, each with a fresh B. (a) is exact and
//! must hold in every round. (b) is only *usually* true of one address
//! under conservative scanning: a stale word in a scanned frame or in the
//! thread's TLS block is indistinguishable from a live reference and can
//! pin whichever B the heap's layout puts at the address it holds. A
//! round whose B stays pinned leaves it outstanding, so the next round's B
//! lands elsewhere, and all rounds but one must free theirs.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use threadscan::{Collector, CollectorConfig, ThreadHandle};
use ts_sigscan::SignalPlatform;

const ROUNDS: usize = 4;

/// Node "B" from the figure; its drop is counted per round.
struct NodeB {
    value: u64,
    drops: Arc<AtomicUsize>,
    _pad: [u64; 7],
}
impl Drop for NodeB {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

#[inline(never)]
fn churn(depth: usize) -> usize {
    let noise = std::hint::black_box([depth; 64]);
    if depth == 0 {
        noise[0]
    } else {
        churn(depth - 1) + noise[63]
    }
}

/// Publishes a fresh B from a dying frame, so the raw pointer never lives
/// in the (always-scanned) test frames.
#[inline(never)]
fn publish_b(shared: &AtomicPtr<NodeB>, drops: &Arc<AtomicUsize>) {
    let b = Box::into_raw(Box::new(NodeB {
        value: 40,
        drops: Arc::clone(drops),
        _pad: [0; 7],
    }));
    shared.store(b, Ordering::Release);
}

/// T2's body: grab the reference (step 1 in the figure), announce, wait,
/// then read through it (step 4: `val = B.value`) and return the value —
/// unless T1 found B freed, when the read would be a use after free.
#[inline(never)]
fn t2_access(shared_b: &AtomicPtr<NodeB>, barrier: &Barrier, b_alive: &AtomicBool) -> u64 {
    // 1. B = A.next — T2 takes its private reference.
    let b = std::hint::black_box(shared_b.load(Ordering::Acquire));
    barrier.wait(); // T2 holds the reference
    barrier.wait(); // T1 has disconnected and called free(B)
    if !b_alive.load(Ordering::SeqCst) {
        return 0;
    }
    // 4-5. val = B.value; return val + 2 — the dangerous read.
    let val = unsafe { (*std::hint::black_box(b)).value };
    val + 2
}

/// T1's steps 2-3, in a dying frame.
#[inline(never)]
fn disconnect_and_free(shared_b: &AtomicPtr<NodeB>, handle: &ThreadHandle<SignalPlatform>) {
    // 2. A.next = C — disconnect B (here: clear the shared pointer).
    let b = shared_b.swap(std::ptr::null_mut(), Ordering::AcqRel);
    // 3. Free(B) — ThreadScan's free, not libc's.
    unsafe { handle.retire(b) };
}

/// One run of the figure with a fresh B. Returns whether B survived while
/// T2 held it, whether it was freed afterwards, and what T2 read.
fn run_figure(
    collector: &Arc<Collector<SignalPlatform>>,
    handle: &ThreadHandle<SignalPlatform>,
) -> (bool, bool, u64) {
    // "A.next" — the shared reference leading to B.
    let shared_b = AtomicPtr::new(std::ptr::null_mut());
    let drops = Arc::new(AtomicUsize::new(0));
    let barrier = Barrier::new(2);
    let (b_alive, done) = (AtomicBool::new(false), AtomicBool::new(false));
    publish_b(&shared_b, &drops);
    std::hint::black_box(churn(64));

    // Outcomes are read inside the scope and checked by the caller, so a
    // failed check cannot strand T2 at a barrier.
    std::thread::scope(|s| {
        // T2: concurrent reader.
        let t2 = s.spawn(|| {
            let _handle = collector.register();
            let val = t2_access(&shared_b, &barrier, &b_alive);
            std::hint::black_box(churn(64));
            done.store(true, Ordering::SeqCst);
            barrier.wait(); // let T1 finish
            val
        });

        // T1: the deleter.
        barrier.wait(); // T2 holds its reference
        disconnect_and_free(&shared_b, handle);
        std::hint::black_box(churn(64));

        // Force reclamation *while T2 still holds the reference*.
        handle.flush();
        handle.flush();
        let held_survived = drops.load(Ordering::SeqCst) == 0;
        b_alive.store(held_survived, Ordering::SeqCst);

        barrier.wait(); // let T2 perform its read
        while !done.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // T2 has read and dropped its reference; B must now be
        // reclaimable within a bounded number of phases.
        let mut freed = false;
        for _ in 0..128 {
            std::hint::black_box(churn(64));
            handle.flush();
            if drops.load(Ordering::SeqCst) == 1 {
                freed = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        barrier.wait();
        (held_survived, freed, t2.join().unwrap())
    })
}

#[test]
fn figure1_disconnect_free_race_is_safe() {
    // One collector across rounds: a B that stays pinned by a stale word
    // stays outstanding, so no later B can reuse its address.
    let collector = Collector::with_config(
        SignalPlatform::new().unwrap(),
        CollectorConfig::default().with_buffer_capacity(8),
    );
    let handle = collector.register();
    let outcomes: Vec<_> = (0..ROUNDS)
        .map(|_| run_figure(&collector, &handle))
        .collect();
    drop(handle);

    for &(held_survived, _, t2_read) in &outcomes {
        assert!(
            held_survived,
            "B freed while T2 still held a private reference!"
        );
        assert_eq!(t2_read, 42, "T2 read valid data");
    }
    let freed = outcomes.iter().filter(|&&(_, freed, _)| freed).count();
    assert!(
        freed >= ROUNDS - 1,
        "B must eventually be reclaimed ({freed}/{ROUNDS} rounds freed theirs)"
    );
}
