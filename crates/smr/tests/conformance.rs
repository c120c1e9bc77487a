//! SMR conformance suite: the contract every reclaiming scheme must
//! honour, run against each scheme through the same generic battery.
//!
//! The properties are the two directions the paper proves for ThreadScan
//! (Lemma 1: never free a reachable-from-a-thread node; Lemma 4: free
//! everything unreferenced), restated at the [`Smr`] trait level so the
//! hazard, epoch and slow-epoch baselines are held to the same standard
//! as the headline scheme:
//!
//! 1. retire eventually runs the destructor, exactly once (after quiesce);
//! 2. a reference obtained via `load_protected` inside an open operation
//!    is never freed under the reader;
//! 3. bookkeeping (`outstanding`) returns to zero at quiescence;
//! 4. handles may be dropped with retires still pending — nothing leaks;
//! 5. concurrent retire storms from many threads neither leak nor
//!    double-free.

use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use ts_smr::{retire_box, EpochScheme, HazardPointers, Smr, SmrHandle};

/// A drop-counting node with enough body that use-after-free corrupts
/// observable state under sanitizers.
struct Node {
    drops: Arc<AtomicUsize>,
    value: u64,
    _pad: [u64; 6],
}

impl Drop for Node {
    fn drop(&mut self) {
        self.value = u64::MAX; // poison: reads after drop are visible
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

fn node(drops: &Arc<AtomicUsize>, value: u64) -> *mut Node {
    Box::into_raw(Box::new(Node {
        drops: Arc::clone(drops),
        value,
        _pad: [0; 6],
    }))
}

/// Property 1 + 3: retire → quiesce frees everything exactly once, and
/// `outstanding` returns to zero.
fn retired_nodes_are_freed_exactly_once<S: Smr>(scheme: &S) {
    let drops = Arc::new(AtomicUsize::new(0));
    let h = scheme.register();
    for i in 0..500u64 {
        // SAFETY: fresh allocation, never shared, retired once.
        unsafe { retire_box(&h, node(&drops, i)) };
    }
    drop(h);
    scheme.quiesce();
    assert_eq!(drops.load(Ordering::SeqCst), 500, "every node freed once");
    assert_eq!(scheme.outstanding(), 0, "books balance after quiesce");
}

/// Property 2: a protected reference is never freed under the reader.
/// The reader parks inside an open operation holding a protected load
/// while the writer unlinks + retires the node and drives reclamation
/// hard; the node's poisoned-on-drop value must stay intact.
fn protected_reference_is_never_freed_under_reader<S: Smr>(scheme: &S) {
    let drops = Arc::new(AtomicUsize::new(0));
    let shared: AtomicPtr<u8> = AtomicPtr::new(node(&drops, 42).cast());
    let checkpoints = Barrier::new(2);

    std::thread::scope(|s| {
        // Reader: protect, then hold across the writer's reclaim attempts.
        s.spawn(|| {
            let h = scheme.register();
            h.begin_op();
            let p = h.load_protected(0, &shared).cast::<Node>();
            assert!(!p.is_null());
            checkpoints.wait(); // (0) protected
            checkpoints.wait(); // (1) writer retired + churned
                                // SAFETY: the scheme contract keeps `p` alive inside this op.
            let v = unsafe { (*p).value };
            assert_eq!(v, 42, "protected node was freed under the reader");
            h.end_op();
            checkpoints.wait(); // (2) reader released
        });

        let h = scheme.register();
        checkpoints.wait(); // (0)
                            // Unlink and retire the node the reader protects.
        let victim = shared.swap(std::ptr::null_mut(), Ordering::AcqRel);
        // SAFETY: unlinked above; single retire.
        unsafe { retire_box(&h, victim.cast::<Node>()) };
        // Pressure: force scan/advance cycles.
        for i in 0..2_000u64 {
            // SAFETY: fresh, private, retired once.
            unsafe { retire_box(&h, node(&drops, i)) };
        }
        assert_eq!(
            unsafe { (*victim.cast::<Node>()).value },
            42,
            "victim freed while the reader still holds protection"
        );
        checkpoints.wait(); // (1)
        checkpoints.wait(); // (2) reader done
        drop(h);
    });

    scheme.quiesce();
    assert_eq!(
        drops.load(Ordering::SeqCst),
        2_001,
        "victim reclaimed after release, churn nodes reclaimed too"
    );
    assert_eq!(scheme.outstanding(), 0);
}

/// Property 4: dropping a handle with pending retires must not leak them.
fn pending_retires_survive_handle_drop<S: Smr>(scheme: &S) {
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let h = scheme.register();
        for i in 0..64u64 {
            // SAFETY: fresh, private, retired once.
            unsafe { retire_box(&h, node(&drops, i)) };
        }
        // Handle dies with retires potentially still buffered.
    }
    scheme.quiesce();
    assert_eq!(drops.load(Ordering::SeqCst), 64, "orphaned retires freed");
    assert_eq!(scheme.outstanding(), 0);
}

/// Property 5: concurrent retire storms — exact free count, no double
/// free (drop counter would overshoot), books balanced.
fn concurrent_retire_storm_is_exact<S: Smr>(scheme: &S) {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 2_000;
    let drops = Arc::new(AtomicUsize::new(0));
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let drops = &drops;
            let start = &start;
            s.spawn(move || {
                let h = scheme.register();
                start.wait();
                for i in 0..PER_THREAD {
                    // Retire from inside a guarded operation (the RAII
                    // equivalent of a begin_op/end_op bracket).
                    let g = h.pin();
                    // SAFETY: fresh, private, retired once.
                    unsafe { g.retire_box(node(drops, (t * PER_THREAD + i) as u64)) };
                }
            });
        }
    });
    scheme.quiesce();
    assert_eq!(drops.load(Ordering::SeqCst), THREADS * PER_THREAD);
    assert_eq!(scheme.outstanding(), 0);
}

macro_rules! conformance {
    ($modname:ident, $mk:expr) => {
        mod $modname {
            use super::*;

            #[test]
            fn retired_nodes_are_freed_exactly_once() {
                super::retired_nodes_are_freed_exactly_once(&$mk);
            }

            #[test]
            fn protected_reference_is_never_freed_under_reader() {
                super::protected_reference_is_never_freed_under_reader(&$mk);
            }

            #[test]
            fn pending_retires_survive_handle_drop() {
                super::pending_retires_survive_handle_drop(&$mk);
            }

            #[test]
            fn concurrent_retire_storm_is_exact() {
                super::concurrent_retire_storm_is_exact(&$mk);
            }
        }
    };
}

conformance!(epoch, EpochScheme::with_threshold(32));
conformance!(epoch_tiny_threshold, EpochScheme::with_threshold(2));
conformance!(
    slow_epoch,
    EpochScheme::slow(32, std::time::Duration::from_millis(1), 512)
);
conformance!(hazard, HazardPointers::with_params(4, 16));
