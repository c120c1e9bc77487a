//! The two-stage delete buffer's invariants under real concurrency, on
//! the platform that scans nothing and on the simulated one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use threadscan::{Collector, CollectorConfig, NullPlatform, Platform};
use ts_simthread::SimPlatform;

struct Probe {
    drops: Arc<AtomicUsize>,
    _pad: [u64; 4],
}
impl Drop for Probe {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// `threads` real threads churn through rounds of retires; with `hook`,
/// each announces the allocation of every node it retires through
/// `before_alloc`, the way a structure's `Guard::alloc` does. Every thread
/// tracks its own two-stage occupancy after every retire; at the quiescent
/// point after each round the main thread samples the collector's two
/// views of "retired but not freed", and every other round forces a flush.
/// Nothing asserts while a barrier is pending (a panic there would hang
/// the others): observations are checked once every thread has finished.
fn churn<P: Platform + Send + Sync>(platform: P, threads: usize, hook: bool) {
    const ROUNDS: usize = 6;
    const CAPACITY: usize = 16;
    let collector = Collector::with_config(
        platform,
        CollectorConfig::default().with_buffer_capacity(CAPACITY),
    );
    let drops = Arc::new(AtomicUsize::new(0));
    let quiet = Barrier::new(threads + 1);
    let resume = Barrier::new(threads + 1);
    let (peaks, quiescent, flushed) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (collector, drops) = (&collector, Arc::clone(&drops));
                let (quiet, resume) = (&quiet, &resume);
                s.spawn(move || {
                    let handle = collector.register();
                    let (mut peak_total, mut peak_mailbox) = (0, 0);
                    for round in 0..ROUNDS {
                        // Uneven loads, so contributions and mailbox levels
                        // differ across threads and rounds.
                        for _ in 0..CAPACITY * (1 + (t + round) % 3) + t {
                            if hook {
                                handle.before_alloc();
                            }
                            let node = Box::into_raw(Box::new(Probe {
                                drops: Arc::clone(&drops),
                                _pad: [0; 4],
                            }));
                            // SAFETY: a fresh box nothing else points at.
                            unsafe { handle.retire(node) };
                            let parked = handle.mailbox_len();
                            peak_total = peak_total.max(handle.buffered() + parked);
                            peak_mailbox = peak_mailbox.max(parked);
                        }
                        quiet.wait();
                        resume.wait();
                    }
                    (peak_total, peak_mailbox)
                })
            })
            .collect();
        let (mut quiescent, mut flushed) = (Vec::new(), Vec::new());
        for round in 0..ROUNDS {
            quiet.wait();
            let snap = collector.stats();
            quiescent.push((
                collector.pending_estimate(),
                snap.outstanding(),
                snap.freed,
                drops.load(Ordering::SeqCst),
            ));
            if round % 2 == 1 {
                collector.collect_now();
                flushed.push((
                    collector.stats().outstanding(),
                    collector.pending_estimate(),
                ));
            }
            resume.wait();
        }
        let peaks: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("churn worker panicked"))
            .collect();
        (peaks, quiescent, flushed)
    });
    for (peak_total, peak_mailbox) in peaks {
        assert!(peak_total <= CAPACITY, "fresh + parked = {peak_total}");
        assert!(peak_mailbox <= CAPACITY / 2, "parked = {peak_mailbox}");
    }
    for (pending, outstanding, freed, dropped) in quiescent {
        assert_eq!(pending, outstanding, "a parked node is counted once");
        assert_eq!(freed, dropped);
    }
    // A forced flush at a quiescent point frees every live handle's
    // parked nodes, not only the caller's.
    assert_eq!(flushed, vec![(0, 0); ROUNDS / 2]);
    collector.collect_now();
    let snap = collector.stats();
    assert!(snap.mailbox_frees > 0, "owners must have freed their share");
    assert!(snap.alloc_frees <= snap.mailbox_frees);
    if hook {
        assert!(
            snap.alloc_frees > 0,
            "allocations must have freed parked nodes"
        );
        assert_eq!(snap.alloc_frees + snap.alloc_misses, snap.retired);
    } else {
        assert_eq!((snap.alloc_frees, snap.alloc_misses), (0, 0));
    }
    assert_eq!(snap.retired, snap.freed);
    assert_eq!(snap.freed, drops.load(Ordering::SeqCst));
}

#[test]
fn two_stage_invariants_hold_on_null_platform() {
    for threads in [2, 4] {
        churn(NullPlatform, threads, false);
    }
}

#[test]
fn two_stage_invariants_hold_when_allocations_free_parked_nodes() {
    for threads in [2, 4] {
        churn(NullPlatform, threads, true);
        churn(SimPlatform::direct(4), threads, true);
    }
}

#[test]
fn two_stage_invariants_hold_on_sim_platform() {
    for threads in [2, 4] {
        churn(SimPlatform::direct(4), threads, false);
    }
}
