//! Process-global concerns of the signal platform: multiple collectors,
//! custom signals, and rounds of different collectors overlapping.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use threadscan::{Collector, CollectorConfig};
use ts_sigscan::SignalPlatform;

struct Probe {
    drops: Arc<AtomicUsize>,
    _pad: [u64; 4],
}
impl Drop for Probe {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

fn probe(drops: &Arc<AtomicUsize>) -> *mut Probe {
    Box::into_raw(Box::new(Probe {
        drops: Arc::clone(drops),
        _pad: [0; 4],
    }))
}

#[inline(never)]
fn retire_unheld(
    handle: &threadscan::ThreadHandle<SignalPlatform>,
    drops: &Arc<AtomicUsize>,
    n: usize,
) {
    for _ in 0..n {
        // SAFETY: fresh nodes, never shared.
        unsafe { handle.retire(probe(drops)) };
    }
}

#[test]
fn two_collectors_share_the_process_amicably() {
    // Two independent collectors (e.g. two libraries in one process) with
    // separate registries must both reclaim. Their rounds may overlap:
    // each waits only for its own registrations' acks.
    let c1 = Collector::with_config(
        SignalPlatform::new().unwrap(),
        CollectorConfig::default().with_buffer_capacity(16),
    );
    let c2 = Collector::with_config(
        SignalPlatform::new().unwrap(),
        CollectorConfig::default().with_buffer_capacity(16),
    );
    let d1 = Arc::new(AtomicUsize::new(0));
    let d2 = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        for _ in 0..2 {
            let c1 = Arc::clone(&c1);
            let c2 = Arc::clone(&c2);
            let d1 = Arc::clone(&d1);
            let d2 = Arc::clone(&d2);
            s.spawn(move || {
                // One thread registered with BOTH collectors (the TLS
                // record list must handle this).
                let h1 = c1.register();
                let h2 = c2.register();
                for _ in 0..40 {
                    retire_unheld(&h1, &d1, 8);
                    retire_unheld(&h2, &d2, 8);
                }
                drop(h2);
                drop(h1);
            });
        }
    });
    c1.collect_now();
    c2.collect_now();
    assert_eq!(d1.load(Ordering::SeqCst), 2 * 40 * 8);
    assert_eq!(d2.load(Ordering::SeqCst), 2 * 40 * 8);
}

/// Publishes a fresh probe's address in `slot` from a frame that dies on
/// return, so the caller's frames never hold it.
#[inline(never)]
fn publish_probe(slot: &AtomicUsize, drops: &Arc<AtomicUsize>) {
    slot.store(probe(drops) as usize, Ordering::SeqCst);
}

/// Retires the probe published in `slot`, again from a dying frame.
#[inline(never)]
fn retire_published(handle: &threadscan::ThreadHandle<SignalPlatform>, slot: &AtomicUsize) {
    // SAFETY: the probe is unlinked from `slot` here and retired once;
    // only the peer's stack still holds it.
    unsafe { handle.retire(slot.swap(0, Ordering::SeqCst) as *mut Probe) };
}

/// Holds the probe published in `slot` on this stack while `work` runs,
/// then reads through it.
#[inline(never)]
fn hold_while(slot: &AtomicUsize, barrier: &Barrier, work: impl FnOnce()) -> u64 {
    let held = std::hint::black_box(slot.load(Ordering::SeqCst) as *const Probe);
    barrier.wait(); // both hold the other's probe
    work();
    barrier.wait(); // both flush loops are done
                    // SAFETY: a probe held on a registered thread's stack is never freed.
    unsafe { (*std::hint::black_box(held))._pad[0] }
}

#[test]
fn overlapping_rounds_of_two_collectors_wait_only_for_their_own() {
    // Two collectors and two threads, each registered with both. Thread i
    // flushes collector i in a loop while thread 1 − i holds one of
    // collector i's probes on its stack, so each reclaimer takes the other
    // collector's signal while it waits for its own round's acks.
    const FLUSHES: usize = 200;
    const BOUND: Duration = Duration::from_secs(60);
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let collectors: [_; 2] = std::array::from_fn(|_| {
            Collector::with_config(
                SignalPlatform::new().unwrap(),
                CollectorConfig::default().with_buffer_capacity(1 << 10),
            )
        });
        let drops: [_; 2] = std::array::from_fn(|_| Arc::new(AtomicUsize::new(0)));
        let slots: [_; 2] = std::array::from_fn(|_| AtomicUsize::new(0));
        let barrier = Barrier::new(2);
        // Per collector: (rounds, registrations scanned, probe freed while
        // held, value read through the held probe).
        let outcomes: Vec<(usize, usize, bool, u64)> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|i| {
                    let (collectors, drops, slots, barrier) =
                        (&collectors, &drops, &slots, &barrier);
                    s.spawn(move || {
                        let handles = [collectors[0].register(), collectors[1].register()];
                        publish_probe(&slots[i], &drops[i]);
                        barrier.wait(); // both published
                        let before = collectors[i].stats();
                        let mut freed_while_held = false;
                        let read = hold_while(&slots[1 - i], barrier, || {
                            retire_published(&handles[i], &slots[i]);
                            for _ in 0..FLUSHES {
                                handles[i].flush();
                                freed_while_held |= drops[i].load(Ordering::SeqCst) > 0;
                            }
                        });
                        let after = collectors[i].stats();
                        (
                            after.collects - before.collects,
                            after.threads_scanned - before.threads_scanned,
                            freed_while_held,
                            read,
                        )
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let _ = done.send(outcomes);
    });
    let outcomes = outcome
        .recv_timeout(BOUND)
        .expect("the overlapping rounds did not finish within the bound");
    for (i, &(rounds, scanned, freed_while_held, read)) in outcomes.iter().enumerate() {
        assert!(
            !freed_while_held,
            "collector {i} freed a probe its peer held"
        );
        assert_eq!(read, 0, "the held probe of collector {i} was readable");
        // The held probe survives every phase, so every flush ran a round,
        // and each round scanned no more than the collector's two
        // registrations: all of them, every time.
        assert_eq!(rounds, FLUSHES, "collector {i}");
        assert_eq!(
            scanned,
            2 * rounds,
            "collector {i}: one scan per registration"
        );
    }
}

#[test]
fn custom_realtime_signal_works() {
    // Using SIGRTMIN+3 keeps SIGUSR1 free for the application.
    let signo = libc::SIGRTMIN() + 3;
    let platform = SignalPlatform::with_signal(signo).unwrap();
    assert_eq!(platform.signal(), signo);
    let collector =
        Collector::with_config(platform, CollectorConfig::default().with_buffer_capacity(8));
    let drops = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        let collector2 = Arc::clone(&collector);
        let drops2 = Arc::clone(&drops);
        s.spawn(move || {
            let handle = collector2.register();
            retire_unheld(&handle, &drops2, 64);
            drop(handle);
        });
    });
    collector.collect_now();
    assert_eq!(drops.load(Ordering::SeqCst), 64);
    assert!(collector.platform().rounds() > 0);
}

#[test]
fn rounds_count_signals_accurately() {
    let collector = Collector::with_config(
        SignalPlatform::new().unwrap(),
        CollectorConfig::default().with_buffer_capacity(1 << 20),
    );
    let drops = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let registered = Arc::new(std::sync::Barrier::new(3));

    std::thread::scope(|s| {
        // Two peer threads that stay registered during the rounds.
        for _ in 0..2 {
            let collector = Arc::clone(&collector);
            let stop = Arc::clone(&stop);
            let registered = Arc::clone(&registered);
            s.spawn(move || {
                let _handle = collector.register();
                registered.wait();
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let handle = collector.register();
        registered.wait();
        let rounds_before = collector.platform().rounds();
        let signals_before = collector.platform().signals_sent();
        retire_unheld(&handle, &drops, 4);
        handle.flush(); // one round: 2 peers signaled + self-scan
        assert_eq!(collector.platform().rounds(), rounds_before + 1);
        assert_eq!(
            collector.platform().signals_sent(),
            signals_before + 2,
            "exactly one signal per *other* registered thread"
        );
        stop.store(true, Ordering::Relaxed);
        drop(handle);
    });
}

#[test]
fn a_round_scans_each_of_its_registrations_and_no_other() {
    let collector = || {
        Collector::with_config(
            SignalPlatform::new().unwrap(),
            CollectorConfig::default().with_buffer_capacity(1 << 10),
        )
    };
    let (a, b) = (collector(), collector());
    let drops = Arc::new(AtomicUsize::new(0));
    let stop = std::sync::atomic::AtomicBool::new(false);
    let registered = std::sync::Barrier::new(2);

    // The peer's two A registrations and the main thread's one.
    const A_REGISTRATIONS: usize = 3;

    // Outcomes are read inside the scope and checked after it, so a
    // failed assertion cannot strand the spinning peer.
    let (a_scanned, b_rounds, b_scanned) = std::thread::scope(|s| {
        s.spawn(|| {
            // Twice with A, once with B; B's buffer gets nodes for its round.
            let _a1 = a.register();
            let _a2 = a.register();
            let in_b = b.register();
            retire_unheld(&in_b, &drops, 4);
            registered.wait();
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        let me = a.register();
        registered.wait();
        let (a_before, b_rounds_before) = (a.stats().threads_scanned, b.platform().rounds());
        retire_unheld(&me, &drops, 4);
        me.flush(); // A's round: the peer's two A records and ours
        let a_scanned = a.stats().threads_scanned - a_before;
        let b_rounds = b.platform().rounds() - b_rounds_before;
        let b_before = b.stats().threads_scanned;
        b.collect_now(); // B's round: the peer's one B record
        let b_scanned = b.stats().threads_scanned - b_before;
        stop.store(true, Ordering::Relaxed);
        (a_scanned, b_rounds, b_scanned)
    });
    assert_eq!(a_scanned, A_REGISTRATIONS, "one scan per A registration");
    assert_eq!(b_rounds, 0, "A's round ran no round of B");
    assert_eq!(b_scanned, 1, "A's round consumed the peer's claim on B");
}

#[test]
fn many_threads_heavy_retire_traffic_is_leak_free() {
    let collector = Collector::with_config(
        SignalPlatform::new().unwrap(),
        CollectorConfig::default().with_buffer_capacity(64),
    );
    let drops = Arc::new(AtomicUsize::new(0));
    const THREADS: usize = 8;
    const PER_THREAD: usize = 5_000;

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let collector = Arc::clone(&collector);
            let drops = Arc::clone(&drops);
            s.spawn(move || {
                let handle = collector.register();
                retire_unheld(&handle, &drops, PER_THREAD);
                drop(handle);
            });
        }
    });
    collector.collect_now();
    collector.collect_now();
    let st = collector.stats();
    assert_eq!(st.retired, THREADS * PER_THREAD);
    assert_eq!(
        drops.load(Ordering::SeqCst) + collector.pending_estimate(),
        THREADS * PER_THREAD
    );
    // All worker stacks are gone; only residue on the main thread's stack
    // could pin anything, and these nodes never lived there.
    assert_eq!(
        drops.load(Ordering::SeqCst),
        THREADS * PER_THREAD,
        "all nodes must be reclaimed"
    );
}
