//! Integration: the simulated platform's handshake under real concurrency
//! — many real threads polling cooperatively, a reclaimer force-scanning
//! laggards, with full safety accounting. Complements the deterministic
//! model in `ts-simthread` by adding true parallel interleavings.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use threadscan::{Collector, CollectorConfig};
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

#[test]
fn concurrent_polling_threads_reclaim_safely() {
    let collector = Collector::with_config(
        SimPlatform::handshake(16, Duration::from_millis(20)),
        CollectorConfig::default().with_buffer_capacity(32),
    );
    let drops = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    const THREADS: usize = 4;
    const PER_THREAD: usize = 3_000;

    std::thread::scope(|s| {
        // Poller threads: simulated application threads that periodically
        // publish/retract roots and poll for scan requests.
        for _ in 0..THREADS {
            let collector = Arc::clone(&collector);
            let drops = Arc::clone(&drops);
            s.spawn(move || {
                let handle = collector.register();
                let rec = handle.record();
                let mut published: Option<(usize, usize)> = None;
                for i in 0..PER_THREAD {
                    let node = Box::into_raw(Box::new(Probe {
                        drops: Arc::clone(&drops),
                        _pad: [0; 4],
                    }));
                    // Occasionally hold a node via the shadow stack and
                    // retire it while "held".
                    if i % 7 == 0 {
                        if let Some(slot) = rec.shadow().publish(node as usize) {
                            // Retract the previous one, if any.
                            if let Some((old_slot, _)) = published.take() {
                                rec.shadow().retract(old_slot);
                            }
                            published = Some((slot, node as usize));
                        }
                    }
                    collector.platform().poll(rec);
                    // SAFETY: node is unreachable from shared memory; at
                    // most our own shadow stack roots it.
                    unsafe { handle.retire(node) };
                }
                if let Some((slot, _)) = published {
                    rec.shadow().retract(slot);
                }
                drop(handle);
            });
        }
        stop.store(true, Ordering::Relaxed);
    });

    collector.collect_now();
    collector.collect_now();
    let st = collector.stats();
    assert_eq!(st.retired, THREADS * PER_THREAD);
    assert_eq!(
        drops.load(Ordering::SeqCst),
        st.freed,
        "drop instrumentation and collector accounting must agree"
    );
    assert_eq!(
        st.freed,
        THREADS * PER_THREAD,
        "all roots retracted ⇒ everything reclaimed"
    );
}

#[test]
fn force_scan_keeps_reclaimer_live_despite_stalled_pollers() {
    // Threads that never poll: every phase must be completed by
    // force-scans, and throughput of phases must not be zero.
    let collector = Collector::with_config(
        SimPlatform::handshake(4, Duration::from_millis(1)),
        CollectorConfig::default().with_buffer_capacity(16),
    );
    let platform = collector.platform();
    let drops = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    // The worker must not start retiring until the stalled thread is
    // registered, or (on a loaded box) every phase can finish first and
    // nothing is left to force-scan.
    let registered = std::sync::Barrier::new(2);

    std::thread::scope(|s| {
        // A stalled registered thread (never polls).
        {
            let collector = Arc::clone(&collector);
            let stop = Arc::clone(&stop);
            let registered = &registered;
            s.spawn(move || {
                let _handle = collector.register();
                registered.wait();
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        // The worker that retires.
        let collector2 = Arc::clone(&collector);
        let drops2 = Arc::clone(&drops);
        let stop2 = Arc::clone(&stop);
        let registered = &registered;
        s.spawn(move || {
            let handle = collector2.register();
            registered.wait();
            for _ in 0..500 {
                let node = Box::into_raw(Box::new(Probe {
                    drops: Arc::clone(&drops2),
                    _pad: [0; 4],
                }));
                unsafe { handle.retire(node) };
            }
            drop(handle);
            stop2.store(true, Ordering::Relaxed);
        });
    });

    collector.collect_now();
    assert_eq!(drops.load(Ordering::SeqCst), 500);
    assert!(
        platform.force_scans() > 0,
        "the stalled thread must have been force-scanned"
    );
    assert!(collector.stats().collects > 0);
}

/// Set by [`note_sort_end`] once a collect has sorted its master buffer,
/// i.e. right before its scan round opens.
static SORTED: AtomicBool = AtomicBool::new(false);

fn note_sort_end(event: threadscan::PhaseEvent) {
    if event.kind == threadscan::PhaseKind::SortEnd {
        SORTED.store(true, Ordering::SeqCst);
    }
}

#[test]
fn a_thread_registered_mid_round_cannot_ack_it() {
    // Lemma 1 with a late registrant: the round waits for the records
    // registered when it opened. A record registered after that must not
    // be able to ack in their place, or the round would end before the
    // stalled record Y (the only root of `n`) has scanned. Registration
    // waits out the round, so X's record exists only once it has ended:
    // X's `register` returns only after the round has completed.
    let collector = Collector::with_config(
        SimPlatform::handshake(4, Duration::from_millis(1500)),
        CollectorConfig::default().with_telemetry(threadscan::TelemetrySink {
            record: note_sort_end,
        }),
    );
    let platform = collector.platform();
    let drops = Arc::new(AtomicUsize::new(0));
    let n = Box::into_raw(Box::new(Probe {
        drops: Arc::clone(&drops),
        _pad: [0; 4],
    }));
    let n_addr = n as usize;
    let published = std::sync::Barrier::new(2);
    let flushed = AtomicBool::new(false);

    let (rounds_at_register, late_acked) = std::thread::scope(|s| {
        // Y: registers, roots `n` in its shadow stack, never polls.
        s.spawn(|| {
            let handle = collector.register();
            handle.record().shadow().publish(n_addr).unwrap();
            published.wait();
            while !flushed.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        // X: registers once the round is under way, then polls.
        let late = s.spawn(|| {
            while !SORTED.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(100));
            let before = collector.stats().collects;
            let handle = collector.register();
            let rounds = (before, collector.stats().collects);
            let start = std::time::Instant::now();
            let mut acked = false;
            while start.elapsed() < Duration::from_millis(300) {
                acked |= platform.poll(handle.record());
                std::thread::yield_now();
            }
            (rounds, acked)
        });

        let handle = collector.register();
        published.wait();
        // SAFETY: `n` is unreachable from shared memory; only Y roots it.
        unsafe { handle.retire(n) };
        handle.flush();
        let late = late.join().unwrap();
        flushed.store(true, Ordering::SeqCst);
        drop(handle);
        late
    });

    assert_eq!(
        rounds_at_register,
        (0, 1),
        "the late registrant did not wait out the round under way"
    );
    assert!(!late_acked, "a record registered mid-round acked the round");
    assert_eq!(
        drops.load(Ordering::SeqCst),
        0,
        "a node rooted in a registered shadow stack was freed"
    );
    drop(collector);
    assert_eq!(
        drops.load(Ordering::SeqCst),
        1,
        "drop reclaims the survivor"
    );
}

/// Set by [`note_announce`] once a collect has opened its scan round.
static ANNOUNCED: AtomicBool = AtomicBool::new(false);

fn note_announce(event: threadscan::PhaseEvent) {
    if event.kind == threadscan::PhaseKind::Announce {
        ANNOUNCED.store(true, Ordering::SeqCst);
    }
}

#[test]
fn stats_never_waits_for_a_phase() {
    // `stats()` takes the registry lock and each thread's stages lock,
    // never the reclaimer lock. While a round waits out its grace period
    // on a registered thread that never polls, another thread's `stats()`
    // returns at once, with the retires made before the round opened.
    const GRACE: Duration = Duration::from_secs(2);
    const RETIRES: usize = 3;
    let collector = Collector::with_config(
        SimPlatform::handshake(4, GRACE),
        CollectorConfig::default()
            .with_buffer_capacity(8)
            .with_telemetry(threadscan::TelemetrySink {
                record: note_announce,
            }),
    );
    let drops = Arc::new(AtomicUsize::new(0));
    let registered = std::sync::Barrier::new(2);
    let flushed = AtomicBool::new(false);

    let (waited, snap) = std::thread::scope(|s| {
        // Y: registered, never polls, so the round waits the whole grace
        // period for it.
        s.spawn(|| {
            let _handle = collector.register();
            registered.wait();
            while !flushed.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        // The reclaimer: retires below its trigger, then forces a phase.
        s.spawn(|| {
            let handle = collector.register();
            registered.wait();
            for _ in 0..RETIRES {
                let node = Box::into_raw(Box::new(Probe {
                    drops: Arc::clone(&drops),
                    _pad: [0; 4],
                }));
                // SAFETY: `node` was never shared.
                unsafe { handle.retire(node) };
            }
            handle.flush();
            flushed.store(true, Ordering::SeqCst);
        });
        while !ANNOUNCED.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let start = std::time::Instant::now();
        let snap = collector.stats();
        (start.elapsed(), snap)
    });

    assert!(waited < GRACE / 4, "stats() took {waited:?} during a round");
    assert_eq!(snap.collects, 0, "stats() returned only after the phase");
    assert_eq!(snap.retired, RETIRES);
    assert_eq!(
        drops.load(Ordering::SeqCst),
        RETIRES,
        "the phase freed them"
    );
}
