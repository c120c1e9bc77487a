//! Virtual signals: a deterministic [`threadscan::Platform`].
//!
//! Substitutes the OS mechanism with an in-process handshake over
//! [`ShadowStack`] root regions:
//!
//! * **Direct mode** — the reclaimer scans every registered record's
//!   shadow stack and heap blocks itself, synchronously. Fully
//!   deterministic; the workhorse for protocol model tests.
//! * **Handshake mode** — the reclaimer publishes the session and waits for
//!   threads to notice it at their next [`SimPlatform::poll`]; after a
//!   grace period it force-scans the laggards. The force-scan models the
//!   paper's central progress property: the OS delivers a signal to a
//!   thread no matter what its application code is doing, so a stalled
//!   thread cannot stall reclamation.
//!
//! Per-record round CAS guarantees exactly one scan + ack per record per
//! round even when a poll races the force-scan.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use threadscan::{Platform, ScanOutcome, ScanSession, SelfScanContext, ThreadRoots};

use crate::shadow::ShadowStack;

/// Delivery behaviour for virtual signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// The reclaimer scans everyone synchronously. Deterministic.
    Direct,
    /// Wait for cooperative [`SimPlatform::poll`]s for `grace`; then
    /// force-scan non-responders (models guaranteed OS delivery).
    Handshake {
        /// How long to wait for polls before force-scanning.
        grace: Duration,
    },
}

/// One registered simulated thread.
pub struct SimRecord {
    shadow: Arc<ShadowStack>,
    roots: Arc<ThreadRoots>,
    /// Real thread that created the registration: the reclaimer self-scans
    /// its own records instead of waiting for a poll it could never make.
    tid: std::thread::ThreadId,
    /// Round id this record last scanned in (CAS-guarded).
    scanned_round: AtomicUsize,
}

impl SimRecord {
    /// The record's shadow stack.
    pub fn shadow(&self) -> &Arc<ShadowStack> {
        &self.shadow
    }

    /// Scans this record against `session` if it has not yet scanned in
    /// `round`; returns whether this call performed the scan.
    fn try_scan(&self, session: &ScanSession<'_>, round: usize) -> bool {
        let prev = self.scanned_round.load(Ordering::Acquire);
        if prev >= round {
            return false;
        }
        if self
            .scanned_round
            .compare_exchange(prev, round, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false; // someone else claimed this round
        }
        self.shadow.scan(session);
        self.roots.scan(session);
        session.ack();
        true
    }
}

/// What a poll needs to take part in a round.
#[derive(Clone, Copy)]
struct ActiveRound {
    /// Address of the reclaimer's `ScanSession` (kept as an integer so
    /// the lock stays `Sync`).
    session: usize,
    round: usize,
}

struct Inner {
    mode: SimMode,
    shadow_slots: usize,
    records: Mutex<Vec<Arc<SimRecord>>>,
    /// The in-flight handshake round, if any. Polls hold the read lock
    /// while they scan; the reclaimer takes the write lock to open and to
    /// close a round, so a poll never pairs one round's session with
    /// another round's number, nor outlives the session it scans.
    active: RwLock<Option<ActiveRound>>,
    round: AtomicUsize,
    rounds_completed: AtomicUsize,
    force_scans: AtomicUsize,
}

/// The simulated platform. Clone-able handle (shared interior).
pub struct SimPlatform {
    inner: Arc<Inner>,
}

impl SimPlatform {
    /// Direct-mode platform whose shadow stacks have `shadow_slots` slots.
    pub fn direct(shadow_slots: usize) -> Self {
        Self::with_mode(SimMode::Direct, shadow_slots)
    }

    /// Handshake-mode platform.
    pub fn handshake(shadow_slots: usize, grace: Duration) -> Self {
        Self::with_mode(SimMode::Handshake { grace }, shadow_slots)
    }

    /// Platform with an explicit mode.
    pub fn with_mode(mode: SimMode, shadow_slots: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                mode,
                shadow_slots,
                records: Mutex::new(Vec::new()),
                active: RwLock::new(None),
                round: AtomicUsize::new(0),
                rounds_completed: AtomicUsize::new(0),
                force_scans: AtomicUsize::new(0),
            }),
        }
    }

    /// Records registered so far, in registration order. Records of dropped
    /// registrations are removed.
    pub fn records(&self) -> Vec<Arc<SimRecord>> {
        self.inner.records.lock().clone()
    }

    /// The `i`-th live record's shadow stack (registration order).
    pub fn shadow(&self, i: usize) -> Arc<ShadowStack> {
        Arc::clone(self.inner.records.lock()[i].shadow())
    }

    /// Completed scan rounds.
    pub fn rounds_completed(&self) -> usize {
        self.inner.rounds_completed.load(Ordering::Relaxed)
    }

    /// Records scanned by the reclaimer on behalf of a non-polling thread.
    pub fn force_scans(&self) -> usize {
        self.inner.force_scans.load(Ordering::Relaxed)
    }

    /// Cooperative scan point for handshake mode: if a round is in flight
    /// and this record has not scanned yet, scan now. Returns whether a
    /// scan was performed.
    ///
    /// Call it from simulated application code at its "safe points" — the
    /// analogue of the OS delivering a signal at an arbitrary instruction.
    pub fn poll(&self, record: &SimRecord) -> bool {
        let active = self.inner.active.read();
        let Some(ActiveRound { session, round }) = *active else {
            return false;
        };
        // SAFETY: `active` (the read guard) lives until this function
        // returns, and the reclaimer cannot close the round (after which
        // its session dies) without the write lock.
        let session: &ScanSession<'_> = unsafe { &*(session as *const ScanSession<'_>) };
        record.try_scan(session, round)
    }
}

impl Clone for SimPlatform {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// RAII registration for the simulated platform.
pub struct SimToken {
    inner: Arc<Inner>,
    rec: Arc<SimRecord>,
}

impl SimToken {
    /// The record created by this registration.
    pub fn record(&self) -> &Arc<SimRecord> {
        &self.rec
    }
}

impl Drop for SimToken {
    fn drop(&mut self) {
        self.inner
            .records
            .lock()
            .retain(|r| !Arc::ptr_eq(r, &self.rec));
    }
}

// SAFETY: `scan_all` scans every registered record's shadow stack and heap
// blocks (directly or via poll/force-scan) before returning, and each
// record acks exactly once per round (round CAS). Shadow stacks *are* the
// simulated threads' entire private memory, fulfilling the contract.
unsafe impl Platform for SimPlatform {
    type ThreadToken = SimToken;

    fn register_current(&self, roots: Arc<ThreadRoots>) -> SimToken {
        let rec = Arc::new(SimRecord {
            shadow: Arc::new(ShadowStack::new(self.inner.shadow_slots)),
            roots,
            tid: std::thread::current().id(),
            scanned_round: AtomicUsize::new(0),
        });
        self.inner.records.lock().push(Arc::clone(&rec));
        SimToken {
            inner: Arc::clone(&self.inner),
            rec,
        }
    }

    fn scan_all(&self, session: &ScanSession<'_>, _reclaimer: &SelfScanContext) -> ScanOutcome {
        // The reclaimer's private memory is its shadow stack (a record like
        // any other), so the boundary context is not needed here.
        let snapshot: Vec<Arc<SimRecord>> = self.inner.records.lock().clone();
        if snapshot.is_empty() {
            return ScanOutcome { threads_scanned: 0 };
        }
        let round = self.inner.round.fetch_add(1, Ordering::AcqRel) + 1;
        let expected = snapshot.len();

        match self.inner.mode {
            SimMode::Direct => {
                for rec in &snapshot {
                    rec.try_scan(session, round);
                }
            }
            SimMode::Handshake { grace } => {
                *self.inner.active.write() = Some(ActiveRound {
                    session: session as *const ScanSession<'_> as usize,
                    round,
                });
                // The reclaimer scans its own records up front — it is busy
                // waiting below and could never reach a poll point (this is
                // the analogue of the reclaimer executing TS-Scan itself,
                // Algorithm 1 line 7).
                let me = std::thread::current().id();
                for rec in snapshot.iter().filter(|r| r.tid == me) {
                    rec.try_scan(session, round);
                }
                let start = Instant::now();
                while session.acks_received() < expected {
                    if start.elapsed() >= grace {
                        // Grace expired: deliver the "signal" ourselves.
                        for rec in &snapshot {
                            if rec.try_scan(session, round) {
                                self.inner.force_scans.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    } else {
                        std::thread::yield_now();
                    }
                }
                *self.inner.active.write() = None;
            }
        }

        // In either mode every snapshot record has scanned exactly once.
        debug_assert!(session.acks_received() >= expected);
        self.inner.rounds_completed.fetch_add(1, Ordering::Relaxed);
        ScanOutcome {
            threads_scanned: expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as Counter;
    use threadscan::{Collector, CollectorConfig};

    struct Node {
        counter: Arc<Counter>,
        _pad: [u8; 56],
    }
    impl Drop for Node {
        fn drop(&mut self) {
            self.counter.fetch_add(1, Ordering::SeqCst);
        }
    }
    fn node(c: &Arc<Counter>) -> *mut Node {
        Box::into_raw(Box::new(Node {
            counter: Arc::clone(c),
            _pad: [0; 56],
        }))
    }

    #[test]
    fn direct_mode_respects_shadow_roots() {
        let platform = SimPlatform::direct(8);
        let collector = Collector::with_config(
            platform.clone(),
            CollectorConfig::default().with_buffer_capacity(4),
        );
        let handle = collector.register();
        let drops = Arc::new(Counter::new(0));

        let pinned = node(&drops);
        let shadow = platform.shadow(0);
        let slot = shadow.publish(pinned as usize).unwrap();

        unsafe { handle.retire(pinned) };
        for _ in 0..3 {
            unsafe { handle.retire(node(&drops)) };
        }
        handle.flush(); // frees what the phases found unreferenced
        assert_eq!(drops.load(Ordering::SeqCst), 3, "pinned node survives");

        shadow.retract(slot);
        collector.collect_now();
        assert_eq!(drops.load(Ordering::SeqCst), 4, "freed after retract");
        drop(handle);
    }

    #[test]
    fn handshake_mode_polling_thread_scans_itself() {
        let platform = SimPlatform::handshake(8, Duration::from_secs(5));
        let collector = Collector::with_config(
            platform.clone(),
            CollectorConfig::default().with_buffer_capacity(2),
        );
        let drops = Arc::new(Counter::new(0));

        // Simulated peer thread that cooperatively polls.
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            let peer_collector = Arc::clone(&collector);
            let peer_platform = platform.clone();
            let peer_done = Arc::clone(&done);
            let peer = s.spawn(move || {
                let handle = peer_collector.register();
                let rec = Arc::clone(&peer_platform.records()[0]);
                let mut polled = 0usize;
                while !peer_done.load(Ordering::SeqCst) {
                    if peer_platform.poll(&rec) {
                        polled += 1;
                    }
                    std::hint::spin_loop();
                }
                drop(handle);
                polled
            });

            // Give the peer time to register.
            while platform.records().is_empty() {
                std::thread::yield_now();
            }

            let handle = collector.register();
            unsafe { handle.retire(node(&drops)) };
            unsafe { handle.retire(node(&drops)) }; // each fills the fresh half → round
            handle.flush(); // one more round; frees what they found unreferenced
            assert_eq!(drops.load(Ordering::SeqCst), 2);

            done.store(true, Ordering::SeqCst);
            let polled = peer.join().unwrap();
            assert!(polled >= 1, "peer should have scanned via poll");
            assert_eq!(platform.force_scans(), 0, "no force-scan was needed");
            drop(handle);
        });
    }

    #[test]
    fn handshake_mode_force_scans_stalled_thread() {
        // Peer never polls; the reclaimer must make progress anyway —
        // the paper's key liveness property (§1.2: errors in data
        // structure code "will not prevent the protocol from progressing").
        let platform = SimPlatform::handshake(8, Duration::from_millis(5));
        let collector = Collector::with_config(
            platform.clone(),
            CollectorConfig::default().with_buffer_capacity(2),
        );
        let drops = Arc::new(Counter::new(0));

        // A "stalled" peer registered on another thread that never polls
        // (e.g. stuck in an infinite loop). Its shadow stack pins a node.
        let pinned = node(&drops);
        let pinned_addr = pinned as usize;
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            let stall_platform = platform.clone();
            let stall_done = Arc::clone(&done);
            s.spawn(move || {
                use threadscan::Platform as _;
                let token = stall_platform.register_current(Arc::new(ThreadRoots::new(4)));
                token.record().shadow().publish(pinned_addr).unwrap();
                // "Infinite loop": never polls.
                while !stall_done.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                drop(token);
            });
            while platform.records().is_empty() {
                std::thread::yield_now();
            }

            let handle = collector.register();
            unsafe { handle.retire(pinned) };
            unsafe { handle.retire(node(&drops)) }; // each triggers a round
            handle.flush(); // one more round; frees what they found unreferenced
            assert_eq!(
                drops.load(Ordering::SeqCst),
                1,
                "unpinned node freed despite the stalled thread"
            );
            assert!(platform.force_scans() >= 1, "laggard was force-scanned");
            assert_eq!(collector.pending_estimate(), 1, "pinned node survives");
            done.store(true, Ordering::SeqCst);
            drop(handle);
        });
        drop(collector);
        assert_eq!(drops.load(Ordering::SeqCst), 2, "drop reclaims survivor");
    }
}
