//! Virtual signals: a deterministic [`threadscan::Platform`].
//!
//! Substitutes the OS mechanism with an in-process handshake over
//! [`ShadowStack`] root regions, run through [`threadscan::Round`] as the
//! signal platform's rounds are. The reclaimer opens a round and waits for
//! threads to notice it at their next [`SimPlatform::poll`]; after a grace
//! period it force-scans the laggards. The force-scan models the paper's
//! central progress property: the OS delivers a signal to a thread no
//! matter what its application code is doing, so a stalled thread cannot
//! stall reclamation. With no grace ([`SimPlatform::direct`]) the
//! reclaimer force-scans every record at once: deterministic, the
//! workhorse for protocol model tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use threadscan::{
    Platform, Round, ScanClaim, ScanOutcome, ScanSession, SelfScanContext, ThreadRoots,
};

use crate::shadow::ShadowStack;

/// One registered simulated thread.
pub struct SimRecord {
    shadow: Arc<ShadowStack>,
    roots: Arc<ThreadRoots>,
    /// Real thread that created the registration: the reclaimer self-scans
    /// its own records instead of waiting for a poll it could never make.
    tid: std::thread::ThreadId,
    /// The last round this record scanned in: a poll and a force-scan
    /// ack a round exactly once between them.
    claim: ScanClaim,
}

impl SimRecord {
    /// The record's shadow stack.
    pub fn shadow(&self) -> &Arc<ShadowStack> {
        &self.shadow
    }

    /// Scans this record in `round`'s open round unless it already has;
    /// returns whether this call scanned.
    fn scan_in(&self, round: &Round) -> bool {
        round.scan_once(&self.claim, |session| {
            self.shadow.scan(session);
            self.roots.scan(session);
        })
    }
}

struct Inner {
    grace: Duration,
    shadow_slots: usize,
    records: Mutex<Vec<Arc<SimRecord>>>,
    /// Opened under the `records` lock, which registrations take their
    /// claims under: a record registered mid-round cannot ack that round.
    round: Round,
    rounds_completed: AtomicUsize,
    force_scans: AtomicUsize,
}

/// The simulated platform. Clone-able handle (shared interior).
#[derive(Clone)]
pub struct SimPlatform {
    inner: Arc<Inner>,
}

impl SimPlatform {
    /// A platform whose reclaimer force-scans every record at once
    /// ([`SimPlatform::handshake`] with no grace), with shadow stacks of
    /// `shadow_slots` slots.
    pub fn direct(shadow_slots: usize) -> Self {
        Self::handshake(shadow_slots, Duration::ZERO)
    }

    /// A platform whose reclaimer waits `grace` for polls, then
    /// force-scans the records that have not scanned.
    pub fn handshake(shadow_slots: usize, grace: Duration) -> Self {
        Self {
            inner: Arc::new(Inner {
                grace,
                shadow_slots,
                records: Mutex::new(Vec::new()),
                round: Round::new(),
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

    /// Cooperative scan point: if a round that counts on `record` is in
    /// flight and `record` has not scanned in it yet, scan now. Returns
    /// whether a scan was performed.
    ///
    /// Call it from simulated application code at its "safe points" — the
    /// analogue of the OS delivering a signal at an arbitrary instruction.
    pub fn poll(&self, record: &SimRecord) -> bool {
        record.scan_in(&self.inner.round)
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

// SAFETY: `scan_all` opens the round on a snapshot of the records, taken
// under the lock that registrations take their claims under, and returns
// only once every snapshot record has acked: by poll, self-scan or
// force-scan, exactly once each (`ScanClaim`). Shadow stacks *are* the
// simulated threads' entire private memory, fulfilling the contract. One
// collector per platform, whose reclaimer lock keeps rounds apart.
unsafe impl Platform for SimPlatform {
    type ThreadToken = SimToken;

    fn register_current(&self, roots: Arc<ThreadRoots>) -> SimToken {
        let mut records = self.inner.records.lock();
        let rec = Arc::new(SimRecord {
            shadow: Arc::new(ShadowStack::new(self.inner.shadow_slots)),
            roots,
            tid: std::thread::current().id(),
            claim: ScanClaim::at(&self.inner.round),
        });
        records.push(Arc::clone(&rec));
        SimToken {
            inner: Arc::clone(&self.inner),
            rec,
        }
    }

    fn scan_all(&self, session: &ScanSession<'_>, _reclaimer: &SelfScanContext) -> ScanOutcome {
        // The reclaimer's private memory is its shadow stack (a record like
        // any other), so the boundary context is not needed here.
        let round = &self.inner.round;
        let snapshot: Vec<Arc<SimRecord>> = {
            let records = self.inner.records.lock();
            if records.is_empty() {
                return ScanOutcome { threads_scanned: 0 };
            }
            // SAFETY: one collector's reclaimer lock serialises rounds, and
            // the round closes below after all `records` have acked.
            unsafe { round.open(session) };
            records.clone()
        };
        // The reclaimer scans its own records up front — it is busy waiting
        // below and could never reach a poll point (this is the analogue of
        // the reclaimer executing TS-Scan itself, Algorithm 1 line 7).
        let me = std::thread::current().id();
        for rec in snapshot.iter().filter(|r| r.tid == me) {
            rec.scan_in(round);
        }
        round.wait(session, snapshot.len(), self.inner.grace, || {
            // Grace expired: deliver the "signal" ourselves.
            for rec in &snapshot {
                if rec.scan_in(round) {
                    self.inner.force_scans.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        round.close();
        self.inner.rounds_completed.fetch_add(1, Ordering::Relaxed);
        ScanOutcome {
            threads_scanned: snapshot.len(),
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

    /// Events of the kinds a round stamps, counted by code.
    static ROUND_EVENTS: [Counter; 16] = [const { Counter::new(0) }; 16];

    fn count_round_event(event: threadscan::PhaseEvent) {
        use threadscan::PhaseKind::{AllAcked, ScanBegin, ScanEnd};
        if matches!(event.kind, ScanBegin | ScanEnd | AllAcked) {
            ROUND_EVENTS[event.kind.code() as usize].fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_round_stamps_one_scan_span_per_record_and_one_all_acked() {
        use threadscan::PhaseKind::{AllAcked, ScanBegin, ScanEnd};
        let platform = SimPlatform::direct(8);
        let collector = Collector::with_config(
            platform.clone(),
            CollectorConfig::default().with_telemetry(threadscan::TelemetrySink {
                record: count_round_event,
            }),
        );
        let drops = Arc::new(Counter::new(0));
        let handle = collector.register();
        // A second record on this thread (self-scanned) and one on a thread
        // that never polls (force-scanned).
        let mine = platform.register_current(Arc::new(ThreadRoots::new(4)));
        let registered = std::sync::Barrier::new(2);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let token = platform.register_current(Arc::new(ThreadRoots::new(4)));
                registered.wait();
                while !done.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                drop(token);
            });
            registered.wait();
            unsafe { handle.retire(node(&drops)) };
            collector.collect_now();
            done.store(true, Ordering::SeqCst);
        });
        let count =
            |k: threadscan::PhaseKind| ROUND_EVENTS[k.code() as usize].load(Ordering::SeqCst);
        assert_eq!(platform.rounds_completed(), 1);
        assert_eq!(
            (count(ScanBegin), count(ScanEnd)),
            (3, 3),
            "one pair per record"
        );
        assert_eq!(count(AllAcked), 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(mine);
        drop(handle);
    }
}
