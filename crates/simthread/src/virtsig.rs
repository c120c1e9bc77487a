//! Virtual signals: a deterministic [`threadscan::Platform`].
//!
//! Substitutes the OS mechanism with an in-process handshake over
//! [`ShadowStack`] root regions, run through [`threadscan::Round`] as the
//! signal platform's rounds are. The collector keeps the records, one
//! [`SimRecord`] per registration (reach it with
//! `ThreadHandle::record`), and passes a round those of its registered
//! threads. The reclaimer opens the round and waits for
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

use threadscan::{
    Platform, RegistryKey, Round, ScanClaim, ScanOutcome, ScanSession, SelfScanContext, ThreadRoots,
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

/// The simulated platform. Not `Clone`: its collector is its one
/// registry, and reaches it as [`threadscan::Collector::platform`].
pub struct SimPlatform {
    grace: Duration,
    shadow_slots: usize,
    /// Opened under the collector's reclaimer lock, which registrations
    /// take their claims under: a record registered mid-round cannot ack
    /// that round.
    round: Round,
    rounds_completed: AtomicUsize,
    force_scans: AtomicUsize,
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
            grace,
            shadow_slots,
            round: Round::new(),
            rounds_completed: AtomicUsize::new(0),
            force_scans: AtomicUsize::new(0),
        }
    }

    /// Completed scan rounds.
    pub fn rounds_completed(&self) -> usize {
        self.rounds_completed.load(Ordering::Relaxed)
    }

    /// Records scanned by the reclaimer on behalf of a non-polling thread.
    pub fn force_scans(&self) -> usize {
        self.force_scans.load(Ordering::Relaxed)
    }

    /// Cooperative scan point: if a round that counts on `record` is in
    /// flight and `record` has not scanned in it yet, scan now. Returns
    /// whether a scan was performed.
    ///
    /// Call it from simulated application code at its "safe points" — the
    /// analogue of the OS delivering a signal at an arbitrary instruction.
    pub fn poll(&self, record: &SimRecord) -> bool {
        record.scan_in(&self.round)
    }
}

// SAFETY: `scan_all` opens the round for the records it is given, which
// the collector's reclaimer lock keeps apart from registrations (and their
// claims) and from the platform's other rounds, and returns only once each
// of them has acked: by poll, self-scan or force-scan, exactly once each
// (`ScanClaim`). The platform is not `Clone`, so the collector that owns it
// makes all of its registrations and rounds. Shadow stacks *are* the
// simulated threads' entire private memory, fulfilling the contract.
unsafe impl Platform for SimPlatform {
    type Record = SimRecord;

    fn register_current(&self, _: &RegistryKey, roots: Arc<ThreadRoots>) -> SimRecord {
        SimRecord {
            shadow: Arc::new(ShadowStack::new(self.shadow_slots)),
            roots,
            tid: std::thread::current().id(),
            claim: ScanClaim::at(&self.round),
        }
    }

    fn unregister_current(&self, _: &RegistryKey, _record: &SimRecord) {}

    fn scan_all<'r>(
        &self,
        _: &RegistryKey,
        session: &ScanSession<'_>,
        _reclaimer: &SelfScanContext,
        records: impl ExactSizeIterator<Item = &'r SimRecord>,
    ) -> ScanOutcome {
        // The reclaimer's private memory is its shadow stack (a record like
        // any other), so the boundary context is not needed here.
        let round = &self.round;
        let snapshot: Vec<&SimRecord> = records.collect();
        if snapshot.is_empty() {
            return ScanOutcome { threads_scanned: 0 };
        }
        // SAFETY: one collector's reclaimer lock serialises rounds, and the
        // round closes below after all of `snapshot` have acked.
        unsafe { round.open(session) };
        // The reclaimer scans its own records up front — it is busy waiting
        // below and could never reach a poll point (this is the analogue of
        // the reclaimer executing TS-Scan itself, Algorithm 1 line 7).
        let me = std::thread::current().id();
        for rec in snapshot.iter().filter(|r| r.tid == me) {
            rec.scan_in(round);
        }
        round.wait(session, snapshot.len(), self.grace, || {
            // Grace expired: deliver the "signal" ourselves.
            for rec in &snapshot {
                if rec.scan_in(round) {
                    self.force_scans.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        round.close();
        self.rounds_completed.fetch_add(1, Ordering::Relaxed);
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
        let collector = Collector::with_config(
            SimPlatform::direct(8),
            CollectorConfig::default().with_buffer_capacity(4),
        );
        let handle = collector.register();
        let drops = Arc::new(Counter::new(0));

        let pinned = node(&drops);
        let shadow = handle.record().shadow();
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
        let collector = Collector::with_config(
            SimPlatform::handshake(8, Duration::from_secs(5)),
            CollectorConfig::default().with_buffer_capacity(2),
        );
        let platform = collector.platform();
        let drops = Arc::new(Counter::new(0));

        // Simulated peer thread that cooperatively polls.
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let registered = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let peer_collector = Arc::clone(&collector);
            let peer_done = Arc::clone(&done);
            let registered = &registered;
            let peer = s.spawn(move || {
                let handle = peer_collector.register();
                registered.wait();
                let mut polled = 0usize;
                while !peer_done.load(Ordering::SeqCst) {
                    if peer_collector.platform().poll(handle.record()) {
                        polled += 1;
                    }
                    std::hint::spin_loop();
                }
                drop(handle);
                polled
            });

            // Let the peer register first.
            registered.wait();

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
        let collector = Collector::with_config(
            SimPlatform::handshake(8, Duration::from_millis(5)),
            CollectorConfig::default().with_buffer_capacity(2),
        );
        let platform = collector.platform();
        let drops = Arc::new(Counter::new(0));

        // A "stalled" peer registered on another thread that never polls
        // (e.g. stuck in an infinite loop). Its shadow stack pins a node.
        let pinned = node(&drops);
        let pinned_addr = pinned as usize;
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let published = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let stall_collector = Arc::clone(&collector);
            let stall_done = Arc::clone(&done);
            let published = &published;
            s.spawn(move || {
                let handle = stall_collector.register();
                handle.record().shadow().publish(pinned_addr).unwrap();
                published.wait();
                // "Infinite loop": never polls.
                while !stall_done.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                drop(handle);
            });
            published.wait();

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
        let collector = Collector::with_config(
            SimPlatform::direct(8),
            CollectorConfig::default().with_telemetry(threadscan::TelemetrySink {
                record: count_round_event,
            }),
        );
        let platform = collector.platform();
        let drops = Arc::new(Counter::new(0));
        let handle = collector.register();
        // A second record on this thread (self-scanned) and one on a thread
        // that never polls (force-scanned).
        let mine = collector.register();
        let registered = std::sync::Barrier::new(2);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let peer = collector.register();
                registered.wait();
                while !done.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                drop(peer);
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
