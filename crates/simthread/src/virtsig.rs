//! Virtual signals: a deterministic [`threadscan::Platform`].
//!
//! Substitutes the OS mechanism with an in-process handshake over
//! [`ShadowStack`] root regions (each record's claim scans its heap
//! blocks, as on every platform). The collector keeps the records, one
//! [`SimRecord`] per registration (reach it with `ThreadHandle::record`),
//! and runs each round over them (`threadscan::Round::run`). The open
//! round is the virtual signal: a thread notices it at its next
//! [`SimPlatform::poll`], and after a grace period the reclaimer
//! force-scans the laggards. The force-scan models the paper's central
//! progress property: the OS delivers a signal to a thread no matter what
//! its application code is doing, so a stalled thread cannot stall
//! reclamation. With no grace ([`SimPlatform::direct`]) the reclaimer
//! force-scans every record at once: deterministic, the workhorse for
//! protocol model tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use threadscan::{Platform, RegistryKey, ScanClaim, SelfScanContext};

use crate::shadow::ShadowStack;

/// One registered simulated thread.
pub struct SimRecord {
    shadow: Arc<ShadowStack>,
    /// A poll, a self-scan and a force-scan ack a round exactly once
    /// between them; it scans the heap blocks.
    claim: ScanClaim,
}

impl SimRecord {
    /// The record's shadow stack.
    pub fn shadow(&self) -> &Arc<ShadowStack> {
        &self.shadow
    }

    /// Scans this record in its collector's open round unless it already
    /// has; returns whether this call scanned.
    fn scan(&self) -> bool {
        self.claim.scan_once(|session| self.shadow.scan(session))
    }
}

/// The simulated platform.
pub struct SimPlatform {
    grace: Duration,
    shadow_slots: usize,
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
            force_scans: AtomicUsize::new(0),
        }
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
        record.scan()
    }
}

// SAFETY: a record acks only through its claim, after scanning its shadow
// stack, which with the heap blocks the claim scans *is* a simulated
// thread's entire private memory; `reach` keeps its default, so no thread
// counts as exited.
unsafe impl Platform for SimPlatform {
    type Record = SimRecord;

    fn register_current(&self, _: &RegistryKey, claim: ScanClaim) -> SimRecord {
        SimRecord {
            shadow: Arc::new(ShadowStack::new(self.shadow_slots)),
            claim,
        }
    }

    /// The reclaimer's private memory is its shadow stack, so the boundary
    /// context is not needed; it could never reach a poll point while it
    /// waits (Algorithm 1 line 7).
    fn scan_own(&self, _: &RegistryKey, record: &SimRecord, _: &SelfScanContext) {
        record.scan();
    }

    fn patience(&self) -> Duration {
        self.grace
    }

    /// Grace expired: deliver the "signal" ourselves.
    fn overdue(&self, _: &RegistryKey, record: &SimRecord) {
        if record.scan() {
            self.force_scans.fetch_add(1, Ordering::Relaxed);
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
        use threadscan::PhaseKind::{AllAcked, Announce, ScanBegin, ScanEnd};
        if matches!(event.kind, Announce | ScanBegin | ScanEnd | AllAcked) {
            ROUND_EVENTS[event.kind.code() as usize].fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_round_stamps_one_scan_span_per_record_and_one_all_acked() {
        use threadscan::PhaseKind::{AllAcked, Announce, ScanBegin, ScanEnd};
        let collector = Collector::with_config(
            SimPlatform::direct(8),
            CollectorConfig::default().with_telemetry(threadscan::TelemetrySink {
                record: count_round_event,
            }),
        );
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
        assert_eq!(collector.stats().collects, 1);
        assert_eq!(
            (count(ScanBegin), count(ScanEnd)),
            (3, 3),
            "one pair per record"
        );
        assert_eq!(count(AllAcked), 1);
        assert_eq!(
            count(Announce),
            count(AllAcked),
            "one announce per all_acked"
        );
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(mine);
        drop(handle);
    }
}
