//! The scan round: Algorithm 1's announce, scan-and-ack and wait, once
//! for every platform.
//!
//! A [`Round`] publishes the in-flight [`ScanSession`] under a monotonic
//! id. Each registration owns a [`ScanClaim`], the id of the last round
//! it scanned in. [`Round::scan_once`] claims the open round with
//! one CAS on that word, so of a poll, a signal handler interrupting it
//! and a reclaimer force-scan, exactly one scans and acks; it takes no
//! lock, allocates nothing and cannot panic. [`Round::wait`] counts acks.
//!
//! **Who may claim.** Every claim that can win a round must be one the
//! reclaimer waits for, or the round may close under its scan. So a
//! platform makes each registration's claim with [`ScanClaim::at`] under
//! the lock that opens its rounds (`ts-simthread`'s record-list lock,
//! `ts-sigscan`'s process-wide round lock), and a round counts on every
//! record registered when it opened.

use core::ptr;
use core::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::session::ScanSession;
use crate::telemetry::PhaseKind;

/// How long [`Round::wait`] spins before it starts yielding the CPU:
/// about 3× the p99 signal round trip (31–70 µs on a 2-core x86_64 box).
/// A round that ends on time then never gives the CPU away, where one
/// yield beside a runnable peer can cost milliseconds.
const SPIN_BEFORE_YIELD: Duration = Duration::from_micros(200);

/// The open scan round, if any: its session and its id.
#[derive(Default)]
pub struct Round {
    /// The open round's session, type-erased; null between rounds.
    session: AtomicPtr<()>,
    /// The id of the latest round opened; the first is 1.
    id: AtomicUsize,
}

/// One registration's claim word: the id of the last round it scanned
/// in.
pub struct ScanClaim(AtomicUsize);

impl ScanClaim {
    /// A claim that cannot win the round open on `round` now, if any, but
    /// can win every later one.
    pub fn at(round: &Round) -> Self {
        Self(AtomicUsize::new(round.id()))
    }
}

impl Round {
    /// A round that has never opened.
    pub const fn new() -> Self {
        Self {
            session: AtomicPtr::new(ptr::null_mut()),
            id: AtomicUsize::new(0),
        }
    }

    /// Opens the next round on `session`.
    ///
    /// # Safety
    ///
    /// Rounds on one `Round` must not overlap: the caller serialises
    /// `open` … [`Round::close`]. `session` (and the master buffer it
    /// borrows) must outlive the round: the caller closes it only after
    /// every claim that can win it has acked.
    pub unsafe fn open(&self, session: &ScanSession<'_>) {
        // Only the opener writes `id`. It is published before the session,
        // and both `Release` stores pair with `scan_once`'s `Acquire` loads:
        // a scanner that sees this session sees its contents and this id.
        let id = self.id.load(Ordering::Acquire) + 1;
        self.id.store(id, Ordering::Release);
        let p = session as *const ScanSession<'_> as *mut ();
        self.session.store(p, Ordering::Release);
    }

    /// Retracts the open round's session. Later claims find no round.
    pub fn close(&self) {
        // Pairs with `scan_once`'s `Acquire` load: null means "no round".
        self.session.store(ptr::null_mut(), Ordering::Release);
    }

    /// The id of the latest round opened (0 before the first).
    pub fn id(&self) -> usize {
        // Pairs with `open`'s `Release` id store.
        self.id.load(Ordering::Acquire)
    }

    /// Claims the open round for `claim` and, if this call won it, stamps
    /// [`PhaseKind::ScanBegin`], runs `scan` on the round's session, stamps
    /// [`PhaseKind::ScanEnd`] and acks. Returns whether it scanned.
    ///
    /// Between rounds, or once `claim` has scanned in the open round, it
    /// does nothing and returns `false`.
    #[inline]
    pub fn scan_once(&self, claim: &ScanClaim, scan: impl FnOnce(&ScanSession<'_>)) -> bool {
        // Id, session, id, each `Acquire` against `open`/`close`: as `open`
        // stores the id first, a non-null session read between two equal
        // id reads is that round's own, never a closed or a newer round's.
        let id = self.id.load(Ordering::Acquire);
        let p = self.session.load(Ordering::Acquire);
        // Pairs with the CAS's `Release` half: `id` or more means scanned.
        let prev = claim.0.load(Ordering::Acquire);
        if p.is_null()
            || prev >= id
            || self.id.load(Ordering::Acquire) != id
            // One winner per claim per round: a poll, a handler and a
            // force-scan racing here ack once between them.
            || claim
                .0
                .compare_exchange(prev, id, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            return false;
        }
        // SAFETY: `p` is the open round's session, and a claim the round
        // waits for (module doc) holds it open until the ack below.
        let session: &ScanSession<'_> = unsafe { &*(p as *const ScanSession<'_>) };
        if let Some((sink, cid)) = session.telemetry() {
            sink.event(PhaseKind::ScanBegin, cid, 0);
        }
        scan(session);
        if let Some((sink, cid)) = session.telemetry() {
            sink.event(PhaseKind::ScanEnd, cid, session.words_scanned() as u64);
        }
        // The last session access: the reclaimer may end it on the count.
        session.ack();
        true
    }

    /// Waits until `session` holds `expected` acks (Algorithm 1, line 9),
    /// then stamps [`PhaseKind::AllAcked`].
    ///
    /// Spins and reads the clock every 32 spins. After `SPIN_BEFORE_YIELD`
    /// (200 µs) it also yields the CPU on each of those, so scanning
    /// threads get to run on a small machine. Once `patience` has passed,
    /// each of those calls `overdue`.
    pub fn wait(
        &self,
        session: &ScanSession<'_>,
        expected: usize,
        patience: Duration,
        mut overdue: impl FnMut(),
    ) {
        let start = Instant::now();
        let mut spins = 0u32;
        while session.acks_received() < expected {
            spins = spins.wrapping_add(1);
            if !spins.is_multiple_of(32) {
                std::hint::spin_loop();
                continue;
            }
            let waited = start.elapsed();
            if waited >= SPIN_BEFORE_YIELD {
                std::thread::yield_now();
            }
            if waited >= patience {
                overdue();
            }
        }
        if let Some((sink, cid)) = session.telemetry() {
            sink.event(PhaseKind::AllAcked, cid, expected as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollectorConfig;
    use crate::master::MasterBuffer;
    use crate::retired::{noop_drop, Retired};

    fn master() -> MasterBuffer {
        let entries = vec![unsafe { Retired::from_raw_parts(0x1000, 64, noop_drop) }];
        MasterBuffer::new(entries, &CollectorConfig::default())
    }

    #[test]
    fn racing_claimers_scan_and_ack_once() {
        let mb = master();
        for _ in 0..200 {
            let session = mb.session();
            let round = Round::new();
            let claim = ScanClaim::at(&round);
            let scans = AtomicUsize::new(0);
            let barrier = std::sync::Barrier::new(2);
            unsafe { round.open(&session) };
            let won: usize = std::thread::scope(|s| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            round.scan_once(&claim, |_| {
                                scans.fetch_add(1, Ordering::SeqCst);
                            })
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap() as usize).sum()
            });
            round.close();
            assert_eq!(won, 1);
            assert_eq!(scans.load(Ordering::SeqCst), 1);
            assert_eq!(session.acks_received(), 1);
        }
    }

    #[test]
    fn a_claim_made_in_an_open_round_waits_for_the_next() {
        let mb = master();
        let (first, second) = (mb.session(), mb.session());
        let round = Round::new();
        unsafe { round.open(&first) };
        assert_eq!(round.id(), 1);
        let late = ScanClaim::at(&round);
        assert!(!round.scan_once(&late, |_| panic!("claimed the open round")));
        round.close();
        assert_eq!(first.acks_received(), 0);

        unsafe { round.open(&second) };
        assert_eq!(round.id(), 2);
        assert!(round.scan_once(&late, |_| {}));
        assert!(!round.scan_once(&late, |_| panic!("scanned twice")));
        round.close();
        assert_eq!(second.acks_received(), 1);
    }

    #[test]
    fn a_claim_made_between_rounds_neither_scans_nor_acks() {
        let mb = master();
        let session = mb.session();
        let round = Round::new();
        let fresh = ScanClaim::at(&round);
        assert!(!round.scan_once(&fresh, |_| panic!("scanned before any round")));
        unsafe { round.open(&session) };
        round.close();
        let between = ScanClaim::at(&round);
        assert!(!round.scan_once(&between, |_| panic!("scanned a closed round")));
        assert!(!round.scan_once(&fresh, |_| panic!("scanned a closed round")));
        assert_eq!(session.acks_received(), 0);
    }

    #[test]
    fn wait_calls_overdue_only_after_patience() {
        let mb = master();
        let session = mb.session();
        let round = Round::new();
        let claim = ScanClaim::at(&round);
        unsafe { round.open(&session) };
        let patience = Duration::from_millis(30);
        let start = Instant::now();
        let mut first_overdue = None;
        round.wait(&session, 1, patience, || {
            first_overdue.get_or_insert_with(|| start.elapsed());
            round.scan_once(&claim, |_| {});
        });
        round.close();
        assert!(first_overdue.expect("overdue was called") >= patience);
        assert_eq!(session.acks_received(), 1);

        // A round already complete never calls it, however short the
        // patience.
        round.wait(&session, 1, Duration::ZERO, || panic!("overdue"));
    }
}
