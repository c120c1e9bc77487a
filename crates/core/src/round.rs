//! The scan round: Algorithm 1's announce, scan-and-ack and wait, once
//! for every platform.
//!
//! A [`Round`] publishes the in-flight [`ScanSession`] under a monotonic
//! id. Each registration owns a [`ScanClaim`] on its collector's round,
//! the id of the last round it scanned in. [`ScanClaim::scan_once`]
//! claims the open round with one CAS on that word, so of a poll, a
//! signal handler interrupting it and a reclaimer force-scan, exactly one
//! scans and acks; it takes no lock, allocates nothing and cannot panic.
//! [`Round::run`] is the reclaimer's side (TS-Collect): it opens the
//! round, has every record scan through its [`Platform`], counts the acks
//! and closes it. A platform supplies only how a thread is reached and
//! what its record scans.
//!
//! **Who may claim.** Every claim that can win a round must be one the
//! round waits for, or the round may close under its scan and free a node
//! that scan would have marked. So the collector makes each
//! registration's claim with [`ScanClaim::at`], and ends it, under its
//! reclaimer lock, which its rounds run under too: a claim made mid-round
//! cannot win that round, and each run gets the records of every
//! registration let in. A claim wins only its own collector's round, so
//! rounds of different collectors may overlap. [`Round::run`] and the
//! [`Platform`] methods take a [`RegistryKey`], which safe code gets only
//! inside a collector.

use core::ptr;
use core::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use crate::platform::{Platform, RegistryKey};
use crate::selfscan::SelfScanContext;
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

/// One registration's claim on its collector's round: the id of the last
/// round it scanned in.
pub struct ScanClaim {
    round: Arc<Round>,
    last: AtomicUsize,
}

impl ScanClaim {
    /// A claim on `round` that cannot win the round open on it now, if
    /// any, but can win every later one.
    pub fn at(round: &Arc<Round>) -> Self {
        Self {
            last: AtomicUsize::new(round.id()),
            round: Arc::clone(round),
        }
    }

    /// Claims the open round and, if this call won it, stamps
    /// [`PhaseKind::ScanBegin`], runs `scan` on the round's session, stamps
    /// [`PhaseKind::ScanEnd`] and acks. Returns whether it scanned.
    ///
    /// Between rounds, or once this claim has scanned in the open round, it
    /// does nothing and returns `false`.
    #[inline]
    pub fn scan_once(&self, scan: impl FnOnce(&ScanSession<'_>)) -> bool {
        let round = &*self.round;
        // Id, session, id, each `Acquire` against `open`/`close`: as `open`
        // stores the id first, a non-null session read between two equal
        // id reads is that round's own, never a closed or a newer round's.
        let id = round.id.load(Ordering::Acquire);
        let p = round.session.load(Ordering::Acquire);
        // Pairs with the CAS's `Release` half: `id` or more means scanned.
        let prev = self.last.load(Ordering::Acquire);
        if p.is_null()
            || prev >= id
            || round.id.load(Ordering::Acquire) != id
            // One winner per claim per round: a poll, a handler and a
            // force-scan racing here ack once between them.
            || self
                .last
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
}

/// Closes its round however [`Round::run`] is left, a panic included.
struct Opened<'a>(&'a Round);

impl Drop for Opened<'_> {
    fn drop(&mut self) {
        self.0.close();
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

    /// Runs a round on `session` over `records`, each with its thread and
    /// a claim on this round; returns how many records it waited for. It
    /// reaches each other thread once, at the first of its records (keep a
    /// thread's records adjacent), then scans the caller's own from
    /// `reclaimer`, so peers scan meanwhile, and waits for every record of
    /// the caller and of each thread reached, calling [`Platform::overdue`]
    /// on each once [`Platform::patience`] has passed. The round closes on
    /// every exit, a panic included.
    pub fn run<'r, P: Platform>(
        &self,
        platform: &P,
        key: &RegistryKey,
        session: &ScanSession<'_>,
        reclaimer: &SelfScanContext,
        records: impl ExactSizeIterator<Item = (ThreadId, &'r P::Record)> + Clone,
    ) -> usize {
        // SAFETY: a key's holder runs one round at a time on each `Round`
        // ([`RegistryKey`]), and `_opened` closes this one before
        // `session`'s borrow ends, after every ack it counts on.
        unsafe { self.open(session) };
        let _opened = Opened(self);
        let telemetry = session.telemetry();
        if let Some((sink, id)) = telemetry {
            sink.event(PhaseKind::Announce, id, records.len() as u64);
        }
        let me = std::thread::current().id();
        // The last thread reached and whether it will scan: a thread that
        // has exited (`false`) holds no references and acks nothing.
        let mut last: Option<(ThreadId, bool)> = None;
        let (mut expected, mut reached) = (0, 0);
        for (owner, record) in records.clone() {
            if owner != me && last.is_none_or(|(prev, _)| prev != owner) {
                let scans = platform.reach(key, record);
                if let (true, Some((sink, id))) = (scans, telemetry) {
                    sink.event(PhaseKind::SignalSent, id, reached);
                }
                reached += u64::from(scans);
                last = Some((owner, scans));
            }
            expected += usize::from(owner == me || last.is_some_and(|(_, scans)| scans));
        }
        // Algorithm 1 line 7. A handler run on this thread may have won
        // some of these claims already; the round counts them either way.
        for (_, record) in records.clone().filter(|&(owner, _)| owner == me) {
            platform.scan_own(key, record, reclaimer);
        }
        self.wait(session, expected, platform.patience(), || {
            for (_, record) in records.clone() {
                platform.overdue(key, record);
            }
        });
        expected
    }

    /// Waits until `session` holds `expected` acks (Algorithm 1, line 9),
    /// then stamps [`PhaseKind::AllAcked`].
    ///
    /// Spins and reads the clock every 32 spins. After `SPIN_BEFORE_YIELD`
    /// (200 µs) it also yields the CPU on each of those, so scanning
    /// threads get to run on a small machine. Once `patience` has passed,
    /// each of those calls `overdue`.
    fn wait(
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
    use crate::roots::ThreadRoots;

    fn master() -> MasterBuffer {
        let entries = vec![unsafe { Retired::from_raw_parts(0x1000, 64, noop_drop) }];
        MasterBuffer::new(entries, &CollectorConfig::default())
    }

    #[test]
    fn racing_claimers_scan_and_ack_once() {
        let mb = master();
        for _ in 0..200 {
            let session = mb.session();
            let round = Arc::new(Round::new());
            let claim = ScanClaim::at(&round);
            let scans = AtomicUsize::new(0);
            let barrier = std::sync::Barrier::new(2);
            unsafe { round.open(&session) };
            let won: usize = std::thread::scope(|s| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            claim.scan_once(|_| {
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
        let round = Arc::new(Round::new());
        unsafe { round.open(&first) };
        assert_eq!(round.id(), 1);
        let late = ScanClaim::at(&round);
        assert!(!late.scan_once(|_| panic!("claimed the open round")));
        round.close();
        assert_eq!(first.acks_received(), 0);

        unsafe { round.open(&second) };
        assert_eq!(round.id(), 2);
        assert!(late.scan_once(|_| {}));
        assert!(!late.scan_once(|_| panic!("scanned twice")));
        round.close();
        assert_eq!(second.acks_received(), 1);
    }

    #[test]
    fn a_claim_made_between_rounds_neither_scans_nor_acks() {
        let mb = master();
        let session = mb.session();
        let round = Arc::new(Round::new());
        let fresh = ScanClaim::at(&round);
        assert!(!fresh.scan_once(|_| panic!("scanned before any round")));
        unsafe { round.open(&session) };
        round.close();
        let between = ScanClaim::at(&round);
        assert!(!between.scan_once(|_| panic!("scanned a closed round")));
        assert!(!fresh.scan_once(|_| panic!("scanned a closed round")));
        assert_eq!(session.acks_received(), 0);
    }

    #[test]
    fn wait_calls_overdue_only_after_patience() {
        let mb = master();
        let session = mb.session();
        let round = Arc::new(Round::new());
        let claim = ScanClaim::at(&round);
        unsafe { round.open(&session) };
        let patience = Duration::from_millis(30);
        let start = Instant::now();
        let mut first_overdue = None;
        round.wait(&session, 1, patience, || {
            first_overdue.get_or_insert_with(|| start.elapsed());
            claim.scan_once(|_| {});
        });
        round.close();
        assert!(first_overdue.expect("overdue was called") >= patience);
        assert_eq!(session.acks_received(), 1);

        // A round already complete never calls it, however short the
        // patience.
        round.wait(&session, 1, Duration::ZERO, || panic!("overdue"));
    }

    /// One scripted registration: the thread it stands for, by number.
    struct Scripted {
        thread: usize,
        claim: ScanClaim,
    }

    /// A platform whose threads never scan on their own: `reach` logs the
    /// thread and, like a signal handler run on the reclaimer, first wins
    /// every claim of the caller's records; `overdue` logs when it first
    /// ran and force-scans.
    struct Script {
        reclaimer_claims: Vec<Arc<Scripted>>,
        reached: parking_lot::Mutex<Vec<usize>>,
        own_scans: AtomicUsize,
        started: Instant,
        overdue_after: parking_lot::Mutex<Option<Duration>>,
    }

    const PATIENCE: Duration = Duration::from_millis(20);

    // SAFETY (test double): a scripted record has no roots; it acks only
    // through its claim.
    unsafe impl Platform for Script {
        type Record = Arc<Scripted>;
        fn register_current(
            &self,
            _: &RegistryKey,
            _: Arc<ThreadRoots>,
            _: ScanClaim,
        ) -> Self::Record {
            unreachable!("the test makes its records itself")
        }
        fn unregister_current(&self, _: &RegistryKey, _: &Self::Record) {}
        fn scan_own(&self, _: &RegistryKey, record: &Self::Record, _: &SelfScanContext) {
            assert_eq!(
                record.thread, 0,
                "scanned another thread's record as its own"
            );
            self.own_scans.fetch_add(1, Ordering::SeqCst);
            record.claim.scan_once(|_| {});
        }
        fn reach(&self, _: &RegistryKey, record: &Self::Record) -> bool {
            self.reached.lock().push(record.thread);
            for own in &self.reclaimer_claims {
                own.claim.scan_once(|_| {});
            }
            true
        }
        fn patience(&self) -> Duration {
            PATIENCE
        }
        fn overdue(&self, _: &RegistryKey, record: &Self::Record) {
            self.overdue_after
                .lock()
                .get_or_insert_with(|| self.started.elapsed());
            record.claim.scan_once(|_| {});
        }
    }

    /// `run` on the caller's two records (thread 0) and three of two
    /// peers: the caller's records are counted but never reached, each
    /// peer is reached once, and the round waits for the peers' acks
    /// although a handler-style scan won the caller's claims before its
    /// own self-scan did, until `overdue` scans them after the patience.
    #[test]
    fn run_reaches_each_peer_once_and_counts_every_record() {
        let mb = master();
        let session = mb.session();
        let round = Arc::new(Round::new());
        let me = std::thread::current().id();
        let peer = std::thread::spawn(|| std::thread::current().id())
            .join()
            .unwrap();
        let other = std::thread::spawn(|| std::thread::current().id())
            .join()
            .unwrap();
        let records: Vec<(ThreadId, Arc<Scripted>)> =
            [(me, 0), (me, 0), (peer, 1), (peer, 1), (other, 2)]
                .map(|(tid, thread)| {
                    (
                        tid,
                        Arc::new(Scripted {
                            thread,
                            claim: ScanClaim::at(&round),
                        }),
                    )
                })
                .into();
        let script = Script {
            reclaimer_claims: records[..2].iter().map(|(_, r)| Arc::clone(r)).collect(),
            reached: Default::default(),
            own_scans: AtomicUsize::new(0),
            started: Instant::now(),
            overdue_after: Default::default(),
        };
        let waited = round.run(
            &script,
            &RegistryKey(()),
            &session,
            &SelfScanContext::empty(),
            records.iter().map(|(tid, r)| (*tid, r)),
        );
        assert_eq!(waited, records.len());
        assert_eq!(session.acks_received(), records.len());
        assert_eq!(
            *script.reached.lock(),
            [1, 2],
            "each peer once, never the caller"
        );
        assert_eq!(script.own_scans.load(Ordering::SeqCst), 2);
        let overdue = script
            .overdue_after
            .lock()
            .expect("the peers never scanned");
        assert!(overdue >= PATIENCE, "overdue ran after {overdue:?}");
        assert_eq!(round.id(), 1);
        assert!(!records[0].1.claim.scan_once(|_| {}), "the round is closed");
    }
}
