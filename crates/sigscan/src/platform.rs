//! [`SignalPlatform`]: the paper's OS-signaling mechanism as a
//! [`threadscan::Platform`].

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use threadscan::{Platform, Round, ScanOutcome, ScanSession, SelfScanContext, ThreadRoots};

use crate::handler;
use crate::record::ThreadRecord;
use crate::stackbounds::current_stack_bounds;

/// How long `scan_all` waits for acknowledgments before concluding that a
/// registered thread leaked (exited without dropping its handle) and
/// panicking with a diagnostic instead of hanging the process forever.
const ACK_TIMEOUT: Duration = Duration::from_secs(30);

/// What a `pthread_kill` return code means for the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delivery {
    /// The signal is queued: the target will scan and acknowledge.
    Sent,
    /// `ESRCH`: the thread is gone (it exited without unregistering) and
    /// its references with it; the round may skip it.
    Gone,
    /// Anything else — `EAGAIN` when `RLIMIT_SIGPENDING` is exhausted
    /// under a real-time signal, `EINVAL` — leaves a *live* thread
    /// unscanned. Lemma 1 needs every live thread's scan, so the round
    /// cannot go on, in any build profile.
    Fatal,
}

fn classify_kill(rc: libc::c_int) -> Delivery {
    match rc {
        0 => Delivery::Sent,
        libc::ESRCH => Delivery::Gone,
        _ => Delivery::Fatal,
    }
}

/// The real ThreadScan platform: POSIX signals + conservative stack and
/// register scanning.
///
/// # Signal ownership
///
/// The configured signal (default `SIGUSR1`) must be reserved for
/// ThreadScan: application code must neither install a handler for it nor
/// send it to threads of this process. A stray signal costs a handler run
/// and, in a round, at most an early scan: each record acks a round once.
///
/// # Thread discipline
///
/// Every thread that accesses protected data must hold a registration
/// (collector handle) while doing so, and must drop it before exiting.
/// A thread that exits while registered leaves a record with a dangling
/// pthread id; signaling it is undefined behaviour at the OS level.
pub struct SignalPlatform {
    inner: Arc<Inner>,
}

struct Inner {
    signo: libc::c_int,
    /// Opened under the round lock, which registrations take their claims
    /// under: a record registered mid-round cannot ack that round.
    round: Arc<Round>,
    /// One record per registration: the round's signal targets. Changed
    /// only under the round lock, so a round reads it as it stood when the
    /// round began.
    records: Mutex<Vec<Arc<ThreadRecord>>>,
    signals_sent: AtomicUsize,
}

impl SignalPlatform {
    /// Creates a platform using `SIGUSR1`.
    pub fn new() -> io::Result<Self> {
        Self::with_signal(libc::SIGUSR1)
    }

    /// Creates a platform using a caller-chosen signal (e.g.
    /// `libc::SIGRTMIN() + k` to keep `SIGUSR1` free for the application).
    pub fn with_signal(signo: libc::c_int) -> io::Result<Self> {
        handler::install(signo)?;
        Ok(Self {
            inner: Arc::new(Inner {
                signo,
                round: Arc::new(Round::new()),
                records: Mutex::new(Vec::new()),
                signals_sent: AtomicUsize::new(0),
            }),
        })
    }

    /// Number of current registrations (a thread registered with two
    /// collectors counts twice).
    pub fn registered_threads(&self) -> usize {
        self.inner.records.lock().len()
    }

    /// Scan rounds opened on this platform (each runs to completion or
    /// panics).
    pub fn rounds(&self) -> usize {
        self.inner.round.id()
    }

    /// Total signals sent across all rounds.
    pub fn signals_sent(&self) -> usize {
        self.inner.signals_sent.load(Ordering::Relaxed)
    }

    /// The signal number in use.
    pub fn signal(&self) -> libc::c_int {
        self.inner.signo
    }
}

/// RAII registration; dropping it unregisters the thread. Produced by
/// `Collector::register` via [`Platform::register_current`].
pub struct RegistrationToken {
    inner: Arc<Inner>,
    rec: Arc<ThreadRecord>,
}

impl Drop for RegistrationToken {
    fn drop(&mut self) {
        // The round lock guarantees no scan is mid-flight while this
        // thread's record disappears (an in-flight round has either
        // already received our handler's ack or will get it while we block
        // here — signals interrupt the futex wait and are handled).
        let _round = handler::round_lock();
        handler::detach_record(&self.rec);
        self.inner
            .records
            .lock()
            .retain(|r| !Arc::ptr_eq(r, &self.rec));
    }
}

// SAFETY: `scan_all` signals the thread of every registered record; each
// handler scans, for each of its thread's records, the full register file
// from `ucontext_t`, the stack from the interrupted frame to its top, and
// the record's heap blocks, then acks once per record per round (the
// record's claim) — exactly the contract `threadscan::Platform` requires.
// Registration changes, and with them claims, are serialized against
// rounds by the process-wide round lock.
unsafe impl Platform for SignalPlatform {
    type ThreadToken = RegistrationToken;

    fn register_current(&self, roots: Arc<ThreadRoots>) -> RegistrationToken {
        let stack = current_stack_bounds()
            .expect("ThreadScan: cannot determine stack bounds for this thread");
        let _round = handler::round_lock();
        let rec = Arc::new(ThreadRecord::new(stack, roots, &self.inner.round));
        handler::attach_record(&rec);
        self.inner.records.lock().push(Arc::clone(&rec));
        RegistrationToken {
            inner: Arc::clone(&self.inner),
            rec,
        }
    }

    fn scan_all(&self, session: &ScanSession<'_>, reclaimer: &SelfScanContext) -> ScanOutcome {
        // Serialize rounds process-wide, and against registration changes.
        let _round = handler::round_lock();
        // Registration changes wait for the round lock, so this lock only
        // keeps `registered_threads` readers out; nothing else waits on it.
        let records = self.inner.records.lock();
        if records.is_empty() {
            // No registered threads ⇒ no thread may hold references
            // (accessors are required to register) ⇒ nothing to scan.
            return ScanOutcome { threads_scanned: 0 };
        }
        let round = &self.inner.round;
        // SAFETY: the round lock serialises rounds; the round closes below
        // after every expected ack (or early, on the way to a panic).
        unsafe { round.open(session) };

        // Signal the thread of every record registered on *another* thread:
        // one handler run scans all of its thread's records, and acks once
        // for each record of this round. The reclaimer itself scans
        // directly from its boundary context below — signaling ourselves
        // would scan the collect machinery's own dead frames, which hold
        // copies of every aggregated node address.
        let me = unsafe { libc::pthread_self() };
        let telemetry = session.telemetry();
        if let Some((sink, id)) = telemetry {
            sink.event(threadscan::PhaseKind::Announce, id, records.len() as u64);
        }
        let mut expected = 0usize;
        for rec in records.iter() {
            if unsafe { libc::pthread_equal(rec.pthread, me) } != 0 {
                continue;
            }
            let rc = unsafe { libc::pthread_kill(rec.pthread, self.inner.signo) };
            match classify_kill(rc) {
                Delivery::Sent => {
                    if let Some((sink, id)) = telemetry {
                        sink.event(threadscan::PhaseKind::SignalSent, id, expected as u64);
                    }
                    expected += 1;
                }
                Delivery::Gone => {}
                Delivery::Fatal => {
                    round.close();
                    panic!(
                        "ThreadScan: pthread_kill failed with error {rc}; a live thread \
                         would go unscanned"
                    );
                }
            }
        }
        drop(records);
        self.inner
            .signals_sent
            .fetch_add(expected, Ordering::Relaxed);

        // The reclaimer's own scan (Algorithm 1 line 7), once per record it
        // holds: the stack above the application boundary plus the
        // registers captured there. Its live stack would hold the collect
        // machinery's copies of every aggregated address
        // (`threadscan::selfscan` has the argument).
        expected += handler::scan_in_round(reclaimer.regs(), reclaimer.floor);

        // Wait for all acknowledgments (Algorithm 1, line 9).
        round.wait(session, expected, ACK_TIMEOUT, || {
            round.close();
            panic!(
                "ThreadScan: {}/{expected} acks after {ACK_TIMEOUT:?}; a registered \
                 thread is unresponsive or exited without unregistering",
                session.acks_received(),
            );
        });
        round.close();
        ScanOutcome {
            threads_scanned: expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stackbounds::approx_sp;
    use threadscan::{Collector, CollectorConfig};

    #[test]
    fn only_esrch_lets_a_round_skip_a_thread() {
        assert_eq!(classify_kill(0), Delivery::Sent);
        assert_eq!(classify_kill(libc::ESRCH), Delivery::Gone);
        assert_eq!(classify_kill(libc::EAGAIN), Delivery::Fatal);
        assert_eq!(classify_kill(libc::EINVAL), Delivery::Fatal);
    }

    /// Whether `token`'s record is in `platform`'s record list.
    fn listed(platform: &SignalPlatform, token: &RegistrationToken) -> bool {
        let records = platform.inner.records.lock();
        records.iter().any(|r| Arc::ptr_eq(r, &token.rec))
    }

    #[test]
    fn register_and_unregister_maintain_registry() {
        let platform = SignalPlatform::new().unwrap();
        assert_eq!(platform.registered_threads(), 0);
        let roots = Arc::new(ThreadRoots::new(4));
        let token = platform.register_current(roots);
        assert_eq!(platform.registered_threads(), 1);
        assert!(listed(&platform, &token));
        assert!(Arc::ptr_eq(&token.rec.round, &platform.inner.round));
        assert_eq!(handler::attached_records(), 1);
        drop(token);
        assert_eq!(platform.registered_threads(), 0);
        assert_eq!(handler::attached_records(), 0);
    }

    #[test]
    fn multiple_registrations_per_thread_stack() {
        let platform = SignalPlatform::new().unwrap();
        let t1 = platform.register_current(Arc::new(ThreadRoots::new(4)));
        let t2 = platform.register_current(Arc::new(ThreadRoots::new(4)));
        assert_eq!(platform.registered_threads(), 2);
        assert!(listed(&platform, &t1) && listed(&platform, &t2));
        assert_eq!(handler::attached_records(), 2);
        drop(t1); // out-of-order drop exercises mid-list detach
        assert_eq!(platform.registered_threads(), 1);
        assert!(listed(&platform, &t2));
        assert_eq!(handler::attached_records(), 1);
        drop(t2);
        assert_eq!(platform.registered_threads(), 0);
        assert_eq!(handler::attached_records(), 0);
    }

    /// A thread acks only the rounds of platforms it holds a record of: its
    /// handler, run in platform A's round, finds only its platform-B
    /// record, which A's round cannot claim. B's own next round it does
    /// scan and ack.
    #[test]
    fn a_round_is_acked_only_by_its_own_platforms_records() {
        use threadscan::master::MasterBuffer;
        use threadscan::retired::{noop_drop, Retired};

        let a = SignalPlatform::new().unwrap();
        let b = SignalPlatform::new().unwrap();
        let _in_b = b.register_current(Arc::new(ThreadRoots::new(4)));
        // SAFETY: a made-up address, never dereferenced or reclaimed.
        let entries = vec![unsafe { Retired::from_raw_parts(0x10_0000, 64, noop_drop) }];
        let master = MasterBuffer::new(entries, &CollectorConfig::default());
        let (in_a, in_b) = (master.session(), master.session());
        let regs = [0usize; 2];

        let lock = handler::round_lock();
        // SAFETY: the round lock keeps every other round out, and each
        // round closes before its session is read.
        unsafe { a.inner.round.open(&in_a) };
        let scanned_in_a = handler::scan_in_round(&regs, approx_sp());
        a.inner.round.close();
        unsafe { b.inner.round.open(&in_b) };
        let scanned_in_b = handler::scan_in_round(&regs, approx_sp());
        b.inner.round.close();
        drop(lock);

        assert_eq!(scanned_in_a, 0, "a platform-B record scanned in A's round");
        assert_eq!(in_a.acks_received(), 0);
        assert_eq!(scanned_in_b, 1);
        assert_eq!(in_b.acks_received(), 1);
    }

    /// Deep stack churn: overwrites the region of the stack that dead
    /// frames (and spilled registers) may have left a stale pointer in.
    #[inline(never)]
    fn churn(depth: usize) -> usize {
        let noise = std::hint::black_box([depth; 64]);
        if depth == 0 {
            noise[0]
        } else {
            churn(depth - 1) + noise[63]
        }
    }

    /// End-to-end: a stack-held reference must survive a real
    /// signal-driven collect ("must not free" is the safety direction and
    /// is deterministic — our live frame holds the pointer and is always
    /// scanned).
    #[test]
    fn stack_reference_blocks_reclamation() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Node(#[allow(dead_code)] [u64; 16]);
        impl Drop for Node {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }

        let collector = Collector::with_config(
            SignalPlatform::new().unwrap(),
            CollectorConfig::default().with_buffer_capacity(4),
        );
        let handle = collector.register();

        let pinned = Box::into_raw(Box::new(Node([7; 16])));
        let held = std::hint::black_box(pinned); // live stack copy

        let before = DROPS.load(Ordering::SeqCst);
        unsafe { handle.retire(pinned) };
        handle.flush(); // forced round: our frame holds `held`
        handle.flush();
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            before,
            "node referenced from this stack must not be freed"
        );
        assert!(collector.pending_estimate() >= 1);
        assert_eq!(unsafe { (*std::hint::black_box(held)).0[0] }, 7);
        drop(handle);
        // Collector drop reclaims the survivor; our reference dies with
        // the test, which never dereferences it again.
        drop(collector);
        assert_eq!(DROPS.load(Ordering::SeqCst), before + 1);
    }

    /// Liveness direction: nodes whose references only ever lived in
    /// frames that have since returned keep getting reclaimed.
    ///
    /// A conservative scanner may pin *individual* addresses forever: a
    /// stale word anywhere in the scanned region (e.g. garbage left in a
    /// glibc-cached thread stack by an earlier test whose freed node's
    /// address malloc then reuses) is indistinguishable from a live
    /// reference. So the testable property is not "this one node is
    /// freed" but "fresh unreferenced nodes are freed" — a stale word can
    /// only match a bounded set of addresses, not a stream of new ones.
    #[test]
    fn unreferenced_node_is_eventually_reclaimed() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Node(#[allow(dead_code)] [u64; 16]);
        impl Drop for Node {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }

        /// Allocate and immediately retire in a frame that dies on return,
        /// so the outer frame never holds the pointer.
        #[inline(never)]
        fn retire_unheld(handle: &threadscan::ThreadHandle<SignalPlatform>) {
            let p = Box::into_raw(Box::new(Node([3; 16])));
            unsafe { handle.retire(p) };
        }

        let collector = Collector::with_config(
            SignalPlatform::new().unwrap(),
            CollectorConfig::default().with_buffer_capacity(64),
        );
        let handle = collector.register();
        let before = DROPS.load(Ordering::SeqCst);

        let mut freed = false;
        for _ in 0..256 {
            retire_unheld(&handle);
            std::hint::black_box(churn(64));
            handle.flush();
            if DROPS.load(Ordering::SeqCst) > before {
                freed = true;
                break;
            }
        }
        assert!(freed, "unreferenced nodes should eventually be reclaimed");
        drop(handle);
    }

    /// Cross-thread round-trip: another registered thread holding the only
    /// reference pins the node; the reclaimer must observe the mark set by
    /// that thread's signal handler. No asserts run between barrier
    /// points (a panic would strand the peer); outcomes are collected and
    /// checked after all rounds end.
    ///
    /// The protocol runs several rounds with fresh nodes. The pinning
    /// direction is deterministic and must hold in *every* round. The
    /// release direction ("freed once the peer lets go") is only
    /// *usually* true under conservative scanning: a stale word in a
    /// glibc-cached thread stack or spilled register is
    /// indistinguishable from a live reference and can pin one
    /// particular address forever (see
    /// `unreferenced_node_is_eventually_reclaimed`). A stale alias can
    /// shadow at most the single address it happens to contain — rounds
    /// keep their failed predecessors' nodes outstanding, so every round
    /// retires a distinct address — and hence most rounds must reclaim.
    #[test]
    fn other_threads_reference_is_detected_via_signal() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        /// Reports its drop through a per-round counter, so a prior
        /// round's stale-pinned node freed by a *later* round's flushes
        /// cannot be mistaken for that round's own node dropping.
        struct Node {
            drops: Arc<AtomicUsize>,
            payload: [u64; 16],
        }
        impl Drop for Node {
            fn drop(&mut self) {
                self.drops.fetch_add(1, Ordering::SeqCst);
            }
        }

        /// Peer helper: loads the reference from the (heap-based) slot and
        /// holds it on its stack across two barrier points, then returns
        /// (killing the frame).
        #[inline(never)]
        fn hold_reference(slot: &AtomicUsize, barrier: &Barrier) {
            barrier.wait(); // (0) address published
            let held = std::hint::black_box(slot.load(Ordering::SeqCst) as *const Node);
            barrier.wait(); // (1) holding
            barrier.wait(); // (2) reclaimer's pinned round done
            std::hint::black_box(unsafe { (*held).payload[0] });
        }

        /// Main helper: allocates and retires in a dying frame so the main
        /// test frame never contains the pointer.
        #[inline(never)]
        fn make_and_retire(
            handle: &threadscan::ThreadHandle<SignalPlatform>,
            slot: &AtomicUsize,
            peer_has_it: &Barrier,
            drops: &Arc<AtomicUsize>,
        ) {
            let p = Box::into_raw(Box::new(Node {
                drops: Arc::clone(drops),
                payload: [9; 16],
            }));
            slot.store(p as usize, Ordering::SeqCst);
            peer_has_it.wait(); // (0) peer picked it up
            unsafe { handle.retire(p) };
        }

        /// One full hold/release round; returns (pinned, freed).
        fn run_round(
            collector: &Arc<Collector<SignalPlatform>>,
            handle: &threadscan::ThreadHandle<SignalPlatform>,
        ) -> (bool, bool) {
            // Heap-based slot: its value (the raw address) must not live
            // in any scanned stack frame, or it would pin the node
            // itself.
            let slot = Arc::new(AtomicUsize::new(0));
            let barrier = Barrier::new(2);
            let drops = Arc::new(AtomicUsize::new(0));
            let mut pinned = false;
            let mut freed = false;

            std::thread::scope(|s| {
                let collector2 = Arc::clone(collector);
                let barrier2 = &barrier;
                let slot2 = Arc::clone(&slot);
                s.spawn(move || {
                    let handle = collector2.register();
                    hold_reference(&slot2, barrier2); // holds across (0)-(2)
                    std::hint::black_box(churn(64)); // scrub stale slots
                    barrier2.wait(); // (3) released
                    barrier2.wait(); // (4) reclaimer done
                    drop(handle);
                });

                make_and_retire(handle, &slot, &barrier, &drops); // passes (0)
                std::hint::black_box(churn(64)); // scrub our own stale slots
                barrier.wait(); // (1) peer is holding
                handle.flush();
                handle.flush();
                pinned = drops.load(Ordering::SeqCst) == 0;
                barrier.wait(); // (2) let the peer release
                barrier.wait(); // (3) peer released + churned
                for _ in 0..256 {
                    std::hint::black_box(churn(64));
                    handle.flush();
                    if drops.load(Ordering::SeqCst) > 0 {
                        freed = true;
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                barrier.wait(); // (4)
            });
            (pinned, freed)
        }

        // One collector across rounds: a round whose node stays pinned by
        // stale garbage leaves it outstanding (not freed), so the next
        // round's allocation cannot reuse that address.
        let collector = Collector::with_config(
            SignalPlatform::new().unwrap(),
            CollectorConfig::default().with_buffer_capacity(64),
        );
        let handle = collector.register();
        const ROUNDS: usize = 4;
        let mut pinned_rounds = 0;
        let mut freed_rounds = 0;
        for _ in 0..ROUNDS {
            let (pinned, freed) = run_round(&collector, &handle);
            pinned_rounds += pinned as usize;
            freed_rounds += freed as usize;
        }
        drop(handle);

        assert_eq!(
            pinned_rounds, ROUNDS,
            "peer stack reference must pin the node in every round"
        );
        assert!(
            freed_rounds * 2 >= ROUNDS,
            "nodes must usually be reclaimed once the peer drops them \
             ({freed_rounds}/{ROUNDS} rounds reclaimed)"
        );
    }
}
