//! [`SignalPlatform`]: the paper's OS-signaling mechanism as a
//! [`threadscan::Platform`].

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use threadscan::{Platform, RegistryKey, ScanClaim, SelfScanContext};

use crate::handler;
use crate::record::ThreadRecord;
use crate::stackbounds::current_stack_bounds;

/// How long a round waits for acknowledgments before concluding that a
/// registered thread leaked (exited without dropping its handle) and
/// aborting with a diagnostic instead of hanging the process forever.
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
/// and, in a round, at most an early scan: each record acks a round once,
/// and the round waits for each of its records whoever scans it.
///
/// # Thread discipline
///
/// Every thread that accesses protected data must hold a registration
/// (collector handle) while doing so, and must drop it before exiting.
/// A thread that exits while registered leaves a record with a dangling
/// pthread id; signaling it is undefined behaviour at the OS level.
pub struct SignalPlatform {
    signo: libc::c_int,
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
            signo,
            signals_sent: AtomicUsize::new(0),
        })
    }

    /// Total signals sent across all rounds.
    pub fn signals_sent(&self) -> usize {
        self.signals_sent.load(Ordering::Relaxed)
    }

    /// The signal number in use.
    pub fn signal(&self) -> libc::c_int {
        self.signo
    }
}

// SAFETY: a record acks only through its claim (`handler::scan_record`),
// after scanning the full register file and the stack from the interrupted
// frame up, or, for the reclaimer's own, the registers and the stack above
// the boundary it captured. `reach` reports only an
// exited thread (`ESRCH`) as not scanning.
unsafe impl Platform for SignalPlatform {
    type Record = Box<ThreadRecord>;

    fn register_current(&self, _: &RegistryKey, claim: ScanClaim) -> Box<ThreadRecord> {
        let stack = current_stack_bounds()
            .expect("ThreadScan: cannot determine stack bounds for this thread");
        let rec = Box::new(ThreadRecord::new(stack, claim));
        handler::attach_record(&rec);
        rec
    }

    fn unregister_current(&self, _: &RegistryKey, record: &Box<ThreadRecord>) {
        handler::detach_record(record);
    }

    /// The stack above the application boundary plus the registers
    /// captured there; signalling itself would scan the collect
    /// machinery's dead frames (`threadscan::selfscan` has the argument).
    fn scan_own(&self, _: &RegistryKey, record: &Box<ThreadRecord>, reclaimer: &SelfScanContext) {
        handler::scan_record(record, reclaimer.regs(), reclaimer.floor);
    }

    /// One signal, whose handler run scans all of the thread's records.
    fn reach(&self, _: &RegistryKey, record: &Box<ThreadRecord>) -> bool {
        // SAFETY: a registered thread has not exited (thread discipline).
        let rc = unsafe { libc::pthread_kill(record.pthread, self.signo) };
        match classify_kill(rc) {
            Delivery::Sent => {
                self.signals_sent.fetch_add(1, Ordering::Relaxed);
                true
            }
            Delivery::Gone => false,
            Delivery::Fatal => fatal(format_args!(
                "pthread_kill failed with error {rc}; a live thread would go unscanned"
            )),
        }
    }

    fn patience(&self) -> Duration {
        ACK_TIMEOUT
    }

    fn overdue(&self, _: &RegistryKey, _: &Box<ThreadRecord>) {
        fatal(format_args!(
            "a round had not all its acks after {ACK_TIMEOUT:?}; a registered thread is \
             unresponsive or exited without unregistering"
        ));
    }
}

/// Prints `why` and aborts. A round cannot go on without a live thread's
/// scan, and must not unwind either: a peer signalled earlier may still
/// be scanning its session.
fn fatal(why: std::fmt::Arguments<'_>) -> ! {
    eprintln!("ThreadScan: {why}");
    std::process::abort()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::{claim_on, idle_claim};
    use crate::stackbounds::approx_sp;
    use std::sync::Arc;
    use threadscan::master::MasterBuffer;
    use threadscan::retired::{noop_drop, Retired};
    use threadscan::{Collector, CollectorConfig, Round};

    #[test]
    fn only_esrch_lets_a_round_skip_a_thread() {
        assert_eq!(classify_kill(0), Delivery::Sent);
        assert_eq!(classify_kill(libc::ESRCH), Delivery::Gone);
        assert_eq!(classify_kill(libc::EAGAIN), Delivery::Fatal);
        assert_eq!(classify_kill(libc::EINVAL), Delivery::Fatal);
    }

    /// A key for tests that register and run rounds themselves.
    fn key() -> RegistryKey {
        // SAFETY: each test makes all of its platforms' registrations and
        // rounds, one at a time, runs each round over every record with a
        // claim on it, each with its thread, and unregisters each record on
        // its own thread before dropping it, but for the one
        // `multiple_registrations_per_thread_stack` drops registered to show
        // that its `Drop` detaches it.
        unsafe { RegistryKey::new() }
    }

    /// A master buffer of one made-up address, never dereferenced or
    /// reclaimed.
    fn master() -> MasterBuffer {
        // SAFETY: as above.
        let entries = vec![unsafe { Retired::from_raw_parts(0x10_0000, 64, noop_drop) }];
        MasterBuffer::new(entries, &CollectorConfig::default())
    }

    /// Opens `round` on a session of its own and runs the calling thread's
    /// handler scan in it: (records scanned, acks the session received).
    fn handler_scan_in(round: &Round) -> (usize, usize) {
        let master = master();
        let session = master.session();
        // SAFETY: nothing else opens `round`, and it closes before the
        // session is read.
        unsafe { round.open(&session) };
        let scanned = handler::scan_in_round(&[0usize; 2], approx_sp());
        round.close();
        (scanned, session.acks_received())
    }

    /// Whether `rec` is in the calling thread's record list.
    fn listed(rec: &ThreadRecord) -> bool {
        handler::attached().contains(&std::ptr::from_ref(rec))
    }

    #[test]
    fn register_and_unregister_maintain_registry() {
        let platform = SignalPlatform::new().unwrap();
        assert_eq!(handler::attached().len(), 0);
        let round = Arc::new(Round::new());
        let rec = platform.register_current(&key(), claim_on(&round));
        assert_eq!(handler::attached().len(), 1);
        assert!(listed(&rec));
        assert_eq!(handler_scan_in(&round), (1, 1), "acks through its claim");
        platform.unregister_current(&key(), &rec);
        assert!(!listed(&rec));
        assert_eq!(handler::attached().len(), 0);
        drop(rec);
        assert_eq!(handler::attached().len(), 0);
    }

    #[test]
    fn multiple_registrations_per_thread_stack() {
        let platform = SignalPlatform::new().unwrap();
        let r1 = platform.register_current(&key(), idle_claim());
        let r2 = platform.register_current(&key(), idle_claim());
        assert_eq!(handler::attached().len(), 2);
        assert!(listed(&r1) && listed(&r2));
        platform.unregister_current(&key(), &r1); // out of order: mid-list detach
        assert_eq!(handler::attached().len(), 1);
        assert!(!listed(&r1) && listed(&r2));
        drop(r1);
        // A record dropped without unregistering leaves the list as well.
        drop(r2);
        assert_eq!(handler::attached().len(), 0);
    }

    /// A thread acks only the rounds it holds a claim on: its handler, run
    /// in collector A's round, finds only its record of collector B, whose
    /// claim is on B's round. B's own next round it does scan and ack.
    #[test]
    fn a_round_is_acked_only_by_its_own_platforms_records() {
        let (a, b) = (Arc::new(Round::new()), Arc::new(Round::new()));
        let platform = SignalPlatform::new().unwrap();
        let b_record = platform.register_current(&key(), claim_on(&b));
        let (scanned_in_a, acks_in_a) = handler_scan_in(&a);
        let (scanned_in_b, acks_in_b) = handler_scan_in(&b);
        platform.unregister_current(&key(), &b_record);

        assert_eq!(scanned_in_a, 0, "a collector-B record scanned in A's round");
        assert_eq!(acks_in_a, 0);
        assert_eq!(scanned_in_b, 1);
        assert_eq!(acks_in_b, 1);
    }

    /// Blocks (`block`) or unblocks `signo` on the calling thread.
    fn mask_signal(signo: libc::c_int, block: bool) {
        extern "C" {
            fn sigaddset(set: *mut libc::sigset_t, signo: libc::c_int) -> libc::c_int;
            fn pthread_sigmask(
                how: libc::c_int,
                set: *const libc::sigset_t,
                old: *mut libc::sigset_t,
            ) -> libc::c_int;
        }
        // glibc's SIG_BLOCK and SIG_UNBLOCK.
        let how = if block { 0 } else { 1 };
        // SAFETY: `set` is a local sigset the two calls initialise and
        // read; changing the mask affects only the calling thread.
        unsafe {
            let mut set: libc::sigset_t = std::mem::zeroed();
            libc::sigemptyset(&mut set);
            sigaddset(&mut set, signo);
            assert_eq!(pthread_sigmask(how, &set, std::ptr::null_mut()), 0);
        }
    }

    /// Raises its flag when dropped, so the flooder stops however the
    /// scope is left.
    struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);

    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// A handler run on the reclaimer between the round's opening and its
    /// self-scan wins the reclaimer's own claim and acks. The round must
    /// still count that record and wait for its peer, here one whose
    /// signal stays blocked for `HOLD`, while a third thread keeps
    /// signalling the reclaimer. A round that counted only the records its
    /// self-scan won would return with one ack, before the peer scanned.
    #[test]
    fn a_round_waits_for_its_peers_when_a_handler_wins_the_reclaimers_claim() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{Barrier, OnceLock};

        const ROUNDS: usize = 16;
        const HOLD: Duration = Duration::from_millis(20);
        let platform = SignalPlatform::new().unwrap();
        let round = Arc::new(Round::new());
        let mine = platform.register_current(&key(), claim_on(&round));
        let master = master();
        let sessions: Vec<_> = (0..ROUNDS).map(|_| master.session()).collect();
        let ctx = SelfScanContext::empty();
        let me = unsafe { libc::pthread_self() };
        let peer = OnceLock::new();
        let (released, stop) = (AtomicBool::new(false), AtomicBool::new(false));
        let barrier = Barrier::new(2);

        // Per round: (threads_scanned, acks at return, peer released).
        let outcomes: Vec<(usize, usize, bool)> = std::thread::scope(|s| {
            let _stop = StopOnDrop(&stop);
            s.spawn(|| {
                mask_signal(platform.signal(), true);
                let record = platform.register_current(&key(), claim_on(&round));
                let _ = peer.set((std::thread::current().id(), record));
                for _ in 0..ROUNDS {
                    barrier.wait(); // the round is about to open
                    std::thread::sleep(HOLD);
                    released.store(true, Ordering::SeqCst);
                    mask_signal(platform.signal(), false); // scans and acks here
                    barrier.wait(); // the round has returned
                    mask_signal(platform.signal(), true);
                    released.store(false, Ordering::SeqCst);
                }
                platform.unregister_current(&key(), &peer.get().unwrap().1);
            });
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    unsafe { libc::pthread_kill(me, platform.signal()) };
                }
            });
            sessions
                .iter()
                .map(|session| {
                    barrier.wait();
                    let (peer_id, peer_record) = peer.get().unwrap();
                    let records = [
                        (std::thread::current().id(), &mine),
                        (*peer_id, peer_record),
                    ];
                    let scanned = round.run(&platform, &key(), session, &ctx, records.into_iter());
                    let outcome = (
                        scanned,
                        session.acks_received(),
                        released.load(Ordering::SeqCst),
                    );
                    barrier.wait();
                    outcome
                })
                .collect()
        });
        platform.unregister_current(&key(), &mine);
        assert_eq!(
            outcomes,
            vec![(2, 2, true); ROUNDS],
            "a round returned before its peer scanned"
        );
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
