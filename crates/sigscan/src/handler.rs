//! The signal handler and the process-global round state.
//!
//! One round = one `TS-Collect` scan phase. The reclaimer publishes the
//! active [`ScanSession`] through a global atomic pointer, bumps the round
//! counter, and signals every registered thread. Each handler invocation:
//!
//! 1. loads the session pointer (null ⇒ stray signal, return);
//! 2. deduplicates by round id (a second same-round signal is a no-op);
//! 3. scans the interrupted register file (from `ucontext_t`), the stack
//!    from the interrupted frame upward, and all registered heap blocks —
//!    each word binary-searched against the session's sorted master
//!    buffer;
//! 4. acknowledges.
//!
//! Everything on this path is async-signal-safe: const-initialized TLS
//! reads, raw memory walks, and atomics. No allocation, locks, or panics.

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use parking_lot::Mutex;
use threadscan::ScanSession;

use crate::record::ThreadRecord;
use crate::stackbounds::approx_sp;
use crate::ucontext::{capture_registers, MAX_REGS};

/// Session for the in-flight round (null between rounds). Type-erased; the
/// reclaimer keeps the real session alive until every ack arrives, and the
/// last thing a handler does with it is ack, so the pointer never dangles
/// while a handler can observe it non-null... modulo the stray-signal
/// caveat documented on [`crate::SignalPlatform`].
static ACTIVE_SESSION: AtomicPtr<()> = AtomicPtr::new(ptr::null_mut());

/// Monotonic round id; lets handlers drop duplicate signals in one round.
static CURRENT_ROUND: AtomicUsize = AtomicUsize::new(0);

/// Serializes rounds *and* registration changes process-wide. Held by the
/// reclaimer for the whole broadcast-scan-ack cycle, and by threads while
/// they register/unregister — so a record can never disappear mid-round.
static ROUND_LOCK: Mutex<()> = Mutex::new(());

/// Signal numbers that already have the ThreadScan handler installed.
static INSTALLED: Mutex<Vec<libc::c_int>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's registration state. Const-initialized and `Drop`-free,
    /// so access never allocates and works at any point in the thread's
    /// lifetime — including inside signal handlers.
    static CTX: ThreadCtx = const {
        ThreadCtx {
            stack: Cell::new((0, 0)),
            head: Cell::new(ptr::null()),
            last_round: Cell::new(0),
        }
    };
}

struct ThreadCtx {
    /// `(lo, hi)` stack bounds, set at first registration.
    stack: Cell<(usize, usize)>,
    /// Head of this thread's [`ThreadRecord`] list.
    head: Cell<*const ThreadRecord>,
    /// Round id this thread last scanned in.
    last_round: Cell<usize>,
}

/// Acquires the process-global round/registration lock.
pub(crate) fn round_lock() -> parking_lot::MutexGuard<'static, ()> {
    ROUND_LOCK.lock()
}

/// Installs the ThreadScan handler for `signo` (idempotent).
pub(crate) fn install(signo: libc::c_int) -> std::io::Result<()> {
    let mut installed = INSTALLED.lock();
    if installed.contains(&signo) {
        return Ok(());
    }
    unsafe {
        let mut sa: libc::sigaction = std::mem::zeroed();
        sa.sa_sigaction = ts_signal_handler as extern "C" fn(_, _, _) as usize;
        // SA_SIGINFO: we need the ucontext for register capture.
        // SA_RESTART: restart interruptible syscalls so application code
        // rarely observes EINTR (paper §4.2, "Signaling").
        sa.sa_flags = libc::SA_SIGINFO | libc::SA_RESTART;
        libc::sigemptyset(&mut sa.sa_mask);
        if libc::sigaction(signo, &sa, ptr::null_mut()) != 0 {
            return Err(std::io::Error::last_os_error());
        }
    }
    installed.push(signo);
    Ok(())
}

/// Publishes `session` as the active round. Caller must hold the round
/// lock. Returns the round id.
///
/// # Safety
///
/// `session` must stay alive (and its master buffer with it) until
/// [`end_round`] is called, which must happen only after every signaled
/// thread has acknowledged.
pub(crate) unsafe fn begin_round(session: &ScanSession<'_>) -> usize {
    let round = CURRENT_ROUND.fetch_add(1, Ordering::Relaxed) + 1;
    ACTIVE_SESSION.store(
        session as *const ScanSession<'_> as *mut (),
        Ordering::Release,
    );
    round
}

/// Retracts the active session. Caller must hold the round lock and have
/// collected all acknowledgments.
pub(crate) fn end_round() {
    ACTIVE_SESSION.store(ptr::null_mut(), Ordering::Release);
}

/// Links `rec` into the calling thread's record list and caches stack
/// bounds for the handler. Caller must hold the round lock.
pub(crate) fn attach_record(rec: &ThreadRecord) {
    CTX.with(|ctx| {
        ctx.stack.set((rec.stack.lo, rec.stack.hi));
        rec.next.set(ctx.head.get());
        ctx.head.set(rec as *const ThreadRecord);
    });
}

/// Unlinks `rec` from the calling thread's record list. Caller must hold
/// the round lock (so no round is mid-flight while the list changes).
pub(crate) fn detach_record(rec: &ThreadRecord) {
    CTX.with(|ctx| {
        let target = rec as *const ThreadRecord;
        let mut cur = ctx.head.get();
        if cur == target {
            ctx.head.set(rec.next.get());
            return;
        }
        while !cur.is_null() {
            // SAFETY: records in the list are kept alive by their tokens,
            // which detach before dropping.
            let cur_ref = unsafe { &*cur };
            if cur_ref.next.get() == target {
                cur_ref.next.set(rec.next.get());
                return;
            }
            cur = cur_ref.next.get();
        }
        debug_assert!(false, "detach_record: record not found in TLS list");
    });
}

/// Number of records attached to the calling thread (diagnostics/tests).
#[allow(dead_code)] // exercised from unit tests; handy when debugging
pub(crate) fn attached_records() -> usize {
    CTX.with(|ctx| {
        let mut n = 0;
        let mut cur = ctx.head.get();
        while !cur.is_null() {
            n += 1;
            cur = unsafe { (*cur).next.get() };
        }
        n
    })
}

/// Scans the calling (reclaimer) thread using its boundary context: the
/// stack from `floor` (the application/collector boundary captured on
/// entry to the collect) to the stack top, the callee-saved registers
/// captured with it, and every registered heap block. Acks on completion.
///
/// Returns `false` (no scan, no ack) when the caller is not registered.
///
/// Scanning from the *live* stack pointer instead would mark every node
/// the collect machinery itself touched during aggregation — see
/// `threadscan::selfscan` for the full argument.
pub(crate) fn scan_self(session: &ScanSession<'_>, ctx: &threadscan::SelfScanContext) -> bool {
    let participates = CTX.with(|c| !c.head.get().is_null());
    if !participates {
        return false;
    }
    if let Some((sink, id)) = session.telemetry() {
        sink.event(threadscan::PhaseKind::ScanBegin, id, 0);
    }
    scan_thread(session, ctx.regs(), Some(ctx.floor));
    if let Some((sink, id)) = session.telemetry() {
        sink.event(
            threadscan::PhaseKind::ScanEnd,
            id,
            session.words_scanned() as u64,
        );
    }
    session.ack();
    true
}

/// Shared scan body: `regs` are pre-captured register words; `floor`
/// overrides the scan's lower stack bound (defaults to the current frame).
#[inline]
fn scan_thread(session: &ScanSession<'_>, regs: &[usize], floor: Option<usize>) {
    session.scan_words(regs);
    CTX.with(|ctx| {
        let (lo, hi) = ctx.stack.get();
        if hi != 0 {
            let sp = floor.unwrap_or_else(approx_sp).max(lo);
            if sp < hi {
                // SAFETY: [sp, hi) is the live portion of this thread's own
                // stack, mapped and readable by construction.
                unsafe { session.scan_region(sp as *const u8, hi as *const u8) };
            }
        }
        let mut cur = ctx.head.get();
        while !cur.is_null() {
            // SAFETY: list records stay alive for the duration of a round
            // (unregistration takes the round lock).
            let rec = unsafe { &*cur };
            rec.roots.scan(session);
            cur = rec.next.get();
        }
    });
}

/// The installed signal handler: `TS-Scan` (Algorithm 1, lines 18-26).
pub(crate) extern "C" fn ts_signal_handler(
    _signo: libc::c_int,
    _info: *mut libc::siginfo_t,
    uctx: *mut libc::c_void,
) {
    let p = ACTIVE_SESSION.load(Ordering::Acquire);
    if p.is_null() {
        return; // stray signal between rounds
    }
    // SAFETY: non-null implies a round is active, and the reclaimer keeps
    // the session alive until every signaled thread (us included) acks.
    let session: &ScanSession<'_> = unsafe { &*(p as *const ScanSession<'_>) };

    let participate = CTX.with(|ctx| {
        if ctx.head.get().is_null() {
            return false; // not registered: not counted, must not ack
        }
        let round = CURRENT_ROUND.load(Ordering::Acquire);
        if ctx.last_round.replace(round) == round {
            return false; // duplicate signal within one round
        }
        true
    });
    if !participate {
        return;
    }

    // Telemetry stamps from handler context: `session.telemetry()` is a
    // plain field read, and the sink's `record` is contractually
    // async-signal-safe (one log write, no locks/allocation). When telemetry
    // is off this is one branch on a plain load — no atomics.
    if let Some((sink, id)) = session.telemetry() {
        sink.event(threadscan::PhaseKind::ScanBegin, id, 0);
    }
    let mut regs = [0usize; MAX_REGS];
    // SAFETY: `uctx` is the kernel-provided ucontext of this SA_SIGINFO
    // handler invocation.
    let n = unsafe { capture_registers(uctx, &mut regs) };
    scan_thread(session, &regs[..n], None);
    if let Some((sink, id)) = session.telemetry() {
        sink.event(
            threadscan::PhaseKind::ScanEnd,
            id,
            session.words_scanned() as u64,
        );
    }
    // The ack is the very last session access (the reclaimer may free the
    // session as soon as the count is complete).
    session.ack();
}
