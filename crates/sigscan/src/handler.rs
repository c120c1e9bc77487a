//! The signal handler and the process-global round.
//!
//! One round = one `TS-Collect` scan phase, run through
//! [`threadscan::Round`]: the reclaimer opens [`ROUND`] on its session and
//! signals every registered thread. Each handler invocation, like the
//! reclaimer's self-scan, is one [`Round::scan_once`] on the thread's
//! [`ScanClaim`] (`scan_in_round`), which
//!
//! 1. finds the thread unregistered, no open round (a stray signal) or a
//!    round this thread already scanned in (a duplicate) and returns; or
//! 2. scans the interrupted register file (from `ucontext_t`), the stack
//!    from the interrupted frame upward, and all registered heap blocks —
//!    each word binary-searched against the session's sorted master
//!    buffer — and acknowledges.
//!
//! Everything on this path is async-signal-safe: const-initialized TLS
//! reads, raw memory walks, and atomics. No allocation, locks, or panics.

use std::cell::Cell;
use std::ptr;

use parking_lot::Mutex;
use threadscan::{Round, ScanClaim};

use crate::record::ThreadRecord;
use crate::stackbounds::approx_sp;
use crate::ucontext::{capture_registers, MAX_REGS};

/// The in-flight round, shared by every `SignalPlatform` in the process and
/// opened and closed under [`ROUND_LOCK`].
pub(crate) static ROUND: Round = Round::new();

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
            claim: ScanClaim::new(),
        }
    };
}

struct ThreadCtx {
    /// `(lo, hi)` stack bounds, set at first registration.
    stack: Cell<(usize, usize)>,
    /// Head of this thread's [`ThreadRecord`] list.
    head: Cell<*const ThreadRecord>,
    /// The last round this thread scanned in. Registration happens only
    /// between rounds, and every registered thread is signaled, so the
    /// const-initialized claim is always one the open round expects.
    claim: ScanClaim,
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

/// Scans the calling thread in the open round, unless it is not registered
/// (not counted, so it must not ack) or has scanned in this round already:
/// `regs` (register words the caller captured), the stack from `floor` to
/// its top, and every registered heap block; then acks. Returns whether it
/// scanned.
pub(crate) fn scan_in_round(regs: &[usize], floor: usize) -> bool {
    CTX.with(|ctx| {
        !ctx.head.get().is_null()
            && ROUND.scan_once(&ctx.claim, |session| {
                session.scan_words(regs);
                let (lo, hi) = ctx.stack.get();
                let sp = floor.max(lo);
                if hi != 0 && sp < hi {
                    // SAFETY: [sp, hi) is the live portion of this thread's
                    // own stack, mapped and readable by construction.
                    unsafe { session.scan_region(sp as *const u8, hi as *const u8) };
                }
                let mut cur = ctx.head.get();
                while !cur.is_null() {
                    // SAFETY: list records stay alive for the duration of a
                    // round (unregistration takes the round lock).
                    let rec = unsafe { &*cur };
                    rec.roots.scan(session);
                    cur = rec.next.get();
                }
            })
    })
}

/// The installed signal handler: `TS-Scan` (Algorithm 1, lines 18-26).
pub(crate) extern "C" fn ts_signal_handler(
    _signo: libc::c_int,
    _info: *mut libc::siginfo_t,
    uctx: *mut libc::c_void,
) {
    let mut regs = [0usize; MAX_REGS];
    // SAFETY: `uctx` is the kernel-provided ucontext of this SA_SIGINFO
    // handler invocation.
    let n = unsafe { capture_registers(uctx, &mut regs) };
    // The stack from this frame up holds the interrupted frames.
    scan_in_round(&regs[..n], approx_sp());
}

/// Number of records attached to the calling thread.
#[cfg(test)]
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
