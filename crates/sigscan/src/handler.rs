//! The signal handler and the process-wide round lock.
//!
//! One round = one `TS-Collect` scan phase, run through
//! [`threadscan::Round`]: the reclaimer opens its platform's round on its
//! session and signals the thread of every record registered with that
//! platform. Each handler invocation, like the reclaimer's self-scan, walks
//! the calling thread's record list (`scan_in_round`) and runs one
//! [`Round::scan_once`](threadscan::Round::scan_once) per record on the
//! record's own round and claim, which
//!
//! 1. finds no open round (a stray signal, or a record of another
//!    platform) or a round this record already scanned in (a duplicate)
//!    and does nothing; or
//! 2. scans the interrupted register file (from `ucontext_t`), the stack
//!    from the interrupted frame upward, and the record's heap blocks —
//!    each word binary-searched against the session's sorted master
//!    buffer — and acknowledges.
//!
//! Everything on this path is async-signal-safe: const-initialized TLS
//! reads, raw memory walks, and atomics. No allocation, locks, or panics.

use std::cell::Cell;
use std::ptr;

use parking_lot::Mutex;

use crate::record::ThreadRecord;
use crate::stackbounds::approx_sp;
use crate::ucontext::{capture_registers, MAX_REGS};

/// Serializes rounds *and* registration changes process-wide. Held by the
/// reclaimer for the whole broadcast-scan-ack cycle, and by threads while
/// they register/unregister — so a record can never disappear mid-round,
/// and every claim is made between rounds.
static ROUND_LOCK: Mutex<()> = Mutex::new(());

/// Signal numbers that already have the ThreadScan handler installed.
static INSTALLED: Mutex<Vec<libc::c_int>> = Mutex::new(Vec::new());

thread_local! {
    /// Head of this thread's [`ThreadRecord`] list. Const-initialized and
    /// `Drop`-free, so access never allocates and works at any point in
    /// the thread's lifetime — including inside signal handlers.
    static HEAD: Cell<*const ThreadRecord> = const { Cell::new(ptr::null()) };
}

/// Acquires the process-wide round/registration lock.
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

/// Links `rec` into the calling thread's record list. Caller must hold
/// the round lock.
pub(crate) fn attach_record(rec: &ThreadRecord) {
    HEAD.with(|head| {
        rec.next.set(head.get());
        head.set(rec as *const ThreadRecord);
    });
}

/// Unlinks `rec` from the calling thread's record list. Caller must hold
/// the round lock (so no round is mid-flight while the list changes).
pub(crate) fn detach_record(rec: &ThreadRecord) {
    HEAD.with(|head| {
        let mut link = head;
        // SAFETY: records in the list are kept alive by their tokens,
        // which detach before dropping.
        while let Some(cur) = unsafe { link.get().as_ref() } {
            if ptr::eq(cur, rec) {
                link.set(rec.next.get());
                return;
            }
            link = &cur.next;
        }
        debug_assert!(false, "detach_record: record not found in TLS list");
    });
}

/// Scans each of the calling thread's records in its platform's open
/// round, unless that record has scanned in it already: `regs` (register
/// words the caller captured), the stack from `floor` to its top, and the
/// record's heap blocks; then acks. Returns how many records scanned.
pub(crate) fn scan_in_round(regs: &[usize], floor: usize) -> usize {
    HEAD.with(|head| {
        let mut scanned = 0;
        let mut cur = head.get();
        // SAFETY: list records stay alive for the duration of a round
        // (unregistration takes the round lock).
        while let Some(rec) = unsafe { cur.as_ref() } {
            scanned += usize::from(rec.round.scan_once(&rec.claim, |session| {
                session.scan_words(regs);
                let (sp, hi) = (floor.max(rec.stack.lo), rec.stack.hi);
                if sp < hi {
                    // SAFETY: [sp, hi) is the live portion of this thread's
                    // own stack, mapped and readable by construction.
                    unsafe { session.scan_region(sp as *const u8, hi as *const u8) };
                }
                rec.roots.scan(session);
            }));
            cur = rec.next.get();
        }
        scanned
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
    let mut n = 0;
    let mut cur = HEAD.with(Cell::get);
    while let Some(rec) = unsafe { cur.as_ref() } {
        n += 1;
        cur = rec.next.get();
    }
    n
}
