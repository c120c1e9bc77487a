//! The signal handler and each thread's record list.
//!
//! One round = one `TS-Collect` scan phase, run through
//! [`threadscan::Round`]: the reclaimer opens its platform's round on its
//! session and signals the thread of every record its collector passes
//! in. Each handler invocation, like the reclaimer's self-scan, walks the
//! calling thread's record list (`scan_in_round`) and runs one
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
//!
//! Rounds of different platforms may overlap; nothing serialises them
//! process-wide. A handler run for one platform's signal scans the
//! thread's records of every platform whose round is open and unclaimed,
//! so a reclaimer interrupted by another collector's signal between
//! opening its own round and scanning itself scans its own record from
//! the handler's frame: the collect machinery's dead frames below it hold
//! copies of its aggregated addresses. That only adds false pins: the
//! nodes stay for a later phase. Only its own thread changes a list, one
//! store at a time, so a handler walks it as it stood before or after.

use std::ptr;
use std::sync::atomic::{compiler_fence, AtomicPtr, Ordering::Relaxed, Ordering::SeqCst};

use parking_lot::Mutex;

use crate::record::ThreadRecord;
use crate::stackbounds::approx_sp;
use crate::ucontext::{capture_registers, MAX_REGS};

/// Signal numbers that already have the ThreadScan handler installed.
static INSTALLED: Mutex<Vec<libc::c_int>> = Mutex::new(Vec::new());

thread_local! {
    /// Head of this thread's [`ThreadRecord`] list. Const-initialized and
    /// `Drop`-free, so access never allocates and works at any point in
    /// the thread's lifetime — including inside signal handlers.
    static HEAD: AtomicPtr<ThreadRecord> = const { AtomicPtr::new(ptr::null_mut()) };
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

/// Links `rec`, a record of the calling thread, into its record list.
pub(crate) fn attach_record(rec: &ThreadRecord) {
    HEAD.with(|head| {
        rec.linked.store(true, Relaxed);
        rec.next.store(head.load(Relaxed), Relaxed);
        // A handler may run between the two stores: it must see `rec`
        // whole once the head points at it.
        compiler_fence(SeqCst);
        head.store(ptr::from_ref(rec).cast_mut(), Relaxed);
    });
}

/// Unlinks `rec` from the calling thread's record list, if it is linked.
/// Aborts if it is linked into another thread's: freed, it would leave
/// that list dangling, and that thread's handler walks the list.
pub(crate) fn detach_record(rec: &ThreadRecord) {
    HEAD.with(|head| {
        let mut link = head;
        // SAFETY: a record is detached, on its own thread, before it is
        // freed, so every record in the list is alive.
        while let Some(cur) = unsafe { link.load(Relaxed).as_ref() } {
            if ptr::eq(cur, rec) {
                link.store(rec.next.load(Relaxed), Relaxed);
                rec.linked.store(false, Relaxed);
                // No handler run after this point reaches `rec`.
                compiler_fence(SeqCst);
                return;
            }
            link = &cur.next;
        }
        if rec.linked.load(Relaxed) {
            eprintln!("ThreadScan: a registration ended on a thread other than its own");
            std::process::abort();
        }
    });
}

/// Scans each of the calling thread's records in its platform's open
/// round, unless that record has scanned in it already: `regs` (register
/// words the caller captured), the stack from `floor` to its top, and the
/// record's heap blocks; then acks. Returns how many records scanned.
pub(crate) fn scan_in_round(regs: &[usize], floor: usize) -> usize {
    HEAD.with(|head| {
        let mut scanned = 0;
        let mut cur = head.load(Relaxed);
        // SAFETY: a record is detached, on this thread, before it is freed,
        // and this handler run ends before the code it interrupted resumes.
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
            cur = rec.next.load(Relaxed);
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

/// The calling thread's records, newest first.
#[cfg(test)]
pub(crate) fn attached() -> Vec<*const ThreadRecord> {
    let mut records = Vec::new();
    let mut cur = HEAD.with(|head| head.load(Relaxed));
    // SAFETY: as in `scan_in_round`; no record of this thread is freed
    // during the walk.
    while let Some(rec) = unsafe { cur.as_ref() } {
        records.push(ptr::from_ref(rec));
        cur = rec.next.load(Relaxed);
    }
    records
}
