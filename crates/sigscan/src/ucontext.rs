//! Register capture from the signal handler's `ucontext_t`.
//!
//! `TS-Scan` examines "each word chunk in thread's stack **and registers**"
//! (Algorithm 1, line 19). The third argument of an `SA_SIGINFO` handler
//! points at a `ucontext_t` holding the interrupted thread's complete
//! register file — exactly the registers that may cache a node reference
//! that has not (yet) been spilled to the stack.

/// Upper bound on general-purpose registers across supported targets.
pub const MAX_REGS: usize = 34;

/// Extracts the interrupted context's general-purpose registers into `out`,
/// returning how many were written.
///
/// Unsupported architectures return 0: the scan then relies on the stack
/// alone, which weakens conservatism (a register-only reference could be
/// missed) — hence the compile-time error below for unknown targets unless
/// the `permissive-arch` feature is set.
///
/// # Safety
///
/// `uctx` must be the `ucontext_t` pointer passed by the kernel to an
/// `SA_SIGINFO` signal handler on this thread.
pub unsafe fn capture_registers(uctx: *mut libc::c_void, out: &mut [usize; MAX_REGS]) -> usize {
    if uctx.is_null() {
        return 0;
    }
    imp::capture(uctx, out)
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use super::MAX_REGS;

    /// x86_64 Linux: `uc_mcontext.gregs` holds 23 entries (NGREG), of which
    /// the 16 architectural GPRs plus RIP can carry pointers; we scan all
    /// entries — the extras (flags, segment/err words) are just noise words
    /// that almost never alias a heap node's address range.
    pub unsafe fn capture(uctx: *mut libc::c_void, out: &mut [usize; MAX_REGS]) -> usize {
        let ctx = &*(uctx as *const libc::ucontext_t);
        let gregs = &ctx.uc_mcontext.gregs;
        let n = gregs.len().min(MAX_REGS);
        for (slot, &reg) in out.iter_mut().zip(gregs.iter()) {
            *slot = reg as usize;
        }
        n
    }
}

#[cfg(all(target_arch = "aarch64", target_os = "linux"))]
mod imp {
    use super::MAX_REGS;

    /// aarch64 Linux: x0..x30, sp, pc.
    pub unsafe fn capture(uctx: *mut libc::c_void, out: &mut [usize; MAX_REGS]) -> usize {
        let ctx = &*(uctx as *const libc::ucontext_t);
        let mc = &ctx.uc_mcontext;
        let mut n = 0;
        for &reg in mc.regs.iter() {
            if n == MAX_REGS {
                break;
            }
            out[n] = reg as usize;
            n += 1;
        }
        if n < MAX_REGS {
            out[n] = mc.sp as usize;
            n += 1;
        }
        if n < MAX_REGS {
            out[n] = mc.pc as usize;
            n += 1;
        }
        n
    }
}

#[cfg(not(any(
    all(target_arch = "x86_64", target_os = "linux"),
    all(target_arch = "aarch64", target_os = "linux"),
)))]
mod imp {
    use super::MAX_REGS;

    #[cfg(not(feature = "permissive-arch"))]
    compile_error!(
        "ts-sigscan supports x86_64-linux and aarch64-linux; enable the \
         `permissive-arch` feature to proceed with stack-only scanning \
         (weaker conservatism)"
    );

    pub unsafe fn capture(_uctx: *mut libc::c_void, _out: &mut [usize; MAX_REGS]) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

    static CAPTURED: AtomicUsize = AtomicUsize::new(0);
    static SENTINEL_SEEN: AtomicUsize = AtomicUsize::new(0);
    static SENTINEL: AtomicPtr<u8> = AtomicPtr::new(std::ptr::null_mut());

    extern "C" fn probe_handler(
        _sig: libc::c_int,
        _info: *mut libc::siginfo_t,
        uctx: *mut libc::c_void,
    ) {
        let mut regs = [0usize; MAX_REGS];
        let n = unsafe { capture_registers(uctx, &mut regs) };
        CAPTURED.store(n, Ordering::SeqCst);
        let sentinel = SENTINEL.load(Ordering::SeqCst) as usize;
        if regs[..n].contains(&sentinel) {
            SENTINEL_SEEN.store(1, Ordering::SeqCst);
        }
    }

    /// Raising a signal at ourselves and capturing the context must yield a
    /// plausible register file (non-zero count; stack pointer among them).
    #[test]
    fn capture_from_live_handler_returns_registers() {
        unsafe {
            let mut sa: libc::sigaction = std::mem::zeroed();
            sa.sa_sigaction = probe_handler as extern "C" fn(_, _, _) as usize;
            sa.sa_flags = libc::SA_SIGINFO | libc::SA_RESTART;
            libc::sigemptyset(&mut sa.sa_mask);
            let mut old: libc::sigaction = std::mem::zeroed();
            assert_eq!(libc::sigaction(libc::SIGURG, &sa, &mut old), 0);

            // Park a recognizable value where the compiler will very likely
            // keep it live in a register across the kill call.
            let marker = Box::new(0xfeed_f00du32);
            let ptr = Box::into_raw(marker);
            SENTINEL.store(ptr.cast(), Ordering::SeqCst);
            let held = std::hint::black_box(ptr);

            libc::pthread_kill(libc::pthread_self(), libc::SIGURG);

            // Keep `held` live past the signal.
            assert_eq!(*std::hint::black_box(held), 0xfeed_f00d);
            drop(Box::from_raw(held));

            assert!(
                CAPTURED.load(Ordering::SeqCst) >= 16,
                "expected at least 16 GPRs, got {}",
                CAPTURED.load(Ordering::SeqCst)
            );
            // Note: we do NOT assert SENTINEL_SEEN — the value may have been
            // spilled to the stack instead; register capture is one half of
            // the conservative net, the stack scan is the other.

            libc::sigaction(libc::SIGURG, &old, std::ptr::null_mut());
        }
    }
}
