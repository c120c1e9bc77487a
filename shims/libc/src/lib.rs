//! Offline stand-in for the `libc` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *exact* subset of `libc` it uses: C scalar types, the
//! signal/pthread surface of `ts-sigscan`, and the glibc struct layouts
//! it reads. Definitions mirror `libc` 0.2.x for
//! `x86_64-unknown-linux-gnu` / `aarch64-unknown-linux-gnu` — layouts
//! must match glibc exactly because kernel-written memory (`ucontext_t`,
//! `siginfo_t`) is reinterpreted through them.
//!
//! When a registry becomes reachable, delete `shims/libc` and point the
//! workspace dependency at crates.io `libc`; no source change is needed.

#![allow(non_camel_case_types, non_upper_case_globals)]
#![cfg(target_os = "linux")]

pub use core::ffi::c_void;

pub type c_char = i8;
pub type c_int = i32;
pub type c_uint = u32;
pub type c_long = i64;
pub type c_ulong = u64;
pub type size_t = usize;
pub type ssize_t = isize;
pub type time_t = i64;
pub type pthread_t = c_ulong;
pub type sighandler_t = size_t;
pub type greg_t = i64;

// ---------------------------------------------------------------------------
// Errno values (asm-generic, shared by x86_64 and aarch64).
// ---------------------------------------------------------------------------

pub const ESRCH: c_int = 3;
pub const EINTR: c_int = 4;
pub const EAGAIN: c_int = 11;
pub const EINVAL: c_int = 22;

// ---------------------------------------------------------------------------
// Signals.
// ---------------------------------------------------------------------------

pub const SIGUSR1: c_int = 10;
pub const SIGURG: c_int = 23;

pub const SA_SIGINFO: c_int = 0x0000_0004;
pub const SA_RESTART: c_int = 0x1000_0000;

extern "C" {
    fn __libc_current_sigrtmin() -> c_int;
    fn __libc_current_sigrtmax() -> c_int;
}

/// Lowest real-time signal number (glibc reserves the first few).
#[allow(non_snake_case)]
pub fn SIGRTMIN() -> c_int {
    unsafe { __libc_current_sigrtmin() }
}

/// Highest real-time signal number.
#[allow(non_snake_case)]
pub fn SIGRTMAX() -> c_int {
    unsafe { __libc_current_sigrtmax() }
}

// ---------------------------------------------------------------------------
// Structs (glibc layouts).
// ---------------------------------------------------------------------------

/// glibc `__sigset_t`: 1024 bits.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sigset_t {
    __val: [c_ulong; 16],
}

/// glibc userspace `struct sigaction` (NOT the raw kernel layout).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sigaction {
    /// Handler union: `sa_handler` / `sa_sigaction` share this slot.
    pub sa_sigaction: sighandler_t,
    pub sa_mask: sigset_t,
    pub sa_flags: c_int,
    pub sa_restorer: Option<extern "C" fn()>,
}

/// glibc `siginfo_t`: 128 bytes; only the leading fixed fields are typed.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct siginfo_t {
    pub si_signo: c_int,
    pub si_errno: c_int,
    pub si_code: c_int,
    #[doc(hidden)]
    _pad: [c_int; 29],
    _align: [usize; 0],
}

#[repr(C)]
#[derive(Clone, Copy)]
pub struct timespec {
    pub tv_sec: time_t,
    pub tv_nsec: c_long,
}

#[repr(C)]
#[derive(Clone, Copy)]
pub struct stack_t {
    pub ss_sp: *mut c_void,
    pub ss_flags: c_int,
    pub ss_size: size_t,
}

/// glibc `pthread_attr_t`: opaque 56-byte (x86_64) / 64-byte (aarch64)
/// union, align 8.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct pthread_attr_t {
    #[cfg(target_arch = "x86_64")]
    __size: [u64; 7],
    #[cfg(not(target_arch = "x86_64"))]
    __size: [u64; 8],
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::*;

    pub const NGREG: usize = 23;

    /// glibc x86_64 `mcontext_t`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct mcontext_t {
        pub gregs: [greg_t; NGREG],
        /// Really `*mut _libc_fpstate`; opaque here — never dereferenced.
        pub fpregs: *mut c_void,
        __reserved1: [u64; 8],
    }

    /// glibc x86_64 `ucontext_t`. The trailing FP-state storage and shadow
    /// stack words are kept as an opaque blob: the workspace only ever
    /// *reads* `uc_mcontext.gregs` through a kernel-provided pointer, and
    /// every field before the blob sits at its exact glibc offset.
    #[repr(C)]
    pub struct ucontext_t {
        pub uc_flags: c_ulong,
        pub uc_link: *mut ucontext_t,
        pub uc_stack: stack_t,
        pub uc_mcontext: mcontext_t,
        pub uc_sigmask: sigset_t,
        __fpregs_mem: [u64; 64],
        __ssp: [u64; 4],
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use super::*;

    /// glibc aarch64 `mcontext_t`.
    #[repr(C)]
    #[repr(align(16))]
    pub struct mcontext_t {
        pub fault_address: c_ulong,
        pub regs: [c_ulong; 31],
        pub sp: c_ulong,
        pub pc: c_ulong,
        pub pstate: c_ulong,
        __reserved: [u8; 4096],
    }

    /// glibc aarch64 `ucontext_t`.
    #[repr(C)]
    pub struct ucontext_t {
        pub uc_flags: c_ulong,
        pub uc_link: *mut ucontext_t,
        pub uc_stack: stack_t,
        pub uc_sigmask: sigset_t,
        pub uc_mcontext: mcontext_t,
    }
}

pub use arch::*;

// ---------------------------------------------------------------------------
// Functions (bound directly against glibc, which Rust links anyway).
// ---------------------------------------------------------------------------

extern "C" {
    pub fn sigaction(signum: c_int, act: *const sigaction, oldact: *mut sigaction) -> c_int;
    pub fn sigemptyset(set: *mut sigset_t) -> c_int;

    pub fn pthread_self() -> pthread_t;
    pub fn pthread_kill(thread: pthread_t, sig: c_int) -> c_int;
    pub fn pthread_equal(t1: pthread_t, t2: pthread_t) -> c_int;
    pub fn pthread_getattr_np(thread: pthread_t, attr: *mut pthread_attr_t) -> c_int;
    pub fn pthread_attr_getstack(
        attr: *const pthread_attr_t,
        stackaddr: *mut *mut c_void,
        stacksize: *mut size_t,
    ) -> c_int;
    pub fn pthread_attr_destroy(attr: *mut pthread_attr_t) -> c_int;

    pub fn close(fd: c_int) -> c_int;
    pub fn pipe(fds: *mut c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut c_void, count: size_t) -> ssize_t;
    pub fn write(fd: c_int, buf: *const c_void, count: size_t) -> ssize_t;
    pub fn nanosleep(req: *const timespec, rem: *mut timespec) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    // Layout guards: these offsets/sizes are what the kernel and glibc
    // actually use; a drift here corrupts signal-handler reads.
    #[test]
    fn glibc_layouts_match() {
        assert_eq!(core::mem::size_of::<sigset_t>(), 128);
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(core::mem::size_of::<sigaction>(), 152);
            assert_eq!(core::mem::offset_of!(ucontext_t, uc_mcontext), 40);
            assert_eq!(core::mem::size_of::<mcontext_t>(), 256);
            assert_eq!(core::mem::size_of::<pthread_attr_t>(), 56);
        }
        assert_eq!(core::mem::size_of::<siginfo_t>(), 128);
    }

    #[test]
    fn sigrtmin_is_sane() {
        let lo = SIGRTMIN();
        let hi = SIGRTMAX();
        assert!(lo > 31 && hi >= lo, "SIGRTMIN {lo} / SIGRTMAX {hi}");
    }
}
