//! # ts-sigscan — the OS-signaling platform for ThreadScan
//!
//! Implements `threadscan::Platform` exactly the way the paper does (§4.2):
//!
//! * inter-thread communication via **POSIX signals** (`sigaction` with
//!   `SA_SIGINFO | SA_RESTART`, delivery via `pthread_kill`);
//! * **stack bounds** discovered per thread with `pthread_getattr_np`
//!   (Rust's explicit registration replaces the paper's `pthread_create`
//!   hook);
//! * **register capture** from the handler's `ucontext_t`, so references
//!   living only in registers are still observed;
//! * an acknowledgment counter the reclaimer spins on (Algorithm 1 line 9).
//!
//! ```no_run
//! use threadscan::Collector;
//! use ts_sigscan::SignalPlatform;
//!
//! let collector = Collector::new(SignalPlatform::new().unwrap());
//! let handle = collector.register(); // per accessing thread
//! let node = Box::into_raw(Box::new(42u64));
//! // ... unlink node from the shared structure ...
//! unsafe { handle.retire(node) };
//! ```
//!
//! Linux-only (x86_64 and aarch64). See `SignalPlatform` for the signal
//! ownership and thread-discipline requirements.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg(unix)]

mod handler;
mod record;
pub mod stackbounds;
pub mod ucontext;

mod platform;

pub use platform::SignalPlatform;
pub use stackbounds::{current_stack_bounds, StackBounds};
