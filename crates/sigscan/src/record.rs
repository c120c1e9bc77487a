//! Per-registration records.
//!
//! Each `Collector::register` call on a thread produces one
//! [`ThreadRecord`]: the thread's pthread id, its stack bounds, the
//! collector-specific extra roots (§4.3 heap blocks) and its claim on its
//! platform's round. Records are linked into a thread-local list that the
//! signal handler walks; each record scans the stack, the registers and
//! its own heap blocks and acks once per round of its own platform.

use std::cell::Cell;
use std::sync::Arc;

use threadscan::{Round, ScanClaim, ThreadRoots};

use crate::stackbounds::StackBounds;

/// One (thread × collector) registration.
pub struct ThreadRecord {
    /// pthread id used as the signal target.
    pub(crate) pthread: libc::pthread_t,
    /// The registering thread's stack bounds.
    pub(crate) stack: StackBounds,
    /// Extra roots contributed by this registration.
    pub(crate) roots: Arc<ThreadRoots>,
    /// The round of the platform this record is registered with.
    pub(crate) round: Arc<Round>,
    /// The last round of `round` this record scanned in.
    pub(crate) claim: ScanClaim,
    /// Next record of the same thread (thread-local intrusive list). Only
    /// the owning thread writes this; the owning thread's signal handler
    /// reads it. Single-word reads/writes on the same thread are always
    /// consistent with respect to that thread's own signal handlers.
    pub(crate) next: Cell<*const ThreadRecord>,
}

// SAFETY: `next` is only touched by the owning thread and its signal
// handler (same thread); all other fields are immutable after construction
// or internally synchronized (`ThreadRoots`, `Round` and `ScanClaim` use
// atomics).
unsafe impl Send for ThreadRecord {}
unsafe impl Sync for ThreadRecord {}

impl ThreadRecord {
    /// A record of the calling thread. The caller holds the lock that
    /// opens `round`, so the claim can win every later round and no open
    /// one.
    pub(crate) fn new(stack: StackBounds, roots: Arc<ThreadRoots>, round: &Arc<Round>) -> Self {
        Self {
            pthread: unsafe { libc::pthread_self() },
            stack,
            roots,
            claim: ScanClaim::at(round),
            round: Arc::clone(round),
            next: Cell::new(std::ptr::null()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stackbounds::current_stack_bounds;

    #[test]
    fn record_captures_calling_thread_identity() {
        let roots = Arc::new(ThreadRoots::new(4));
        let round = Arc::new(Round::new());
        let rec = ThreadRecord::new(current_stack_bounds().unwrap(), roots, &round);
        assert_eq!(rec.pthread, unsafe { libc::pthread_self() });
        let local = 0u8;
        assert!(rec.stack.contains(&local as *const u8 as usize));
        assert!(rec.next.get().is_null());
    }
}
