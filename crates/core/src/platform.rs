//! The platform abstraction: how scans reach every thread.
//!
//! The paper's mechanism is OS signaling (§4.2). This crate keeps the
//! collect protocol (buffers, sorting, marking, sweeping) platform-neutral
//! behind [`Platform`]; the `ts-sigscan` crate implements it with real
//! POSIX signals and raw stack/register scanning, and `ts-simthread`
//! implements it with shadow stacks and a deterministic virtual-signal
//! handshake for model testing. Both run the round itself — open, claim,
//! scan and ack once per thread, wait — through one
//! [`Round`](crate::Round); a platform supplies only how a thread is
//! reached (a signal, a poll or a force-scan) and what it scans.

use std::sync::Arc;

use crate::roots::ThreadRoots;
use crate::selfscan::SelfScanContext;
use crate::session::ScanSession;

/// Outcome of one scan round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Registrations that scanned and acked, the reclaimer's own included
    /// (a thread registered twice with the platform counts twice).
    pub threads_scanned: usize,
}

/// A mechanism for making every registered thread scan its private roots.
///
/// # Safety
///
/// Implementations must guarantee that when [`Platform::scan_all`] returns:
///
/// 1. every thread registered with this platform at the start of the call
///    has scanned **all** of its private root locations — its stack and
///    register state as of some point during the call, plus every heap
///    block in its [`ThreadRoots`] — against `session`, and
/// 2. each such thread has called [`ScanSession::ack`] *after* finishing
///    its scan.
///
/// Violating this allows the collector to free memory that a thread still
/// references (the protocol's Lemma 1 depends on it).
/// [`Round`](crate::Round) is the shared way to meet (2):
/// [`Round::scan_once`](crate::Round::scan_once) acks once per
/// [`ScanClaim`](crate::ScanClaim) per round, and
/// [`Round::wait`](crate::Round::wait) returns once every expected claim
/// has. Its module doc says which claims a round may count on.
pub unsafe trait Platform: Send + Sync + 'static {
    /// Per-thread registration guard. Dropping it unregisters the thread.
    type ThreadToken;

    /// Registers the calling thread for future scan rounds. `roots` carries
    /// the thread's extra scan roots (§4.3 heap blocks); the platform adds
    /// the stack and registers itself.
    fn register_current(&self, roots: Arc<ThreadRoots>) -> Self::ThreadToken;

    /// Runs one scan round on behalf of the calling (reclaimer) thread:
    /// every registered thread — including the caller — scans and acks.
    /// Returns how many registrations scanned.
    ///
    /// `reclaimer` is the caller's application/collector boundary snapshot
    /// (see [`SelfScanContext`]): platforms that scan real stacks must
    /// scan the caller's stack from `reclaimer.floor` upward plus
    /// `reclaimer.regs()`, **not** the caller's live stack at scan time —
    /// the collect machinery's dead frames below the floor contain copies
    /// of every aggregated node address and would pin everything.
    ///
    /// The collector calls this while holding its reclaimer lock, so
    /// implementations may assume rounds do not overlap *for one
    /// collector*; rounds from different collectors sharing process-global
    /// state (e.g. a signal handler) must be serialized internally.
    fn scan_all(&self, session: &ScanSession<'_>, reclaimer: &SelfScanContext) -> ScanOutcome;
}

/// A platform with no threads to scan: only the reclaimer itself scans
/// nothing and every unmarked node is freed immediately.
///
/// Useful as a baseline ("what if scans were free and found nothing") and
/// for tests of the buffering/sweeping machinery in isolation. **Not safe
/// for real concurrent use**: it never looks at anyone's stack, so it
/// reclaims everything unconditionally.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullPlatform;

// SAFETY: trivially satisfies the contract because no thread is ever
// considered registered; there are no roots to miss. (The *collector-level*
// safety for real programs comes from not using this platform with shared
// data structures.)
unsafe impl Platform for NullPlatform {
    type ThreadToken = ();

    fn register_current(&self, _roots: Arc<ThreadRoots>) -> Self::ThreadToken {}

    fn scan_all(&self, session: &ScanSession<'_>, _reclaimer: &SelfScanContext) -> ScanOutcome {
        session.ack(); // the reclaimer "scans" (nothing) and acks
        ScanOutcome { threads_scanned: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollectorConfig;
    use crate::master::MasterBuffer;
    use crate::retired::{noop_drop, Retired};

    #[test]
    fn null_platform_acks_once_and_marks_nothing() {
        let mb = MasterBuffer::new(
            vec![unsafe { Retired::from_raw_parts(0x100, 8, noop_drop) }],
            &CollectorConfig::default(),
        );
        let session = mb.session();
        let outcome = NullPlatform.scan_all(&session, &SelfScanContext::empty());
        assert_eq!(outcome.threads_scanned, 1);
        assert_eq!(session.acks_received(), 1);
        assert!(!mb.is_marked(0));
    }
}
