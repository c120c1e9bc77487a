//! The platform abstraction: how scans reach every thread.
//!
//! The paper's mechanism is OS signaling (§4.2). This crate keeps the
//! collect protocol (buffers, sorting, marking, sweeping) platform-neutral
//! behind [`Platform`]; the `ts-sigscan` crate implements it with real
//! POSIX signals and raw stack/register scanning, and `ts-simthread`
//! implements it with shadow stacks and a deterministic virtual-signal
//! handshake for model testing. Both run the round itself — open, claim,
//! scan and ack once per record, wait — through one
//! [`Round`](crate::Round); a platform supplies only how a thread is
//! reached (a signal, a poll or a force-scan) and what it scans. Which
//! threads a round reaches is the collector's to say: it keeps the one
//! registry, and passes a round the records of its registered threads.

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

/// The right to call a [`Platform`]'s methods. A round counts only the
/// records it is given, so a platform's one registry alone may register
/// with it: [`Collector`](crate::Collector) holds a key, and safe code can
/// make no other.
///
/// ```compile_fail
/// # use threadscan::*;
/// let collector = Collector::new(NullPlatform);
/// let roots = std::sync::Arc::new(ThreadRoots::new(4));
/// collector.platform().register_current(&RegistryKey(()), roots);
/// ```
pub struct RegistryKey(pub(crate) ());

impl RegistryKey {
    /// A key for a caller that drives a platform itself, such as a test.
    ///
    /// # Safety
    ///
    /// The caller keeps the collector's discipline on each platform it
    /// uses the key with: it makes all of the platform's calls, one at a
    /// time, passes each [`Platform::scan_all`] every record registered
    /// and not yet unregistered, and unregisters each record on its own
    /// thread before dropping it.
    pub unsafe fn new() -> Self {
        Self(())
    }
}

/// A mechanism for making every registered thread scan its private roots.
///
/// The collector drives it: it calls [`Platform::register_current`] and
/// [`Platform::unregister_current`] on the registering thread, and
/// [`Platform::scan_all`] with the record of every thread registered with
/// it, all three under its reclaimer lock and each with a [`RegistryKey`].
/// So a platform's rounds never overlap one another or a registration
/// change, and every record that can claim a round is one the round is
/// given. Implementations rely on that.
///
/// # Safety
///
/// Implementations must guarantee that when [`Platform::scan_all`] returns:
///
/// 1. the thread of each record passed to the call has scanned **all** of
///    its private root locations — its stack and register state as of
///    some point during the call, plus every heap block in the record's
///    [`ThreadRoots`] — against `session`, and
/// 2. has called [`ScanSession::ack`] for that record *after* finishing
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
    /// One registration: whatever a round needs to reach the registering
    /// thread and what that thread scans.
    type Record: Send + Sync;

    /// Registers the calling thread and returns its record, which can
    /// claim every round opened after this call and none before. `roots`
    /// carries the thread's extra scan roots (§4.3 heap blocks); the
    /// platform adds the stack and registers itself.
    fn register_current(&self, key: &RegistryKey, roots: Arc<ThreadRoots>) -> Self::Record;

    /// Ends `record`'s registration, on the thread that made it and before
    /// the record is dropped: it claims no later round.
    fn unregister_current(&self, key: &RegistryKey, record: &Self::Record);

    /// Runs one scan round on behalf of the calling (reclaimer) thread:
    /// the thread of each of `records` — the caller among them — scans
    /// and acks once per record. Returns how many records scanned.
    ///
    /// `reclaimer` is the caller's application/collector boundary snapshot
    /// (see [`SelfScanContext`]): platforms that scan real stacks must
    /// scan the caller's stack from `reclaimer.floor` upward plus
    /// `reclaimer.regs()`, **not** the caller's live stack at scan time —
    /// the collect machinery's dead frames below the floor contain copies
    /// of every aggregated node address and would pin everything.
    fn scan_all<'r>(
        &self,
        key: &RegistryKey,
        session: &ScanSession<'_>,
        reclaimer: &SelfScanContext,
        records: impl ExactSizeIterator<Item = &'r Self::Record>,
    ) -> ScanOutcome;
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
    type Record = ();

    fn register_current(&self, _: &RegistryKey, _roots: Arc<ThreadRoots>) {}

    fn unregister_current(&self, _: &RegistryKey, _record: &()) {}

    fn scan_all<'r>(
        &self,
        _: &RegistryKey,
        session: &ScanSession<'_>,
        _reclaimer: &SelfScanContext,
        _records: impl ExactSizeIterator<Item = &'r ()>,
    ) -> ScanOutcome {
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
        let outcome = NullPlatform.scan_all(
            &RegistryKey(()),
            &session,
            &SelfScanContext::empty(),
            [&()].into_iter(),
        );
        assert_eq!(outcome.threads_scanned, 1);
        assert_eq!(session.acks_received(), 1);
        assert!(!mb.is_marked(0));
    }
}
