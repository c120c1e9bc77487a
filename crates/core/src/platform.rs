//! The platform abstraction: how a scan round reaches every thread.
//!
//! The paper's mechanism is OS signaling (§4.2). The collect protocol and
//! the scan round itself ([`Round::run`](crate::Round::run)) are
//! platform-neutral; a [`Platform`] supplies what a record scans, how
//! another thread is reached, how long a round waits for it and what
//! then. `ts-sigscan` implements it with POSIX signals and raw
//! stack/register scans, `ts-simthread` with shadow stacks and virtual
//! signals for model testing. Who may claim a round, and why: the
//! [`round`](crate::round) module doc.

use std::sync::Arc;
use std::time::Duration;

use crate::roots::ThreadRoots;
use crate::round::ScanClaim;
use crate::selfscan::SelfScanContext;

/// The right to call a [`Platform`]'s methods and
/// [`Round::run`](crate::Round::run). A round counts only the records it
/// is given, so a collector alone may register with its platform and run
/// its rounds: [`Collector`](crate::Collector) holds a key, and safe code
/// can make no other. The two examples differ only in the line that makes
/// the key; the second keeps the key's contract, as its record's round
/// never opens and it is unregistered on its own thread.
///
/// ```compile_fail
/// # use std::sync::Arc;
/// # use threadscan::*;
/// let key = RegistryKey(());
/// let claim = ScanClaim::at(&Arc::new(Round::new()));
/// let record = NullPlatform.register_current(&key, Arc::new(ThreadRoots::new(4)), claim);
/// NullPlatform.unregister_current(&key, &record);
/// ```
///
/// ```
/// # use std::sync::Arc;
/// # use threadscan::*;
/// let key = unsafe { RegistryKey::new() };
/// let claim = ScanClaim::at(&Arc::new(Round::new()));
/// let record = NullPlatform.register_current(&key, Arc::new(ThreadRoots::new(4)), claim);
/// NullPlatform.unregister_current(&key, &record);
/// ```
pub struct RegistryKey(pub(crate) ());

impl RegistryKey {
    /// A key for a caller that drives a platform itself, such as a test.
    ///
    /// # Safety
    ///
    /// The caller keeps the collector's discipline with the key: it makes
    /// each platform's calls, and runs each [`Round`](crate::Round)'s
    /// rounds, one at a time; gives each [`Round::run`](crate::Round::run)
    /// every record registered with a claim on that round and not yet
    /// unregistered, each with the thread that registered it; and
    /// unregisters each record on its own thread before dropping it.
    pub unsafe fn new() -> Self {
        Self(())
    }
}

/// What a scan round needs from a platform: each record's scan, and how
/// a round reaches another thread's. [`Round::run`](crate::Round::run)
/// drives it, with a [`RegistryKey`]; a method that panics inside a round
/// aborts the process there.
///
/// # Safety
///
/// Implementations must guarantee that a record acks a round only
/// through the [`ScanClaim`] it was registered with, and only after its
/// thread's private roots have been scanned against the round's session:
/// its stack and registers as of some point during the round, plus every
/// heap block in the record's [`ThreadRoots`]. A caller's own record, in
/// [`Platform::scan_own`], scans its stack from `reclaimer.floor` upward
/// and `reclaimer.regs()` instead of its live stack: the collect
/// machinery's dead frames below the floor hold copies of every
/// aggregated node address and would pin everything. [`Platform::reach`]
/// returns `false` only for a thread that has exited.
///
/// Violating this allows the collector to free memory that a thread still
/// references (the protocol's Lemma 1 depends on it).
pub unsafe trait Platform: Send + Sync + 'static {
    /// One registration: whatever a round needs to reach the registering
    /// thread and what that thread scans.
    type Record: Send + Sync;

    /// Registers the calling thread and returns its record, which acks
    /// through `claim`. `roots` carries the thread's extra scan roots
    /// (§4.3 heap blocks); the platform adds the stack and registers
    /// itself.
    fn register_current(
        &self,
        key: &RegistryKey,
        roots: Arc<ThreadRoots>,
        claim: ScanClaim,
    ) -> Self::Record;

    /// Ends `record`'s registration, on the thread that made it and before
    /// the record is dropped; by default there is nothing to end.
    fn unregister_current(&self, _key: &RegistryKey, _record: &Self::Record) {}

    /// Scans and acks `record`, one of the calling reclaimer's own, in the
    /// open round, unless it has already; `reclaimer` is the caller's
    /// application/collector boundary (see [`SelfScanContext`]).
    fn scan_own(&self, key: &RegistryKey, record: &Self::Record, reclaimer: &SelfScanContext);

    /// Asks the thread of `record`, another thread than the caller, to
    /// scan and ack each of its records in the open round. Returns whether
    /// it will: `false` if the thread has exited. By default the thread
    /// finds the open round on its own.
    fn reach(&self, _key: &RegistryKey, _record: &Self::Record) -> bool {
        true
    }

    /// How long a round waits for its acks before it calls
    /// [`Platform::overdue`]; by default not at all.
    fn patience(&self) -> Duration {
        Duration::ZERO
    }

    /// Runs on each of the round's records, repeatedly, once the patience
    /// has passed and until the round has all its acks.
    fn overdue(&self, key: &RegistryKey, record: &Self::Record);
}

/// A platform whose threads have no private roots: a round acks each
/// record at once and every unmarked node is freed immediately.
///
/// Useful as a baseline ("what if scans were free and found nothing") and
/// for tests of the buffering/sweeping machinery in isolation. **Not safe
/// for real concurrent use**: it never looks at anyone's stack, so it
/// reclaims everything unconditionally.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullPlatform;

// SAFETY: trivially satisfies the contract because no thread is ever
// considered to hold roots. (The *collector-level* safety for real
// programs comes from not using this platform with shared data.)
unsafe impl Platform for NullPlatform {
    type Record = ScanClaim;

    fn register_current(&self, _: &RegistryKey, _: Arc<ThreadRoots>, c: ScanClaim) -> ScanClaim {
        c
    }

    fn scan_own(&self, key: &RegistryKey, claim: &ScanClaim, _: &SelfScanContext) {
        self.overdue(key, claim);
    }

    fn overdue(&self, _: &RegistryKey, claim: &ScanClaim) {
        claim.scan_once(|_| {}); // "scans" nothing and acks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollectorConfig;
    use crate::master::MasterBuffer;
    use crate::retired::{noop_drop, Retired};
    use crate::round::Round;

    #[test]
    fn null_platform_acks_once_and_marks_nothing() {
        let mb = MasterBuffer::new(
            vec![unsafe { Retired::from_raw_parts(0x100, 8, noop_drop) }],
            &CollectorConfig::default(),
        );
        let session = mb.session();
        let round = Arc::new(Round::new());
        let key = RegistryKey(());
        let claim = NullPlatform.register_current(
            &key,
            Arc::new(ThreadRoots::new(1)),
            ScanClaim::at(&round),
        );
        let me = std::thread::current().id();
        let scanned = round.run(
            &NullPlatform,
            &key,
            &session,
            &SelfScanContext::empty(),
            [(me, &claim)].into_iter(),
        );
        assert_eq!(scanned, 1);
        assert_eq!(session.acks_received(), 1);
        assert!(!mb.is_marked(0));
    }
}
