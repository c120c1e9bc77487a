//! Per-registration records.
//!
//! Each `Collector::register` call on a thread produces one
//! [`ThreadRecord`]: the thread's pthread id, its stack bounds, the
//! collector-specific extra roots (§4.3 heap blocks) and the claim on its
//! collector's round that the collector made. The collector's registry
//! holds the record, boxed: the thread-local list that the signal handler
//! walks points at it, so its address must not change, and it leaves that
//! list on its own thread: ending it on another aborts the process. Each
//! record scans the stack, the registers and its own heap blocks and acks
//! once per round of its own collector.

use std::sync::atomic::{AtomicBool, AtomicPtr};
use std::sync::Arc;

use threadscan::{ScanClaim, ThreadRoots};

use crate::stackbounds::StackBounds;

/// One (thread × collector) registration.
pub struct ThreadRecord {
    /// pthread id used as the signal target.
    pub(crate) pthread: libc::pthread_t,
    /// The registering thread's stack bounds.
    pub(crate) stack: StackBounds,
    /// Extra roots contributed by this registration.
    pub(crate) roots: Arc<ThreadRoots>,
    /// The record's claim on its collector's round.
    pub(crate) claim: ScanClaim,
    /// Next record of the same thread (thread-local intrusive list). Only
    /// the owning thread writes this, and its signal handler reads it, so
    /// relaxed single-word accesses suffice.
    pub(crate) next: AtomicPtr<ThreadRecord>,
    /// Whether the record is in its thread's list. Written on that thread;
    /// read where the record is dropped, after the move that took it there.
    pub(crate) linked: AtomicBool,
}

impl ThreadRecord {
    /// A record of the calling thread.
    pub(crate) fn new(stack: StackBounds, roots: Arc<ThreadRoots>, claim: ScanClaim) -> Self {
        Self {
            pthread: unsafe { libc::pthread_self() },
            stack,
            roots,
            claim,
            next: AtomicPtr::default(),
            linked: AtomicBool::new(false),
        }
    }
}

impl Drop for ThreadRecord {
    fn drop(&mut self) {
        // Unregistration detached it already; this keeps a record dropped
        // without one from dangling in the list, or aborts if that list is
        // another thread's.
        crate::handler::detach_record(self);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stackbounds::current_stack_bounds;
    use threadscan::Round;

    /// A claim on a round that never opens.
    pub(crate) fn idle_claim() -> ScanClaim {
        ScanClaim::at(&Arc::new(Round::new()))
    }

    #[test]
    fn record_captures_calling_thread_identity() {
        let roots = Arc::new(ThreadRoots::new(4));
        let rec = ThreadRecord::new(current_stack_bounds().unwrap(), roots, idle_claim());
        assert_eq!(rec.pthread, unsafe { libc::pthread_self() });
        let local = 0u8;
        assert!(rec.stack.contains(&local as *const u8 as usize));
        use std::sync::atomic::Ordering::Relaxed;
        assert!(rec.next.load(Relaxed).is_null() && !rec.linked.load(Relaxed));
    }

    /// A record of the calling thread, linked into its list.
    fn attached_record() -> Box<ThreadRecord> {
        let roots = Arc::new(ThreadRoots::new(4));
        let rec = Box::new(ThreadRecord::new(
            current_stack_bounds().unwrap(),
            roots,
            idle_claim(),
        ));
        crate::handler::attach_record(&rec);
        rec
    }

    #[test]
    fn a_detached_record_may_be_dropped_on_another_thread() {
        let rec = std::thread::spawn(|| {
            let rec = attached_record();
            crate::handler::detach_record(&rec);
            rec
        })
        .join()
        .unwrap();
        let before = crate::handler::attached().len();
        drop(rec);
        assert_eq!(crate::handler::attached().len(), before);
    }

    /// Set in the child process that `a_linked_record_dropped_off_its_thread_aborts`
    /// starts, which runs only that test.
    const ABORT_CHILD: &str = "TS_SIGSCAN_ABORT_CHILD";

    /// A record still linked into its own thread's list and dropped on
    /// another would leave that list dangling: the drop aborts the process
    /// instead. The test runs the drop in a child process.
    #[test]
    fn a_linked_record_dropped_off_its_thread_aborts() {
        use std::os::unix::process::ExitStatusExt;

        const NAME: &str = "record::tests::a_linked_record_dropped_off_its_thread_aborts";
        if std::env::var_os(ABORT_CHILD).is_some() {
            let rec = std::thread::spawn(attached_record).join().unwrap();
            drop(rec);
            return; // not reached
        }
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args([NAME, "--exact", "--nocapture"])
            .env(ABORT_CHILD, "1")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&child.stderr);
        const SIGABRT: i32 = 6; // Linux
        assert_eq!(child.status.signal(), Some(SIGABRT), "{stderr}");
        assert!(stderr.contains("a registration ended on a thread other than its own"));
    }
}
