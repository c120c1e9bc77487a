//! StackTrack-style precise tracking (Alistarh et al., EuroSys 2014) —
//! the fourth comparator mentioned in the paper's §6 text.
//!
//! Real StackTrack wraps operation segments in **hardware transactions**:
//! readers track the nodes they touch with plain writes, and the HTM
//! machinery guarantees the reclaimer observes a consistent view — the
//! *reclaimer* pays for synchronization, readers stay cheap. HTM is not
//! available here (neither on this hardware nor in stable Rust), so this
//! emulation preserves the property with a different mechanism
//! (the substitution, in full):
//!
//! * each thread records every traversed node in a fixed **window ring**
//!   with plain release stores — no fences, no validation loop re-fencing;
//! * the reclaimer, before scanning the rings, executes a process-wide
//!   `membarrier(2)` (asymmetric fence): every reader's pending ring
//!   stores become visible before the scan reads them, restoring the
//!   HP-style publication guarantee without per-read fences (the same
//!   trick production hazard-pointer implementations use);
//! * when `membarrier` is unavailable the per-read path falls back to a
//!   SeqCst fence (degrading to hazard-pointer cost).
//!
//! The window emulates StackTrack's transaction *segments*: only a
//! bounded suffix of touched nodes is considered live, exactly like a
//! committed segment dropping its dead references. The evaluation
//! structures hold at most a handful of simultaneous references, far
//! below the default window of 128.

use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::api::{DropFn, Smr, SmrHandle};

const TAG_MASK: usize = 0b111;

// Linux membarrier commands (not exposed as libc constants everywhere).
const MEMBARRIER_CMD_PRIVATE_EXPEDITED: libc::c_int = 1 << 3;
const MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED: libc::c_int = 1 << 4;

fn membarrier(cmd: libc::c_int) -> bool {
    // SAFETY: plain syscall with integer args.
    unsafe { libc::syscall(libc::SYS_membarrier, cmd, 0, 0) == 0 }
}

struct RetiredRec {
    addr: usize,
    drop_fn: DropFn,
}

struct StRec {
    /// Window ring of recently traversed node addresses.
    ring: Box<[AtomicUsize]>,
    /// Monotonic write position (slot = head % window).
    head: AtomicUsize,
    /// Owner handle still alive?
    live: std::sync::atomic::AtomicBool,
}

struct StInner {
    window: usize,
    scan_threshold: usize,
    threads: Mutex<Vec<Arc<StRec>>>,
    orphans: Mutex<Vec<RetiredRec>>,
    outstanding: AtomicUsize,
    /// Asymmetric fences available?
    membarrier_ok: bool,
}

/// The StackTrack-style scheme.
pub struct StackTrackSim {
    inner: Arc<StInner>,
}

impl StackTrackSim {
    /// Window 128, scan threshold 128.
    pub fn new() -> Self {
        Self::with_params(128, 128)
    }

    /// Custom window (segment size) and retired-list scan threshold.
    pub fn with_params(window: usize, scan_threshold: usize) -> Self {
        assert!(window >= 4);
        assert!(scan_threshold >= 1);
        let membarrier_ok = membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED);
        Self {
            inner: Arc::new(StInner {
                window,
                scan_threshold,
                threads: Mutex::new(Vec::new()),
                orphans: Mutex::new(Vec::new()),
                outstanding: AtomicUsize::new(0),
                membarrier_ok,
            }),
        }
    }

    /// Whether the asymmetric-fence fast path is active.
    pub fn uses_membarrier(&self) -> bool {
        self.inner.membarrier_ok
    }
}

impl Default for StackTrackSim {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-thread StackTrack handle.
pub struct StHandle {
    inner: Arc<StInner>,
    rec: Arc<StRec>,
    retired: RefCell<Vec<RetiredRec>>,
}

impl Smr for StackTrackSim {
    type Handle = StHandle;

    fn register(&self) -> StHandle {
        let rec = Arc::new(StRec {
            ring: (0..self.inner.window)
                .map(|_| AtomicUsize::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            head: AtomicUsize::new(0),
            live: std::sync::atomic::AtomicBool::new(true),
        });
        self.inner.threads.lock().push(Arc::clone(&rec));
        StHandle {
            inner: Arc::clone(&self.inner),
            rec,
            retired: RefCell::new(Vec::new()),
        }
    }

    fn name(&self) -> &'static str {
        "stacktrack"
    }

    fn outstanding(&self) -> usize {
        self.inner.outstanding.load(Ordering::Relaxed)
    }

    fn quiesce(&self) {
        scan_and_free(&self.inner, &mut Vec::new());
    }
}

/// Reclaimer-side scan: asymmetric fence, snapshot every ring, free
/// retired nodes that appear in no window.
fn scan_and_free(inner: &StInner, retired: &mut Vec<RetiredRec>) {
    // The reclaimer pays for consistency (the StackTrack property): make
    // every reader's ring stores visible before reading the rings.
    if inner.membarrier_ok {
        membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED);
    }
    fence(Ordering::SeqCst);

    let mut protected: Vec<usize> = Vec::new();
    {
        let mut threads = inner.threads.lock();
        threads.retain(|r| r.live.load(Ordering::Acquire) || Arc::strong_count(r) > 1);
        for rec in threads.iter() {
            for w in rec.ring.iter() {
                let v = w.load(Ordering::Acquire);
                if v != 0 {
                    protected.push(v);
                }
            }
        }
    }
    protected.sort_unstable();
    protected.dedup();

    let mut work = std::mem::take(retired);
    work.append(&mut inner.orphans.lock());
    let mut kept = Vec::new();
    let mut freed = 0usize;
    for rec in work {
        if protected.binary_search(&rec.addr).is_ok() {
            kept.push(rec);
        } else {
            // SAFETY: unlinked (retire contract) and in no thread's
            // tracked window after the asymmetric fence.
            unsafe { (rec.drop_fn)(rec.addr as *mut u8) };
            freed += 1;
        }
    }
    inner.outstanding.fetch_sub(freed, Ordering::Relaxed);
    inner.orphans.lock().append(&mut kept);
}

impl SmrHandle for StHandle {
    #[inline]
    fn load_protected(&self, _slot: usize, src: &std::sync::atomic::AtomicPtr<u8>) -> *mut u8 {
        loop {
            let p = src.load(Ordering::Acquire);
            let clean = (p as usize) & !TAG_MASK;
            if clean == 0 {
                return p;
            }
            // Record in the window ring: a release store, no fence — the
            // reclaimer's membarrier makes it visible in time.
            let h = self.rec.head.load(Ordering::Relaxed);
            self.rec.ring[h % self.inner.window].store(clean, Ordering::Release);
            self.rec.head.store(h.wrapping_add(1), Ordering::Release);
            if !self.inner.membarrier_ok {
                // Fallback: no asymmetric fence available; pay the
                // hazard-pointer price.
                fence(Ordering::SeqCst);
            }
            if src.load(Ordering::Acquire) == p {
                return p;
            }
        }
    }

    unsafe fn retire(&self, addr: usize, _size: usize, drop_fn: DropFn) {
        self.inner.outstanding.fetch_add(1, Ordering::Relaxed);
        let mut retired = self.retired.borrow_mut();
        retired.push(RetiredRec { addr, drop_fn });
        if retired.len() >= self.inner.scan_threshold {
            scan_and_free(&self.inner, &mut retired);
        }
    }

    fn protection_slots(&self) -> Option<usize> {
        // The window is shared; "slots" are effectively the window size.
        Some(self.inner.window)
    }
}

impl Drop for StHandle {
    fn drop(&mut self) {
        for w in self.rec.ring.iter() {
            w.store(0, Ordering::Release);
        }
        self.rec.live.store(false, Ordering::Release);
        let mut retired = self.retired.borrow_mut();
        scan_and_free(&self.inner, &mut retired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::retire_box;
    use std::sync::atomic::{AtomicPtr, AtomicUsize as Counter};

    struct Probe {
        drops: Arc<Counter>,
    }
    impl Drop for Probe {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }
    fn probe(drops: &Arc<Counter>) -> *mut Probe {
        Box::into_raw(Box::new(Probe {
            drops: Arc::clone(drops),
        }))
    }

    #[test]
    fn reports_membarrier_status() {
        let s = StackTrackSim::new();
        // Either path must work; just exercise the probe.
        let _ = s.uses_membarrier();
    }

    #[test]
    fn unprotected_nodes_free_at_threshold() {
        let drops = Arc::new(Counter::new(0));
        let s = StackTrackSim::with_params(16, 8);
        let h = s.register();
        for _ in 0..8 {
            unsafe { retire_box(&h, probe(&drops)) };
        }
        assert_eq!(drops.load(Ordering::SeqCst), 8);
        assert_eq!(s.outstanding(), 0);
    }

    #[test]
    fn windowed_reference_protects_node() {
        let drops = Arc::new(Counter::new(0));
        let s = StackTrackSim::with_params(16, 4);
        let reader = s.register();
        let writer = s.register();

        let p = probe(&drops);
        let shared = AtomicPtr::new(p.cast::<u8>());
        let got = reader.load_protected(0, &shared);
        assert_eq!(got, p.cast::<u8>());

        shared.store(std::ptr::null_mut(), Ordering::Release);
        unsafe { retire_box(&writer, p) };
        for _ in 0..3 {
            unsafe { retire_box(&writer, probe(&drops)) };
        }
        assert_eq!(drops.load(Ordering::SeqCst), 3, "windowed node survives");
        assert_eq!(s.outstanding(), 1);

        // Age the reference out of the window (16 more recordings).
        let noise = probe(&drops);
        let noise_shared = AtomicPtr::new(noise.cast::<u8>());
        for _ in 0..16 {
            reader.load_protected(0, &noise_shared);
        }
        for _ in 0..4 {
            unsafe { retire_box(&writer, probe(&drops)) };
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            3 + 4 + 1,
            "aged-out node reclaimed with the batch"
        );
        unsafe { drop(Box::from_raw(noise)) };
    }

    #[test]
    fn handle_drop_bequeaths_and_quiesce_drains() {
        let drops = Arc::new(Counter::new(0));
        let s = StackTrackSim::with_params(8, 1_000);
        {
            let h = s.register();
            for _ in 0..10 {
                unsafe { retire_box(&h, probe(&drops)) };
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10, "drop-time scan frees");
        s.quiesce();
        assert_eq!(s.outstanding(), 0);
    }

    #[test]
    fn concurrent_traffic_is_leak_free() {
        let drops = Arc::new(Counter::new(0));
        let s = Arc::new(StackTrackSim::with_params(32, 16));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = Arc::clone(&s);
                let drops = Arc::clone(&drops);
                scope.spawn(move || {
                    let h = s.register();
                    for _ in 0..1000 {
                        unsafe { retire_box(&h, probe(&drops)) };
                    }
                });
            }
        });
        s.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 4000);
        assert_eq!(s.outstanding(), 0);
    }
}
