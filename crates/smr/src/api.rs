//! The common safe-memory-reclamation interface.
//!
//! The paper's evaluation (§6, "Techniques") runs each data structure under
//! five reclamation schemes. This trait pair is the seam that makes that
//! comparison possible with one data-structure implementation per shape:
//! the structure code calls these hooks, and each scheme gives them the
//! cost profile the paper describes:
//!
//! * `Leaky` — every hook is a no-op; nodes leak.
//! * `HazardPointers` — [`SmrHandle::load_protected`] publishes a hazard
//!   slot and fences **on every traversal step** (the per-read barrier the
//!   paper charges hazard pointers for).
//! * `Epoch` / `SlowEpoch` — [`SmrHandle::begin_op`] / [`SmrHandle::end_op`]
//!   bracket operations with two relaxed counter writes.
//! * `ThreadScan` — every per-read and per-op hook is a no-op (invisible
//!   readers!); only `retire` does work.

use std::sync::atomic::AtomicPtr;

use crate::guard::Guard;

/// Type-erased destructor, re-exported from the collector core.
pub type DropFn = unsafe fn(*mut u8);

/// A reclamation scheme. One instance guards one shared data structure
/// (or several, if desired).
pub trait Smr: Send + Sync + 'static {
    /// Per-thread state. Created once per accessing thread, dropped when
    /// the thread stops accessing the structure.
    type Handle: SmrHandle;

    /// Registers the calling thread.
    fn register(&self) -> Self::Handle;

    /// Human-readable scheme name (used by the benchmark harness).
    fn name(&self) -> &'static str;

    /// Nodes retired but not yet freed (best effort; diagnostics).
    fn outstanding(&self) -> usize {
        0
    }

    /// A quiescent-point hook: called by the harness between measurement
    /// phases so schemes can drain deferred work.
    fn quiesce(&self) {}
}

/// Per-thread reclamation hooks, implemented by schemes.
///
/// Not `Send`: bound to the registering thread.
///
/// Data-structure code should not call the raw `begin_op`/`end_op` hooks
/// directly — use [`SmrHandle::pin`], whose [`Guard`] brackets the
/// operation by RAII so an unmatched `end_op` is unrepresentable. The
/// hooks remain public because scheme *implementors* override them and
/// conformance suites exercise them.
pub trait SmrHandle {
    /// Opens a data-structure operation, returning an RAII [`Guard`] that
    /// calls [`begin_op`](Self::begin_op) now and
    /// [`end_op`](Self::end_op) on drop.
    ///
    /// Pinning the same handle again while a guard is live is a
    /// programming error (debug builds panic; see [`Guard`]'s module
    /// docs).
    #[inline]
    fn pin(&self) -> Guard<'_, Self> {
        Guard::enter(self)
    }

    /// Scheme hook: marks the start of a data-structure operation.
    /// Called by [`Guard`]; structures use [`pin`](Self::pin).
    #[inline]
    fn begin_op(&self) {}

    /// Scheme hook: marks the end of a data-structure operation. Every
    /// private reference obtained during the operation is dead after this
    /// returns (epoch-style schemes rely on it; ThreadScan does not need
    /// it). Called by [`Guard`]'s drop; structures use [`pin`](Self::pin).
    #[inline]
    fn end_op(&self) {}

    /// Loads `src` as a protected reference usable until `end_op` (or the
    /// next `load_protected` on the same `slot`, for hazard schemes).
    ///
    /// `slot` distinguishes the references an operation holds
    /// simultaneously (e.g. 0 = prev, 1 = curr, 2 = next); schemes without
    /// per-reference state ignore it. The returned pointer may carry tag
    /// bits exactly as stored; hazard schemes validate the *untagged*
    /// address.
    #[inline]
    fn load_protected(&self, _slot: usize, src: &AtomicPtr<u8>) -> *mut u8 {
        src.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Retires an unlinked allocation: `drop_fn(addr as *mut u8)` runs
    /// once the scheme can prove no thread still holds a reference.
    ///
    /// # Safety
    ///
    /// * `addr` points to a live allocation of `size` bytes, unreachable
    ///   from shared memory, retired at most once.
    /// * `drop_fn(addr as *mut u8)` is sound to call exactly once.
    unsafe fn retire(&self, addr: usize, size: usize, drop_fn: DropFn);

    /// The number of hazard-style protection slots this handle supports,
    /// or `None` when the scheme keeps no per-reference state (epoch,
    /// ThreadScan, leaky — any slot index is accepted and ignored).
    /// Structures needing more simultaneous protected references than a
    /// `Some` budget must not use the scheme (the paper's structures need
    /// at most 3 + one pair per skip-list level).
    ///
    /// (An earlier revision defaulted to `usize::MAX` as the "unbounded"
    /// sentinel, which leaked into reports as a 20-digit slot count;
    /// `Option` keeps "unbounded" out of the numeric domain.)
    fn protection_slots(&self) -> Option<usize> {
        None
    }
}

/// Convenience: retire a `Box<T>` through any [`SmrHandle`].
///
/// # Safety
///
/// `ptr` came from `Box::into_raw`, is unreachable from shared memory, and
/// is retired at most once.
pub unsafe fn retire_box<T, H: SmrHandle + ?Sized>(handle: &H, ptr: *mut T) {
    unsafe fn drop_box<T>(p: *mut u8) {
        drop(Box::from_raw(p.cast::<T>()));
    }
    handle.retire(ptr as usize, core::mem::size_of::<T>(), drop_box::<T>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Minimal immediate-free scheme used to test the trait surface.
    struct ImmediateFree;
    struct ImmediateHandle;
    impl Smr for ImmediateFree {
        type Handle = ImmediateHandle;
        fn register(&self) -> ImmediateHandle {
            ImmediateHandle
        }
        fn name(&self) -> &'static str {
            "immediate"
        }
    }
    impl SmrHandle for ImmediateHandle {
        unsafe fn retire(&self, addr: usize, _size: usize, drop_fn: DropFn) {
            drop_fn(addr as *mut u8);
        }
    }

    #[test]
    fn retire_box_runs_destructor_through_scheme() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let scheme = ImmediateFree;
        let handle = scheme.register();
        let p = Box::into_raw(Box::new(Probe(Arc::clone(&drops))));
        unsafe { retire_box(&handle, p) };
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(scheme.name(), "immediate");
        assert_eq!(scheme.outstanding(), 0);
    }

    #[test]
    fn default_load_protected_is_a_plain_acquire_load() {
        let handle = ImmediateHandle;
        let v = Box::into_raw(Box::new(5u8));
        let slot = AtomicPtr::new(v.cast::<u8>());
        let got = handle.load_protected(0, &slot);
        assert_eq!(got, v.cast::<u8>());
        unsafe { drop(Box::from_raw(v)) };
    }
}
