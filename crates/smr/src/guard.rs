//! RAII operation guards — the safe face of the reclamation hooks.
//!
//! Data-structure code used to call [`SmrHandle::begin_op`] /
//! [`SmrHandle::end_op`] by hand, which made a missing or doubled
//! `end_op` a silent protection bug in every caller. [`Guard`] makes the
//! bracket un-forgettable: [`SmrHandle::pin`] opens the operation and the
//! guard's `Drop` closes it, so every early `return`, `?`, `break`, or
//! panic unwinds through `end_op` automatically. All per-reference work
//! ([`Guard::load`]), node allocation ([`Guard::alloc`]) and retirement
//! ([`Guard::retire`], [`Guard::retire_box`]) goes through the guard,
//! which proves by construction that it happens inside an open operation.
//!
//! The guard layer is zero-cost in release builds: [`Guard`] is a
//! `&Handle` wrapper whose methods forward straight to the scheme hooks
//! (debug builds additionally track pin nesting, see below).
//!
//! # Nesting
//!
//! Nested pins of the *same* handle are a programming error: schemes like
//! epoch-based reclamation clear their "active" announcement in `end_op`,
//! so an inner guard's drop would strip protection from the still-running
//! outer operation. Debug builds detect this and **panic** with a clear
//! message; release builds omit the check (the structures in this
//! workspace pin exactly once per operation). Pinning two *different*
//! handles on one thread is fine.
//!
//! # Leaks
//!
//! `mem::forget`-ing a guard never causes unsoundness — the operation
//! simply stays open forever. For epoch-style schemes that pins the
//! global epoch and stalls all reclamation (see the
//! `leaked_guard_keeps_the_epoch_pinned` test), which is the conservative
//! failure direction: memory is withheld, never freed early.

use core::marker::PhantomData;
use core::sync::atomic::AtomicPtr;

use crate::api::{DropFn, SmrHandle};

#[cfg(debug_assertions)]
mod nesting {
    use std::cell::RefCell;

    thread_local! {
        /// Addresses of the handles currently pinned by this thread.
        static ACTIVE_PINS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn enter(handle_addr: usize) {
        ACTIVE_PINS.with(|pins| {
            let mut pins = pins.borrow_mut();
            assert!(
                !pins.contains(&handle_addr),
                "nested pin() on the same SmrHandle: the inner guard's drop would \
                 end the outer operation's protection; pin once per operation \
                 (or use a second handle)"
            );
            pins.push(handle_addr);
        });
    }

    pub(super) fn exit(handle_addr: usize) {
        ACTIVE_PINS.with(|pins| {
            let mut pins = pins.borrow_mut();
            if let Some(i) = pins.iter().rposition(|&a| a == handle_addr) {
                pins.swap_remove(i);
            }
        });
    }
}

/// An open data-structure operation on one [`SmrHandle`].
///
/// Created by [`SmrHandle::pin`]; calls the scheme's `begin_op` hook on
/// creation and `end_op` on drop. While the guard lives, pointers loaded
/// through [`Guard::load`] stay valid per the scheme's contract.
///
/// Not `Send`: like the handle it borrows, a guard is bound to the
/// registering thread (schemes publish per-thread state in `begin_op`).
///
/// ```
/// use ts_smr::{Leaky, Smr, SmrHandle};
/// use std::sync::atomic::AtomicPtr;
///
/// let scheme = Leaky::new();
/// let handle = scheme.register();
/// let slot = AtomicPtr::new(Box::into_raw(Box::new(7u64)));
///
/// let guard = handle.pin();            // begin_op
/// let p = guard.load(0, &slot);        // protected load
/// assert_eq!(unsafe { *p }, 7);
/// drop(guard);                         // end_op — protection released
/// # unsafe { drop(Box::from_raw(slot.into_inner())) };
/// ```
///
/// A guard cannot cross threads:
///
/// ```compile_fail
/// use ts_smr::{Leaky, Smr, SmrHandle};
/// fn assert_send<T: Send>(_: T) {}
/// let scheme = Leaky::new();
/// let handle = scheme.register();
/// assert_send(handle.pin()); // ERROR: `Guard` is `!Send`
/// ```
#[must_use = "dropping the guard immediately ends the operation; bind it for the operation's duration"]
pub struct Guard<'h, H: SmrHandle + ?Sized> {
    handle: &'h H,
    /// `*mut ()` strips `Send`/`Sync`: the guard is thread-bound.
    _not_send: PhantomData<*mut ()>,
}

impl<'h, H: SmrHandle + ?Sized> Guard<'h, H> {
    /// Opens an operation: calls `begin_op` and arms the drop bracket.
    /// Prefer the [`SmrHandle::pin`] method.
    pub fn enter(handle: &'h H) -> Self {
        #[cfg(debug_assertions)]
        nesting::enter((handle as *const H).cast::<()>() as usize);
        handle.begin_op();
        Self {
            handle,
            _not_send: PhantomData,
        }
    }

    /// Loads `src` as a protected reference, valid until the guard drops
    /// (or until the next `load` on the same `slot` under hazard-style
    /// schemes). See [`SmrHandle::load_protected`] for the slot contract;
    /// the pointer type is generic so callers need no casts.
    #[inline]
    pub fn load<T>(&self, slot: usize, src: &AtomicPtr<T>) -> *mut T {
        // SAFETY: `AtomicPtr<T>` and `AtomicPtr<u8>` are both transparent
        // wrappers over a thin raw pointer; reinterpreting the *reference*
        // only erases the pointee type, which `load_protected` never
        // dereferences.
        let erased = unsafe { &*(src as *const AtomicPtr<T>).cast::<AtomicPtr<u8>>() };
        self.handle.load_protected(slot, erased).cast::<T>()
    }

    /// Allocates `value` as a `Box<T>` and returns its raw pointer, after
    /// the scheme's [`SmrHandle::before_alloc`] hook. Under ThreadScan the
    /// hook frees one node a scan proved unreferenced, so the allocation
    /// reuses that memory on this thread instead of growing its heap.
    /// Optional: retiring is the only call a scheme requires, and a node
    /// from `Box::into_raw(Box::new(..))` is retired the same way. Call it
    /// once per node, once the operation knows it will publish the node;
    /// an unpublished node is freed with `Box::from_raw`.
    #[inline]
    pub fn alloc<T>(&self, value: T) -> *mut T {
        self.handle.before_alloc();
        Box::into_raw(Box::new(value))
    }

    /// Retires an unlinked allocation through the scheme. Contract as in
    /// [`SmrHandle::retire`].
    ///
    /// # Safety
    ///
    /// * `addr` points to a live allocation of `size` bytes, unreachable
    ///   from shared memory, retired at most once (across all handles).
    /// * `drop_fn(addr as *mut u8)` is sound to call exactly once.
    #[inline]
    pub unsafe fn retire(&self, addr: usize, size: usize, drop_fn: DropFn) {
        self.handle.retire(addr, size, drop_fn);
    }

    /// Retires a `Box<T>` allocation through the scheme.
    ///
    /// # Safety
    ///
    /// `ptr` came from `Box::into_raw`, is unreachable from shared memory,
    /// and is retired at most once.
    #[inline]
    pub unsafe fn retire_box<T>(&self, ptr: *mut T) {
        crate::api::retire_box(self.handle, ptr);
    }

    /// The handle's protection-slot budget (see
    /// [`SmrHandle::protection_slots`]).
    #[inline]
    pub fn protection_slots(&self) -> Option<usize> {
        self.handle.protection_slots()
    }

    /// The underlying handle (scheme-specific extensions).
    #[inline]
    pub fn handle(&self) -> &H {
        self.handle
    }
}

impl<H: SmrHandle + ?Sized> Drop for Guard<'_, H> {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        nesting::exit((self.handle as *const H).cast::<()>() as usize);
        self.handle.end_op();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Smr;
    use crate::epoch::EpochScheme;
    use crate::leaky::Leaky;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Probe(Arc<AtomicUsize>);
    impl Drop for Probe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn guard_brackets_the_operation() {
        // Epoch announces "active" in begin_op and clears it in end_op;
        // observe both transitions through the guard. Threshold 2: every
        // other retire attempts an epoch advance + expiry.
        let scheme = EpochScheme::with_threshold(2);
        let observer = scheme.register();
        let worker = scheme.register();
        let drops = Arc::new(AtomicUsize::new(0));

        let pin = worker.pin(); // worker announces an epoch and stays active
        for _ in 0..8 {
            let g = observer.pin();
            unsafe { g.retire_box(Box::into_raw(Box::new(Probe(Arc::clone(&drops))))) };
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "an open guard must pin the epoch"
        );
        drop(pin); // end_op: worker goes inactive
        drop(observer); // bequeath the local bag so quiesce can drain it
        scheme.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 8, "drop released the pin");
    }

    #[test]
    fn load_is_typed() {
        let scheme = Leaky::new();
        let h = scheme.register();
        let b = Box::into_raw(Box::new(41u64));
        let slot = AtomicPtr::new(b);
        let g = h.pin();
        let p: *mut u64 = g.load(0, &slot);
        assert_eq!(unsafe { *p }, 41);
        drop(g);
        unsafe { drop(Box::from_raw(b)) };
    }

    #[test]
    fn sequential_pins_on_one_handle_are_fine() {
        let scheme = Leaky::new();
        let h = scheme.register();
        for _ in 0..3 {
            let _g = h.pin();
        }
    }

    #[test]
    fn two_handles_may_pin_concurrently_on_one_thread() {
        let scheme = Leaky::new();
        let a = scheme.register();
        let b = scheme.register();
        let _ga = a.pin();
        let _gb = b.pin(); // distinct handle: allowed
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nested pin() on the same SmrHandle")]
    fn nested_pin_on_one_handle_panics_in_debug() {
        let scheme = Leaky::new();
        let h = scheme.register();
        let _outer = h.pin();
        let _inner = h.pin(); // panics
    }

    #[test]
    fn leaked_guard_keeps_the_epoch_pinned() {
        let scheme = EpochScheme::with_threshold(4);
        let pinner = scheme.register();
        let worker = scheme.register();
        let drops = Arc::new(AtomicUsize::new(0));

        // Leak the guard: the operation never ends.
        std::mem::forget(pinner.pin());

        for _ in 0..32 {
            let g = worker.pin();
            unsafe { g.retire_box(Box::into_raw(Box::new(Probe(Arc::clone(&drops))))) };
        }
        scheme.quiesce();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "a leaked guard must keep the epoch pinned: nothing may free"
        );
        // The conservative failure mode is a leak, never a premature free.
        assert_eq!(scheme.outstanding(), 32);
        // (The 32 nodes are intentionally leaked: the forgotten guard pins
        // them forever. Keep the count small.)
    }
}
