//! A [`Retired`] record describes one allocation handed to the collector.
//!
//! ThreadScan's delete buffers hold *type-erased* descriptions of retired
//! nodes: the address (used for sorting and conservative matching), the
//! allocation size (used for range matching, see [`crate::scan`]), and a
//! drop function that reconstructs the original `Box<T>` and runs its
//! destructor.

use core::fmt;

/// Type-erased destructor for a retired allocation.
///
/// # Safety
///
/// Must only be invoked once, with the address the record was created from.
pub type DropFn = unsafe fn(*mut u8);

/// Drops a `Box<T>` recovered from a raw pointer.
///
/// # Safety
///
/// `p` must have been produced by `Box::<T>::into_raw` and not freed since.
pub unsafe fn drop_box<T>(p: *mut u8) {
    drop(Box::from_raw(p.cast::<T>()));
}

/// A no-op destructor, useful for arenas and tests that manage memory
/// elsewhere and only want tracking/marking behaviour.
pub fn noop_drop(_p: *mut u8) {}

/// One retired allocation: `[addr, addr + size)` plus its destructor.
#[derive(Clone, Copy)]
pub struct Retired {
    addr: usize,
    size: usize,
    drop_fn: DropFn,
}

impl Retired {
    /// Describes a `Box<T>` that was leaked via [`Box::into_raw`].
    ///
    /// # Safety
    ///
    /// `ptr` must come from `Box::<T>::into_raw` and must not be freed by
    /// anyone other than the collector from now on.
    pub unsafe fn of_box<T>(ptr: *mut T) -> Self {
        Self {
            addr: ptr as usize,
            size: core::mem::size_of::<T>().max(1),
            drop_fn: drop_box::<T>,
        }
    }

    /// Builds a record from raw parts.
    ///
    /// # Safety
    ///
    /// `drop_fn(addr as *mut u8)` must be sound to call exactly once.
    pub unsafe fn from_raw_parts(addr: usize, size: usize, drop_fn: DropFn) -> Self {
        Self {
            addr,
            size: size.max(1),
            drop_fn,
        }
    }

    /// Base address of the allocation.
    #[inline]
    pub fn addr(&self) -> usize {
        self.addr
    }

    /// Size of the allocation in bytes (always at least 1, so that the
    /// half-open range `[addr, end)` is never empty).
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// One past the last byte of the allocation.
    #[inline]
    pub fn end(&self) -> usize {
        self.addr.saturating_add(self.size)
    }

    /// Runs the destructor, deallocating the node.
    ///
    /// # Safety
    ///
    /// Callable at most once per retired allocation; no thread may still
    /// hold a reference to the allocation.
    #[inline]
    pub unsafe fn reclaim(self) {
        (self.drop_fn)(self.addr as *mut u8);
    }
}

impl fmt::Debug for Retired {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Retired")
            .field("addr", &(self.addr as *const u8))
            .field("size", &self.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Test helper: a heap node that counts drops.
    pub(crate) struct DropCounter {
        pub counter: Arc<AtomicUsize>,
        /// Payload so the allocation is bigger than a pointer.
        pub _payload: [u64; 4],
    }

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.counter.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn of_box_reclaims_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let node = Box::new(DropCounter {
            counter: counter.clone(),
            _payload: [0; 4],
        });
        let raw = Box::into_raw(node);
        let retired = unsafe { Retired::of_box(raw) };
        assert_eq!(retired.addr(), raw as usize);
        assert_eq!(retired.size(), core::mem::size_of::<DropCounter>());
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        unsafe { retired.reclaim() };
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn range_is_half_open_and_nonempty() {
        let retired = unsafe { Retired::from_raw_parts(0x1000, 0, noop_drop) };
        assert_eq!(retired.size(), 1, "zero-size is clamped to 1");
        assert_eq!(retired.end(), 0x1001);
    }

    #[test]
    fn end_saturates_at_usize_max() {
        let retired = unsafe { Retired::from_raw_parts(usize::MAX - 4, 64, noop_drop) };
        assert_eq!(retired.end(), usize::MAX);
    }

    #[test]
    fn debug_format_mentions_addr() {
        let retired = unsafe { Retired::from_raw_parts(0xdead0, 16, noop_drop) };
        let s = format!("{retired:?}");
        assert!(s.contains("dead0"), "{s}");
    }
}
