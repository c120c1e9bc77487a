//! Node allocation policy: global heap (the default) or a per-structure
//! [`ts_alloc::PoolHandle`].
//!
//! Every structure in this crate allocates its nodes through a
//! [`NodeAlloc`] captured at construction. The default, [`NodeAlloc::Global`],
//! is exactly the historical `Box::into_raw(Box::new(..))` path — zero
//! cost, no behavior change. [`NodeAlloc::Pool`] routes nodes through a
//! size-class pool handle instead: thread-local magazines, batched depot
//! refills, and per-structure alloc/free/bytes-resident counters:
//! `malloc`/`free` never contend in the common case, freed nodes recycle
//! LIFO-warm, and the footprint of each structure is a gauge.
//!
//! Deferred frees are the subtlety: SMR drop functions are stateless
//! `unsafe fn(*mut u8)`, chosen when the node is *retired* and run long
//! after, on any thread. [`NodeAlloc::drop_fn`] therefore hands each
//! structure a function pointer matching its policy — `Box::from_raw`
//! for `Global`, the pool's header-driven [`ts_alloc::dealloc_node`] for
//! `Pool` — and structures store it once and pass it to every `retire`.

use ts_smr::DropFn;

/// How a structure allocates and frees its nodes.
///
/// Cheap to clone (a pool handle is one pointer); cloning shares the
/// underlying pool and its counters.
#[derive(Debug, Clone, Copy, Default)]
pub enum NodeAlloc {
    /// `Box`-based allocation from the global heap — the zero-cost
    /// default, bit-for-bit the pre-pool behavior.
    #[default]
    Global,
    /// Per-structure node pool over the `ts-alloc` size classes.
    Pool(ts_alloc::PoolHandle),
}

impl NodeAlloc {
    /// Allocates a node holding `value`. Never null.
    #[inline]
    pub fn alloc<T>(&self, value: T) -> *mut T {
        match self {
            NodeAlloc::Global => Box::into_raw(Box::new(value)),
            NodeAlloc::Pool(pool) => pool.alloc_node(value),
        }
    }

    /// The matching stateless deallocator for nodes of type `T`: drops
    /// the value and releases its memory. This is what structures pass
    /// to `Guard::retire` (and use themselves for unpublished nodes and
    /// teardown walks), so a node is always freed the way it was
    /// allocated — even when the free runs on another thread after the
    /// structure is gone.
    #[inline]
    pub fn drop_fn<T>(&self) -> DropFn {
        match self {
            NodeAlloc::Global => drop_boxed::<T>,
            NodeAlloc::Pool(_) => drop_pooled::<T>,
        }
    }
}

/// Frees a `Global`-allocated node.
///
/// # Safety
///
/// `p` came from `Box::into_raw(Box::<T>::new(..))`, freed at most once.
unsafe fn drop_boxed<T>(p: *mut u8) {
    drop(Box::from_raw(p.cast::<T>()));
}

/// Frees a `Pool`-allocated node.
///
/// # Safety
///
/// `p` came from `PoolHandle::alloc_node::<T>`, freed at most once.
unsafe fn drop_pooled<T>(p: *mut u8) {
    ts_alloc::dealloc_node(p.cast::<T>());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_global() {
        assert!(matches!(NodeAlloc::default(), NodeAlloc::Global));
    }

    #[test]
    fn global_roundtrip_uses_box() {
        let alloc = NodeAlloc::Global;
        let p = alloc.alloc(41u64);
        let drop_fn = alloc.drop_fn::<u64>();
        // SAFETY: allocated above with the matching policy.
        unsafe {
            assert_eq!(*p, 41);
            drop_fn(p as *mut u8);
        }
    }

    #[test]
    fn pooled_roundtrip_credits_the_handle() {
        let pool = ts_alloc::PoolHandle::new("node-alloc-test");
        let alloc = NodeAlloc::Pool(pool);
        let p = alloc.alloc([7u64; 10]);
        let drop_fn = alloc.drop_fn::<[u64; 10]>();
        // SAFETY: allocated above with the matching policy.
        unsafe {
            assert_eq!((*p)[9], 7);
            drop_fn(p as *mut u8);
        }
        let s = pool.stats();
        assert_eq!((s.allocs, s.frees, s.bytes_resident), (1, 1, 0));
    }
}
