//! Node pools: explicit allocation handles over the size-class
//! machinery.
//!
//! A [`PoolHandle`]'s `alloc_node::<T>()`/[`dealloc_node`] entry points
//! go straight to the thread-local magazines and the central depot, with
//! per-handle accounting (allocs, frees, magazine refills, bytes
//! resident).
//!
//! Layout: every pooled node is preceded by a 16-byte `Header` recording
//! its size class and the owning handle's counters. A free recovers
//! everything it needs from the header, so a node allocated through any
//! handle can be freed from any thread at any later time with just its
//! pointer.
//!
//! Thread-local **magazines** (one intrusive free list per size class,
//! shared by all handles on that thread — blocks of one class are fungible)
//! refill from and flush to [`central`] in batches, so the depot lock is
//! taken once per [`BATCH`] operations. During TLS teardown the magazines
//! are unavailable and the depot's direct path is used instead.
//!
//! Handle counters are leaked (`&'static`): a few words per handle ever
//! created, in exchange for deferred frees never racing a handle drop.

use core::cell::UnsafeCell;
use core::marker::PhantomData;
use core::sync::atomic::{AtomicUsize, Ordering};
use std::alloc::{GlobalAlloc, Layout, System};

use crate::central::{self, FreeList, BATCH};
use crate::size_classes::{class_of, class_size, CLASS_ALIGN, NUM_CLASSES};
use crate::stats::COUNTERS;

/// Bytes of bookkeeping preceding every pooled node. 16 keeps the payload
/// on the same alignment the size classes guarantee.
pub const HEADER_BYTES: usize = 16;

/// Class tag for allocations too large for any size class (served by the
/// system allocator, but still headered and counted).
const LARGE_CLASS: u32 = u32::MAX;

/// Flush a magazine past this many blocks.
const FLUSH_WATERMARK: usize = BATCH * 2;

/// Bookkeeping stored immediately before each pooled node.
#[repr(C)]
struct Header {
    /// The owning handle's counters; `'static` by construction.
    counters: *const PoolCounters,
    /// Size-class index, or [`LARGE_CLASS`] for system-allocator blocks.
    class: u32,
    /// Total allocation size including this header (used to rebuild the
    /// layout of large blocks; informational for class blocks).
    size: u32,
}

/// Per-handle counters (relaxed; diagnostics only). Leaked on
/// handle creation so deferred frees can update them forever.
pub struct PoolCounters {
    name: &'static str,
    allocs: AtomicUsize,
    frees: AtomicUsize,
    magazine_refills: AtomicUsize,
    bytes_resident: AtomicUsize,
}

/// Bytes currently resident across *all* pool handles in the process.
/// Write-only: its updates are part of the alloc/free path the frozen
/// benchmark probe times.
static POOL_BYTES_RESIDENT: AtomicUsize = AtomicUsize::new(0);

/// A point-in-time copy of one handle's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// The label the handle was created with.
    pub name: &'static str,
    /// Nodes handed out by `alloc_node`.
    pub allocs: usize,
    /// Nodes returned through `dealloc_node`.
    pub frees: usize,
    /// Magazine refills from the central depot (each one lock acquisition)
    /// attributed to this handle's allocations.
    pub magazine_refills: usize,
    /// Bytes currently resident (allocated minus freed, in block sizes).
    pub bytes_resident: usize,
}

impl PoolCounters {
    fn snapshot(&self) -> PoolStats {
        PoolStats {
            name: self.name,
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            magazine_refills: self.magazine_refills.load(Ordering::Relaxed),
            bytes_resident: self.bytes_resident.load(Ordering::Relaxed),
        }
    }
}

/// An explicit allocation handle.
///
/// Cloning is free (the handle is one pointer to leaked counters); clones
/// share the same accounting. Deallocation does not need the handle at
/// all — see [`dealloc_node`].
///
/// ```
/// use ts_alloc::pool::{dealloc_node, PoolHandle};
///
/// let pool = PoolHandle::new("example");
/// let p: *mut [u64; 4] = pool.alloc_node([1, 2, 3, 4]);
/// // SAFETY: freshly allocated above, freed exactly once.
/// unsafe {
///     assert_eq!((*p)[2], 3);
///     dealloc_node(p);
/// }
/// let s = pool.stats();
/// assert_eq!((s.allocs, s.frees, s.bytes_resident), (1, 1, 0));
/// ```
#[derive(Clone, Copy)]
pub struct PoolHandle {
    counters: &'static PoolCounters,
}

impl core::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PoolHandle")
            .field("name", &self.counters.name)
            .finish_non_exhaustive()
    }
}

/// Monomorphization-time guard: pooled blocks only guarantee 16-byte
/// alignment, so over-aligned node types must not go through a pool.
struct AlignCheck<T>(PhantomData<T>);
impl<T> AlignCheck<T> {
    const OK: () = assert!(
        core::mem::align_of::<T>() <= CLASS_ALIGN,
        "pooled node types must not require alignment above 16"
    );
}

impl PoolHandle {
    /// Creates a handle labeled `name`. The label and counters are
    /// leaked — a few words per handle ever created — so deferred frees
    /// can outlive the handle.
    pub fn new(name: impl Into<String>) -> Self {
        let counters: &'static PoolCounters = Box::leak(Box::new(PoolCounters {
            name: String::leak(name.into()),
            allocs: AtomicUsize::new(0),
            frees: AtomicUsize::new(0),
            magazine_refills: AtomicUsize::new(0),
            bytes_resident: AtomicUsize::new(0),
        }));
        Self { counters }
    }

    /// A snapshot of this handle's counters.
    pub fn stats(&self) -> PoolStats {
        self.counters.snapshot()
    }

    /// Allocates a node holding `value`, headered for a later
    /// [`dealloc_node`] from any thread. Never returns null (aborts on
    /// OOM, like `Box::new`).
    pub fn alloc_node<T>(&self, value: T) -> *mut T {
        let () = AlignCheck::<T>::OK;
        let total = HEADER_BYTES + core::mem::size_of::<T>();
        let (block, class, resident) = match class_of(total) {
            Some(class) => {
                let block = self.alloc_block(class);
                (block, class as u32, class_size(class))
            }
            None => {
                assert!(total <= u32::MAX as usize, "pooled node too large");
                // SAFETY: total >= HEADER_BYTES > 0; CLASS_ALIGN is a
                // power of two.
                let block =
                    unsafe { System.alloc(Layout::from_size_align_unchecked(total, CLASS_ALIGN)) };
                (block, LARGE_CLASS, total)
            }
        };
        assert!(!block.is_null(), "pool allocation failed (OOM)");
        self.counters.allocs.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_resident
            .fetch_add(resident, Ordering::Relaxed);
        POOL_BYTES_RESIDENT.fetch_add(resident, Ordering::Relaxed);
        // SAFETY: `block` is a fresh allocation of at least `total` bytes;
        // the header occupies the first 16 and the payload starts on a
        // 16-byte boundary (classes and the large path both align to 16).
        unsafe {
            (block as *mut Header).write(Header {
                counters: self.counters,
                class,
                size: total as u32,
            });
            let payload = block.add(HEADER_BYTES) as *mut T;
            payload.write(value);
            payload
        }
    }

    /// One class block from the thread-local magazine, refilling from the
    /// depot when empty (depot direct path during TLS teardown).
    fn alloc_block(&self, class: usize) -> *mut u8 {
        COUNTERS.note_small_alloc();
        COUNTERS.note_class_alloc(class);
        with_magazines(|mags| {
            let list = &mut mags.lists[class];
            let block = list.pop();
            if !block.is_null() {
                return block;
            }
            central::fill(class, list);
            COUNTERS.note_fill();
            self.counters
                .magazine_refills
                .fetch_add(1, Ordering::Relaxed);
            list.pop()
        })
        .unwrap_or_else(|| central::alloc_direct(class))
    }
}

/// Drops a pooled node in place and returns its block to the pool.
///
/// Needs no handle: the header in front of the node records its class and
/// owning counters, so a node can be freed long after the allocating
/// scope ended.
///
/// # Safety
///
/// `ptr` came from [`PoolHandle::alloc_node`] with the same `T` and is
/// freed at most once; no other reference to the node exists.
pub unsafe fn dealloc_node<T>(ptr: *mut T) {
    core::ptr::drop_in_place(ptr);
    dealloc_block(ptr as *mut u8);
}

/// Returns an already-dropped pooled block (payload pointer) to its pool.
///
/// # Safety
///
/// Same as [`dealloc_node`], with the payload's destructor already run
/// (or trivial).
unsafe fn dealloc_block(payload: *mut u8) {
    let block = payload.sub(HEADER_BYTES);
    let header = (block as *const Header).read();
    // SAFETY: counters are leaked at handle creation, hence still live.
    let counters = &*header.counters;
    counters.frees.fetch_add(1, Ordering::Relaxed);
    if header.class == LARGE_CLASS {
        let total = header.size as usize;
        counters.bytes_resident.fetch_sub(total, Ordering::Relaxed);
        POOL_BYTES_RESIDENT.fetch_sub(total, Ordering::Relaxed);
        // SAFETY: allocated in `alloc_node` with exactly this layout.
        System.dealloc(block, Layout::from_size_align_unchecked(total, CLASS_ALIGN));
        return;
    }
    let class = header.class as usize;
    counters
        .bytes_resident
        .fetch_sub(class_size(class), Ordering::Relaxed);
    POOL_BYTES_RESIDENT.fetch_sub(class_size(class), Ordering::Relaxed);
    COUNTERS.note_small_free();
    COUNTERS.note_class_free(class);
    let done = with_magazines(|mags| {
        let list = &mut mags.lists[class];
        // SAFETY: caller contract — the block is exclusively ours.
        unsafe { list.push(block) };
        if list.len() > FLUSH_WATERMARK {
            central::flush(class, list, BATCH);
            COUNTERS.note_flush();
        }
    });
    if done.is_none() {
        // TLS teardown: hand it straight to the depot.
        central::free_direct(class, block);
    }
}

/// Thread-local per-class magazines, shared by every handle on the thread.
struct Magazines {
    lists: [FreeList; NUM_CLASSES],
}

impl Magazines {
    const fn new() -> Self {
        Self {
            lists: [const { FreeList::new() }; NUM_CLASSES],
        }
    }
}

/// Flushes every magazine back to the depot at thread exit.
struct MagazineGuard(UnsafeCell<Magazines>);

impl Drop for MagazineGuard {
    fn drop(&mut self) {
        let mags = self.0.get_mut();
        for (class, list) in mags.lists.iter_mut().enumerate() {
            let n = list.len();
            if n > 0 {
                central::flush(class, list, n);
                COUNTERS.note_flush();
            }
        }
    }
}

thread_local! {
    static MAGAZINES: MagazineGuard = const { MagazineGuard(UnsafeCell::new(Magazines::new())) };
}

/// Runs `f` with the thread's magazines, or `None` during TLS teardown.
#[inline]
fn with_magazines<R>(f: impl FnOnce(&mut Magazines) -> R) -> Option<R> {
    MAGAZINES
        .try_with(|guard| {
            // SAFETY: strictly thread-local; `f` cannot reenter (nothing
            // on this path allocates through the magazines).
            f(unsafe { &mut *guard.0.get() })
        })
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_balances_counters() {
        let pool = PoolHandle::new("roundtrip");
        let mut live: Vec<*mut [u8; 40]> =
            (0..64).map(|i| pool.alloc_node([i as u8; 40])).collect();
        let s = pool.stats();
        assert_eq!(s.allocs, 64);
        assert_eq!(s.frees, 0);
        let class = class_of(HEADER_BYTES + 40).unwrap();
        assert_eq!(s.bytes_resident, 64 * class_size(class));
        for p in live.drain(..) {
            // SAFETY: allocated above, freed once.
            unsafe { dealloc_node(p) };
        }
        let s = pool.stats();
        assert_eq!(s.allocs, s.frees);
        assert_eq!(s.bytes_resident, 0);
    }

    #[test]
    fn values_survive_and_blocks_are_distinct() {
        let pool = PoolHandle::new("distinct");
        let ptrs: Vec<*mut u64> = (0..200u64).map(|i| pool.alloc_node(i * 3)).collect();
        let mut seen = std::collections::HashSet::new();
        for (i, &p) in ptrs.iter().enumerate() {
            // SAFETY: live allocation from above.
            assert_eq!(unsafe { *p }, i as u64 * 3);
            assert!(seen.insert(p as usize), "double-handed block");
            assert_eq!(p as usize % CLASS_ALIGN, 0, "payload must be aligned");
        }
        for p in ptrs {
            unsafe { dealloc_node(p) };
        }
    }

    #[test]
    fn dealloc_without_handle_credits_the_owner() {
        // The deferred-free path: allocate here, free from another thread
        // that never saw the handle.
        let pool = PoolHandle::new("deferred");
        let p: *mut u64 = pool.alloc_node(7);
        let addr = p as usize;
        std::thread::spawn(move || {
            // SAFETY: sole owner of the allocation.
            unsafe { dealloc_node(addr as *mut u64) };
        })
        .join()
        .unwrap();
        let s = pool.stats();
        assert_eq!((s.allocs, s.frees, s.bytes_resident), (1, 1, 0));
    }

    #[test]
    fn large_nodes_pass_through_with_accounting() {
        let pool = PoolHandle::new("large");
        let p: *mut [u8; 8192] = pool.alloc_node([0xAB; 8192]);
        let s = pool.stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.bytes_resident, HEADER_BYTES + 8192);
        // SAFETY: allocated above.
        unsafe {
            assert_eq!((*p)[100], 0xAB);
            dealloc_node(p);
        }
        assert_eq!(pool.stats().bytes_resident, 0);
    }

    #[test]
    fn drop_glue_runs_on_dealloc() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Noisy;
        impl Drop for Noisy {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let pool = PoolHandle::new("droppy");
        let p = pool.alloc_node(Noisy);
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        // SAFETY: allocated above.
        unsafe { dealloc_node(p) };
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn lifo_reuse_stays_magazine_local() {
        let pool = PoolHandle::new("lifo");
        // Warm the magazine.
        let warm: *mut u64 = pool.alloc_node(0);
        // SAFETY: allocated above.
        unsafe { dealloc_node(warm) };
        let refills_before = pool.stats().magazine_refills;
        for i in 0..100u64 {
            let p = pool.alloc_node(i);
            // SAFETY: allocated above.
            unsafe { dealloc_node(p) };
        }
        assert_eq!(
            pool.stats().magazine_refills,
            refills_before,
            "LIFO alloc/free cycles must not touch the depot"
        );
    }
}
