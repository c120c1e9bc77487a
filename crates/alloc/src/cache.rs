//! Per-thread caches: the allocator's no-atomics fast path.
//!
//! Each thread owns one [`FreeList`] per size class. `alloc` pops from
//! the local list; `free` pushes. Only when a list runs empty (fill) or
//! past its watermark (flush) does the thread touch the shared depot —
//! one lock acquisition per [`BATCH`] operations.
//!
//! TLS teardown: `std::thread_local` destructors flush every cached block
//! back to the depot so exiting threads don't strand memory. If the
//! allocator is called *during* teardown (destructors of other TLS keys
//! may allocate), `with_cache` fails gracefully and the caller falls back
//! to the depot's direct path.

use core::cell::UnsafeCell;

use crate::central::{self, FreeList, BATCH};
use crate::size_classes::NUM_CLASSES;
use crate::stats::COUNTERS;

/// Flush when a class list exceeds this many blocks (2×BATCH keeps a
/// hysteresis band so alloc/free ping-pong doesn't thrash the depot).
const FLUSH_WATERMARK: usize = BATCH * 2;

struct ThreadCache {
    lists: [FreeList; NUM_CLASSES],
}

impl ThreadCache {
    const fn new() -> Self {
        Self {
            lists: [const { FreeList::new() }; NUM_CLASSES],
        }
    }
}

/// Flushes everything back to the depot at thread exit.
struct CacheGuard(UnsafeCell<ThreadCache>);

impl Drop for CacheGuard {
    fn drop(&mut self) {
        let cache = self.0.get_mut();
        for (class, list) in cache.lists.iter_mut().enumerate() {
            let n = list.len();
            if n > 0 {
                central::flush(class, list, n);
                COUNTERS.note_flush();
            }
        }
    }
}

thread_local! {
    static CACHE: CacheGuard = const { CacheGuard(UnsafeCell::new(ThreadCache::new())) };
}

/// Runs `f` with the thread cache, or returns `None` during TLS teardown.
#[inline]
fn with_cache<R>(f: impl FnOnce(&mut ThreadCache) -> R) -> Option<R> {
    CACHE
        .try_with(|guard| {
            // SAFETY: the cache is strictly thread-local and `f` cannot
            // reenter (the allocator never allocates on this path).
            f(unsafe { &mut *guard.0.get() })
        })
        .ok()
}

/// Allocates one block of `class`.
#[inline]
pub fn alloc(class: usize) -> *mut u8 {
    COUNTERS.note_small_alloc();
    COUNTERS.note_class_alloc(class);
    with_cache(|cache| {
        let list = &mut cache.lists[class];
        let block = list.pop();
        if !block.is_null() {
            return block;
        }
        central::fill(class, list);
        COUNTERS.note_fill();
        list.pop()
    })
    .unwrap_or_else(|| central::alloc_direct(class))
}

/// Frees one block of `class`.
///
/// # Safety
///
/// `block` must have been allocated by [`alloc`] (or the depot) with the
/// same `class`, and not freed since.
#[inline]
pub unsafe fn free(class: usize, block: *mut u8) {
    COUNTERS.note_small_free();
    COUNTERS.note_class_free(class);
    let done = with_cache(|cache| {
        let list = &mut cache.lists[class];
        // SAFETY: caller contract.
        list.push(block);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_classes::{class_of, class_size};

    #[test]
    fn alloc_free_cycles_stay_local_after_warmup() {
        // Observed through this thread's own cache (list length and block
        // identity), not the process-wide `cache_fills` counter, which
        // sibling tests bump concurrently.
        let class = class_of(64).unwrap();
        let cached = || with_cache(|cache| cache.lists[class].len()).unwrap();
        // Warm the cache.
        let warm = alloc(class);
        unsafe { free(class, warm) };
        let resident = cached();
        assert!(resident >= 1, "the warm block must be cached locally");
        for _ in 0..100 {
            let p = alloc(class);
            assert_eq!(p, warm, "LIFO: the block just freed comes straight back");
            unsafe {
                p.write_bytes(0xEE, class_size(class));
                free(class, p);
            }
            assert_eq!(
                cached(),
                resident,
                "LIFO alloc/free cycles must not touch the depot"
            );
        }
    }

    #[test]
    fn blocks_are_distinct_while_live() {
        let class = class_of(32).unwrap();
        let mut live: Vec<*mut u8> = (0..200).map(|_| alloc(class)).collect();
        let mut seen = std::collections::HashSet::new();
        for &p in &live {
            assert!(!p.is_null());
            assert!(seen.insert(p as usize), "double-handed block");
        }
        for p in live.drain(..) {
            unsafe { free(class, p) };
        }
    }

    #[test]
    fn watermark_flush_returns_blocks_to_depot() {
        let class = class_of(96).unwrap();
        // Allocate a pile, then free it all: the cache must flush batches
        // past the watermark rather than hoard indefinitely.
        let live: Vec<*mut u8> = (0..(FLUSH_WATERMARK * 3)).map(|_| alloc(class)).collect();
        let flushes_before = crate::stats().cache_flushes;
        for p in live {
            unsafe { free(class, p) };
        }
        assert!(
            crate::stats().cache_flushes > flushes_before,
            "freeing 3× the watermark must trigger depot flushes"
        );
    }

    #[test]
    fn exiting_thread_returns_its_cache() {
        let class = class_of(256).unwrap();
        let depot_before = central::depot_len(class);
        std::thread::spawn(move || {
            // Populate this thread's cache, then exit while holding blocks.
            let live: Vec<*mut u8> = (0..8).map(|_| alloc(class)).collect();
            for p in live {
                unsafe { free(class, p) };
            }
        })
        .join()
        .unwrap();
        assert!(
            central::depot_len(class) > depot_before,
            "thread exit must flush its cached blocks to the depot"
        );
    }
}
