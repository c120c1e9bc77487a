//! Allocator counters (relaxed, write-only): the increments are part of
//! the `alloc_node` / `dealloc_node` path the frozen benchmark probe
//! `alloc.pool_node_ns` times, so they stay as long as the probe does.

use core::sync::atomic::{AtomicUsize, Ordering};

use crate::size_classes::NUM_CLASSES;

/// Process-global allocator counters.
pub(crate) struct Counters {
    small_allocs: AtomicUsize,
    small_frees: AtomicUsize,
    spans: AtomicUsize,
    cache_fills: AtomicUsize,
    cache_flushes: AtomicUsize,
    class_allocs: [AtomicUsize; NUM_CLASSES],
    class_frees: [AtomicUsize; NUM_CLASSES],
}

pub(crate) static COUNTERS: Counters = Counters {
    small_allocs: AtomicUsize::new(0),
    small_frees: AtomicUsize::new(0),
    spans: AtomicUsize::new(0),
    cache_fills: AtomicUsize::new(0),
    cache_flushes: AtomicUsize::new(0),
    class_allocs: [const { AtomicUsize::new(0) }; NUM_CLASSES],
    class_frees: [const { AtomicUsize::new(0) }; NUM_CLASSES],
};

impl Counters {
    #[inline]
    pub(crate) fn note_small_alloc(&self) {
        self.small_allocs.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn note_small_free(&self) {
        self.small_frees.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn note_span(&self) {
        self.spans.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn note_fill(&self) {
        self.cache_fills.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn note_flush(&self) {
        self.cache_flushes.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn note_class_alloc(&self, class: usize) {
        self.class_allocs[class].fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn note_class_free(&self, class: usize) {
        self.class_frees[class].fetch_add(1, Ordering::Relaxed);
    }
}
