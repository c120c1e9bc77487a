//! The central depot: per-class free lists shared by all threads.
//!
//! Thread caches interact with the depot only in batches, so the spinlock
//! here is acquired once per [`BATCH`] thread-local operations. When a
//! class runs dry the depot carves a fresh 64 KiB span from the system
//! allocator into class-sized objects.

use core::ptr;
use std::alloc::{GlobalAlloc, Layout, System};

use crate::size_classes::{class_size, NUM_CLASSES, SPAN_BYTES};
use crate::spin::SpinLock;
use crate::stats::COUNTERS;

/// Objects moved per thread-cache fill/flush.
pub const BATCH: usize = 32;

/// An intrusive LIFO free list: each free block's first word is the next
/// pointer. Blocks are at least 16 bytes, so the word always fits.
pub struct FreeList {
    head: *mut u8,
    len: usize,
}

// SAFETY: raw pointers to free blocks; the owning lock serializes access.
unsafe impl Send for FreeList {}

impl FreeList {
    /// An empty list.
    pub const fn new() -> Self {
        Self {
            head: ptr::null_mut(),
            len: 0,
        }
    }

    /// Blocks currently on the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.is_null()
    }

    /// Pushes a free block.
    ///
    /// # Safety
    ///
    /// `block` must be a live, exclusively-owned allocation of at least a
    /// word, not already on any list.
    #[inline]
    pub unsafe fn push(&mut self, block: *mut u8) {
        (block as *mut *mut u8).write(self.head);
        self.head = block;
        self.len += 1;
    }

    /// Pops a block, or null when empty.
    #[inline]
    pub fn pop(&mut self) -> *mut u8 {
        let block = self.head;
        if !block.is_null() {
            // SAFETY: `block` was pushed by `push`, which stored the next
            // pointer in its first word.
            self.head = unsafe { (block as *const *mut u8).read() };
            self.len -= 1;
        }
        block
    }
}

impl Default for FreeList {
    fn default() -> Self {
        Self::new()
    }
}

/// The depot: one locked free list per class.
struct Depot {
    classes: [SpinLock<FreeList>; NUM_CLASSES],
}

static DEPOT: Depot = Depot {
    classes: [const { SpinLock::new(FreeList::new()) }; NUM_CLASSES],
};

/// Carves a fresh span from the system allocator into `class` objects and
/// pushes them onto `list`.
///
/// Spans are never returned to the OS (TCMalloc's strategy); memory
/// recycles through the class lists for the process lifetime.
fn grow(class: usize, list: &mut FreeList) {
    let size = class_size(class);
    // SAFETY: SPAN_BYTES/16 is a valid non-zero layout.
    let span = unsafe { System.alloc(Layout::from_size_align_unchecked(SPAN_BYTES, 16)) };
    if span.is_null() {
        return; // OOM propagates as a null pop to the caller
    }
    COUNTERS.note_span();
    let objects = SPAN_BYTES / size;
    for i in 0..objects {
        // SAFETY: each object is a disjoint `size`-byte block inside the
        // fresh span.
        unsafe { list.push(span.add(i * size)) };
    }
}

/// Fills `out` with up to [`BATCH`] blocks of `class`, growing the depot
/// if needed. Returns how many blocks were delivered (0 only on OOM).
pub fn fill(class: usize, out: &mut FreeList) -> usize {
    let mut depot = DEPOT.classes[class].lock();
    if depot.len() < BATCH {
        grow(class, &mut depot);
    }
    let mut moved = 0;
    while moved < BATCH {
        let block = depot.pop();
        if block.is_null() {
            break;
        }
        // SAFETY: block came off the depot list; exclusively ours now.
        unsafe { out.push(block) };
        moved += 1;
    }
    moved
}

/// Returns `n` blocks from `from` (a thread cache list) to the depot.
pub fn flush(class: usize, from: &mut FreeList, n: usize) {
    let mut depot = DEPOT.classes[class].lock();
    for _ in 0..n {
        let block = from.pop();
        if block.is_null() {
            break;
        }
        // SAFETY: block came off the cache list; exclusively ours.
        unsafe { depot.push(block) };
    }
}

/// Allocates one block of `class` directly from the depot (slow path used
/// when thread-local storage is unavailable, e.g. during TLS teardown).
pub fn alloc_direct(class: usize) -> *mut u8 {
    let mut depot = DEPOT.classes[class].lock();
    if depot.is_empty() {
        grow(class, &mut depot);
    }
    depot.pop()
}

/// Frees one block of `class` directly to the depot (slow path).
///
/// # Safety
///
/// `block` must have been allocated from this depot with class `class`.
pub unsafe fn free_direct(class: usize, block: *mut u8) {
    DEPOT.classes[class].lock().push(block);
}

/// Blocks currently parked in the depot for `class` (diagnostics).
pub fn depot_len(class: usize) -> usize {
    DEPOT.classes[class].lock().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_classes::class_of;

    #[test]
    fn freelist_is_lifo_and_counts() {
        let mut list = FreeList::new();
        assert!(list.is_empty());
        assert!(list.pop().is_null());
        let blocks: Vec<Box<[u8; 32]>> = (0..4).map(|_| Box::new([0; 32])).collect();
        let raw: Vec<*mut u8> = blocks
            .iter()
            .map(|b| b.as_ref() as *const _ as *mut u8)
            .collect();
        for &p in &raw {
            // SAFETY: distinct live blocks, ≥ one word.
            unsafe { list.push(p) };
        }
        assert_eq!(list.len(), 4);
        for &p in raw.iter().rev() {
            assert_eq!(list.pop(), p);
        }
        assert!(list.is_empty());
    }

    #[test]
    fn fill_delivers_a_batch_and_grows_spans() {
        let class = class_of(64).unwrap();
        let mut local = FreeList::new();
        let got = fill(class, &mut local);
        assert_eq!(got, BATCH);
        assert_eq!(local.len(), BATCH);
        // Every delivered block is distinct and class-aligned.
        let mut seen = std::collections::HashSet::new();
        loop {
            let b = local.pop();
            if b.is_null() {
                break;
            }
            assert_eq!(b as usize % 16, 0);
            assert!(seen.insert(b as usize), "duplicate block from fill");
        }
        // Give them back so other tests see a sane depot.
        let mut back = FreeList::new();
        for &b in &seen {
            unsafe { back.push(b as *mut u8) };
        }
        flush(class, &mut back, seen.len());
    }

    #[test]
    fn direct_alloc_free_roundtrip() {
        let class = class_of(128).unwrap();
        let a = alloc_direct(class);
        assert!(!a.is_null());
        // SAFETY: block is ours; writing within class_size is in bounds.
        unsafe {
            a.write_bytes(0xCD, 128);
            free_direct(class, a);
        }
        // The depot hands the same block back eventually (LIFO: next).
        let b = alloc_direct(class);
        assert_eq!(b, a, "LIFO depot returns the just-freed block");
        unsafe { free_direct(class, b) };
    }

    #[test]
    fn flush_moves_exactly_n() {
        // A class no sibling test allocates from: the exact depot deltas
        // below would race any concurrent fill or flush of the same class.
        let class = class_of(192).unwrap();
        let mut local = FreeList::new();
        let got = fill(class, &mut local);
        assert!(got >= 2);
        let before_depot = depot_len(class);
        flush(class, &mut local, 2);
        assert_eq!(depot_len(class), before_depot + 2);
        assert_eq!(local.len(), got - 2);
        let n = local.len();
        flush(class, &mut local, n + 100); // over-ask: drains what's there
        assert!(local.is_empty());
    }
}
