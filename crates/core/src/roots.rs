//! Per-thread root descriptions beyond the stack and registers.
//!
//! §4.3 of the paper extends ThreadScan with
//! `TS_add_heap_block(start, len)` / `TS_remove_heap_block(start, len)`:
//! a thread may pre-allocate a heap block to hold *private* references, and
//! registering it makes the signal handler include that block in the scan.
//! This is the one semi-automatic part of the interface.

use core::sync::atomic::{AtomicUsize, Ordering};

use crate::errors::HeapBlockError;
use crate::session::ScanSession;

/// One registered heap block. `len == 0` marks a free slot. Publication
/// order (start first, then len) makes a concurrently scanning handler see
/// either nothing or a fully published block.
struct HeapBlock {
    start: AtomicUsize,
    len: AtomicUsize,
}

/// Heap-block slots per registered thread (§4.3 extension): what
/// [`Collector::register`](crate::Collector::register) sizes each
/// thread's [`ThreadRoots`] with.
pub const MAX_HEAP_BLOCKS: usize = 16;

/// The set of extra scan roots for one thread: registered heap blocks.
///
/// Owned by the thread's collector handle and shared with the platform so
/// the signal handler (which runs *on the owning thread*) can walk it.
/// All mutation happens on the owning thread; the handler interrupting the
/// owner mid-update observes each block either absent or fully published.
pub struct ThreadRoots {
    blocks: Box<[HeapBlock]>,
}

impl ThreadRoots {
    /// Creates a root set with capacity for `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        let blocks = (0..capacity)
            .map(|_| HeapBlock {
                start: AtomicUsize::new(0),
                len: AtomicUsize::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self { blocks }
    }

    /// Registers `[start, start + len)` for scanning (`TS_add_heap_block`).
    pub fn add_heap_block(&self, start: *const u8, len: usize) -> Result<(), HeapBlockError> {
        if len == 0 {
            return Err(HeapBlockError::EmptyBlock);
        }
        let addr = start as usize;
        for b in self.blocks.iter() {
            if b.len.load(Ordering::Relaxed) != 0 && b.start.load(Ordering::Relaxed) == addr {
                return Err(HeapBlockError::AlreadyRegistered);
            }
        }
        for b in self.blocks.iter() {
            if b.len.load(Ordering::Relaxed) == 0 {
                b.start.store(addr, Ordering::Relaxed);
                // Publishing len second makes the block visible atomically
                // to a handler interrupting this thread between the stores.
                b.len.store(len, Ordering::Release);
                return Ok(());
            }
        }
        Err(HeapBlockError::TooManyBlocks(self.blocks.len()))
    }

    /// Unregisters the block starting at `start` (`TS_remove_heap_block`).
    pub fn remove_heap_block(&self, start: *const u8) -> Result<(), HeapBlockError> {
        let addr = start as usize;
        for b in self.blocks.iter() {
            if b.len.load(Ordering::Relaxed) != 0 && b.start.load(Ordering::Relaxed) == addr {
                // Retract len first so a handler never scans a half-removed
                // block.
                b.len.store(0, Ordering::Release);
                b.start.store(0, Ordering::Relaxed);
                return Ok(());
            }
        }
        Err(HeapBlockError::NotRegistered)
    }

    /// Number of currently registered blocks.
    pub fn block_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.len.load(Ordering::Relaxed) != 0)
            .count()
    }

    /// Scans every registered block against `session`.
    ///
    /// Async-signal-safe; called from the owning thread's handler (and, in
    /// the simulated platform, possibly by the reclaimer force-scanning a
    /// stalled thread).
    pub fn scan(&self, session: &ScanSession<'_>) {
        for b in self.blocks.iter() {
            let len = b.len.load(Ordering::Acquire);
            if len == 0 {
                continue;
            }
            let start = b.start.load(Ordering::Relaxed);
            // SAFETY: the owner registered [start, start+len) and the API
            // contract requires removal before the block is deallocated.
            unsafe {
                session.scan_region(start as *const u8, (start + len) as *const u8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollectorConfig;
    use crate::master::MasterBuffer;
    use crate::retired::{noop_drop, Retired};

    fn master_with(addr: usize, size: usize) -> MasterBuffer {
        MasterBuffer::new(
            vec![unsafe { Retired::from_raw_parts(addr, size, noop_drop) }],
            &CollectorConfig::default(),
        )
    }

    #[test]
    fn add_scan_remove_lifecycle() {
        let roots = ThreadRoots::new(4);
        let block: Box<[usize; 16]> = Box::new([0; 16]);
        let target = 0x7000_0000usize;
        let mut block = block;
        block[7] = target + 16; // a private reference stored on the heap

        roots.add_heap_block(block.as_ptr().cast(), 16 * 8).unwrap();
        assert_eq!(roots.block_count(), 1);

        let mb = master_with(target, 64);
        let s = mb.session();
        roots.scan(&s);
        assert!(mb.is_marked(0), "heap-block reference must be found");

        roots.remove_heap_block(block.as_ptr().cast()).unwrap();
        assert_eq!(roots.block_count(), 0);

        let mb2 = master_with(target, 64);
        let s2 = mb2.session();
        roots.scan(&s2);
        assert!(!mb2.is_marked(0), "removed block must not be scanned");
    }

    #[test]
    fn slot_exhaustion_reports_capacity() {
        let roots = ThreadRoots::new(2);
        let a = [0usize; 2];
        let b = [0usize; 2];
        let c = [0usize; 2];
        roots.add_heap_block(a.as_ptr().cast(), 16).unwrap();
        roots.add_heap_block(b.as_ptr().cast(), 16).unwrap();
        assert_eq!(
            roots.add_heap_block(c.as_ptr().cast(), 16),
            Err(HeapBlockError::TooManyBlocks(2))
        );
    }

    #[test]
    fn duplicate_and_missing_blocks_rejected() {
        let roots = ThreadRoots::new(2);
        let a = [0usize; 2];
        roots.add_heap_block(a.as_ptr().cast(), 16).unwrap();
        assert_eq!(
            roots.add_heap_block(a.as_ptr().cast(), 16),
            Err(HeapBlockError::AlreadyRegistered)
        );
        let other = [0usize; 2];
        assert_eq!(
            roots.remove_heap_block(other.as_ptr().cast()),
            Err(HeapBlockError::NotRegistered)
        );
    }

    #[test]
    fn zero_length_block_rejected() {
        let roots = ThreadRoots::new(2);
        let a = [0usize; 2];
        assert_eq!(
            roots.add_heap_block(a.as_ptr().cast(), 0),
            Err(HeapBlockError::EmptyBlock)
        );
    }

    #[test]
    fn removed_slot_is_reusable() {
        let roots = ThreadRoots::new(1);
        let a = [0usize; 2];
        let b = [0usize; 2];
        roots.add_heap_block(a.as_ptr().cast(), 16).unwrap();
        roots.remove_heap_block(a.as_ptr().cast()).unwrap();
        roots.add_heap_block(b.as_ptr().cast(), 16).unwrap();
        assert_eq!(roots.block_count(), 1);
    }
}
