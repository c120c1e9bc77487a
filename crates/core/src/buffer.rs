//! Per-thread delete buffers.
//!
//! The paper (§4.2, "Reclamation") replaces the single shared delete buffer
//! of the pseudocode with one circular buffer per thread, "guaranteed to be
//! single-reader, single-writer, so concurrent accesses are simple and
//! inexpensive". The owning thread is the single writer; the single reader
//! at any moment is whichever thread currently holds the reclaimer lock and
//! drains all buffers into the master buffer.
//!
//! A [`LocalBuffer`] is the first of a thread's two stages: its fresh
//! retires, awaiting a scan. The second — the nodes a scan has proven
//! reclaimable, which the thread frees one per announced allocation and
//! one per retire once fresh + parked reach half of `buffer_capacity` —
//! lives with the collector, which sizes each stage at half of
//! `buffer_capacity`.

use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicUsize, Ordering};
use crossbeam_utils::CachePadded;

use crate::retired::Retired;

/// A single-producer, single-consumer circular buffer of [`Retired`] records.
///
/// * `push` may only be called by the owning thread.
/// * `drain_into` may only be called while holding the collector's reclaimer
///   lock (which serializes readers), or by the owner itself.
///
/// Indices grow monotonically and wrap around `usize`; the slot for index
/// `i` is `i % capacity`, so the capacity is always a power of two (see
/// [`LocalBuffer::new`]).
pub struct LocalBuffer {
    slots: Box<[UnsafeCell<MaybeUninit<Retired>>]>,
    /// Next index to write (owner-only writes, reader loads).
    head: CachePadded<AtomicUsize>,
    /// Next index to read (reader-only writes, owner loads).
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the SPSC discipline documented above makes the UnsafeCell slots
// data-race free: a slot is written before `head` is released and read after
// `head` is acquired, and never rewritten before `tail` passes it.
unsafe impl Send for LocalBuffer {}
unsafe impl Sync for LocalBuffer {}

impl LocalBuffer {
    /// Creates a buffer holding up to `capacity` retired nodes, rounded
    /// **up** to the next power of two.
    ///
    /// The rounding is load-bearing, not an optimization: head/tail are
    /// monotonically increasing `usize` indices mapped to slots by
    /// `i % capacity`, and that mapping is only continuous across the
    /// `usize::MAX` wraparound when the capacity divides `usize::MAX + 1`
    /// — i.e. when it is a power of two. A non-power-of-two capacity
    /// would silently scramble FIFO order (and the SPSC slot-disjointness
    /// argument) after ~2^64 pushes.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer capacity must be at least 1");
        let capacity = capacity.next_power_of_two();
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Capacity in retired nodes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of records currently buffered (approximate under concurrency;
    /// exact when called by the owner with no concurrent drain).
    ///
    /// Relaxed from `Acquire`/`Acquire` (scenarios:
    /// `lemma1_acquire_release_vs_retire_2threads`,
    /// `lemma1_scan_free_handshake_3threads`): this is a pure occupancy
    /// probe — no slot contents are read on its strength. Both indices
    /// are monotonic, so a stale `head` or `tail` only misreports the
    /// *count*: the owner sees its own `head` exactly (same-thread
    /// coherence) and at worst a stale `tail` that over-estimates
    /// occupancy, triggering a spurious collect that re-checks under the
    /// reclaimer lock (`collect_for` skips if the buffer is no longer
    /// full); cross-thread readers (`pending_estimate`) are documented
    /// racy diagnostics. Slot hand-off ordering lives entirely in
    /// `push`/`drain_into`.
    #[inline]
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        head.wrapping_sub(tail)
    }

    /// Whether the buffer holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the buffer is at capacity, i.e. the next `push` would fail
    /// and the owner should trigger a collect.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity()
    }

    /// Appends one record. Returns `Err(record)` when full.
    ///
    /// # Safety
    ///
    /// Must only be called by the buffer's owning thread (single producer).
    pub unsafe fn push(&self, record: Retired) -> Result<(), Retired> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= self.capacity() {
            return Err(record);
        }
        // Power-of-two capacity (see `new`) makes the modulo a mask and
        // keeps it continuous across usize wraparound.
        let slot = &self.slots[head & (self.capacity() - 1)];
        // SAFETY: slot is outside [tail, head), so no reader touches it.
        unsafe { (*slot.get()).write(record) };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Moves every buffered record into `out`, emptying the buffer.
    ///
    /// # Safety
    ///
    /// Must only be called by the current single reader (the reclaimer-lock
    /// holder, or the owning thread itself).
    pub unsafe fn drain_into(&self, out: &mut Vec<Retired>) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        let drained = head.wrapping_sub(tail);
        out.reserve(drained);
        while tail != head {
            let slot = &self.slots[tail & (self.capacity() - 1)];
            // SAFETY: [tail, head) slots were fully written before `head`
            // was released by the producer.
            out.push(unsafe { (*slot.get()).assume_init_read() });
            tail = tail.wrapping_add(1);
        }
        self.tail.store(tail, Ordering::Release);
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retired::noop_drop;
    use std::sync::Arc;

    fn rec(addr: usize) -> Retired {
        unsafe { Retired::from_raw_parts(addr, 8, noop_drop) }
    }

    #[test]
    fn push_then_drain_roundtrips() {
        let buf = LocalBuffer::new(8);
        for i in 0..5 {
            unsafe { buf.push(rec(0x1000 + i * 8)).unwrap() };
        }
        assert_eq!(buf.len(), 5);
        let mut out = Vec::new();
        let n = unsafe { buf.drain_into(&mut out) };
        assert_eq!(n, 5);
        assert!(buf.is_empty());
        let addrs: Vec<usize> = out.iter().map(|r| r.addr()).collect();
        assert_eq!(addrs, vec![0x1000, 0x1008, 0x1010, 0x1018, 0x1020]);
    }

    #[test]
    fn push_fails_when_full() {
        let buf = LocalBuffer::new(2);
        unsafe {
            buf.push(rec(0x10)).unwrap();
            assert!(!buf.is_full());
            buf.push(rec(0x20)).unwrap();
            assert!(buf.is_full());
            let rejected = buf.push(rec(0x30)).unwrap_err();
            assert_eq!(rejected.addr(), 0x30);
        }
    }

    #[test]
    fn wraparound_preserves_fifo_order() {
        let buf = LocalBuffer::new(4);
        let mut out = Vec::new();
        let mut next = 0usize;
        // Push/drain enough to wrap the indices several times.
        for round in 0..10 {
            let burst = 1 + (round % 4);
            for _ in 0..burst {
                unsafe { buf.push(rec(next)).unwrap() };
                next += 1;
            }
            out.clear();
            unsafe { buf.drain_into(&mut out) };
            let got: Vec<usize> = out.iter().map(|r| r.addr()).collect();
            let expect: Vec<usize> = (next - burst..next).collect();
            assert_eq!(got, expect, "round {round}");
        }
    }

    #[test]
    fn concurrent_producer_and_drainer_lose_nothing() {
        const TOTAL: usize = 100_000;
        let buf = Arc::new(LocalBuffer::new(64));
        let producer = {
            let buf = Arc::clone(&buf);
            std::thread::spawn(move || {
                let mut i = 1usize; // 0 is not a valid "address" for the check below
                while i <= TOTAL {
                    // SAFETY: this thread is the sole producer.
                    if unsafe { buf.push(rec(i)) }.is_ok() {
                        i += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let mut seen = Vec::with_capacity(TOTAL);
        while seen.len() < TOTAL {
            // SAFETY: this thread is the sole consumer.
            unsafe { buf.drain_into(&mut seen) };
        }
        producer.join().unwrap();
        for (i, r) in seen.iter().enumerate() {
            assert_eq!(r.addr(), i + 1, "FIFO order must hold across the ring");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn capacity_zero_rejected() {
        let _ = LocalBuffer::new(0);
    }

    #[test]
    fn capacity_one_is_full_after_one_push() {
        // Half of the smallest `buffer_capacity` (2): every retire fills
        // the fresh stage.
        let buf = LocalBuffer::new(1);
        unsafe {
            buf.push(rec(0x10)).unwrap();
            assert!(buf.is_full());
            assert_eq!(buf.push(rec(0x20)).unwrap_err().addr(), 0x20);
            let mut out = Vec::new();
            assert_eq!(buf.drain_into(&mut out), 1);
            buf.push(rec(0x20)).unwrap();
        }
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        // Regression: with a non-power-of-two capacity the `i % capacity`
        // slot mapping is discontinuous at the usize::MAX index wrap and
        // would corrupt FIFO order; `new` must round up.
        assert_eq!(LocalBuffer::new(2).capacity(), 2);
        assert_eq!(LocalBuffer::new(3).capacity(), 4);
        assert_eq!(LocalBuffer::new(5).capacity(), 8);
        assert_eq!(LocalBuffer::new(1000).capacity(), 1024);
        assert_eq!(LocalBuffer::new(1024).capacity(), 1024);
    }

    #[test]
    fn rounded_capacity_still_fills_and_drains() {
        let buf = LocalBuffer::new(7); // rounds to 8
        for i in 0..8 {
            unsafe { buf.push(rec(0x100 + i * 8)).unwrap() };
        }
        assert!(buf.is_full());
        let mut out = Vec::new();
        assert_eq!(unsafe { buf.drain_into(&mut out) }, 8);
    }
}
