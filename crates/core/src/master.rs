//! The master buffer: the sorted aggregation every scan runs against.
//!
//! `TS-Collect` (Algorithm 1, line 2) sorts the delete buffer "to speed up
//! the scan process"; scanning threads binary-search it and set mark bits.
//! After all acknowledgments, unmarked entries are reclaimed and marked
//! entries survive into the next reclamation phase.
//!
//! One array, sorted once per phase on the reclaiming thread: the search
//! keys, node ends and mark bytes are kept in separate parallel vectors so
//! the binary search a signal handler runs touches only dense `usize`s.

use core::sync::atomic::{AtomicU8, Ordering};

use crate::config::CollectorConfig;
use crate::retired::Retired;
use crate::session::ScanSession;

/// Sorted, markable aggregation of retired nodes for one reclamation
/// phase. The index-based API (`mark`, `is_marked`, `partition`) operates
/// on the sorted order.
///
/// One buffer set serves every phase of a collector: [`Self::intake`]
/// takes the phase's records, [`Self::build`] sorts them and rebuilds the
/// key, end and mark arrays in place, and [`Self::split_into`] moves the
/// records out again. Each vector keeps its capacity, so a phase no
/// larger than an earlier one allocates nothing.
#[derive(Default)]
pub struct MasterBuffer {
    /// Entries sorted ascending by address (once built).
    entries: Vec<Retired>,
    /// Search keys, parallel to `entries`: `entries[i].addr()`.
    addrs: Vec<usize>,
    /// `entries[i].end()`, parallel to `addrs`.
    ends: Vec<usize>,
    /// `marks[i] != 0` means entry `i` may still be referenced.
    marks: Vec<AtomicU8>,
    /// Wall time spent sorting and building the key arrays, in nanoseconds.
    sort_ns: usize,
}

/// Nanoseconds elapsed since `start`, clamped into a `usize`.
pub(crate) fn elapsed_ns(start: std::time::Instant) -> usize {
    start.elapsed().as_nanos().min(usize::MAX as u128) as usize
}

impl MasterBuffer {
    /// Sorts `entries` by address on the calling thread and builds the
    /// parallel key, end and mark arrays: [`Self::build`] on a fresh
    /// buffer set.
    ///
    /// `_config` is unread — nothing about the buffer is configurable —
    /// and stays only because the frozen `benchmark/` calls this
    /// signature (ROADMAP carry-over: drop it at the next re-cut).
    pub fn new(entries: Vec<Retired>, _config: &CollectorConfig) -> Self {
        let mut master = Self {
            entries,
            ..Self::default()
        };
        master.build();
        master
    }

    /// The records the next [`Self::build`] sorts: a reclaimer appends
    /// the phase's records here. Empty after [`Self::split_into`].
    pub fn intake(&mut self) -> &mut Vec<Retired> {
        &mut self.entries
    }

    /// Sorts the intake by address and rebuilds the key, end and mark
    /// arrays from it, every mark cleared. Nothing of an earlier phase
    /// survives a build.
    ///
    /// Duplicate addresses indicate a double `retire` in application code;
    /// this is rejected in debug builds.
    pub fn build(&mut self) {
        let start = std::time::Instant::now();
        self.entries.sort_unstable_by_key(Retired::addr);
        self.addrs.clear();
        self.addrs.extend(self.entries.iter().map(Retired::addr));
        self.ends.clear();
        self.ends.extend(self.entries.iter().map(Retired::end));
        self.marks.clear();
        self.marks
            .resize_with(self.entries.len(), || AtomicU8::new(0));

        debug_assert!(
            self.addrs.windows(2).all(|w| w[0] != w[1]),
            "double-retire detected: duplicate address in the delete buffer"
        );
        self.sort_ns = elapsed_ns(start);
    }

    /// Number of retired nodes in this phase.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether this phase has nothing to reclaim.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Nanoseconds the last [`Self::build`] spent sorting and building.
    pub fn sort_ns(&self) -> usize {
        self.sort_ns
    }

    /// Creates the signal-handler-facing view of this buffer.
    ///
    /// The returned session borrows `self`; the borrow checker guarantees
    /// the master buffer outlives every scan that uses the session, and the
    /// collect protocol guarantees handlers are done before the session is
    /// dropped (the last thing a handler does is acknowledge).
    pub fn session(&self) -> ScanSession<'_> {
        ScanSession::new(&self.addrs, &self.ends, &self.marks)
    }

    /// Marks entry `i` (sorted order) directly — used by the reclaimer for
    /// roots it can see without a scan, and by tests.
    pub fn mark(&self, i: usize) {
        self.marks[i].store(1, Ordering::Release);
    }

    /// Whether entry `i` (sorted order) has been marked.
    pub fn is_marked(&self, i: usize) -> bool {
        self.marks[i].load(Ordering::Acquire) != 0
    }

    /// Consumes the phase: returns `(reclaimable, survivors)` —
    /// Algorithm 1 lines 11-15 split into "free now" and "carry over".
    /// [`Self::split_into`] into two new vectors.
    pub fn partition(mut self) -> (Vec<Retired>, Vec<Retired>) {
        let (mut reclaimable, mut survivors) = (Vec::new(), Vec::new());
        self.split_into(&mut reclaimable, &mut survivors);
        (reclaimable, survivors)
    }

    /// Ends the phase: appends each unmarked entry to `reclaimable` and
    /// each marked one to `survivors`, both in address order, and leaves
    /// this buffer set empty, its capacity kept for the next phase.
    ///
    /// # Panics
    ///
    /// If the intake changed since the last [`Self::build`].
    pub fn split_into(&mut self, reclaimable: &mut Vec<Retired>, survivors: &mut Vec<Retired>) {
        assert_eq!(
            self.entries.len(),
            self.marks.len(),
            "split_into needs a build after the last intake"
        );
        for (entry, mark) in self.entries.drain(..).zip(&self.marks) {
            if mark.load(Ordering::Acquire) == 0 {
                reclaimable.push(entry);
            } else {
                survivors.push(entry);
            }
        }
        self.addrs.clear();
        self.ends.clear();
        self.marks.clear();
    }

    /// The entries in sorted order (diagnostics/tests).
    pub fn entries(&self) -> &[Retired] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retired::noop_drop;
    use ts_choose::check_inputs;

    fn rec(addr: usize, size: usize) -> Retired {
        unsafe { Retired::from_raw_parts(addr, size, noop_drop) }
    }

    fn cfg() -> CollectorConfig {
        CollectorConfig::default()
    }

    #[test]
    fn new_sorts_by_address() {
        let mb = MasterBuffer::new(vec![rec(0x300, 8), rec(0x100, 8), rec(0x200, 8)], &cfg());
        let addrs: Vec<usize> = mb.entries().iter().map(|e| e.addr()).collect();
        assert_eq!(addrs, vec![0x100, 0x200, 0x300]);
    }

    #[test]
    fn unmarked_entries_are_reclaimable() {
        let mb = MasterBuffer::new(vec![rec(0x100, 8), rec(0x200, 8), rec(0x300, 8)], &cfg());
        mb.mark(1);
        let (reclaimable, survivors) = mb.partition();
        let free: Vec<usize> = reclaimable.iter().map(Retired::addr).collect();
        let keep: Vec<usize> = survivors.iter().map(Retired::addr).collect();
        assert_eq!(free, vec![0x100, 0x300]);
        assert_eq!(keep, vec![0x200]);
    }

    #[test]
    fn session_scan_marks_via_range_match() {
        let mb = MasterBuffer::new(vec![rec(0x1000, 64), rec(0x2000, 64)], &cfg());
        let session = mb.session();
        // Interior pointer into the first node; nothing touching the second.
        session.scan_word(0x1020);
        session.scan_word(0x3000);
        assert!(mb.is_marked(0));
        assert!(!mb.is_marked(1));
    }

    #[test]
    fn empty_master_buffer_partitions_to_nothing() {
        let mb = MasterBuffer::new(Vec::new(), &cfg());
        assert!(mb.is_empty());
        let (reclaimable, survivors) = mb.partition();
        assert!(reclaimable.is_empty());
        assert!(survivors.is_empty());
    }

    /// Partition conserves the retired multiset: every entry comes out
    /// exactly once, on the side its mark dictates, in sorted order.
    #[test]
    fn partition_conserves_entries() {
        check_inputs("partition_conserves_entries", 4096, 64, |ch| {
            // Up to 127 distinct word addresses below 1M words, handed
            // to the build in reverse so it has something to sort.
            let mut addr = 0;
            let mut entries = Vec::new();
            for _ in 0..ch.choose("len", 128) {
                addr += 1 + ch.choose("gap", 7_800);
                entries.push(rec(addr * 8, 8));
            }
            entries.reverse();
            let mb = MasterBuffer::new(entries, &cfg());
            let mut expect_keep = Vec::new();
            let mut expect_free = Vec::new();
            for i in 0..mb.entries().len() {
                if ch.choose("marked", 2) == 1 {
                    mb.mark(i);
                    expect_keep.push(mb.entries()[i].addr());
                } else {
                    expect_free.push(mb.entries()[i].addr());
                }
            }
            let (reclaimable, survivors) = mb.partition();
            let free: Vec<usize> = reclaimable.iter().map(Retired::addr).collect();
            let keep: Vec<usize> = survivors.iter().map(Retired::addr).collect();
            assert_eq!(free, expect_free);
            assert_eq!(keep, expect_keep);
        });
    }
}
