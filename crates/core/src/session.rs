//! The scan session: what a signal handler sees.
//!
//! A [`ScanSession`] is the read-mostly view of one reclamation phase's
//! sorted master buffer, plus the acknowledgment counter. Everything
//! reachable from it is async-signal-safe to use: plain loads, one binary
//! search over two borrowed slices, atomic stores for marks, and one atomic
//! increment for the ACK. No allocation, no locks, no unwinding on the scan
//! path (creating the session allocates nothing either).

use core::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

use crate::scan::find_range;
use crate::telemetry::TelemetrySink;

/// Handler-facing view of the current reclamation phase.
///
/// Borrowed from a [`crate::master::MasterBuffer`]; the collect protocol
/// guarantees that every handler finishes (acknowledges) before the buffer
/// is swept, so the borrow never dangles while a scan is in flight.
pub struct ScanSession<'a> {
    /// Sorted node base addresses.
    addrs: &'a [usize],
    /// Node ends, parallel to `addrs`.
    ends: &'a [usize],
    /// Mark bytes, parallel to `addrs`.
    marks: &'a [AtomicU8],
    /// `[lo, hi)` = `[addrs[0], ends[last])` spans every word that can
    /// match; empty (`lo > hi`) for an empty buffer.
    lo: usize,
    hi: usize,
    /// Counts *up*: each participating thread increments exactly once after
    /// completing its scan. Counting up (rather than down from an expected
    /// total) means the counter needs no initialization handshake with the
    /// broadcast step.
    acks: AtomicUsize,
    words_scanned: AtomicUsize,
    hits: AtomicUsize,
    /// `(sink, collect_id)` when the owning collector has telemetry
    /// enabled. A plain field: scanning threads (including signal
    /// handlers) read it with no atomics, and when `None` the scan path
    /// is byte-for-byte the telemetry-free one.
    telemetry: Option<(TelemetrySink, u64)>,
}

impl<'a> ScanSession<'a> {
    pub(crate) fn new(addrs: &'a [usize], ends: &'a [usize], marks: &'a [AtomicU8]) -> Self {
        debug_assert_eq!(addrs.len(), ends.len());
        debug_assert_eq!(addrs.len(), marks.len());
        Self {
            addrs,
            ends,
            marks,
            lo: addrs.first().copied().unwrap_or(usize::MAX),
            hi: ends.last().copied().unwrap_or(0),
            acks: AtomicUsize::new(0),
            words_scanned: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            telemetry: None,
        }
    }

    /// Attaches the collector's telemetry sink (and the id of the collect
    /// this session belongs to) so scanning threads can stamp
    /// scan-begin/scan-end events. Set once by the reclaimer before the
    /// session is published to the platform.
    pub(crate) fn set_telemetry(&mut self, telemetry: Option<(TelemetrySink, u64)>) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry sink and collect id, if any. Read from
    /// signal handlers: a plain (non-atomic) load, safe because the
    /// field is written before the session is shared.
    #[inline]
    pub fn telemetry(&self) -> Option<(TelemetrySink, u64)> {
        self.telemetry
    }

    /// Number of retired nodes being considered this phase.
    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when there is nothing to scan for.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Matching kernel shared by all scan entry points: a two-compare
    /// range reject, then one binary search ([`find_range`]: base, tagged
    /// and interior pointers all match, see [`crate::scan`]) over the
    /// sorted keys, marking on a hit.
    ///
    /// Does *not* touch `words_scanned` — every public entry point
    /// accounts for its own words exactly once (the batch paths with one
    /// batched add, to keep a shared-counter RMW per word off the scan
    /// hot path).
    #[inline]
    fn probe_word(&self, w: usize) -> bool {
        // Most stack words are not heap pointers at all. A word below
        // `addrs[0]` has no predecessor entry, and one at or above
        // `ends[last]` lies past the last entry's range, so the search
        // could not hit: skip it.
        if w < self.lo || w >= self.hi {
            return false;
        }
        if let Some(i) = find_range(self.addrs, self.ends, w) {
            // A plain store is enough: marking is idempotent and only ever
            // sets the flag; `fetch_or` would cost an RMW per hit.
            self.marks[i].store(1, Ordering::Release);
            self.hits.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Tests one word against the delete buffer, marking on a hit.
    /// Returns whether the word matched a retired node.
    #[inline]
    pub fn scan_word(&self, w: usize) -> bool {
        self.words_scanned.fetch_add(1, Ordering::Relaxed);
        self.probe_word(w)
    }

    /// Scans a slice of already-captured words (e.g. saved registers).
    pub fn scan_words(&self, words: &[usize]) {
        for &w in words {
            self.probe_word(w);
        }
        self.words_scanned.fetch_add(words.len(), Ordering::Relaxed);
    }

    /// Conservatively scans raw memory `[lo, hi)` word-by-word.
    ///
    /// `lo` is rounded up and `hi` down to word alignment. Reads are
    /// volatile: the scanned memory (a live stack) may be concurrently
    /// mutated, and any torn/stale value is acceptable — conservatism only
    /// requires that a *stably held* reference is seen (paper §2: "we
    /// exploit a weaker property ... a non-atomic scan of the threads'
    /// memory").
    ///
    /// # Safety
    ///
    /// Every word-aligned address in `[lo, hi)` must be readable for the
    /// duration of the call (e.g. the caller's own stack).
    pub unsafe fn scan_region(&self, lo: *const u8, hi: *const u8) {
        const WORD: usize = core::mem::size_of::<usize>();
        let mut cur = (lo as usize).wrapping_add(WORD - 1) & !(WORD - 1);
        let end = (hi as usize) & !(WORD - 1);
        let mut n = 0usize;
        while cur < end {
            // SAFETY: cur is word-aligned and inside the caller-guaranteed
            // readable range.
            let w = unsafe { core::ptr::read_volatile(cur as *const usize) };
            self.probe_word(w);
            cur += WORD;
            n += 1;
        }
        self.words_scanned.fetch_add(n, Ordering::Relaxed);
    }

    /// Records this thread's acknowledgment. Must be the very last session
    /// operation a scanning thread performs.
    #[inline]
    pub fn ack(&self) {
        self.acks.fetch_add(1, Ordering::Release);
    }

    /// Number of acknowledgments received so far.
    #[inline]
    pub fn acks_received(&self) -> usize {
        self.acks.load(Ordering::Acquire)
    }

    /// Total words examined across all scanning threads (statistic).
    pub fn words_scanned(&self) -> usize {
        self.words_scanned.load(Ordering::Relaxed)
    }

    /// Total matching words across all scanning threads (statistic).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::CollectorConfig;
    use crate::master::MasterBuffer;
    use crate::retired::{noop_drop, Retired};

    fn master(nodes: &[(usize, usize)]) -> MasterBuffer {
        let entries = nodes
            .iter()
            .map(|&(a, s)| unsafe { Retired::from_raw_parts(a, s, noop_drop) })
            .collect();
        MasterBuffer::new(entries, &CollectorConfig::default())
    }

    #[test]
    fn scan_words_marks_hits_and_counts() {
        let mb = master(&[(0x1000, 64), (0x2000, 64)]);
        let s = mb.session();
        s.scan_words(&[0x0, 0x1010, 0xffff, 0x2000]);
        assert_eq!(s.words_scanned(), 4);
        assert_eq!(s.hits(), 2);
        assert!(mb.is_marked(0) && mb.is_marked(1));
    }

    #[test]
    fn scan_word_counts_direct_calls() {
        // Regression (stats undercount): `scan_word` is public and used
        // directly by roots/heap-block scanning; it must count the word
        // itself, and the batch paths must not double-count.
        let mb = master(&[(0x1000, 64)]);
        let s = mb.session();
        assert!(s.scan_word(0x1000));
        assert!(!s.scan_word(0x9999));
        assert_eq!(s.words_scanned(), 2, "direct scan_word calls must count");
        s.scan_words(&[0x1, 0x2, 0x3]);
        assert_eq!(s.words_scanned(), 5, "batch path must count once per word");
    }

    #[test]
    fn scan_region_finds_reference_in_local_memory() {
        let mb = master(&[(0xabcd00, 64)]);
        let s = mb.session();
        // A "stack frame" holding one disguised reference among noise.
        let frame: [usize; 8] = [1, 2, 0xabcd10, 3, 4, 5, 6, 7];
        unsafe {
            s.scan_region(
                frame.as_ptr().cast(),
                frame.as_ptr().add(frame.len()).cast(),
            );
        }
        assert_eq!(s.hits(), 1);
        assert!(mb.is_marked(0));
    }

    #[test]
    fn scan_region_handles_unaligned_bounds() {
        let mb = master(&[(0x5000, 8)]);
        let s = mb.session();
        let frame: [usize; 4] = [0x5000, 0x5000, 0x5000, 0x5000];
        let base = frame.as_ptr() as *const u8;
        // Start 3 bytes in: first word skipped; end 2 bytes short: last
        // word skipped. Two aligned words remain.
        unsafe { s.scan_region(base.add(3), base.add(4 * 8 - 2)) };
        assert_eq!(s.words_scanned(), 2);
    }

    #[test]
    fn empty_region_scans_nothing() {
        let mb = master(&[(0x5000, 8)]);
        let s = mb.session();
        let x = 0usize;
        let p = (&x as *const usize).cast::<u8>();
        unsafe { s.scan_region(p, p) };
        assert_eq!(s.words_scanned(), 0);
    }

    #[test]
    fn acks_accumulate() {
        let mb = master(&[(0x1000, 8)]);
        let s = mb.session();
        assert_eq!(s.acks_received(), 0);
        s.ack();
        s.ack();
        assert_eq!(s.acks_received(), 2);
    }

    #[test]
    fn concurrent_scans_mark_consistently() {
        use std::sync::Arc;
        let nodes: Vec<(usize, usize)> = (0..512).map(|i| (0x10_0000 + i * 128, 128)).collect();
        let mb = Arc::new(master(&nodes));
        let session = mb.session();
        std::thread::scope(|scope| {
            let session = &session;
            for t in 0..8 {
                scope.spawn(move || {
                    // Each thread marks a strided subset via interior words.
                    for i in (t..512).step_by(8) {
                        session.scan_word(0x10_0000 + i * 128 + 64);
                    }
                    session.ack();
                });
            }
            while session.acks_received() < 8 {
                std::hint::spin_loop();
            }
        });
        for i in 0..512 {
            assert!(mb.is_marked(i), "entry {i} must be marked");
        }
    }
}
