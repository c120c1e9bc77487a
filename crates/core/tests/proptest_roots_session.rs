//! Property tests for the §4.3 heap-block root registry and the scan
//! session's word/region semantics, plus collector stats invariants.

use std::collections::HashSet;

use threadscan::master::MasterBuffer;
use threadscan::retired::{noop_drop, Retired};
use threadscan::{Collector, CollectorConfig, HeapBlockError, NullPlatform, ThreadRoots};
use ts_choose::check_inputs;

/// A master buffer over one synthetic node, for driving sessions.
fn one_node_master(addr: usize, size: usize, config: &CollectorConfig) -> MasterBuffer {
    // SAFETY: noop_drop never dereferences; the address is synthetic.
    let entries = vec![unsafe { Retired::from_raw_parts(addr, size, noop_drop) }];
    MasterBuffer::new(entries, config)
}

/// The root registry behaves like a capacity-bounded set keyed by start
/// address, with exactly the documented error cases.
#[test]
fn heap_block_registry_matches_set_model() {
    check_inputs("heap_block_registry_matches_set_model", 4096, 48, |ch| {
        // Twelve candidate block addresses (synthetic, never dereferenced
        // by the registry itself).
        let base = 0x10_000usize;
        let addr_of = |idx: usize| (base + idx * 0x1000) as *const u8;

        let capacity = ch.choose("capacity", 8);
        let roots = ThreadRoots::new(capacity);
        let mut model: HashSet<usize> = HashSet::new();

        for _ in 0..ch.choose("ops", 64) {
            let add = ch.choose("op", 2) == 0;
            let idx = ch.choose("idx", 12);
            if add {
                let len = ch.choose("len", 64);
                let got = roots.add_heap_block(addr_of(idx), len);
                if len == 0 {
                    assert_eq!(got, Err(HeapBlockError::EmptyBlock));
                } else if model.contains(&idx) {
                    assert_eq!(got, Err(HeapBlockError::AlreadyRegistered));
                } else if model.len() == capacity {
                    assert_eq!(got, Err(HeapBlockError::TooManyBlocks(capacity)));
                } else {
                    assert_eq!(got, Ok(()));
                    model.insert(idx);
                }
            } else {
                let got = roots.remove_heap_block(addr_of(idx));
                if model.remove(&idx) {
                    assert_eq!(got, Ok(()));
                } else {
                    assert_eq!(got, Err(HeapBlockError::NotRegistered));
                }
            }
            assert_eq!(roots.block_count(), model.len());
        }
    });
}

/// `scan_region` visits exactly the word-aligned words in `[lo, hi)`, for
/// arbitrary (mis)alignment of both bounds, and finds a planted reference
/// wherever it lies.
#[test]
fn scan_region_alignment_and_coverage() {
    check_inputs("scan_region_alignment_and_coverage", 4096, 48, |ch| {
        let lo_misalign = ch.choose("lo_misalign", 8);
        let hi_misalign = ch.choose("hi_misalign", 8);
        let words = 1 + ch.choose("words", 63);
        let plant_at = ch.choose("plant_at", words);
        let node_addr = 0xDEAD_0000usize;
        let config = CollectorConfig::default();
        let master = one_node_master(node_addr, 64, &config);
        let session = master.session();

        // A backing region with one planted reference word.
        let mut region = vec![0usize; words + 2];
        region[1 + plant_at] = node_addr;
        let base = region.as_ptr() as usize + 8; // first candidate word
        let lo = base - lo_misalign; // may reach into region[0]
        let hi = base + words * 8 + hi_misalign;

        let before = session.words_scanned();
        // SAFETY: [lo, hi) stays within the `region` allocation.
        unsafe { session.scan_region(lo as *const u8, hi as *const u8) };
        let scanned = session.words_scanned() - before;

        // Expected words: aligned addresses in [round_up(lo), round_down(hi)).
        let first = (lo + 7) & !7;
        let last = hi & !7;
        let expect = (last.saturating_sub(first)) / 8;
        assert_eq!(scanned, expect);
        assert!(session.hits() >= 1, "planted reference must be found");

        let (freed, survivors) = master.partition();
        assert_eq!(freed.len(), 0);
        assert_eq!(survivors.len(), 1);
    });
}

/// Interior pointers pin under range matching for any offset within the
/// node, and never one byte past the end.
#[test]
fn range_matching_covers_exactly_the_node() {
    check_inputs("range_matching_covers_exactly_the_node", 4096, 48, |ch| {
        let size = 8 + ch.choose("size", 504);
        let offset = ch.choose("offset", 520);
        let node_addr = 0xBEEF_0000usize;
        let config = CollectorConfig::default();
        let master = one_node_master(node_addr, size, &config);
        let session = master.session();
        session.scan_words(&[node_addr + offset]);
        let hit = offset < size;
        assert_eq!(session.hits() == 1, hit);
        let (freed, survivors) = master.partition();
        assert_eq!(survivors.len(), usize::from(hit));
        assert_eq!(freed.len(), usize::from(!hit));
    });
}

/// Collector stats stay internally consistent across arbitrary
/// retire/flush interleavings (NullPlatform: everything frees).
#[test]
fn stats_account_for_every_retired_node() {
    check_inputs("stats_account_for_every_retired_node", 4096, 48, |ch| {
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(2 + ch.choose("buffer_capacity", 62)),
        );
        let handle = collector.register();
        let mut retired_total = 0usize;
        for _ in 0..1 + ch.choose("batches", 11) {
            for _ in 0..1 + ch.choose("batch", 39) {
                let p = Box::into_raw(Box::new([0u64; 4]));
                // SAFETY: fresh private allocation, retired once.
                unsafe { handle.retire(p) };
                retired_total += 1;
            }
            let s = collector.stats();
            assert!(s.freed <= s.retired);
            assert_eq!(s.retired, retired_total);
        }
        handle.flush();
        let s = collector.stats();
        assert_eq!(s.retired, retired_total);
        assert_eq!(s.freed, retired_total, "NullPlatform frees everything");
        assert_eq!(collector.pending_estimate(), 0);
    });
}

/// Acks from many real threads sum exactly (the reclaimer's wait loop
/// depends on never over- or under-counting).
#[test]
fn acks_sum_exactly_across_threads() {
    let config = CollectorConfig::default();
    let master = one_node_master(0x1234_0000, 64, &config);
    let session = master.session();
    let threads = 8;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                session.scan_words(&[1, 2, 3]);
                session.ack();
            });
        }
    });
    assert_eq!(session.acks_received(), threads);
    assert_eq!(session.words_scanned(), threads * 3);
    assert_eq!(session.hits(), 0);
}

/// An empty region scan is a no-op, including inverted bounds.
#[test]
fn degenerate_regions_scan_nothing() {
    let config = CollectorConfig::default();
    let master = one_node_master(0x4444_0000, 64, &config);
    let session = master.session();
    let buf = [0u8; 64];
    let p = buf.as_ptr();
    // SAFETY: empty/degenerate ranges never read.
    unsafe {
        session.scan_region(p, p);
        session.scan_region(p.add(8), p); // inverted
        session.scan_region(p.add(1), p.add(7)); // no aligned word inside
    }
    assert_eq!(session.words_scanned(), 0);
}
