//! Property tests for the §4.3 heap-block root registry and the scan
//! session's word/region semantics, plus collector stats invariants.

use std::collections::HashSet;

use proptest::prelude::*;
use threadscan::master::MasterBuffer;
use threadscan::retired::{noop_drop, Retired};
use threadscan::{Collector, CollectorConfig, HeapBlockError, NullPlatform, ThreadRoots};

/// A master buffer over one synthetic node, for driving sessions.
fn one_node_master(addr: usize, size: usize, config: &CollectorConfig) -> MasterBuffer {
    // SAFETY: noop_drop never dereferences; the address is synthetic.
    let entries = vec![unsafe { Retired::from_raw_parts(addr, size, noop_drop) }];
    MasterBuffer::new(entries, config)
}

#[derive(Debug, Clone)]
enum RootOp {
    Add { idx: usize, len: usize },
    Remove { idx: usize },
}

proptest! {
    // Cap the case count so `cargo test -q` stays fast; PROPTEST_CASES
    // can raise it for soak runs.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The root registry behaves like a capacity-bounded set keyed by
    /// start address, with exactly the documented error cases.
    #[test]
    fn heap_block_registry_matches_set_model(
        capacity in 0usize..8,
        ops in proptest::collection::vec(
            prop_oneof![
                (0usize..12, 0usize..64).prop_map(|(idx, len)| RootOp::Add { idx, len }),
                (0usize..12).prop_map(|idx| RootOp::Remove { idx }),
            ],
            0..64,
        ),
    ) {
        // Twelve candidate block addresses (synthetic, never dereferenced
        // by the registry itself).
        let base = 0x10_000usize;
        let addr_of = |idx: usize| (base + idx * 0x1000) as *const u8;

        let roots = ThreadRoots::new(capacity);
        let mut model: HashSet<usize> = HashSet::new();

        for op in ops {
            match op {
                RootOp::Add { idx, len } => {
                    let got = roots.add_heap_block(addr_of(idx), len);
                    if len == 0 {
                        prop_assert_eq!(got, Err(HeapBlockError::EmptyBlock));
                    } else if model.contains(&idx) {
                        prop_assert_eq!(got, Err(HeapBlockError::AlreadyRegistered));
                    } else if model.len() == capacity {
                        prop_assert_eq!(got, Err(HeapBlockError::TooManyBlocks(capacity)));
                    } else {
                        prop_assert_eq!(got, Ok(()));
                        model.insert(idx);
                    }
                }
                RootOp::Remove { idx } => {
                    let got = roots.remove_heap_block(addr_of(idx));
                    if model.remove(&idx) {
                        prop_assert_eq!(got, Ok(()));
                    } else {
                        prop_assert_eq!(got, Err(HeapBlockError::NotRegistered));
                    }
                }
            }
            prop_assert_eq!(roots.block_count(), model.len());
        }
    }

    /// `scan_region` visits exactly the word-aligned words in `[lo, hi)`,
    /// for arbitrary (mis)alignment of both bounds, and finds a planted
    /// reference wherever it lies.
    #[test]
    fn scan_region_alignment_and_coverage(
        lo_misalign in 0usize..8,
        hi_misalign in 0usize..8,
        words in 1usize..64,
        plant_at in 0usize..64,
    ) {
        let plant_at = plant_at % words;
        let node_addr = 0xDEAD_0000usize;
        let config = CollectorConfig::default();
        let master = one_node_master(node_addr, 64, &config);
        let session = master.session();

        // A backing region with one planted reference word.
        let mut region = vec![0usize; words + 2];
        region[1 + plant_at] = node_addr;
        let base = region.as_ptr() as usize + 8; // first candidate word
        let lo = base - lo_misalign.min(7);      // may reach into region[0]
        let hi = base + words * 8 + hi_misalign.min(7);

        let before = session.words_scanned();
        // SAFETY: [lo, hi) stays within the `region` allocation.
        unsafe { session.scan_region(lo as *const u8, hi as *const u8) };
        let scanned = session.words_scanned() - before;

        // Expected words: aligned addresses in [round_up(lo), round_down(hi)).
        let first = (lo + 7) & !7;
        let last = hi & !7;
        let expect = (last.saturating_sub(first)) / 8;
        prop_assert_eq!(scanned, expect);
        prop_assert!(session.hits() >= 1, "planted reference must be found");

        let (freed, survivors) = master.partition();
        prop_assert_eq!(freed.len(), 0);
        prop_assert_eq!(survivors.len(), 1);
    }

    /// Interior pointers pin under range matching for any offset within
    /// the node, and never one byte past the end.
    #[test]
    fn range_matching_covers_exactly_the_node(
        size in 8usize..512,
        offset in 0usize..520,
    ) {
        let node_addr = 0xBEEF_0000usize;
        let config = CollectorConfig::default();
        let master = one_node_master(node_addr, size, &config);
        let session = master.session();
        session.scan_words(&[node_addr + offset]);
        let hit = offset < size;
        prop_assert_eq!(session.hits() == 1, hit);
        let (freed, survivors) = master.partition();
        prop_assert_eq!(survivors.len(), usize::from(hit));
        prop_assert_eq!(freed.len(), usize::from(!hit));
    }

    /// Collector stats stay internally consistent across arbitrary
    /// retire/flush interleavings (NullPlatform: everything frees).
    #[test]
    fn stats_account_for_every_retired_node(
        batches in proptest::collection::vec(1usize..40, 1..12),
        buffer_capacity in 2usize..64,
    ) {
        let collector = Collector::with_config(
            NullPlatform,
            CollectorConfig::default().with_buffer_capacity(buffer_capacity),
        );
        let handle = collector.register();
        let mut retired_total = 0usize;
        for batch in batches {
            for _ in 0..batch {
                let p = Box::into_raw(Box::new([0u64; 4]));
                // SAFETY: fresh private allocation, retired once.
                unsafe { handle.retire(p) };
                retired_total += 1;
            }
            let s = collector.stats();
            prop_assert!(s.freed <= s.retired);
            prop_assert_eq!(s.retired, retired_total);
        }
        handle.flush();
        let s = collector.stats();
        prop_assert_eq!(s.retired, retired_total);
        prop_assert_eq!(s.freed, retired_total, "NullPlatform frees everything");
        prop_assert_eq!(collector.pending_estimate(), 0);
    }
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
