//! Freed blocks are recycled: total span footprint stays bounded by the
//! peak live set, not the total allocation count.
//!
//! `ts_alloc::stats().spans` is process-wide, so this file is its own test
//! binary with a single `#[test]`: no sibling can carve spans while the
//! delta is being measured.

use std::alloc::{GlobalAlloc, Layout};

use proptest::prelude::*;
use ts_alloc::TsAlloc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn footprint_tracks_peak_not_total(iterations in 100usize..2_000) {
        let a = TsAlloc;
        let layout = Layout::from_size_align(64, 8).unwrap();
        let spans_before = ts_alloc::stats().spans;
        for _ in 0..iterations {
            // SAFETY: immediate roundtrip with the same layout.
            unsafe {
                let p = a.alloc(layout);
                prop_assert!(!p.is_null());
                a.dealloc(p, layout);
            }
        }
        let spans_after = ts_alloc::stats().spans;
        // One live block at a time: at most a couple of spans for this
        // class.
        prop_assert!(
            spans_after - spans_before <= 2,
            "alloc/free cycling must recycle, grew {} spans",
            spans_after - spans_before
        );
    }
}
