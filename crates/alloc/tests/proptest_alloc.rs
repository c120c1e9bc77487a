//! Property tests: arbitrary alloc/free interleavings through the
//! `GlobalAlloc` facade behave like an allocator should — no aliasing
//! between live blocks, contents stable until free, any free order.

use std::alloc::{GlobalAlloc, Layout};

use proptest::prelude::*;
use ts_alloc::TsAlloc;

#[derive(Debug, Clone)]
enum AllocOp {
    /// Allocate `size` bytes and fill with a tag.
    Alloc { size: usize },
    /// Free the `idx % live`-th live block.
    Free { idx: usize },
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleaved_alloc_free_never_aliases(
        ops in proptest::collection::vec(
            prop_oneof![
                (1usize..6000).prop_map(|size| AllocOp::Alloc { size }),
                (0usize..64).prop_map(|idx| AllocOp::Free { idx }),
            ],
            1..300,
        )
    ) {
        let a = TsAlloc;
        // live: (ptr, layout, tag)
        let mut live: Vec<(*mut u8, Layout, u8)> = Vec::new();
        let mut next_tag = 1u8;

        for op in ops {
            match op {
                AllocOp::Alloc { size } => {
                    let layout = Layout::from_size_align(size, 8).unwrap();
                    // SAFETY: valid layout; block tracked and freed below.
                    let p = unsafe { a.alloc(layout) };
                    prop_assert!(!p.is_null());
                    // SAFETY: fresh block of `size` bytes.
                    unsafe { p.write_bytes(next_tag, size) };
                    live.push((p, layout, next_tag));
                    next_tag = next_tag.wrapping_add(1).max(1);
                }
                AllocOp::Free { idx } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (p, layout, tag) = live.swap_remove(idx % live.len());
                    // The block's contents must be exactly what we wrote:
                    // any aliasing with another live block would have
                    // clobbered the tag.
                    // SAFETY: block is live and `layout.size()` long.
                    unsafe {
                        prop_assert_eq!(p.read(), tag);
                        prop_assert_eq!(p.add(layout.size() - 1).read(), tag);
                        a.dealloc(p, layout);
                    }
                }
            }
        }
        // Verify + release the survivors.
        for (p, layout, tag) in live {
            // SAFETY: as above.
            unsafe {
                prop_assert_eq!(p.read(), tag);
                a.dealloc(p, layout);
            }
        }
    }
}
