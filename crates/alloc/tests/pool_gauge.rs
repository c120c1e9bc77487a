//! The process-wide bytes-resident gauge sums every pool.
//!
//! `pool_bytes_resident()` is process-wide, so this file is its own test
//! binary with a single `#[test]`: no sibling can allocate from a pool
//! while the exact deltas are being checked.

use ts_alloc::{class_size, dealloc_node, pool_bytes_resident, PoolHandle};

#[test]
fn global_bytes_resident_tracks_all_pools() {
    let a = PoolHandle::new("global-a");
    let b = PoolHandle::new("global-b");
    let before = pool_bytes_resident();
    let pa: *mut u64 = a.alloc_node(1);
    let pb: *mut u64 = b.alloc_node(2);
    assert!(pool_bytes_resident() >= before + 2 * class_size(0));
    // SAFETY: allocated above.
    unsafe {
        dealloc_node(pa);
        dealloc_node(pb);
    }
    assert_eq!(pool_bytes_resident(), before);
}
