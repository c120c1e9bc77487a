//! Property tests for the node-pool handles: arbitrary alloc/dealloc
//! interleavings across size classes against a `HashMap` oracle — live
//! blocks never alias (within or across classes), payloads survive
//! magazine refill/return round-trips untouched, and the per-handle
//! counters balance once everything is freed.

use std::collections::HashMap;

use ts_alloc::pool::{dealloc_node, PoolHandle, HEADER_BYTES};
use ts_alloc::size_classes::{class_of, class_size};
use ts_choose::check_inputs;

/// One pooled node shape per interesting size region: three small
/// classes, one mid class, and one past `MAX_SMALL` (system passthrough).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    W2,   // 16 B payload  -> class of 32
    W8,   // 64 B payload  -> mid class
    W24,  // 192 B payload -> node-sized class
    W120, // 960 B payload -> large class
    W700, // 5600 B payload -> system passthrough
}

impl Shape {
    fn words(self) -> usize {
        match self {
            Shape::W2 => 2,
            Shape::W8 => 8,
            Shape::W24 => 24,
            Shape::W120 => 120,
            Shape::W700 => 700,
        }
    }

    /// Bytes the pool actually reserves for this shape (block or exact).
    fn resident_bytes(self) -> usize {
        let total = HEADER_BYTES + self.words() * 8;
        match class_of(total) {
            Some(c) => class_size(c),
            None => total,
        }
    }

    fn alloc(self, pool: &PoolHandle, tag: u64) -> usize {
        // Each arm monomorphizes a distinct node type; every word of the
        // payload carries the tag so aliasing clobbers are detectable.
        match self {
            Shape::W2 => pool.alloc_node([tag; 2]) as usize,
            Shape::W8 => pool.alloc_node([tag; 8]) as usize,
            Shape::W24 => pool.alloc_node([tag; 24]) as usize,
            Shape::W120 => pool.alloc_node([tag; 120]) as usize,
            Shape::W700 => pool.alloc_node([tag; 700]) as usize,
        }
    }

    /// Checks every payload word still holds `tag`, then frees the node.
    ///
    /// # Safety
    ///
    /// `addr` came from `alloc` with the same shape and is freed once.
    unsafe fn check_and_free(self, addr: usize, tag: u64) -> bool {
        let words = self.words();
        let p = addr as *const u64;
        for i in 0..words {
            if p.add(i).read() != tag {
                return false;
            }
        }
        match self {
            Shape::W2 => dealloc_node(addr as *mut [u64; 2]),
            Shape::W8 => dealloc_node(addr as *mut [u64; 8]),
            Shape::W24 => dealloc_node(addr as *mut [u64; 24]),
            Shape::W120 => dealloc_node(addr as *mut [u64; 120]),
            Shape::W700 => dealloc_node(addr as *mut [u64; 700]),
        }
        true
    }
}

const SHAPES: [Shape; 5] = [Shape::W2, Shape::W8, Shape::W24, Shape::W120, Shape::W700];

#[test]
fn pool_interleavings_match_oracle() {
    check_inputs("pool_interleavings_match_oracle", 2048, 48, |ch| {
        let pool = PoolHandle::new("pool-oracle");
        // Oracle: address -> (shape, tag). Insertion order kept separately
        // so Free picks deterministically.
        let mut oracle: HashMap<usize, (Shape, u64)> = HashMap::new();
        let mut order: Vec<usize> = Vec::new();
        let mut next_tag = 1u64;
        let mut expected_allocs = 0usize;
        let mut expected_frees = 0usize;

        for _ in 0..1 + ch.choose("ops", 249) {
            if ch.choose("op", 2) == 0 {
                let shape = SHAPES[ch.choose("shape", SHAPES.len())];
                let addr = shape.alloc(&pool, next_tag);
                assert!(addr != 0);
                assert_eq!(addr % 16, 0, "payload must be 16-aligned");
                // No aliasing with any live node, same class or not.
                assert!(
                    oracle.insert(addr, (shape, next_tag)).is_none(),
                    "pool handed out a live address twice"
                );
                order.push(addr);
                next_tag += 1;
                expected_allocs += 1;
            } else {
                // Free the `idx % live`-th live node.
                let idx = ch.choose("free", 64);
                if order.is_empty() {
                    continue;
                }
                let addr = order.swap_remove(idx % order.len());
                let (shape, tag) = oracle.remove(&addr).unwrap();
                // SAFETY: live node from this run, freed exactly once.
                assert!(
                    unsafe { shape.check_and_free(addr, tag) },
                    "payload clobbered while live"
                );
                expected_frees += 1;
            }
        }

        // Mid-run counters: resident bytes must equal the oracle's notion
        // of what is still live.
        let live_bytes: usize = oracle.values().map(|(s, _)| s.resident_bytes()).sum();
        let mid = pool.stats();
        assert_eq!(mid.allocs, expected_allocs);
        assert_eq!(mid.frees, expected_frees);
        assert_eq!(mid.bytes_resident, live_bytes);

        // Drain the survivors; counters must balance exactly.
        for addr in order {
            let (shape, tag) = oracle.remove(&addr).unwrap();
            // SAFETY: as above.
            assert!(unsafe { shape.check_and_free(addr, tag) });
        }
        let end = pool.stats();
        assert_eq!(end.allocs, end.frees, "counters must balance at drop");
        assert_eq!(end.bytes_resident, 0);
    });
}

/// Magazine round-trips: blocks freed to the magazine come back out on
/// the next allocation of the same class with contents rewritten, and
/// pure LIFO cycling performs no depot refills after warmup.
#[test]
fn magazine_roundtrip_recycles_without_refills() {
    check_inputs(
        "magazine_roundtrip_recycles_without_refills",
        64,
        48,
        |ch| {
            let cycles = 10 + ch.choose("cycles", 190);
            let pool = PoolHandle::new("magazine");
            let warm: *mut [u64; 8] = {
                let p = pool.alloc_node([0u64; 8]);
                // SAFETY: allocated above.
                unsafe { dealloc_node(p) };
                p
            };
            let refills_after_warmup = pool.stats().magazine_refills;
            for i in 0..cycles {
                let p: *mut [u64; 8] = pool.alloc_node([i as u64; 8]);
                // LIFO magazine: the warm block keeps coming back.
                assert_eq!(p, warm);
                // SAFETY: allocated above.
                unsafe {
                    assert_eq!((*p)[7], i as u64);
                    dealloc_node(p);
                }
            }
            assert_eq!(pool.stats().magazine_refills, refills_after_warmup);
        },
    );
}
