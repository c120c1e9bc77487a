//! End-to-end behaviour of range matching (`addr <= w < addr + size`),
//! exercised through a full collector with a scripted platform: every
//! shape of reference a thread can hold pins its node, and a pinned node
//! is re-examined each phase until released.

use std::mem::{size_of, ManuallyDrop};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use threadscan::{Collector, CollectorConfig, Platform, RegistryKey, ScanClaim, SelfScanContext};

/// A platform whose single simulated thread "holds" a configurable word
/// list.
#[derive(Default)]
struct WordPlatform {
    words: Mutex<Vec<usize>>,
}

// SAFETY (test double): the full simulated root set is `words`, which is
// scanned in its entirety before the ack.
unsafe impl Platform for WordPlatform {
    type Record = ScanClaim;
    fn register_current(&self, _: &RegistryKey, c: ScanClaim) -> ScanClaim {
        c
    }
    fn scan_own(&self, key: &RegistryKey, claim: &ScanClaim, _: &SelfScanContext) {
        self.overdue(key, claim);
    }
    fn overdue(&self, _: &RegistryKey, claim: &ScanClaim) {
        claim.scan_once(|session| session.scan_words(&self.words.lock()));
    }
}

struct Probe {
    drops: Arc<AtomicUsize>,
    _pad: [u64; 8],
}
impl Drop for Probe {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

fn probe(drops: &Arc<AtomicUsize>) -> *mut Probe {
    Box::into_raw(Box::new(Probe {
        drops: Arc::clone(drops),
        _pad: [0; 8],
    }))
}

#[test]
fn range_mode_pins_both_base_and_interior() {
    let drops = Arc::new(AtomicUsize::new(0));
    let platform = WordPlatform::default();
    let [a, b, c, unheld] = [0; 4].map(|_| probe(&drops));
    // The paper masks low bits to see through a Harris deletion mark; a
    // tag smaller than the node is already inside the node's range.
    platform.words.lock().extend([
        a as usize,       // the base pointer
        b as usize + 16,  // an interior pointer (`&node.field`)
        c as usize | 0b1, // the base, marked
    ]);

    let collector =
        Collector::with_config(platform, CollectorConfig::default().with_buffer_capacity(8));
    let handle = collector.register();
    for p in [a, b, c, unheld] {
        unsafe { handle.retire(p) };
    }
    handle.flush();
    assert_eq!(
        drops.load(Ordering::SeqCst),
        1,
        "base, interior and tagged references each pin; only the unheld node is freed"
    );
    assert_eq!(collector.pending_estimate(), 3);
    collector.platform().words.lock().clear();
    collector.collect_now();
    assert_eq!(drops.load(Ordering::SeqCst), 4);
    drop(handle);
}

#[test]
fn survivors_are_rescanned_every_phase_until_released() {
    let drops = Arc::new(AtomicUsize::new(0));
    let platform = WordPlatform::default();
    let pinned = probe(&drops);
    platform.words.lock().push(pinned as usize);

    let collector =
        Collector::with_config(platform, CollectorConfig::default().with_buffer_capacity(4));
    let handle = collector.register();
    unsafe { handle.retire(pinned) };
    for round in 0..5 {
        collector.collect_now();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "round {round}: still referenced"
        );
    }
    let st = collector.stats();
    assert!(st.survivors >= 5, "survivor carried through each phase");
    collector.platform().words.lock().clear();
    collector.collect_now();
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    drop(handle);
}

/// A node of the Harris list's size, 16 bytes: glibc gives each one a
/// 32-byte chunk, so two share every 64-byte line.
#[repr(C)]
struct Small {
    drops: Arc<AtomicUsize>,
    _key: u64,
}

/// Destroys a `Small` in place; the test frees the storage itself.
unsafe fn drop_small(p: *mut u8) {
    let small = p.cast::<Small>();
    (*small).drops.fetch_add(1, Ordering::SeqCst);
    std::ptr::drop_in_place(small);
}

#[test]
fn one_past_a_16_byte_node_does_not_pin_it() {
    assert_eq!(size_of::<Small>(), 16);
    let drops = [0; 3].map(|_| Arc::new(AtomicUsize::new(0)));
    // Three adjacent nodes in one allocation: `a + 16` is `b`, `b + 16`
    // is `c`.
    let nodes = Box::into_raw(Box::new(drops.each_ref().map(|drops| {
        ManuallyDrop::new(Small {
            drops: Arc::clone(drops),
            _key: 0,
        })
    })));
    let [a, b, c] = [0, 1, 2].map(|i| nodes as usize + i * size_of::<Small>());

    let platform = WordPlatform::default();
    *platform.words.lock() = vec![a | 1, b, c];
    let collector =
        Collector::with_config(platform, CollectorConfig::default().with_buffer_capacity(8));
    let handle = collector.register();
    for node in [a, b, c] {
        unsafe { handle.retire_raw(node, size_of::<Small>(), drop_small) };
    }
    handle.flush();
    let dropped = || drops.each_ref().map(|d| d.load(Ordering::SeqCst));
    let scan = |words: Vec<usize>| {
        *collector.platform().words.lock() = words;
        collector.collect_now();
        dropped()
    };
    assert_eq!(dropped(), [0, 0, 0], "a tagged base pins a");
    assert_eq!(scan(vec![a + 8, c]), [0, 1, 0], "an interior word pins a");
    // `b` is gone and `c` is still buffered above it, so only the range's
    // exclusive upper bound keeps `a + size_of::<Small>()` from holding `a`.
    assert_eq!(scan(vec![b, c]), [1, 1, 0], "one past a's end");
    assert_eq!(scan(Vec::new()), [1, 1, 1]);
    drop(handle);
    // SAFETY: every node was destroyed in place; this frees the storage
    // without dropping them again.
    drop(unsafe { Box::from_raw(nodes) });
}
