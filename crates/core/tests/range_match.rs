//! End-to-end behaviour of range matching (`addr <= w < addr + size`),
//! exercised through a full collector with a scripted platform: every
//! shape of reference a thread can hold pins its node, and a pinned node
//! is re-examined each phase until released.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use threadscan::{
    Collector, CollectorConfig, Platform, RegistryKey, ScanOutcome, ScanSession, SelfScanContext,
    ThreadRoots,
};

/// A platform whose single simulated thread "holds" a configurable word
/// list.
#[derive(Default)]
struct WordPlatform {
    words: Mutex<Vec<usize>>,
}

// SAFETY (test double): the full simulated root set is `words`, which is
// scanned in its entirety before the ack.
unsafe impl Platform for WordPlatform {
    type Record = ();
    fn register_current(&self, _: &RegistryKey, _roots: Arc<ThreadRoots>) {}
    fn unregister_current(&self, _: &RegistryKey, _record: &()) {}
    fn scan_all<'r>(
        &self,
        _: &RegistryKey,
        session: &ScanSession<'_>,
        _ctx: &SelfScanContext,
        _records: impl ExactSizeIterator<Item = &'r ()>,
    ) -> ScanOutcome {
        session.scan_words(&self.words.lock());
        session.ack();
        ScanOutcome { threads_scanned: 1 }
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
