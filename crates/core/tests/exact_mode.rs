//! End-to-end behaviour of the paper's §4.2 exact matching mode (masked
//! base-pointer comparison), exercised through a full collector with a
//! scripted platform — the ablation counterpart of the default range mode.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use threadscan::{
    Collector, CollectorConfig, MatchMode, Platform, ScanOutcome, ScanSession, SelfScanContext,
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
    type ThreadToken = ();
    fn register_current(&self, _roots: Arc<ThreadRoots>) -> Self::ThreadToken {}
    fn scan_all(&self, session: &ScanSession<'_>, _ctx: &SelfScanContext) -> ScanOutcome {
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
fn exact_mode_pins_tagged_base_pointers_only() {
    let drops = Arc::new(AtomicUsize::new(0));
    let platform = WordPlatform::default();
    let a = probe(&drops);
    let b = probe(&drops);
    // Hold: a's base with a Harris-style tag bit, and an *interior* word
    // of b. Exact mode must pin a but NOT b.
    platform.words.lock().push(a as usize | 1);
    platform.words.lock().push(b as usize + 16);

    let collector = Collector::with_config(
        platform,
        CollectorConfig::default()
            .with_buffer_capacity(2)
            .with_match_mode(MatchMode::Exact),
    );
    let handle = collector.register();
    unsafe { handle.retire(a) };
    unsafe { handle.retire(b) };
    handle.flush(); // frees what the phases found unreferenced
    assert_eq!(
        drops.load(Ordering::SeqCst),
        1,
        "exact mode: tagged base pins a; interior word does not pin b"
    );
    assert_eq!(collector.pending_estimate(), 1);

    collector.platform().words.lock().clear();
    collector.collect_now();
    assert_eq!(drops.load(Ordering::SeqCst), 2);
    drop(handle);
}

#[test]
fn range_mode_pins_both_base_and_interior() {
    let drops = Arc::new(AtomicUsize::new(0));
    let platform = WordPlatform::default();
    let a = probe(&drops);
    let b = probe(&drops);
    platform.words.lock().push(a as usize | 1);
    platform.words.lock().push(b as usize + 16);

    let collector = Collector::with_config(
        platform,
        CollectorConfig::default()
            .with_buffer_capacity(2)
            .with_match_mode(MatchMode::Range),
    );
    let handle = collector.register();
    unsafe { handle.retire(a) };
    unsafe { handle.retire(b) };
    assert_eq!(
        drops.load(Ordering::SeqCst),
        0,
        "range mode: both references pin"
    );
    collector.platform().words.lock().clear();
    collector.collect_now();
    assert_eq!(drops.load(Ordering::SeqCst), 2);
    drop(handle);
}

#[test]
fn exact_mode_pins_nodes_retired_at_tagged_addresses() {
    // Regression (mask asymmetry): only the probe word used to be masked,
    // so a node retired at an address with low bits inside `low_bit_mask`
    // (e.g. a tagged pointer passed straight to retire) could never be
    // matched — a stably held reference would be reclaimed out from under
    // the thread. Entry addresses are masked too now.
    use std::sync::atomic::AtomicUsize as Count;
    static FREED: Count = Count::new(0);
    fn counting_drop(_p: *mut u8) {
        FREED.fetch_add(1, Ordering::SeqCst);
    }

    let platform = WordPlatform::default();
    let odd_addr = 0x7000_1001usize; // low bits set: inside the 0b111 mask
    platform.words.lock().push(odd_addr); // the thread's stable reference

    let collector = Collector::with_config(
        platform,
        CollectorConfig::default()
            .with_buffer_capacity(2)
            .with_match_mode(MatchMode::Exact),
    );
    let handle = collector.register();
    unsafe { handle.retire_raw(odd_addr, 64, counting_drop) };
    unsafe { handle.retire_raw(0x7000_2000, 64, counting_drop) }; // filler
    handle.flush(); // frees what the phases found unreferenced
    assert_eq!(
        FREED.load(Ordering::SeqCst),
        1,
        "only the unreferenced filler may be freed; the odd-address node is held"
    );
    assert_eq!(collector.pending_estimate(), 1, "held node survives");

    collector.platform().words.lock().clear();
    collector.collect_now();
    assert_eq!(
        FREED.load(Ordering::SeqCst),
        2,
        "released once unreferenced"
    );
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
