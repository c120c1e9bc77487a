//! Integration tests under real signals for the paper's §4.3 heap-block
//! extension and for sharing the frees among the retiring threads (the
//! problem §7 leaves to future work).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use threadscan::{Collector, CollectorConfig, ThreadHandle};
use ts_sigscan::SignalPlatform;

struct Probe {
    drops: Arc<AtomicUsize>,
    _pad: [u64; 8],
}
impl Drop for Probe {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

#[inline(never)]
fn churn(depth: usize) -> usize {
    let noise = std::hint::black_box([depth; 64]);
    if depth == 0 {
        noise[0]
    } else {
        churn(depth - 1) + noise[63]
    }
}

#[inline(never)]
fn plant(
    handle: &ThreadHandle<SignalPlatform>,
    scratch: &mut [usize],
    slot: usize,
    drops: &Arc<AtomicUsize>,
) {
    let node = Box::into_raw(Box::new(Probe {
        drops: Arc::clone(drops),
        _pad: [0; 8],
    }));
    scratch[slot] = node as usize;
    unsafe { handle.retire(node) };
}

#[test]
fn heap_block_reference_pins_until_removed() {
    let collector = Collector::with_config(
        SignalPlatform::new().unwrap(),
        CollectorConfig::default().with_buffer_capacity(4),
    );
    let handle = collector.register();
    let drops = Arc::new(AtomicUsize::new(0));

    let mut scratch: Box<[usize; 64]> = Box::new([0; 64]);
    handle
        .add_heap_block(scratch.as_ptr().cast(), 64 * 8)
        .unwrap();

    plant(&handle, &mut scratch[..], 33, &drops);
    std::hint::black_box(churn(64));
    handle.flush();
    handle.flush();
    assert_eq!(drops.load(Ordering::SeqCst), 0, "heap-block root must pin");

    // Release direction: clearing the root must let heap-block-pinned
    // nodes be reclaimed. One *fixed* address can stay pinned forever by a
    // coincidental stale word elsewhere in the scanned region (a dead
    // stack slot or reused allocator address is indistinguishable from a
    // live reference — see the liveness note on
    // `unreferenced_node_is_eventually_reclaimed` in ts-sigscan), so the
    // assertable property is over a stream of fresh nodes: keep planting
    // and clearing until one demonstrably frees.
    scratch[33] = 0;
    let mut freed = false;
    for _ in 0..64 {
        std::hint::black_box(churn(64));
        handle.flush();
        if drops.load(Ordering::SeqCst) > 0 {
            freed = true;
            break;
        }
        plant(&handle, &mut scratch[..], 33, &drops);
        scratch[33] = 0;
    }
    assert!(freed, "clearing the heap-block root must release nodes");
    handle.remove_heap_block(scratch.as_ptr().cast()).unwrap();
    drop(handle);
}

#[test]
fn interior_heap_block_reference_pins_in_range_mode() {
    let collector = Collector::with_config(
        SignalPlatform::new().unwrap(),
        CollectorConfig::default().with_buffer_capacity(4),
    );
    let handle = collector.register();
    let drops = Arc::new(AtomicUsize::new(0));

    let mut scratch: Box<[usize; 8]> = Box::new([0; 8]);
    handle
        .add_heap_block(scratch.as_ptr().cast(), 8 * 8)
        .unwrap();

    // Plant an *interior* pointer (offset 16 into the allocation).
    #[inline(never)]
    fn plant_interior(
        handle: &ThreadHandle<SignalPlatform>,
        scratch: &mut [usize],
        drops: &Arc<AtomicUsize>,
    ) {
        let node = Box::into_raw(Box::new(Probe {
            drops: Arc::clone(drops),
            _pad: [0; 8],
        }));
        scratch[2] = node as usize + 16;
        unsafe { handle.retire(node) };
    }
    plant_interior(&handle, &mut scratch[..], &drops);
    std::hint::black_box(churn(64));
    handle.flush();
    assert_eq!(
        drops.load(Ordering::SeqCst),
        0,
        "interior pointer must pin under range matching"
    );
    // Fresh-node stream for the release direction; see the comment in
    // `heap_block_reference_pins_until_removed`.
    scratch[2] = 0;
    let mut freed = false;
    for _ in 0..64 {
        std::hint::black_box(churn(64));
        handle.flush();
        if drops.load(Ordering::SeqCst) > 0 {
            freed = true;
            break;
        }
        plant_interior(&handle, &mut scratch[..], &drops);
        scratch[2] = 0;
    }
    assert!(freed, "clearing the interior root must release nodes");
    drop(handle);
}

#[test]
fn mailbox_frees_share_reclamation_work_across_threads() {
    let collector = Collector::with_config(
        SignalPlatform::new().unwrap(),
        CollectorConfig::default().with_buffer_capacity(64),
    );
    let drops = Arc::new(AtomicUsize::new(0));
    const PER_THREAD: usize = 1000;

    std::thread::scope(|s| {
        for _ in 0..4 {
            let collector = Arc::clone(&collector);
            let drops = Arc::clone(&drops);
            s.spawn(move || {
                let handle = collector.register();
                for _ in 0..PER_THREAD {
                    let node = Box::into_raw(Box::new(Probe {
                        drops: Arc::clone(&drops),
                        _pad: [0; 8],
                    }));
                    // Never held: retire immediately.
                    unsafe { handle.retire(node) };
                }
            });
        }
    });
    collector.collect_now();
    collector.collect_now();
    let st = collector.stats();
    assert_eq!(st.retired, 4 * PER_THREAD);
    assert_eq!(
        drops.load(Ordering::SeqCst),
        st.freed,
        "drop count and freed counter must agree"
    );
    assert!(
        st.mailbox_frees > 4 * PER_THREAD / 2,
        "most frees must have been performed by the retiring threads out of \
         their mailboxes, not by a reclaimer (got {} of {})",
        st.mailbox_frees,
        st.freed
    );
    // Everything must be reclaimed by now (workers' stacks are gone).
    assert_eq!(st.freed, 4 * PER_THREAD, "no node may be stranded");
}
