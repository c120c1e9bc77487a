//! Property tests over the collector core's data-plane pieces.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use threadscan::buffer::LocalBuffer;
use threadscan::master::MasterBuffer;
use threadscan::retired::{noop_drop, Retired};
use threadscan::scan::find_range_linear;
use threadscan::CollectorConfig;

#[derive(Debug, Clone)]
enum BufOp {
    Push(usize),
    Drain,
}

proptest! {
    // Cap the case count so `cargo test -q` stays fast; PROPTEST_CASES
    // can raise it for soak runs.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The SPSC ring behaves exactly like a bounded FIFO queue.
    #[test]
    fn local_buffer_is_a_bounded_fifo(
        cap in 2usize..32,
        ops in proptest::collection::vec(
            prop_oneof![
                (1usize..1_000_000).prop_map(BufOp::Push),
                Just(BufOp::Drain),
            ],
            0..200,
        ),
    ) {
        let buf = LocalBuffer::new(cap);
        // The ring rounds the requested capacity up to a power of two
        // (wrap-safe `i % capacity` mapping); the model is a queue
        // bounded by the *effective* capacity.
        let cap = buf.capacity();
        prop_assert!(cap.is_power_of_two());
        let mut model: VecDeque<usize> = VecDeque::new();
        let mut out = Vec::new();
        for op in ops {
            match op {
                BufOp::Push(addr) => {
                    // SAFETY: single-threaded test — sole producer.
                    let pushed = unsafe {
                        buf.push(Retired::from_raw_parts(addr, 8, noop_drop)).is_ok()
                    };
                    let model_ok = model.len() < cap;
                    prop_assert_eq!(pushed, model_ok, "fullness must match model");
                    if model_ok {
                        model.push_back(addr);
                    }
                }
                BufOp::Drain => {
                    out.clear();
                    // SAFETY: sole consumer.
                    unsafe { buf.drain_into(&mut out) };
                    let got: Vec<usize> = out.iter().map(Retired::addr).collect();
                    let want: Vec<usize> = model.drain(..).collect();
                    prop_assert_eq!(got, want, "drain must be FIFO-complete");
                }
            }
            prop_assert_eq!(buf.len(), model.len());
            prop_assert_eq!(buf.is_empty(), model.is_empty());
            prop_assert_eq!(buf.is_full(), model.len() == cap);
        }
    }

    /// End-to-end marking: for arbitrary node sets and scanned words, a
    /// session + master buffer must free exactly the nodes no word hits —
    /// checked against the linear-scan oracle.
    #[test]
    fn session_marks_agree_with_linear_oracle(
        gaps in proptest::collection::vec((1usize..512, 8usize..256), 1..48),
        words in proptest::collection::vec(any::<usize>(), 0..64),
    ) {
        // Build disjoint nodes.
        let mut cursor = 0x1000usize;
        let mut nodes = Vec::new();
        for (gap, size) in gaps {
            cursor += gap;
            nodes.push((cursor, size));
            cursor += size;
        }
        // Mix in words guaranteed to hit.
        let mut all_words = words;
        for (i, &(a, s)) in nodes.iter().enumerate() {
            match i % 3 {
                0 => all_words.push(a),          // base
                1 => all_words.push(a + s / 2),  // interior
                _ => {}
            }
        }

        let entries: Vec<Retired> = nodes
            .iter()
            .map(|&(a, s)| unsafe { Retired::from_raw_parts(a, s, noop_drop) })
            .collect();
        let master = MasterBuffer::new(entries, &CollectorConfig::default());
        let session = master.session();
        session.scan_words(&all_words);

        // Oracle: sorted node arrays.
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        let addrs: Vec<usize> = sorted.iter().map(|&(a, _)| a).collect();
        let ends: Vec<usize> = sorted.iter().map(|&(a, s)| a + s).collect();
        let mut expect_marked = vec![false; sorted.len()];
        for &w in &all_words {
            if let Some(i) = find_range_linear(&addrs, &ends, w) {
                expect_marked[i] = true;
            }
        }

        let (freed, survivors) = master.partition();
        let freed_addrs: Vec<usize> = freed.iter().map(Retired::addr).collect();
        let kept_addrs: Vec<usize> = survivors.iter().map(Retired::addr).collect();
        let expect_kept: Vec<usize> = sorted
            .iter()
            .zip(&expect_marked)
            .filter(|(_, &m)| m)
            .map(|(&(a, _), _)| a)
            .collect();
        let expect_freed: Vec<usize> = sorted
            .iter()
            .zip(&expect_marked)
            .filter(|(_, &m)| !m)
            .map(|(&(a, _), _)| a)
            .collect();
        prop_assert_eq!(kept_addrs, expect_kept);
        prop_assert_eq!(freed_addrs, expect_freed);
    }
}

/// Concurrent SPSC torture with randomized production bursts: nothing is
/// lost, duplicated, or reordered.
#[test]
fn concurrent_spsc_random_bursts() {
    use rand::{Rng, SeedableRng};
    const TOTAL: usize = 50_000;
    let buf = Arc::new(LocalBuffer::new(32));
    let produced = Arc::new(AtomicUsize::new(0));

    let producer = {
        let buf = Arc::clone(&buf);
        let produced = Arc::clone(&produced);
        std::thread::spawn(move || {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
            let mut next = 1usize;
            while next <= TOTAL {
                let burst = rng.gen_range(1..16);
                for _ in 0..burst {
                    if next > TOTAL {
                        break;
                    }
                    // SAFETY: sole producer.
                    if unsafe { buf.push(Retired::from_raw_parts(next, 8, noop_drop)) }.is_ok() {
                        produced.fetch_add(1, Ordering::Relaxed);
                        next += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        })
    };

    let mut seen = Vec::with_capacity(TOTAL);
    while seen.len() < TOTAL {
        // SAFETY: sole consumer.
        unsafe { buf.drain_into(&mut seen) };
        std::hint::spin_loop();
    }
    producer.join().unwrap();
    for (i, r) in seen.iter().enumerate() {
        assert_eq!(r.addr(), i + 1);
    }
}
