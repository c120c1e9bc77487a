//! Property tests over the collector core's data-plane pieces.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use threadscan::buffer::LocalBuffer;
use threadscan::master::MasterBuffer;
use threadscan::retired::{noop_drop, Retired};
use threadscan::scan::find_range_linear;
use threadscan::CollectorConfig;
use ts_choose::{check_inputs, Rng};

/// The SPSC ring behaves exactly like a bounded FIFO queue.
#[test]
fn local_buffer_is_a_bounded_fifo() {
    check_inputs("local_buffer_is_a_bounded_fifo", 4096, 48, |ch| {
        let buf = LocalBuffer::new(2 + ch.choose("cap", 30));
        // The ring rounds the requested capacity up to a power of two
        // (wrap-safe `i % capacity` mapping); the model is a queue
        // bounded by the *effective* capacity.
        let cap = buf.capacity();
        assert!(cap.is_power_of_two());
        let mut model: VecDeque<usize> = VecDeque::new();
        let mut out = Vec::new();
        for _ in 0..ch.choose("ops", 200) {
            match ch.choose("op", 2) {
                0 => {
                    let addr = 1 + ch.choose("addr", 999_999);
                    // SAFETY: single-threaded test — sole producer.
                    let pushed = unsafe {
                        buf.push(Retired::from_raw_parts(addr, 8, noop_drop))
                            .is_ok()
                    };
                    let model_ok = model.len() < cap;
                    assert_eq!(pushed, model_ok, "fullness must match model");
                    if model_ok {
                        model.push_back(addr);
                    }
                }
                _ => {
                    out.clear();
                    // SAFETY: sole consumer.
                    unsafe { buf.drain_into(&mut out) };
                    let got: Vec<usize> = out.iter().map(Retired::addr).collect();
                    let want: Vec<usize> = model.drain(..).collect();
                    assert_eq!(got, want, "drain must be FIFO-complete");
                }
            }
            assert_eq!(buf.len(), model.len());
            assert_eq!(buf.is_empty(), model.is_empty());
            assert_eq!(buf.is_full(), model.len() == cap);
        }
    });
}

/// End-to-end marking: for arbitrary node sets and scanned words, a
/// session + master buffer must free exactly the nodes no word hits —
/// checked against the linear-scan oracle.
#[test]
fn session_marks_agree_with_linear_oracle() {
    check_inputs("session_marks_agree_with_linear_oracle", 4096, 48, |ch| {
        // Build disjoint nodes.
        let mut cursor = 0x1000usize;
        let mut nodes = Vec::new();
        for _ in 0..1 + ch.choose("nodes", 47) {
            cursor += 1 + ch.choose("gap", 511);
            let size = 8 + ch.choose("size", 248);
            nodes.push((cursor, size));
            cursor += size;
        }
        let mut all_words: Vec<usize> = (0..ch.choose("words", 64))
            .map(|_| ch.choose("word", usize::MAX))
            .collect();
        // Mix in words guaranteed to hit.
        for (i, &(a, s)) in nodes.iter().enumerate() {
            match i % 3 {
                0 => all_words.push(a),         // base
                1 => all_words.push(a + s / 2), // interior
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
        assert_eq!(kept_addrs, expect_kept);
        assert_eq!(freed_addrs, expect_freed);
    });
}

/// Concurrent SPSC torture with randomized production bursts: nothing is
/// lost, duplicated, or reordered.
#[test]
fn concurrent_spsc_random_bursts() {
    const TOTAL: usize = 50_000;
    let buf = Arc::new(LocalBuffer::new(32));
    let produced = Arc::new(AtomicUsize::new(0));

    let producer = {
        let buf = Arc::clone(&buf);
        let produced = Arc::clone(&produced);
        std::thread::spawn(move || {
            let mut rng = Rng::seeded(99);
            let mut next = 1usize;
            while next <= TOTAL {
                let burst = 1 + rng.below(15);
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
