//! Layer probes: each rung an operation touches, timed alone from outside
//! through the crate's public calls. Every value is the median of
//! `BATCHES` batches, in ns per item (µs per collect for the collect
//! probes). They run in their own child process.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use threadscan::buffer::LocalBuffer;
use threadscan::master::MasterBuffer;
use threadscan::{CollectorConfig, Retired};
use ts_alloc::pool::{dealloc_node, PoolHandle};
use ts_sigscan::SignalPlatform;
use ts_smr::{retire_box, Smr, SmrHandle, ThreadScanSmr};
use ts_structures::{ConcurrentSet, HarrisList, LockFreeHashTable, SkipList};

use crate::gen::Rng;
use crate::report::{median, Measured};
use crate::run::{threadscan, workers, ThreadScan};

const BATCHES: usize = 11;

type Node = [u8; 64];

/// Median over batches of `elapsed / items`, in ns.
fn per_item_ns(mut batch: impl FnMut() -> (Duration, usize)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (elapsed, items) = batch();
            elapsed.as_nanos() as f64 / items as f64
        })
        .collect();
    median(&samples)
}

/// Threads spawned a moment ago may still share a core; a signal to a busy
/// thread on the sender's own core waits a whole scheduler tick (measured:
/// 4 ms instead of 20 µs). Keep every thread busy until the kernel has
/// spread them out.
fn settle() {
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(150) {
        std::hint::spin_loop();
    }
}

fn boxed_nodes(n: usize) -> Vec<*mut Node> {
    (0..n).map(|_| Box::into_raw(Box::new([0u8; 64]))).collect()
}

/// A collector whose buffers never fill during a probe, so `retire` never
/// turns into a collect until the probe calls `flush()`.
fn roomy_threadscan() -> ThreadScan {
    let platform = SignalPlatform::new().expect("install the ThreadScan signal handler");
    ThreadScanSmr::with_config(
        platform,
        CollectorConfig::default().with_buffer_capacity(1 << 16),
    )
}

fn contains_ns<T: ConcurrentSet<ThreadScan>>(
    set: &T,
    scheme: &ThreadScan,
    resident: usize,
    lookups: usize,
    rng: &mut Rng,
) -> f64 {
    let handle = scheme.register();
    let range = 2 * resident as u64;
    let mut filled = 0;
    while filled < resident {
        filled += set.insert(&handle, rng.below(range)) as usize;
    }
    per_item_ns(|| {
        let started = Instant::now();
        for _ in 0..lookups {
            black_box(set.contains(&handle, rng.below(range)));
        }
        (started.elapsed(), lookups)
    })
}

fn alloc_ns(mut alloc: impl FnMut() -> *mut Node, mut free: impl FnMut(*mut Node)) -> f64 {
    const LIVE: usize = 4096;
    const ROUNDS: usize = 8;
    let mut live = Vec::with_capacity(LIVE);
    per_item_ns(|| {
        let started = Instant::now();
        for _ in 0..ROUNDS {
            live.extend((0..LIVE).map(|_| black_box(alloc())));
            live.drain(..).for_each(&mut free);
        }
        (started.elapsed(), LIVE * ROUNDS)
    })
}

/// `n` retire records at distinct fake addresses in shuffled order, as a
/// reclaimer aggregates them; `noop_drop`, so nothing is ever dereferenced.
fn fake_entries(n: usize, rng: &mut Rng) -> Vec<Retired> {
    const BASE: usize = 0x5000_0000_0000;
    let mut entries: Vec<Retired> = (0..n)
        // SAFETY: `noop_drop` is sound to call on any address.
        .map(|i| unsafe {
            Retired::from_raw_parts(BASE + i * 192, 176, threadscan::retired::noop_drop)
        })
        .collect();
    for i in (1..n).rev() {
        entries.swap(i, rng.below(i as u64 + 1) as usize);
    }
    entries
}

fn master_build_ns(n: usize, builds: usize, rng: &mut Rng) -> f64 {
    let config = CollectorConfig::default();
    let entries = fake_entries(n, rng);
    per_item_ns(|| {
        let inputs: Vec<Vec<Retired>> = (0..builds).map(|_| entries.clone()).collect();
        let started = Instant::now();
        for input in inputs {
            black_box(MasterBuffer::new(input, &config));
        }
        (started.elapsed(), n * builds)
    })
}

/// A 16 384-word stack image scanned against 2 048 retired nodes.
/// `hit_share` of the words point into a node; the rest are small integers
/// and addresses outside `[min, max)`, like most of a real stack.
fn scan_ns(hit_share: f64, rng: &mut Rng) -> f64 {
    const WORDS: usize = 16_384;
    const PASSES: usize = 8;
    let entries = fake_entries(2048, rng);
    let words: Vec<usize> = (0..WORDS)
        .map(|_| {
            if rng.unit() < hit_share {
                entries[rng.below(2048) as usize].addr() + rng.below(176) as usize
            } else if rng.unit() < 0.5 {
                rng.below(4096) as usize
            } else {
                0x7ffc_0000_0000 + rng.below(1 << 20) as usize * 8
            }
        })
        .collect();
    let master = MasterBuffer::new(entries, &CollectorConfig::default());
    let session = master.session();
    per_item_ns(|| {
        let started = Instant::now();
        for _ in 0..PASSES {
            session.scan_words(black_box(&words));
        }
        (started.elapsed(), WORDS * PASSES)
    })
}

fn free_ns() -> f64 {
    const NODES: usize = 2048;
    let config = CollectorConfig::default();
    per_item_ns(|| {
        let entries: Vec<Retired> = boxed_nodes(NODES)
            .into_iter()
            // SAFETY: each pointer is a fresh `Box::into_raw` that only this record owns.
            .map(|p| unsafe { Retired::of_box(p) })
            .collect();
        let master = MasterBuffer::new(entries, &config);
        let started = Instant::now();
        let (reclaimable, survivors) = master.partition();
        assert!(survivors.is_empty(), "nothing marked these nodes");
        for record in reclaimable {
            // SAFETY: the record owns its box, nothing else points at it, and this is its only reclaim.
            unsafe { record.reclaim() };
        }
        (started.elapsed(), NODES)
    })
}

/// `retire` on `threads` threads at once, each on its own handle and below
/// its buffer's capacity: what is left is the shared accounting.
fn retire_ns(threads: usize) -> f64 {
    const RETIRES: usize = 32_768;
    let scheme = roomy_threadscan();
    let gate = Barrier::new(threads);
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|s| {
        let spawned: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let handle = scheme.register();
                    settle();
                    (0..BATCHES)
                        .map(|_| {
                            let nodes = boxed_nodes(RETIRES);
                            gate.wait();
                            let started = Instant::now();
                            for &node in &nodes {
                                // SAFETY: `node` is a fresh box no structure ever saw, retired once.
                                unsafe { retire_box(&handle, node) };
                            }
                            let elapsed = started.elapsed();
                            gate.wait();
                            handle.inner().flush();
                            elapsed.as_nanos() as f64 / RETIRES as f64
                        })
                        .collect()
                })
            })
            .collect();
        spawned
            .into_iter()
            .map(|t| t.join().expect("retire probe panicked"))
            .collect()
    });
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|b| per_thread.iter().map(|t| t[b]).sum::<f64>() / threads as f64)
        .collect();
    median(&per_batch)
}

#[derive(Clone, Copy)]
enum Peers {
    Busy,
    Sleeping,
}

/// µs for one `flush()` with `nodes` pending, against `peers` registered
/// threads that compute or sleep while the signal reaches them.
fn collect_us(nodes: usize, peers: usize, kind: Peers) -> f64 {
    let scheme = roomy_threadscan();
    let done = AtomicBool::new(false);
    let ready = Barrier::new(peers + 1);
    std::thread::scope(|s| {
        let spawned: Vec<_> = (0..peers)
            .map(|_| {
                s.spawn(|| {
                    let _handle = scheme.register();
                    ready.wait();
                    let mut spins = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        match kind {
                            Peers::Busy => spins = black_box(spins.wrapping_add(1)),
                            Peers::Sleeping => std::thread::sleep(Duration::from_millis(20)),
                        }
                    }
                })
            })
            .collect();
        let handle = scheme.register();
        ready.wait();
        settle();
        let ns = per_item_ns(|| {
            for node in boxed_nodes(nodes) {
                // SAFETY: `node` is a fresh box no structure ever saw, retired once.
                unsafe { retire_box(&handle, node) };
            }
            let started = Instant::now();
            handle.inner().flush();
            (started.elapsed(), 1)
        });
        done.store(true, Ordering::Relaxed);
        for t in spawned {
            t.join().expect("peer panicked");
        }
        ns / 1e3
    })
}

pub fn run(seed: u64) -> Measured {
    let mut rng = Rng::new(seed);
    let mut m = Measured::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    let peers = workers() - 1;

    {
        let scheme = threadscan();
        let handle = scheme.register();
        put(
            "smr.pin_unpin_ns",
            per_item_ns(|| {
                const PINS: usize = 1_000_000;
                let started = Instant::now();
                for _ in 0..PINS {
                    black_box(&handle.pin());
                }
                (started.elapsed(), PINS)
            }),
        );
        drop(handle);
        let hash = LockFreeHashTable::for_expected_nodes(131_072);
        put(
            "structures.hash_contains_ns",
            contains_ns(&hash, &scheme, 131_072, 200_000, &mut rng),
        );
        let list = HarrisList::new();
        put(
            "structures.list_contains_ns",
            contains_ns(&list, &scheme, 1_024, 20_000, &mut rng),
        );
        let skip = SkipList::new();
        put(
            "structures.skip_contains_ns",
            contains_ns(&skip, &scheme, 128_000, 100_000, &mut rng),
        );
    }

    put(
        "alloc.box_node_ns",
        alloc_ns(
            || Box::into_raw(Box::new([0u8; 64])),
            // SAFETY: `p` came from `Box::into_raw` just above and is freed once.
            |p| drop(unsafe { Box::from_raw(p) }),
        ),
    );
    let pool = PoolHandle::new("benchmark-probe");
    put(
        "alloc.pool_node_ns",
        alloc_ns(
            || pool.alloc_node([0u8; 64]),
            // SAFETY: `p` came from `alloc_node` just above and is freed once.
            |p| unsafe { dealloc_node(p) },
        ),
    );

    put("core.buffer_push_ns", {
        const ROUNDS: usize = 64;
        let buffer = LocalBuffer::new(1024);
        let records = fake_entries(1024, &mut rng);
        let mut drained = Vec::with_capacity(1024);
        per_item_ns(|| {
            let started = Instant::now();
            for _ in 0..ROUNDS {
                for &record in &records {
                    // SAFETY: this thread is the buffer's only producer.
                    let pushed = unsafe { buffer.push(record) };
                    assert!(pushed.is_ok(), "buffer drained every round");
                }
                // SAFETY: and its only reader.
                unsafe { buffer.drain_into(&mut drained) };
                drained.clear();
            }
            (started.elapsed(), 1024 * ROUNDS)
        })
    });

    put("core.retire_ns", retire_ns(1));
    put("core.retire_contended_ns", retire_ns(workers()));
    put(
        "core.master_build_ns_per_entry.2k",
        master_build_ns(2 << 10, 16, &mut rng),
    );
    put(
        "core.master_build_ns_per_entry.32k",
        master_build_ns(32 << 10, 1, &mut rng),
    );
    put("core.scan_ns_per_word", scan_ns(0.03, &mut rng));
    put("core.scan_miss_ns_per_word", scan_ns(0.0, &mut rng));
    put("core.free_ns_per_node", free_ns());
    put("core.collect_self_us", collect_us(2048, 0, Peers::Busy));
    put(
        "core.collect_peers_us",
        collect_us(2048, peers, Peers::Busy),
    );
    put("sigscan.roundtrip_us", collect_us(1, peers, Peers::Busy));
    put(
        "sigscan.roundtrip_idle_us",
        collect_us(1, peers, Peers::Sleeping),
    );
    m
}
