//! Micro: end-to-end reclamation-phase cost vs batch size.
//!
//! §6 tunes the delete-buffer size against exactly this: a larger batch
//! amortizes the signal round over more frees but sorts and scans a longer
//! master buffer. Measures `retire × B` + one forced collect.

// `free_phase` times the frees of separately allocated nodes: the boxes
// are the workload.
#![allow(clippy::vec_box)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use threadscan::{Collector, CollectorConfig};
use ts_sigscan::SignalPlatform;

fn bench_collect_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("collect_phase");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &batch in &[256usize, 1024, 4096] {
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            let collector = Collector::with_config(
                SignalPlatform::new().expect("signals"),
                // Fresh half of the buffer bigger than the batch, so WE
                // trigger the collect.
                CollectorConfig::default().with_buffer_capacity(batch * 4),
            );
            let handle = collector.register();
            b.iter(|| {
                for _ in 0..batch {
                    let node = Box::into_raw(Box::new([0u8; 64]));
                    // SAFETY: fresh node, never shared.
                    unsafe { handle.retire(node) };
                }
                handle.flush();
                black_box(collector.stats().freed)
            });
            drop(handle);
        });
    }
    group.finish();
}

fn bench_retire_fast_path(c: &mut Criterion) {
    // The non-triggering retire: one SPSC push + boundary bookkeeping.
    c.bench_function("retire_fast_path", |b| {
        let collector = Collector::with_config(
            SignalPlatform::new().expect("signals"),
            CollectorConfig::default().with_buffer_capacity(1 << 22),
        );
        let handle = collector.register();
        b.iter(|| {
            let node = Box::into_raw(Box::new(0u64));
            // SAFETY: fresh node, never shared.
            unsafe { handle.retire(node) };
        });
        handle.flush();
        drop(handle);
    });
}

/// The hash table's node size: above glibc's 128-byte fastbin limit, so a
/// `free` that misses the 7-entry thread cache takes an arena lock.
type Node176 = [u8; 176];

fn free_all(nodes: &mut Vec<Box<Node176>>) -> Duration {
    let start = Instant::now();
    nodes.drain(..).for_each(drop);
    start.elapsed()
}

/// What one `free()` costs the thread that runs a phase's sweep, by where
/// the node came from. `own_176B` frees nodes the measuring thread just
/// allocated (hot, its own arena) — all the other probes in this suite
/// ever saw. `foreign_176B` frees nodes a peer allocated, while the peer
/// keeps allocating out of the same arena: what a reclaimer sweeping a
/// shared structure's nodes pays, and what freeing one node per retire on
/// the retiring thread avoids.
fn bench_free_phase(c: &mut Criterion) {
    const BATCH: usize = 512;
    let mut group = c.benchmark_group("free_phase");
    group.throughput(Throughput::Elements(1));
    group.bench_function("own_176B", |b| {
        b.iter_custom(|iters| {
            let mut nodes = (0..iters).map(|_| Box::new([0u8; 176])).collect();
            free_all(&mut nodes)
        });
    });
    group.bench_function("foreign_176B", |b| {
        let (tx, rx) = sync_channel::<Vec<Box<Node176>>>(2);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // The peer never waits: a batch nobody has room for is
                // freed again, so its arena stays busy either way.
                while !stop.load(Ordering::Relaxed) {
                    let batch = (0..BATCH).map(|_| Box::new([0u8; 176])).collect();
                    match tx.try_send(batch) {
                        Ok(()) => {}
                        Err(TrySendError::Full(batch)) => drop(batch),
                        Err(TrySendError::Disconnected(_)) => return,
                    }
                }
            });
            b.iter_custom(|iters| {
                let mut left = iters as usize;
                let mut timed = Duration::ZERO;
                while left > 0 {
                    let mut batch = rx.recv().expect("the peer outlives the measurement");
                    let untimed = batch.split_off(left.min(batch.len()));
                    left -= batch.len();
                    timed += free_all(&mut batch);
                    drop(untimed);
                }
                timed
            });
            stop.store(true, Ordering::Relaxed);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_collect_phase,
    bench_retire_fast_path,
    bench_free_phase
);
criterion_main!(benches);
