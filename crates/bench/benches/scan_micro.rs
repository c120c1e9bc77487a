//! Micro: conservative-matching kernel cost.
//!
//! The inner loop of `TS-Scan` is "binary-search(delete buffer, chunk)"
//! per stack word (Algorithm 1 line 20). This bench measures the marking
//! kernel at paper-relevant buffer sizes (1024 pointers/thread × thread
//! count ⇒ master buffers of 1k–80k entries).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use threadscan::master::MasterBuffer;
use threadscan::scan::find_range;
use threadscan::{CollectorConfig, Retired};

fn synthetic_buffer(n: usize) -> (Vec<usize>, Vec<usize>) {
    // Disjoint 176-byte "nodes" (the paper's padded list node size).
    let addrs: Vec<usize> = (0..n).map(|i| 0x10_0000 + i * 256).collect();
    let ends: Vec<usize> = addrs.iter().map(|a| a + 176).collect();
    (addrs, ends)
}

fn synthetic_stack(words: usize, addrs: &[usize]) -> Vec<usize> {
    // A fake stack: mostly noise, ~3% node references (hit rate measured
    // in our integration runs is of this order).
    (0..words)
        .map(|i| {
            if i % 32 == 0 && !addrs.is_empty() {
                addrs[i % addrs.len()] + (i % 176)
            } else {
                0xdead_0000_0000 + i * 31
            }
        })
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("match_kernel");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &n in &[1024usize, 8192, 81920] {
        let (addrs, ends) = synthetic_buffer(n);
        let stack = synthetic_stack(4096, &addrs);
        group.bench_with_input(BenchmarkId::new("range", n), &n, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for &w in &stack {
                    if find_range(black_box(&addrs), black_box(&ends), w).is_some() {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
    }
    group.finish();
}

fn bench_session_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_scan_words");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &n in &[1024usize, 8192] {
        let entries: Vec<Retired> = (0..n)
            .map(|i| unsafe {
                Retired::from_raw_parts(0x10_0000 + i * 256, 176, threadscan::retired::noop_drop)
            })
            .collect();
        let master = MasterBuffer::new(entries, &CollectorConfig::default());
        let stack = synthetic_stack(16384, &[0x10_0000]);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let session = master.session();
                session.scan_words(black_box(&stack));
                black_box(session.hits())
            })
        });
    }
    group.finish();
}

fn bench_sort_cost(c: &mut Criterion) {
    // TS-Collect line 2: sort(delete buffer). Master-buffer construction
    // is the reclaimer's fixed cost per phase.
    let mut group = c.benchmark_group("master_buffer_build");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &n in &[1024usize, 16384, 81920] {
        let entries: Vec<Retired> = (0..n)
            .rev() // worst-case-ish input order
            .map(|i| unsafe {
                Retired::from_raw_parts(0x10_0000 + i * 64, 64, threadscan::retired::noop_drop)
            })
            .collect();
        let config = CollectorConfig::default();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mb = MasterBuffer::new(black_box(entries.clone()), &config);
                black_box(mb.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_session_scan, bench_sort_cost);
criterion_main!(benches);
