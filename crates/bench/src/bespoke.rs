//! The three experiments that are not (structure × scheme × threads)
//! sweeps, each with its own loop: directory growth watched at every
//! doubling, outstanding garbage sampled over time, and the
//! single-threaded probes.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use threadscan::buffer::LocalBuffer;
use threadscan::retired::{noop_drop, Retired};
use ts_sigscan::SignalPlatform;
use ts_smr::{retire_box, EpochScheme, HazardPointers, Smr, SmrHandle, ThreadScanSmr};
use ts_structures::{ConcurrentSet, HarrisList, SplitOrderedSet};
use ts_workload::json::ObjectBuilder;

use crate::cli::{machine_info, usage_error, CliArgs};

const START_BUCKETS: usize = 256; // 2^8
const OLD_CAP: usize = 1 << 20;

/// Raises its flag when dropped, so a scope's workers stop however the
/// thread holding it leaves the scope — a panic included — and no join hangs.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Directory-growth ablation: drive the split-ordered table from 2^8
/// buckets to past the old 2^20 directory cap, and show that growth is
/// incremental — no stop-the-world resize.
///
/// Worker threads insert distinct keys (with a slice of remove+reinsert
/// traffic so the collector actually has retirements to process) while
/// the main thread watches the bucket count. At every doubling it emits
/// a checkpoint: buckets, resident keys, elapsed time, the collector's
/// collect-latency percentiles so far, and the worst *single-op* latency
/// any worker has seen — the number a stop-the-world resize would blow
/// up and an incremental segment-tree grow keeps flat.
///
/// Flags: `--threads 4`, `--target-buckets 2097152`, `--load-factor 1`,
/// `--timeout 120` (seconds), `--json out.jsonl`; `--quick` shrinks the
/// target to 2^12 buckets. A directory that has not reached the target
/// by the timeout ends the run with one `ts-bench: growth stalled …`
/// line and status 1.
pub fn growth(args: &CliArgs) {
    let quick = args.get_flag("quick");
    let threads = args.get_positive("threads", 4);
    let target_buckets = args.get_usize("target-buckets", if quick { 1 << 12 } else { 1 << 21 });
    let load_factor = args.get_usize("load-factor", 1);
    let timeout_s = args.get_positive("timeout", 120) as u64;
    args.reject_unread(&["json"]);

    println!(
        "# Directory growth: 2^8 -> {target_buckets} buckets ({})",
        machine_info()
    );
    println!("# threads={threads} load_factor={load_factor} old_cap=2^20={OLD_CAP}");

    let platform = SignalPlatform::new().expect("signal platform unavailable");
    // Small delete buffers force collect phases during the sweep, so the
    // latency histogram has data at every checkpoint.
    let config = threadscan::CollectorConfig::default().with_buffer_capacity(256);
    let scheme = Arc::new(ThreadScanSmr::with_config(platform, config));
    let set: SplitOrderedSet<ThreadScanSmr<SignalPlatform>> =
        SplitOrderedSet::with_buckets(START_BUCKETS).with_load_factor(load_factor);
    let set = Arc::new(set);

    let stop = Arc::new(AtomicBool::new(false));
    let inserted = Arc::new(AtomicUsize::new(0));
    // Worst single-op wall time (ns) any worker observed, sampled on
    // every op: a stop-the-world resize would spike this by orders of
    // magnitude at each doubling.
    let max_op_ns = Arc::new(AtomicU64::new(0));

    let t0 = Instant::now();
    let mut checkpoints: Vec<String> = Vec::new();
    let reached = std::thread::scope(|s| {
        let _stop = StopOnDrop(&stop);
        for t in 0..threads {
            let scheme = Arc::clone(&scheme);
            let set = Arc::clone(&set);
            let stop = Arc::clone(&stop);
            let inserted = Arc::clone(&inserted);
            let max_op_ns = Arc::clone(&max_op_ns);
            s.spawn(move || {
                let handle = scheme.register();
                let mut local_max = 0u64;
                // Distinct keys per thread: k = i * threads + t.
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = i * threads as u64 + t as u64;
                    let op_start = Instant::now();
                    if set.insert(&handle, key) {
                        inserted.fetch_add(1, Ordering::Relaxed);
                    }
                    // Every 8th key: churn an older key so nodes retire
                    // and the collector has real work during growth.
                    if i % 8 == 7 && i >= 8 {
                        let victim = (i - 8) * threads as u64 + t as u64;
                        if set.remove(&handle, victim) {
                            set.insert(&handle, victim);
                        }
                    }
                    let ns = op_start.elapsed().as_nanos() as u64;
                    if ns > local_max {
                        local_max = ns;
                        max_op_ns.fetch_max(ns, Ordering::Relaxed);
                    }
                    i += 1;
                }
            });
        }

        // Watcher: checkpoint at every doubling until the target.
        let mut next_mark = START_BUCKETS * 2;
        loop {
            std::thread::sleep(Duration::from_millis(2));
            let buckets = set.bucket_count();
            while buckets >= next_mark {
                checkpoints.push(checkpoint_json(
                    next_mark,
                    inserted.load(Ordering::Relaxed),
                    t0.elapsed().as_secs_f64(),
                    max_op_ns.load(Ordering::Relaxed),
                    &scheme.stats(),
                ));
                let line = checkpoints.last().unwrap();
                println!("{line}");
                next_mark *= 2;
            }
            if buckets >= target_buckets {
                return true;
            }
            if t0.elapsed().as_secs() >= timeout_s {
                return false;
            }
        }
    });
    if !reached {
        eprintln!(
            "ts-bench: growth stalled: {}/{target_buckets} buckets after {timeout_s}s",
            set.bucket_count()
        );
        std::process::exit(1);
    }

    let buckets = set.bucket_count();
    let resident = inserted.load(Ordering::Relaxed);
    println!(
        "# final: {buckets} buckets, {resident} resident keys, {:.2}s",
        t0.elapsed().as_secs_f64()
    );
    if buckets > OLD_CAP {
        println!("# crossed the old 2^20 directory cap");
    }

    if let Some(path) = args.get("json") {
        std::fs::write(path, checkpoints.join("\n") + "\n").expect("write json");
        println!("# json written to {path}");
    }
}

/// One checkpoint as a JSON line: directory size, residency, elapsed,
/// sampled worst op latency, and the collector's latency percentiles.
fn checkpoint_json(
    buckets: usize,
    resident: usize,
    elapsed_s: f64,
    max_op_ns: u64,
    st: &threadscan::StatsSnapshot,
) -> String {
    ObjectBuilder::new()
        .num("buckets", buckets as f64)
        .num("resident_keys", resident as f64)
        .num("elapsed_s", elapsed_s)
        .num("max_op_us", max_op_ns as f64 / 1e3)
        .bool("past_old_cap", buckets > OLD_CAP)
        .num("collects", st.collects as f64)
        .num("collect_us_p50", st.collect_us_percentile(0.50))
        .num("collect_us_p95", st.collect_us_percentile(0.95))
        .num("collect_us_p99", st.collect_us_percentile(0.99))
        .build()
}

/// One scheme's row of [`garbage`]: churn a list and sample `outstanding`.
fn sample_run<S: Smr + 'static>(
    label: &str,
    scheme: Arc<S>,
    threads: usize,
    duration: Duration,
    samples: u32,
) {
    let list = Arc::new(HarrisList::<S>::new());
    {
        let h = scheme.register();
        for k in 0..512u64 {
            list.insert(&h, k * 2);
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let _stop = StopOnDrop(&stop);
        for t in 0..threads {
            let scheme = Arc::clone(&scheme);
            let list = Arc::clone(&list);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let h = scheme.register();
                let mut k = t as u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = k % 1024;
                    if list.remove(&h, key) {
                        list.insert(&h, key);
                    }
                    k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
            });
        }
        let t0 = Instant::now();
        let step = duration / samples;
        print!("{label:>12}:");
        for _ in 0..samples {
            std::thread::sleep(step);
            print!(" {:>8}", scheme.outstanding());
        }
        println!("   ({:.2?} elapsed)", t0.elapsed());
    });
}

/// Ablation D: outstanding-garbage growth over time.
///
/// The paper's Slow Epoch discussion (§6): "a thread that wants to free
/// its pointers cannot do so until the errant thread updates its epoch
/// counter" — garbage grows without bound while throughput suffers.
/// ThreadScan's signals cannot be stalled by application code, so its
/// outstanding garbage stays bounded by the buffer sizing. This binary
/// samples retired-but-unfreed counts over the run for
/// {epoch, slow-epoch, threadscan}.
///
/// Flags: `--duration 3.0`, `--samples 8`, `--threads 4`, `--quick`.
pub fn garbage(args: &CliArgs) {
    let quick = args.get_flag("quick");
    let duration = args.get_span("duration", if quick { 0.5 } else { 3.0 });
    let samples = args.get_positive("samples", 8);
    let samples = u32::try_from(samples).unwrap_or_else(|_| {
        usage_error(format_args!("--samples must be below 2^32, got {samples}"))
    });
    let threads = args.get_positive("threads", 4);
    args.reject_unread(&[]);

    println!(
        "# Ablation D: outstanding garbage over time ({})",
        machine_info()
    );
    println!("# list workload, {threads} threads, {samples} samples over {duration:?}");
    println!("# columns = retired-but-unfreed node counts at each sample instant");

    sample_run(
        "epoch",
        Arc::new(EpochScheme::with_threshold(256)),
        threads,
        duration,
        samples,
    );
    sample_run(
        "slow-epoch",
        Arc::new(EpochScheme::slow(256, Duration::from_millis(40), 2048)),
        threads,
        duration,
        samples,
    );
    sample_run(
        "threadscan",
        Arc::new(ThreadScanSmr::with_config(
            SignalPlatform::new().expect("signals"),
            threadscan::CollectorConfig::default().with_buffer_capacity(256),
        )),
        threads,
        duration,
        samples,
    );
    println!(
        "# expected shape: threadscan stays an order of magnitude below the \
         epoch schemes (its buffers bound garbage directly); slow-epoch \
         spikes while its errant thread stalls inside an operation"
    );
}

/// One row of [`probes`]: how the per-trial ns/op samples spread.
struct Spread {
    fastest: f64,
    q1: f64,
    median: f64,
    q3: f64,
}

/// The timing kernel of [`probes`]: runs `trial` `trials` times — each
/// returns what it timed and how many ops that covered, one ns/op sample
/// — and summarises the samples. The fastest trial filters scheduler
/// noise best for single-threaded fixed-work loops; the median and the
/// quartiles say how far to trust it.
fn sample(trials: usize, mut trial: impl FnMut() -> (Duration, usize)) -> Spread {
    let per_op = (0..trials).map(|_| {
        let (elapsed, ops) = trial();
        elapsed.as_nanos() as f64 / ops as f64
    });
    let mut ns: Vec<f64> = per_op.collect();
    ns.sort_by(f64::total_cmp);
    // Linear interpolation between the two closest ranks.
    let quantile = |q: f64| {
        let pos = q * (ns.len() - 1) as f64;
        let (lo, hi) = (ns[pos.floor() as usize], ns[pos.ceil() as usize]);
        lo + (hi - lo) * pos.fract()
    };
    Spread {
        fastest: ns[0],
        q1: quantile(0.25),
        median: quantile(0.5),
        q3: quantile(0.75),
    }
}

/// A trial that is `iters` back-to-back calls of `op`.
fn repeat(iters: usize, mut op: impl FnMut(usize)) -> (Duration, usize) {
    let t0 = Instant::now();
    for i in 0..iters {
        op(i);
    }
    (t0.elapsed(), iters)
}

/// The hash table's node size: above glibc's 128-byte fastbin limit, so a
/// `free` that misses the 7-entry thread cache takes an arena lock.
type Node176 = [u8; 176];

/// A phase's worth of separately allocated nodes: the boxes are the
/// workload of the `free_*` rows.
#[allow(clippy::vec_box)]
type NodeBatch = Vec<Box<Node176>>;

fn node_batch() -> NodeBatch {
    (0..512).map(|_| Box::new([0u8; 176])).collect()
}

/// A trial of the `free_*` rows: frees `nodes` nodes, one batch from
/// `next_batch` after another; only the frees are timed.
fn free_trial(nodes: usize, mut next_batch: impl FnMut() -> NodeBatch) -> (Duration, usize) {
    let mut left = nodes;
    let mut timed = Duration::ZERO;
    while left > 0 {
        let mut batch = next_batch();
        let untimed = batch.split_off(left.min(batch.len()));
        left -= batch.len();
        let start = Instant::now();
        batch.drain(..).for_each(drop);
        timed += start.elapsed();
        drop(untimed);
    }
    (timed, nodes)
}

/// Single-threaded ns/op of the layers no frozen benchmark probe covers.
///
/// The first four rows time exactly the sites the ordering-relaxation
/// pass touched — the epoch `begin_op`/`end_op` bracket, the epoch retire
/// stamp path, the `LocalBuffer` push + occupancy probe, and the
/// hazard-pointer protect/release cycle — so each relaxation lands with a
/// measured before/after delta (run this at the parent commit and at the
/// relaxation commit; the README ordering-policy table records the
/// numbers). Uncontended on purpose: there an x86 `SeqCst` store
/// (`xchg`/`mfence`) versus a plain store is the entire story.
///
/// The two `free_*` rows are what one `free()` costs the thread that runs
/// a phase's sweep, by where the node came from. `free_own_176B` frees
/// nodes the measuring thread just allocated (hot, its own arena) — all
/// the benchmark's `core.free_ns_per_node` ever sees. `free_foreign_176B`
/// frees nodes a peer allocated, while the peer keeps allocating out of
/// the same arena: what a reclaimer sweeping a shared structure's nodes
/// pays, and what freeing one node per retire on the retiring thread
/// avoids.
///
/// Flags: `--iters 2000000`, `--trials 7`, `--quick`; `--json <path>`
/// writes one JSON line per row.
pub fn probes(args: &CliArgs) {
    let quick = args.get_flag("quick");
    let iters = args.get_positive("iters", if quick { 200_000 } else { 2_000_000 });
    let trials = args.get_positive("trials", if quick { 3 } else { 7 });
    args.reject_unread(&["json"]);

    println!("# Probes: single-thread fast paths ({})", machine_info());
    println!("# iters={iters} trials={trials} (ns/op, one sample per trial)");

    let mut results: Vec<(&str, Spread)> = Vec::new();

    // Epoch fast path: the begin_op announce (global load + state store)
    // and the end_op clear — the "two writes per method" the paper charges
    // the epoch scheme.
    {
        let scheme = EpochScheme::new();
        let handle = scheme.register();
        let ns = sample(trials, || {
            repeat(iters, |_| {
                handle.begin_op();
                handle.end_op();
            })
        });
        results.push(("epoch_begin_end_pair", ns));
    }

    // Epoch retire path: stamp load + bag push (+ opportunistic expiry
    // probe). Threshold high enough that no advance runs inside the
    // timed region; nodes are pre-allocated so allocation cost stays out.
    {
        let scheme = EpochScheme::with_threshold(usize::MAX);
        let retire_iters = iters.min(400_000); // bag grows linearly
        let ns = sample(trials, || {
            let handle = scheme.register();
            let nodes: Vec<*mut u64> = (0..retire_iters)
                .map(|i| Box::into_raw(Box::new(i as u64)))
                .collect();
            let t0 = Instant::now();
            for &p in &nodes {
                // SAFETY: fresh Box, never shared, retired exactly once.
                unsafe { retire_box(&handle, p) };
            }
            let elapsed = t0.elapsed();
            drop(handle); // bequeaths the bag to the orphan list...
            scheme.quiesce(); // ...which quiesce then frees
            (elapsed, retire_iters)
        });
        results.push(("epoch_retire", ns));
    }

    // LocalBuffer fast path: the SPSC push plus the occupancy probe the
    // retire path uses to decide whether to trigger a phase.
    {
        let buf = LocalBuffer::new(4096);
        let mut out = Vec::new();
        let ns = sample(trials, || {
            repeat(iters, |i| {
                // SAFETY: single-threaded — sole producer and consumer.
                unsafe {
                    if buf
                        .push(Retired::from_raw_parts(
                            0x1000 + (i % 4096) * 8,
                            8,
                            noop_drop,
                        ))
                        .is_err()
                    {
                        buf.drain_into(&mut out);
                        out.clear();
                    }
                }
                std::hint::black_box(buf.len());
            })
        });
        results.push(("buffer_push_len", ns));
    }

    // Hazard fast path: publish + SeqCst fence + validate, then the
    // end_op slot clear — the per-reference cost the paper charges hazard
    // pointers.
    {
        let scheme = HazardPointers::new();
        let handle = scheme.register();
        let target = Box::into_raw(Box::new(0u64)).cast::<u8>();
        let shared = AtomicPtr::new(target);
        let ns = sample(trials, || {
            repeat(iters, |_| {
                std::hint::black_box(handle.load_protected(0, &shared));
                handle.end_op();
            })
        });
        // SAFETY: never retired, no other reference.
        unsafe { drop(Box::from_raw(target.cast::<u64>())) };
        results.push(("hazard_protect_release", ns));
    }

    results.push((
        "free_own_176B",
        sample(trials, || free_trial(iters, node_batch)),
    ));
    {
        let (tx, rx) = sync_channel::<NodeBatch>(2);
        let stop = AtomicBool::new(false);
        let ns = std::thread::scope(|s| {
            let _stop = StopOnDrop(&stop);
            s.spawn(|| {
                // The peer never waits: a batch nobody has room for is
                // freed again, so its arena stays busy either way.
                while !stop.load(Ordering::Relaxed) {
                    match tx.try_send(node_batch()) {
                        Ok(()) => {}
                        Err(TrySendError::Full(batch)) => drop(batch),
                        Err(TrySendError::Disconnected(_)) => return,
                    }
                }
            });
            sample(trials, || {
                free_trial(iters, || {
                    rx.recv().expect("the peer outlives the measurement")
                })
            })
        });
        results.push(("free_foreign_176B", ns));
    }

    println!(
        "{:>24} {:>10} {:>10} {:>19}",
        "site", "fastest", "median", "q1–q3"
    );
    for (name, ns) in &results {
        let iqr = format!("{:.2}–{:.2}", ns.q1, ns.q3);
        println!(
            "{name:>24} {:>10.2} {:>10.2} {iqr:>19}",
            ns.fastest, ns.median
        );
    }

    if let Some(path) = args.get("json") {
        let rows = results.iter().map(|(name, ns)| {
            ObjectBuilder::new()
                .str("probe", name)
                .num("trials", trials as f64)
                .num("fastest_ns", ns.fastest)
                .num("q1_ns", ns.q1)
                .num("median_ns", ns.median)
                .num("q3_ns", ns.q3)
                .build()
        });
        let rows: Vec<String> = rows.collect();
        std::fs::write(path, rows.join("\n") + "\n").expect("write json");
        println!("# json written to {path}");
    }
}
