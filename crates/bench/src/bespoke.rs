//! The one experiment that is not a (structure × scheme × threads)
//! sweep: `probes`, the single-threaded ns/op of the fast paths no frozen
//! benchmark probe covers, each with its spread over trials.

use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::time::{Duration, Instant};

use ts_smr::{retire_box, EpochScheme, HazardPointers, Smr, SmrHandle};
use ts_workload::json::{self, object};

use crate::cli::{machine_info, write_output, CliArgs};

/// Raises its flag when dropped, so a scope's peer thread stops however
/// the thread holding it leaves the scope — a panic included — and no
/// join hangs.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
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
    let ns: Vec<f64> = per_op.collect();
    let (q1, median, q3) = quartiles(&ns);
    Spread {
        fastest: ns.iter().copied().fold(f64::INFINITY, f64::min),
        q1,
        median,
        q3,
    }
}

/// `(q1, median, q3)` of `values`, each by linear interpolation between
/// the two closest ranks: Python's `statistics.quantiles(n=4,
/// method="inclusive")`.
///
/// # Panics
///
/// If `values` is empty.
pub(crate) fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (sorted[pos.floor() as usize], sorted[pos.ceil() as usize]);
        lo + (hi - lo) * pos.fract()
    };
    (quantile(0.25), quantile(0.5), quantile(0.75))
}

/// A trial that is `iters` back-to-back calls of `op`.
fn repeat(iters: usize, mut op: impl FnMut()) -> (Duration, usize) {
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    (t0.elapsed(), iters)
}

/// The Harris list's (and so the hash table's) node: 16 bytes, a 32-byte
/// glibc chunk, inside the thread cache's and the fastbins' size classes.
type Node16 = [u64; 2];

/// A phase's worth of separately allocated nodes: the boxes are the
/// workload of the `free_*` rows.
#[allow(clippy::vec_box)]
type NodeBatch = Vec<Box<Node16>>;

fn node_batch() -> NodeBatch {
    (0..512).map(|_| Box::new([0; 2])).collect()
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
/// The first three rows time sites the ordering-relaxation pass touched —
/// the epoch `begin_op`/`end_op` bracket, the epoch retire stamp path and
/// the hazard-pointer protect/release cycle — so each relaxation lands with a
/// measured before/after delta (run this at the parent commit and at the
/// relaxation commit; the README ordering-policy table records the
/// numbers). Uncontended on purpose: there an x86 `SeqCst` store
/// (`xchg`/`mfence`) versus a plain store is the entire story.
///
/// The two `free_*` rows are what one `free()` costs the thread that runs
/// a phase's sweep, by where the node came from. `free_own_16B` frees
/// nodes the measuring thread just allocated (hot, its own arena) — all
/// the benchmark's `core.free_ns_per_node` ever sees. `free_foreign_16B`
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
            repeat(iters, || {
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

    // Hazard fast path: publish + SeqCst fence + validate, then the
    // end_op slot clear — the per-reference cost the paper charges hazard
    // pointers.
    {
        let scheme = HazardPointers::new();
        let handle = scheme.register();
        let target = Box::into_raw(Box::new(0u64)).cast::<u8>();
        let shared = AtomicPtr::new(target);
        let ns = sample(trials, || {
            repeat(iters, || {
                std::hint::black_box(handle.load_protected(0, &shared));
                handle.end_op();
            })
        });
        // SAFETY: never retired, no other reference.
        unsafe { drop(Box::from_raw(target.cast::<u64>())) };
        results.push(("hazard_protect_release", ns));
    }

    results.push((
        "free_own_16B",
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
        results.push(("free_foreign_16B", ns));
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
            object([
                ("probe", (*name).into()),
                ("trials", trials.into()),
                ("fastest_ns", ns.fastest.into()),
                ("q1_ns", ns.q1.into()),
                ("median_ns", ns.median.into()),
                ("q3_ns", ns.q3.into()),
            ])
        });
        write_output(path, "json", "", |out| json::write_lines(out, rows));
    }
}
