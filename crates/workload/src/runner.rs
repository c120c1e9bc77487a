//! The throughput runner: the paper's measurement loop.
//!
//! "Each data point in the graphs represents the average number of
//! operations over five executions of 10 seconds" (§6). The runner
//! executes one (structure × scheme × threads) cell: prefill, start all
//! worker threads behind a barrier, run the op mix for the measurement
//! window, stop, and report completed operations.
//!
//! Dispatch is registry-based (see [`crate::registry`]): the scheme is
//! built as `Arc<dyn DynSmr>`, wrapped in [`ErasedSmr`], and the
//! structure as `Arc<dyn ConcurrentSet<ErasedSmr>>` — the runner never
//! names a concrete (scheme × structure) pair. Scheme-specific report
//! fields (Leaky's leak counter, ThreadScan's collector statistics) are
//! recovered by downcasting through [`DynSmr::as_any`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use ts_sigscan::SignalPlatform;
use ts_smr::dynamic::{DynSmr, ErasedSmr};
use ts_smr::{Leaky, Smr, SmrHandle, ThreadScanSmr};
use ts_structures::ConcurrentSet;

use crate::load::{self, Aggregate, LatencySummary, OpenLoopExtras};
use crate::mix::{prefill_keys, Op, OpMix};
use crate::params::{SchemeKind, WorkloadParams};

/// ThreadScan-specific counters attached to a run.
#[derive(Debug, Clone, Default)]
pub struct ThreadScanExtras {
    /// Reclamation phases during the run.
    pub collects: usize,
    /// Phases triggered by the adaptive policy's watermark rather than a
    /// full local buffer (always zero under `CollectPolicy::Fixed`).
    pub adaptive_collects: usize,
    /// Words scanned across all signal handlers.
    pub words_scanned: usize,
    /// Nodes freed.
    pub freed: usize,
    /// Of those, nodes freed by the thread that retired into the phase,
    /// one per later retire, out of its mailbox.
    pub mailbox_frees: usize,
    /// Of those, nodes a reclaimer freed itself because no mailbox would
    /// take them (an idle or slow owner; survivors freed a phase late).
    pub overflow_frees: usize,
    /// Marked survivors (summed over phases).
    pub survivors: usize,
    /// Signals sent by reclaimers.
    pub threads_scanned: usize,
    /// Mean reclaimer-side collect latency (µs).
    pub mean_collect_us: f64,
    /// Worst-case reclaimer-side collect latency (µs).
    pub max_collect_us: f64,
    /// Mean per-phase master-buffer sort time (µs).
    pub mean_sort_us: f64,
    /// Reclaimer collect-latency percentiles (µs), from the collector's
    /// log2 latency histogram: median, tail, extreme tail.
    pub collect_us_p50: f64,
    /// 95th percentile collect latency (µs).
    pub collect_us_p95: f64,
    /// 99th percentile collect latency (µs).
    pub collect_us_p99: f64,
    /// Raw log2 collect-latency histogram (`[i]` counts phases in
    /// `[2^i, 2^(i+1))` ns), exported so multi-repeat harnesses can
    /// merge histograms across runs before computing percentiles.
    pub collect_ns_hist: Vec<usize>,
}

/// One size class's allocator traffic during a run: only classes that
/// actually moved are reported, so idle runs stay an empty list (and the
/// whole `alloc` block stays `null`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassDelta {
    /// Size-class index (see `ts_alloc::class_size`).
    pub class: usize,
    /// The class's block size in bytes.
    pub size: usize,
    /// Allocations served from this class during the run.
    pub allocs: usize,
    /// Blocks of this class freed during the run.
    pub frees: usize,
}

impl ClassDelta {
    /// Renders as one JSON object (see [`crate::json`]).
    pub fn to_json(&self) -> String {
        crate::json::ObjectBuilder::new()
            .num("class", self.class as f64)
            .num("size", self.size as f64)
            .num("allocs", self.allocs as f64)
            .num("frees", self.frees as f64)
            .build()
    }
}

/// Allocator-counter deltas over one run (the `ts-alloc-nodes` feature;
/// meaningful only in binaries that install `ts_alloc` as the global
/// allocator, e.g. `ablation_allocator --real-alloc`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocExtras {
    /// Small (size-class) allocations served during the run.
    pub small_allocs: usize,
    /// Small blocks freed during the run.
    pub small_frees: usize,
    /// Large (passthrough) allocations.
    pub large_allocs: usize,
    /// Large frees.
    pub large_frees: usize,
    /// 64 KiB spans carved from the system allocator.
    pub spans: usize,
    /// Bytes reserved in new spans.
    pub span_bytes: usize,
    /// Thread-cache refills from the central depot (one lock each).
    pub cache_fills: usize,
    /// Thread-cache flushes to the central depot.
    pub cache_flushes: usize,
    /// Per-size-class alloc/free deltas, ascending by class; classes with
    /// no traffic are omitted.
    pub classes: Vec<ClassDelta>,
}

impl AllocExtras {
    /// Small allocations per depot-lock acquisition during the run — the
    /// amortization the thread-caching design exists to provide.
    pub fn allocs_per_lock(&self) -> f64 {
        let locks = self.cache_fills + self.cache_flushes;
        if locks == 0 {
            0.0
        } else {
            self.small_allocs as f64 / locks as f64
        }
    }

    /// Renders as one JSON object (see [`crate::json`]).
    pub fn to_json(&self) -> String {
        let classes = format!(
            "[{}]",
            self.classes
                .iter()
                .map(ClassDelta::to_json)
                .collect::<Vec<_>>()
                .join(",")
        );
        crate::json::ObjectBuilder::new()
            .num("small_allocs", self.small_allocs as f64)
            .num("small_frees", self.small_frees as f64)
            .num("large_allocs", self.large_allocs as f64)
            .num("large_frees", self.large_frees as f64)
            .num("spans", self.spans as f64)
            .num("span_bytes", self.span_bytes as f64)
            .num("cache_fills", self.cache_fills as f64)
            .num("cache_flushes", self.cache_flushes as f64)
            .num("allocs_per_lock", self.allocs_per_lock())
            .raw("classes", &classes)
            .build()
    }
}

/// Per-structure share of a heterogeneous run.
#[derive(Debug, Clone)]
pub struct StructureOps {
    /// Structure label ([`crate::params::StructureKind::label`]).
    pub structure: String,
    /// Completed operations routed to this structure.
    pub ops: u64,
    /// This structure's share of throughput (ops/second over the shared
    /// measurement window).
    pub ops_per_sec: f64,
    /// This structure's per-op latency (open-loop runs only; `None`
    /// under the closed loop or when no op completed).
    pub latency: Option<LatencySummary>,
}

impl StructureOps {
    /// Renders as one JSON object (see [`crate::json`]).
    pub fn to_json(&self) -> String {
        let latency = match &self.latency {
            Some(l) => l.to_json(),
            None => "null".to_string(),
        };
        crate::json::ObjectBuilder::new()
            .str("structure", &self.structure)
            .num("ops", self.ops as f64)
            .num("ops_per_sec", self.ops_per_sec)
            .raw("latency", &latency)
            .build()
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Reclamation scheme label.
    pub scheme: String,
    /// Structure label.
    pub structure: String,
    /// Worker threads.
    pub threads: usize,
    /// Measured wall time in seconds.
    pub duration_s: f64,
    /// Completed operations across all threads.
    pub total_ops: u64,
    /// Throughput (ops/second).
    pub ops_per_sec: f64,
    /// Retired-but-unfreed nodes at the end (after a quiesce); `None`
    /// for Leaky, where it would read as a leak count instead.
    pub outstanding_after: Option<usize>,
    /// Nodes intentionally leaked (Leaky only).
    pub leaked: Option<usize>,
    /// The scheme's per-handle protection-slot budget; `None` for schemes
    /// with no per-reference state (epoch, ThreadScan, leaky).
    pub protection_slots: Option<usize>,
    /// ThreadScan internals (ThreadScan only).
    pub threadscan: Option<ThreadScanExtras>,
    /// Allocator-counter deltas (`ts-alloc-nodes` builds whose binary
    /// routed allocation through `ts_alloc`; `None` otherwise).
    pub alloc: Option<AllocExtras>,
    /// Per-structure op counts/throughput for heterogeneous runs
    /// ([`crate::hetero::run_hetero_combo`]); empty for single-structure
    /// cells (rendered as JSON `null`).
    pub per_structure: Vec<StructureOps>,
    /// Final bucket count, for structures with a bucket directory (the
    /// split-ordered table); `None` otherwise.
    pub bucket_count: Option<usize>,
    /// Per-op latency from intended arrival to completion — the
    /// coordinated-omission-correct service latency. `None` under
    /// [`LoadModel::Closed`](crate::load::LoadModel::Closed), which takes
    /// no per-op clocks.
    pub latency: Option<LatencySummary>,
    /// Offered-vs-served accounting for open-loop runs (`None` under the
    /// closed loop).
    pub open_loop: Option<OpenLoopExtras>,
}

impl ThreadScanExtras {
    /// Renders as one JSON object (see [`crate::json`]).
    pub fn to_json(&self) -> String {
        crate::json::ObjectBuilder::new()
            .num("collects", self.collects as f64)
            .num("adaptive_collects", self.adaptive_collects as f64)
            .num("words_scanned", self.words_scanned as f64)
            .num("freed", self.freed as f64)
            .num("mailbox_frees", self.mailbox_frees as f64)
            .num("overflow_frees", self.overflow_frees as f64)
            .num("survivors", self.survivors as f64)
            .num("threads_scanned", self.threads_scanned as f64)
            .num("mean_collect_us", self.mean_collect_us)
            .num("max_collect_us", self.max_collect_us)
            .num("mean_sort_us", self.mean_sort_us)
            .num("collect_us_p50", self.collect_us_p50)
            .num("collect_us_p95", self.collect_us_p95)
            .num("collect_us_p99", self.collect_us_p99)
            .arr_num(
                "collect_ns_hist",
                self.collect_ns_hist.iter().map(|&c| c as f64),
            )
            .build()
    }
}

impl RunResult {
    /// Renders as one JSON object line (see [`crate::json`]).
    pub fn to_json(&self) -> String {
        let ts = match &self.threadscan {
            Some(extras) => extras.to_json(),
            None => "null".to_string(),
        };
        let alloc = match &self.alloc {
            Some(extras) => extras.to_json(),
            None => "null".to_string(),
        };
        let per_structure = if self.per_structure.is_empty() {
            "null".to_string()
        } else {
            format!(
                "[{}]",
                self.per_structure
                    .iter()
                    .map(StructureOps::to_json)
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        let latency = match &self.latency {
            Some(l) => l.to_json(),
            None => "null".to_string(),
        };
        let open_loop = match &self.open_loop {
            Some(o) => o.to_json(),
            None => "null".to_string(),
        };
        crate::json::ObjectBuilder::new()
            .str("scheme", &self.scheme)
            .str("structure", &self.structure)
            .num("threads", self.threads as f64)
            .num("duration_s", self.duration_s)
            .num("total_ops", self.total_ops as f64)
            .num("ops_per_sec", self.ops_per_sec)
            .opt_num(
                "outstanding_after",
                self.outstanding_after.map(|v| v as f64),
            )
            .opt_num("leaked", self.leaked.map(|v| v as f64))
            .opt_num("protection_slots", self.protection_slots.map(|v| v as f64))
            .opt_num("bucket_count", self.bucket_count.map(|v| v as f64))
            .raw("latency", &latency)
            .raw("open_loop", &open_loop)
            .raw("per_structure", &per_structure)
            .raw("threadscan", &ts)
            .raw("alloc", &alloc)
            .build()
    }
}

/// What one measured window produced, before scheme-specific accounting.
pub(crate) struct DriveOutcome {
    /// Completed operations across all threads.
    pub ops: u64,
    /// Measured wall time, seconds.
    pub secs: f64,
    /// Per-op latency (open-loop models only).
    pub latency: Option<LatencySummary>,
    /// Offered-vs-served accounting (open-loop models only).
    pub open_loop: Option<OpenLoopExtras>,
}

/// Drives `set` under `scheme` per `params`. The generic measurement
/// core: the harness instantiates it once at `S = ErasedSmr` (any scheme
/// at runtime); library users may instantiate it with concrete types for
/// a zero-virtual-call measurement loop.
///
/// The worker loop itself lives in the load-generation layer
/// ([`crate::load::drive_worker`]): under [`LoadModel::Closed`] it is the
/// pre-refactor tight loop (per-op relaxed stop check, no clocks — see
/// the regression note there about post-stop ops); under an open model
/// each worker follows its arrival schedule and measures latency from
/// intended arrival to completion.
///
/// [`LoadModel::Closed`]: crate::load::LoadModel::Closed
fn drive<S, T>(scheme: &Arc<S>, set: &Arc<T>, params: &WorkloadParams) -> DriveOutcome
where
    S: Smr,
    T: ConcurrentSet<S> + ?Sized + 'static,
{
    // Prefill from a temporary handle (deterministic half-density).
    {
        let handle = scheme.register();
        for key in prefill_keys(params.initial_size, params.key_range) {
            set.insert(&handle, key);
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let start_barrier = Arc::new(Barrier::new(params.threads + 1));
    let reports = Mutex::new(Vec::with_capacity(params.threads));
    let reports_ref = &reports;
    let elapsed_holder = AtomicU64::new(0);
    let elapsed_holder = &elapsed_holder;

    std::thread::scope(|s| {
        for t in 0..params.threads {
            let scheme = Arc::clone(scheme);
            let set = Arc::clone(set);
            let stop = Arc::clone(&stop);
            let start_barrier = Arc::clone(&start_barrier);
            let params = params.clone();
            s.spawn(move || {
                let handle = scheme.register();
                let mut mix = OpMix::with_dist(
                    0x51ED_1E55 ^ (t as u64) << 1,
                    params.key_range,
                    params.update_pct,
                    params.key_dist,
                );
                start_barrier.wait();
                let report =
                    load::drive_worker(params.load_spec(), t, params.threads, 1, &stop, || {
                        match mix.next_op() {
                            Op::Contains(k) => {
                                set.contains(&handle, k);
                            }
                            Op::Insert(k) => {
                                set.insert(&handle, k);
                            }
                            Op::Remove(k) => {
                                set.remove(&handle, k);
                            }
                        }
                        0
                    });
                reports_ref.lock().unwrap().push(report);
                // handle drops here: the thread unregisters before exit,
                // as the signal platform requires.
            });
        }

        start_barrier.wait();
        let t0 = std::time::Instant::now();
        std::thread::sleep(params.duration);
        stop.store(true, Ordering::Relaxed);
        elapsed_holder.store(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        // scope joins all workers here
    });

    let agg = Aggregate::from_reports(reports.into_inner().unwrap(), 1);
    let open_loop = agg.open_extras(&params.load_model);
    DriveOutcome {
        ops: agg.total_ops,
        secs: elapsed_holder.load(Ordering::Relaxed) as f64 / 1e6,
        latency: agg.latency,
        open_loop,
    }
}

/// ThreadScan-specific report fields, recovered from the erased scheme by
/// downcast. Must run *before* the end-of-run quiesce: its small drain
/// phases would dilute the per-phase latency/sort means, and the extras
/// should describe the measured window.
pub(crate) fn threadscan_extras(scheme: &dyn DynSmr) -> Option<ThreadScanExtras> {
    let ts = scheme
        .as_any()
        .downcast_ref::<ThreadScanSmr<SignalPlatform>>()?;
    let st = ts.stats();
    Some(ThreadScanExtras {
        collects: st.collects,
        adaptive_collects: st.adaptive_collects,
        words_scanned: st.words_scanned,
        freed: st.freed,
        mailbox_frees: st.mailbox_frees,
        overflow_frees: st.overflow_frees,
        survivors: st.survivors,
        threads_scanned: st.threads_scanned,
        mean_collect_us: st.mean_collect_us(),
        max_collect_us: st.max_collect_us(),
        mean_sort_us: st.mean_sort_us(),
        collect_us_p50: st.collect_us_percentile(0.50),
        collect_us_p95: st.collect_us_percentile(0.95),
        collect_us_p99: st.collect_us_percentile(0.99),
        collect_ns_hist: st.collect_ns_hist.to_vec(),
    })
}

/// Scheme-specific accounting shared by the set and priority-queue
/// runners: quiesces, then splits the post-quiesce count into
/// `outstanding_after` (reclaiming schemes) vs `leaked` (Leaky, whose
/// "outstanding" is intentional leakage and must not read as a deficit).
pub(crate) fn quiesce_and_account(scheme: &dyn DynSmr) -> (Option<usize>, Option<usize>) {
    scheme.quiesce();
    match scheme.as_any().downcast_ref::<Leaky>() {
        Some(leaky) => (None, Some(leaky.leaked())),
        None => (Some(scheme.outstanding()), None),
    }
}

/// Allocator-counter snapshot bracket for the `ts-alloc-nodes` feature:
/// returns `None` when the counters did not move (the binary did not
/// route allocation through `ts_alloc`), so reports stay honest.
#[cfg(feature = "ts-alloc-nodes")]
pub(crate) struct AllocBracket(ts_alloc::AllocStats);

#[cfg(feature = "ts-alloc-nodes")]
impl AllocBracket {
    pub(crate) fn open() -> Self {
        Self(ts_alloc::stats())
    }

    pub(crate) fn close(self) -> Option<AllocExtras> {
        let b = self.0;
        let a = ts_alloc::stats();
        // Only classes with traffic, so an idle run's delta still equals
        // `default()` and the block stays `null`.
        let classes = (0..ts_alloc::NUM_CLASSES)
            .filter_map(|c| {
                let allocs = a.class_allocs[c] - b.class_allocs[c];
                let frees = a.class_frees[c] - b.class_frees[c];
                (allocs != 0 || frees != 0).then(|| ClassDelta {
                    class: c,
                    size: ts_alloc::class_size(c),
                    allocs,
                    frees,
                })
            })
            .collect();
        let delta = AllocExtras {
            small_allocs: a.small_allocs - b.small_allocs,
            small_frees: a.small_frees - b.small_frees,
            large_allocs: a.large_allocs - b.large_allocs,
            large_frees: a.large_frees - b.large_frees,
            spans: a.spans - b.spans,
            span_bytes: a.span_bytes - b.span_bytes,
            cache_fills: a.cache_fills - b.cache_fills,
            cache_flushes: a.cache_flushes - b.cache_flushes,
            classes,
        };
        (delta != AllocExtras::default()).then_some(delta)
    }
}

/// No-op stand-in when the feature is off: `close` always yields `None`.
#[cfg(not(feature = "ts-alloc-nodes"))]
pub(crate) struct AllocBracket;

#[cfg(not(feature = "ts-alloc-nodes"))]
impl AllocBracket {
    pub(crate) fn open() -> Self {
        Self
    }

    pub(crate) fn close(self) -> Option<AllocExtras> {
        None
    }
}

/// Runs one experiment cell through the scheme and structure registries.
///
/// No (scheme × structure) dispatch happens here: [`SchemeKind::build`]
/// yields the scheme as `Arc<dyn DynSmr>`, [`StructureKind::build_set`]
/// the structure as `Arc<dyn ConcurrentSet<ErasedSmr>>`, and the generic
/// measurement loop drives the pair through the erased adapter.
///
/// [`StructureKind::build_set`]: crate::params::StructureKind::build_set
pub fn run_combo(scheme: SchemeKind, params: &WorkloadParams) -> RunResult {
    let dyn_scheme = scheme.build(params);
    let erased = Arc::new(ErasedSmr::new(Arc::clone(&dyn_scheme)));
    let set = params.structure.build_set::<ErasedSmr>(params);

    let alloc_bracket = AllocBracket::open();
    let outcome = drive(&erased, &set, params);

    let ts = threadscan_extras(&*dyn_scheme); // before quiesce (see docs)
    let (outstanding_after, leaked) = quiesce_and_account(&*dyn_scheme);
    let alloc = alloc_bracket.close();
    let protection_slots = erased.register().protection_slots();

    RunResult {
        scheme: scheme.label().to_string(),
        structure: params.structure.label().to_string(),
        threads: params.threads,
        duration_s: outcome.secs,
        total_ops: outcome.ops,
        ops_per_sec: outcome.ops as f64 / outcome.secs.max(1e-9),
        outstanding_after,
        leaked,
        protection_slots,
        threadscan: ts,
        alloc,
        per_structure: Vec::new(),
        bucket_count: set.bucket_count(),
        latency: outcome.latency,
        open_loop: outcome.open_loop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::StructureKind;
    use std::time::Duration;

    fn quick(structure: StructureKind, threads: usize) -> WorkloadParams {
        WorkloadParams::fig3(structure, threads)
            .scaled_down(64)
            .with_duration(Duration::from_millis(120))
    }

    /// A set whose every operation takes ~`OP_MS` ms: long enough that a
    /// batch of them straddles the stop flag by a wide margin.
    struct StallingSet;

    const OP_MS: u64 = 5;

    impl ConcurrentSet<Leaky> for StallingSet {
        fn contains(&self, _h: &<Leaky as Smr>::Handle, _k: u64) -> bool {
            std::thread::sleep(Duration::from_millis(OP_MS));
            false
        }
        fn insert(&self, _h: &<Leaky as Smr>::Handle, _k: u64) -> bool {
            std::thread::sleep(Duration::from_millis(OP_MS));
            true
        }
        fn remove(&self, _h: &<Leaky as Smr>::Handle, _k: u64) -> bool {
            std::thread::sleep(Duration::from_millis(OP_MS));
            false
        }
        fn kind(&self) -> &'static str {
            "stalling"
        }
    }

    /// Regression for the throughput-accounting bug: workers used to run
    /// 64-op batches and only check `stop` between batches, while
    /// `elapsed` is captured the moment the flag is set — so up to 63
    /// ops per thread were billed to a window that excludes the time
    /// they took. With 5 ms ops and a 60 ms window, the old code counted
    /// a full 64-op (320 ms) batch per thread; the fixed code can
    /// complete at most ~12 ops per thread inside the window (plus the
    /// one op in flight when the flag flips).
    #[test]
    fn ops_finished_after_stop_are_not_counted() {
        const THREADS: usize = 2;
        let scheme = Arc::new(Leaky::new());
        let set = Arc::new(StallingSet);
        let mut params = quick(StructureKind::List, THREADS);
        params.initial_size = 0; // no prefill through the stalling set
        params.duration = Duration::from_millis(60);
        let outcome = drive(&scheme, &set, &params);
        let (ops, secs) = (outcome.ops, outcome.secs);
        // Bound against the *measured* window, not the nominal 60 ms —
        // on a loaded machine the driver's sleep can overshoot, in which
        // case more ops legitimately fit. `+ 1` covers the op in flight
        // per thread when the flag flips; 2x slack absorbs scheduling
        // jitter while staying far below the old code's full-batch bill.
        let window_ops_per_thread = (secs * 1000.0 / OP_MS as f64).ceil() as u64 + 1;
        assert!(
            ops <= (THREADS as u64) * window_ops_per_thread * 2,
            "{ops} ops counted against a {secs:.3}s window: post-stop \
             batch work is being billed to the measurement window"
        );
        assert!(ops > 0, "workers must still make progress");
    }

    /// Oversubscription smoke: 4× more ThreadScan workers than cores
    /// must complete, reclaim, and report monotone latency percentiles.
    #[test]
    fn oversubscribed_4x_run_reports_latency_percentiles() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let threads = (cores * 4).min(64);
        let mut p = quick(StructureKind::List, threads);
        p.ts_buffer_capacity = 64; // force reclamation phases
        p.duration = Duration::from_millis(250);
        let r = run_combo(SchemeKind::ThreadScan, &p);
        assert!(r.total_ops > 0);
        let ts = r.threadscan.expect("threadscan extras present");
        assert!(ts.collects > 0, "phases must run under oversubscription");
        assert!(
            ts.collect_us_p50 > 0.0,
            "histogram must populate percentiles"
        );
        assert!(ts.collect_us_p50 <= ts.collect_us_p95);
        assert!(ts.collect_us_p95 <= ts.collect_us_p99);
    }

    #[test]
    fn every_scheme_completes_on_the_list() {
        for scheme in SchemeKind::ALL {
            let r = run_combo(scheme, &quick(StructureKind::List, 3));
            assert!(r.total_ops > 0, "{:?} produced no ops", scheme);
            assert_eq!(r.structure, "list");
            assert_eq!(r.threads, 3);
        }
    }

    #[test]
    fn every_structure_completes_under_threadscan() {
        for structure in StructureKind::ALL {
            let r = run_combo(SchemeKind::ThreadScan, &quick(structure, 3));
            assert!(r.total_ops > 0, "{:?} produced no ops", structure);
            let ts = r.threadscan.expect("threadscan extras present");
            // With 20% updates and a scaled-down buffer the run may or may
            // not trigger a phase; freed+outstanding bookkeeping must be
            // consistent regardless.
            assert!(ts.freed <= ts.freed + ts.survivors);
        }
    }

    #[test]
    fn threadscan_run_reclaims_with_small_buffers() {
        let mut p = quick(StructureKind::List, 4);
        p.ts_buffer_capacity = 64; // force frequent collects
        p.duration = Duration::from_millis(300);
        let r = run_combo(SchemeKind::ThreadScan, &p);
        let ts = r.threadscan.unwrap();
        assert!(ts.collects > 0, "no reclamation phases ran");
        assert!(ts.freed > 0, "nothing was reclaimed");
        // After quiesce, outstanding should be small relative to total
        // retired work (stale stack slots may pin a handful).
        let outstanding = r.outstanding_after.unwrap();
        assert!(
            outstanding < 64 + ts.freed / 2,
            "outstanding {outstanding} too high vs freed {}",
            ts.freed
        );
    }

    #[test]
    fn leaky_reports_leaks_not_outstanding() {
        let r = run_combo(SchemeKind::Leaky, &quick(StructureKind::Hash, 2));
        assert!(r.outstanding_after.is_none());
        assert!(r.leaked.is_some());
    }

    /// A set that records every operation it is asked to perform, in
    /// order — the probe for the closed-model pinning test.
    struct RecordingSet(Mutex<Vec<Op>>);

    impl ConcurrentSet<Leaky> for RecordingSet {
        fn contains(&self, _h: &<Leaky as Smr>::Handle, k: u64) -> bool {
            self.0.lock().unwrap().push(Op::Contains(k));
            false
        }
        fn insert(&self, _h: &<Leaky as Smr>::Handle, k: u64) -> bool {
            self.0.lock().unwrap().push(Op::Insert(k));
            true
        }
        fn remove(&self, _h: &<Leaky as Smr>::Handle, k: u64) -> bool {
            self.0.lock().unwrap().push(Op::Remove(k));
            false
        }
        fn kind(&self) -> &'static str {
            "recording"
        }
    }

    /// Pins [`LoadModel::Closed`](crate::load::LoadModel::Closed) to the
    /// pre-refactor runner observationally: a single worker must issue
    /// *exactly* the op stream of `OpMix::with_dist(0x51ED_1E55 ^ 0, ...)`
    /// (the documented per-worker seed), count every issued op, and take
    /// no per-op clocks (no latency, no open-loop extras).
    #[test]
    fn closed_model_is_observationally_the_pre_refactor_loop() {
        let scheme = Arc::new(Leaky::new());
        let set = Arc::new(RecordingSet(Mutex::new(Vec::new())));
        let mut params = quick(StructureKind::List, 1);
        params.initial_size = 0; // keep prefill out of the recording
        params.duration = Duration::from_millis(40);
        assert_eq!(params.load_model, crate::load::LoadModel::Closed);
        let outcome = drive(&scheme, &set, &params);

        let recorded = set.0.lock().unwrap();
        assert_eq!(
            outcome.ops as usize,
            recorded.len(),
            "every issued op is counted, none invented"
        );
        assert!(outcome.ops > 0, "the worker must make progress");
        assert!(outcome.latency.is_none(), "closed loop takes no clocks");
        assert!(outcome.open_loop.is_none(), "closed loop has no extras");

        // Replay the documented stream: worker 0 seeds OpMix with
        // 0x51ED_1E55 ^ (0 << 1).
        let mut expect = OpMix::with_dist(
            0x51ED_1E55,
            params.key_range,
            params.update_pct,
            params.key_dist,
        );
        for (i, op) in recorded.iter().enumerate() {
            assert_eq!(*op, expect.next_op(), "op {i} diverged from the stream");
        }
    }

    #[test]
    fn open_loop_run_reports_latency_and_extras() {
        let mut p = quick(StructureKind::Hash, 2);
        p.duration = Duration::from_millis(200);
        p = p.with_load_model(crate::load::LoadModel::OpenPoisson { qps: 20_000.0 });
        let r = run_combo(SchemeKind::ThreadScan, &p);
        assert!(r.total_ops > 0);
        let lat = r.latency.clone().expect("open model measures latency");
        assert_eq!(lat.count, r.total_ops, "every completed op is recorded");
        assert!(lat.p50_ns > 0.0);
        assert!(lat.p50_ns <= lat.p99_ns && lat.p99_ns <= lat.p999_ns);
        assert!(lat.max_ns > 0);
        let ol = r.open_loop.clone().expect("open model reports extras");
        assert_eq!(ol.model, "poisson(20000)");
        assert_eq!(ol.dropped, 0, "Queue policy never drops");
        assert!(ol.offered >= r.total_ops, "served ops were all offered");
        // JSON carries both blocks.
        let v = crate::json::parse(&r.to_json()).expect("valid JSON");
        assert!(v.get("latency").get("p999_ns").as_f64().is_some());
        assert_eq!(
            v.get("open_loop").get("model").as_str(),
            Some("poisson(20000)")
        );
    }

    #[test]
    fn open_loop_throughput_tracks_the_offered_rate() {
        // 10k QPS against a trivial structure: the run must complete
        // roughly duration × qps ops — not the millions a closed loop
        // would push. Generous bounds: scheduler jitter on a loaded
        // machine can run the window long or starve arrival precision.
        let mut p = quick(StructureKind::Hash, 2);
        p.duration = Duration::from_millis(300);
        p = p.with_load_model(crate::load::LoadModel::OpenPoisson { qps: 10_000.0 });
        let r = run_combo(SchemeKind::Leaky, &p);
        let expected = 10_000.0 * r.duration_s;
        assert!(
            (r.total_ops as f64) < expected * 2.0,
            "{} ops vs ~{expected:.0} expected: arrivals are not pacing",
            r.total_ops
        );
        assert!(
            (r.total_ops as f64) > expected * 0.5,
            "{} ops vs ~{expected:.0} expected: workers starved",
            r.total_ops
        );
    }

    #[test]
    fn drop_policy_surfaces_in_run_results() {
        // Offered load far beyond one thread's capacity on a stalling
        // structure, with a tight drop deadline: drops must be reported.
        let scheme = Arc::new(Leaky::new());
        let set = Arc::new(StallingSet);
        let mut params = quick(StructureKind::List, 1);
        params.initial_size = 0;
        params.duration = Duration::from_millis(80);
        params = params
            .with_load_model(crate::load::LoadModel::OpenPoisson { qps: 5_000.0 })
            .with_backlog(crate::load::BacklogPolicy::DropAfter(
                Duration::from_millis(10),
            ));
        let outcome = drive(&scheme, &set, &params);
        let ol = outcome.open_loop.expect("open model reports extras");
        assert!(ol.dropped > 0, "overload with a deadline must shed");
        assert!(
            ol.sched_lag_max_ns > 10_000_000,
            "lag must exceed the 10 ms deadline: {}",
            ol.sched_lag_max_ns
        );
        assert_eq!(
            ol.offered,
            outcome.ops + ol.dropped,
            "offered splits exactly into served + dropped"
        );
    }
}
