//! The measurement loop — the one path every cell of every experiment
//! goes through.
//!
//! "Each data point in the graphs represents the average number of
//! operations over five executions of 10 seconds" (§6). [`run_combo`]
//! executes one (structure × scheme × threads) cell: prefill, start all
//! worker threads behind a barrier, run the op mix for the measurement
//! window, stop, and report completed operations. Like every data point
//! of the paper's figures, a cell is one structure under one scheme.
//!
//! Dispatch is registry-based (see [`crate::registry`]):
//! [`SchemeKind::with`] picks the concrete scheme `S` once per cell, and
//! the loop drives the structure as an `Arc<dyn ConcurrentSet<S>>` — one
//! virtual call per operation, none per traversal step, and the runner
//! never names a concrete (scheme × structure) pair.
//! Scheme-specific report fields (Leaky's leak counter, ThreadScan's
//! collector statistics) come from [`HarnessScheme`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use threadscan::{Hist, StatsSnapshot};
use ts_smr::{Smr, SmrHandle};
use ts_structures::ConcurrentSet;

use crate::json::{object, Value};
use crate::load::{self, Aggregate, LatencySummary, OpenLoopExtras};
use crate::mix::{prefill_keys, Op, OpMix};
use crate::params::{SchemeKind, WorkloadParams};
use crate::registry::{HarnessScheme, SchemeFn};

/// One measured cell.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Reclamation scheme label.
    pub scheme: String,
    /// Structure label.
    pub structure: String,
    /// Worker threads.
    pub threads: usize,
    /// Percentage of operations that were updates.
    pub update_pct: u32,
    /// Key distribution label ([`KeyDist::label`](crate::KeyDist::label)).
    pub key_dist: String,
    /// The cell's ThreadScan delete-buffer capacity (no other scheme reads it).
    pub ts_buffer_capacity: usize,
    /// Measured wall time in seconds.
    pub duration_s: f64,
    /// Completed operations across all threads.
    pub total_ops: u64,
    /// Throughput (ops/second).
    pub ops_per_sec: f64,
    /// Retired-but-unfreed nodes at the end (after a quiesce); `None`
    /// for Leaky, where it would read as a leak count instead.
    pub outstanding_after: Option<usize>,
    /// Retired-but-unfreed nodes while the workers ran, read at the end of
    /// each of the window's [`OUTSTANDING_SAMPLES`] equal steps — the
    /// paper's §6 garbage-growth measure. A row merged over repeats
    /// carries every repeat's samples in run order.
    pub outstanding_samples: Vec<usize>,
    /// Nodes intentionally leaked (Leaky only). Leaky's
    /// `outstanding_samples` are this count as it grew, so they never
    /// decrease.
    pub leaked: Option<usize>,
    /// The scheme's per-handle protection-slot budget; `None` for schemes
    /// with no per-reference state (epoch, ThreadScan, leaky).
    pub protection_slots: Option<usize>,
    /// The collector's counters and phase latency over the measured
    /// window (ThreadScan only), rendered by [`stats_json`].
    pub threadscan: Option<CollectorReport>,
    /// Final bucket count, for structures with a bucket directory (the
    /// split-ordered table); `None` otherwise.
    pub bucket_count: Option<usize>,
    /// Per-op latency from intended arrival to completion — the
    /// coordinated-omission-correct service latency. `None` under
    /// [`LoadModel::Closed`](crate::load::LoadModel::Closed), which takes
    /// no per-op clocks.
    pub latency: Option<LatencySummary>,
    /// The offered rate and the workers' scheduling lag for open-loop
    /// runs (`None` under the closed loop).
    pub open_loop: Option<OpenLoopExtras>,
}

/// What a ThreadScan cell reports of its collector.
#[derive(Debug, Clone, Default)]
pub struct CollectorReport {
    /// The counters ([`threadscan::Collector::stats`]).
    pub stats: StatsSnapshot,
    /// Every phase's latency, one record per `stats.collects`
    /// ([`threadscan::Collector::collect_latency`]).
    pub collect_ns: Hist,
}

impl CollectorReport {
    /// Folds another run's report in: the counters as
    /// [`StatsSnapshot::merge`] does, the histograms bucket by bucket.
    pub fn merge(&mut self, other: &CollectorReport) {
        self.stats.merge(&other.stats);
        self.collect_ns.merge(&other.collect_ns);
    }

    /// The `q`-quantile of phase latency in µs; `None` before the first
    /// phase.
    pub fn collect_us(&self, q: f64) -> Option<f64> {
        Some(self.collect_ns.quantile(q)? / 1e3)
    }
}

/// Renders a collector report as the `threadscan` block of a result row:
/// every counter [`StatsSnapshot::counters`] names, then the latency
/// figures derived from them and the histogram (see [`crate::json`]).
pub fn stats_json(report: &CollectorReport) -> Value {
    let st = &report.stats;
    let derived = [
        ("mean_collect_us", st.mean_collect_us().into()),
        ("max_collect_us", st.max_collect_us().into()),
        ("mean_sort_us", st.mean_sort_us().into()),
        ("collect_us_p50", report.collect_us(0.50).into()),
        ("collect_us_p95", report.collect_us(0.95).into()),
        ("collect_us_p99", report.collect_us(0.99).into()),
        ("collect_ns_hist", (&report.collect_ns).into()),
    ];
    object(
        st.counters()
            .map(|(name, v)| (name, v.into()))
            .chain(derived),
    )
}

impl RunResult {
    /// The row as a JSON document (see [`crate::json`]).
    pub fn to_value(&self) -> Value {
        object([
            ("scheme", self.scheme.as_str().into()),
            ("structure", self.structure.as_str().into()),
            ("threads", self.threads.into()),
            ("update_pct", self.update_pct.into()),
            ("key_dist", self.key_dist.as_str().into()),
            ("ts_buffer_capacity", self.ts_buffer_capacity.into()),
            ("duration_s", self.duration_s.into()),
            ("total_ops", self.total_ops.into()),
            ("ops_per_sec", self.ops_per_sec.into()),
            ("outstanding_after", self.outstanding_after.into()),
            (
                "outstanding_samples",
                self.outstanding_samples.iter().copied().collect(),
            ),
            ("leaked", self.leaked.into()),
            ("protection_slots", self.protection_slots.into()),
            ("bucket_count", self.bucket_count.into()),
            (
                "latency",
                self.latency.as_ref().map(LatencySummary::to_json).into(),
            ),
            (
                "open_loop",
                self.open_loop.as_ref().map(OpenLoopExtras::to_json).into(),
            ),
            (
                "threadscan",
                self.threadscan.as_ref().map(stats_json).into(),
            ),
        ])
    }

    /// [`Self::to_value`] as one line of JSON text.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }
}

/// How many times a run reads its scheme's `outstanding()` while the
/// workers run ([`RunResult::outstanding_samples`]).
pub const OUTSTANDING_SAMPLES: usize = 8;

/// The measurement loop: prefills `set`, then drives it for
/// `params.duration` from `params.threads` workers and returns the merged
/// worker reports, the measured window in seconds, and the scheme's
/// `outstanding()` at the end of each of the window's
/// [`OUTSTANDING_SAMPLES`] equal steps, read by the main thread while the
/// workers run.
///
/// Every worker's deterministic op stream is built here, on the calling
/// thread, before the first spawn: a cell whose stream cannot be built
/// (a zipf `theta` outside (0, 1), an empty key range) panics here
/// instead of in a worker the start barrier would then wait for forever.
/// The streams share one zipf sampler's setup. The worker loop itself
/// lives in the load-generation layer ([`crate::load::drive_worker`]):
/// under the closed model a per-op relaxed stop check and no clocks,
/// under the open model an arrival schedule with latency from intended
/// arrival to completion.
fn drive<S: Smr>(
    scheme: &S,
    set: &dyn ConcurrentSet<S>,
    params: &WorkloadParams,
) -> (Aggregate, f64, Vec<usize>) {
    let stream = OpMix::with_dist(
        0x51ED_1E55,
        params.key_range,
        params.update_pct,
        params.key_dist,
    );
    let streams = (0..params.threads).map(|t| stream.reseeded(0x51ED_1E55 ^ ((t as u64) << 8)));
    let streams: Vec<OpMix> = streams.collect();

    {
        let handle = scheme.register();
        for key in prefill_keys(params.initial_size, params.key_range) {
            set.insert(&handle, key);
        }
    }

    let stop = AtomicBool::new(false);
    let start_barrier = Barrier::new(params.threads + 1);
    let reports = Mutex::new(Vec::with_capacity(params.threads));

    let (secs, samples) = std::thread::scope(|s| {
        let (stop, start_barrier, reports) = (&stop, &start_barrier, &reports);
        for (t, mut ops) in streams.into_iter().enumerate() {
            s.spawn(move || {
                let handle = scheme.register();
                let (model, workers) = (&params.load_model, params.threads);
                start_barrier.wait();
                let report = load::drive_worker(model, t, workers, stop, || {
                    match ops.next_op() {
                        Op::Contains(k) => set.contains(&handle, k),
                        Op::Insert(k) => set.insert(&handle, k),
                        Op::Remove(k) => set.remove(&handle, k),
                    };
                });
                reports.lock().expect("a worker panicked").push(report);
                // handle drops here: the thread unregisters before exit,
                // as the signal platform requires.
            });
        }

        start_barrier.wait();
        let t0 = Instant::now();
        let mut samples = Vec::with_capacity(OUTSTANDING_SAMPLES);
        for step in 1..=OUTSTANDING_SAMPLES as u32 {
            // Deadlines from `t0`, so the reads do not stretch the window.
            let due = t0 + params.duration * step / OUTSTANDING_SAMPLES as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            samples.push(scheme.outstanding());
        }
        stop.store(true, Ordering::Relaxed);
        // Taken the moment the flag flips: ops still in flight finish
        // outside the window and the per-op stop check keeps them few.
        (t0.elapsed().as_secs_f64(), samples)
    });

    let reports = reports.into_inner().expect("a worker panicked");
    (Aggregate::from_reports(reports), secs, samples)
}

/// Runs one experiment cell through the scheme and structure registries.
///
/// No (scheme × structure) dispatch happens here: [`SchemeKind::with`]
/// builds the concrete scheme `S` and runs the cell generic over it, with
/// `params.structure` built by [`StructureKind::build_set`] as an
/// `Arc<dyn ConcurrentSet<S>>`.
///
/// [`StructureKind::build_set`]: crate::params::StructureKind::build_set
pub fn run_combo(scheme: SchemeKind, params: &WorkloadParams) -> RunResult {
    scheme.with(params, Combo { scheme, params })
}

/// The body of [`run_combo`], generic over the scheme
/// [`SchemeKind::with`] built.
struct Combo<'a> {
    scheme: SchemeKind,
    params: &'a WorkloadParams,
}

impl SchemeFn for Combo<'_> {
    type Out = RunResult;

    fn call<S: HarnessScheme>(self, scheme: S) -> RunResult {
        let Combo {
            scheme: kind,
            params,
        } = self;
        let set = params.structure.build_set::<S>(params);
        let (agg, secs, outstanding_samples) = drive(&scheme, &*set, params);
        let secs = secs.max(1e-9);

        // The collector's counters are read *before* the quiesce: its
        // small drain phases would dilute the per-phase latency/sort
        // means, and the snapshot should describe the measured window.
        // After it, Leaky's count is intentional leakage and must not read
        // as a deficit, so it is reported as `leaked`, not
        // `outstanding_after`.
        let threadscan = scheme.collector_report();
        scheme.quiesce();
        let leaked = scheme.leaked();
        let outstanding_after = leaked.is_none().then(|| scheme.outstanding());

        RunResult {
            scheme: kind.label().to_string(),
            structure: params.structure.label().to_string(),
            threads: params.threads,
            update_pct: params.update_pct,
            key_dist: params.key_dist.label(),
            ts_buffer_capacity: params.ts_buffer_capacity,
            duration_s: secs,
            total_ops: agg.total_ops,
            ops_per_sec: agg.total_ops as f64 / secs,
            outstanding_after,
            outstanding_samples,
            leaked,
            protection_slots: scheme.register().protection_slots(),
            threadscan,
            bucket_count: set.bucket_count(),
            open_loop: agg.open_extras(&params.load_model),
            latency: agg.latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::StructureKind;
    use crate::registry::HARNESS_HAZARD_SLOTS;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;
    use ts_smr::{Leaky, LeakyHandle};
    use ts_structures::PriorityQueue;

    fn quick(structure: StructureKind, threads: usize) -> WorkloadParams {
        WorkloadParams::fig3(structure, threads)
            .scaled_down(64)
            .with_duration(Duration::from_millis(120))
    }

    /// The 50/50 insert/delete-min priority-queue ablation cell.
    fn quick_pq() -> WorkloadParams {
        let mut p = quick(StructureKind::Pq, 2).with_update_pct(100);
        p.initial_size = 256;
        p
    }

    /// Drives one injected set through the measurement loop under Leaky.
    fn drive_injected(set: &dyn ConcurrentSet<Leaky>, params: &WorkloadParams) -> (Aggregate, f64) {
        let (agg, secs, _) = drive(&Leaky::new(), set, params);
        (agg, secs)
    }

    /// A set whose every operation takes ~`OP_MS` ms: long enough that a
    /// batch of them straddles the stop flag by a wide margin.
    struct StallingSet;

    const OP_MS: u64 = 5;

    impl ConcurrentSet<Leaky> for StallingSet {
        fn contains(&self, _h: &LeakyHandle, _k: u64) -> bool {
            std::thread::sleep(Duration::from_millis(OP_MS));
            false
        }
        fn insert(&self, _h: &LeakyHandle, _k: u64) -> bool {
            std::thread::sleep(Duration::from_millis(OP_MS));
            true
        }
        fn remove(&self, _h: &LeakyHandle, _k: u64) -> bool {
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
        let mut params = quick(StructureKind::List, THREADS);
        params.initial_size = 0; // no prefill through the stalling set
        params.duration = Duration::from_millis(60);
        let (agg, secs) = drive_injected(&StallingSet, &params);
        let ops = agg.total_ops;
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
        let ts = r.threadscan.expect("threadscan stats present");
        assert!(
            ts.stats.collects > 0,
            "phases must run under oversubscription"
        );
        let [p50, p95, p99] = [0.50, 0.95, 0.99].map(|q| ts.collect_us(q).unwrap());
        assert!(p50 > 0.0, "histogram must populate percentiles");
        assert!(p50 <= p95 && p95 <= p99);
    }

    /// Also pins which scheme fills which report field: each comes from
    /// the scheme's own [`HarnessScheme`] impl, so exactly one scheme
    /// reports collector counters, one a leak count and one a slot budget.
    #[test]
    fn every_scheme_completes_on_the_list() {
        for scheme in SchemeKind::ALL {
            let r = run_combo(scheme, &quick(StructureKind::List, 3));
            assert!(r.total_ops > 0, "{:?} produced no ops", scheme);
            assert_eq!(r.structure, "list");
            assert_eq!(r.threads, 3);
            let (leaky, hazard) = (scheme == SchemeKind::Leaky, scheme == SchemeKind::Hazard);
            let threadscan = scheme == SchemeKind::ThreadScan;
            assert_eq!(r.threadscan.is_some(), threadscan, "{scheme:?}");
            assert_eq!(r.leaked.is_some(), leaky, "{scheme:?}");
            assert_eq!(r.outstanding_after.is_none(), leaky, "{scheme:?}");
            let slots = hazard.then_some(HARNESS_HAZARD_SLOTS);
            assert_eq!(r.protection_slots, slots, "{scheme:?}");
            assert_eq!(r.outstanding_samples.len(), OUTSTANDING_SAMPLES);
        }
    }

    #[test]
    fn every_structure_completes_under_threadscan() {
        for structure in StructureKind::ALL {
            let r = run_combo(SchemeKind::ThreadScan, &quick(structure, 3));
            assert!(r.total_ops > 0, "{:?} produced no ops", structure);
            let ts = r.threadscan.expect("threadscan stats present").stats;
            // With 20% updates and a scaled-down buffer the run may or may
            // not trigger a phase; the books must balance regardless.
            assert!(ts.freed <= ts.retired);
        }
    }

    #[test]
    fn threadscan_run_reclaims_with_small_buffers() {
        let mut p = quick(StructureKind::List, 4);
        p.ts_buffer_capacity = 64; // force frequent collects
        p.duration = Duration::from_millis(300);
        let r = run_combo(SchemeKind::ThreadScan, &p);
        let ts = r.threadscan.unwrap().stats;
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
        fn contains(&self, _h: &LeakyHandle, k: u64) -> bool {
            self.0.lock().unwrap().push(Op::Contains(k));
            false
        }
        fn insert(&self, _h: &LeakyHandle, k: u64) -> bool {
            self.0.lock().unwrap().push(Op::Insert(k));
            true
        }
        fn remove(&self, _h: &LeakyHandle, k: u64) -> bool {
            self.0.lock().unwrap().push(Op::Remove(k));
            false
        }
        fn kind(&self) -> &'static str {
            "recording"
        }
    }

    /// Pins [`LoadModel::Closed`](crate::load::LoadModel::Closed) to the
    /// pre-refactor runner observationally: a single worker must issue
    /// *exactly* the op stream of `OpMix::with_dist(0x51ED_1E55, ...)` (the
    /// documented per-worker seed), count every issued op, and take no
    /// per-op clocks (no latency, no open-loop extras).
    #[test]
    fn closed_model_is_observationally_the_pre_refactor_loop() {
        let set = RecordingSet(Mutex::new(Vec::new()));
        let mut params = quick(StructureKind::List, 1);
        params.initial_size = 0; // keep prefill out of the recording
        params.duration = Duration::from_millis(40);
        assert_eq!(params.load_model, crate::load::LoadModel::Closed);
        let (agg, _) = drive_injected(&set, &params);

        let recorded = set.0.lock().unwrap();
        assert_eq!(
            agg.total_ops as usize,
            recorded.len(),
            "every issued op is counted, none invented"
        );
        assert!(agg.total_ops > 0, "the worker must make progress");
        assert!(agg.latency.is_none(), "closed loop takes no clocks");
        assert!(
            agg.open_extras(&params.load_model).is_none(),
            "closed loop has no extras"
        );

        // Replay the documented stream: worker t seeds OpMix with
        // 0x51ED_1E55 ^ (t << 8), so worker 0 with 0x51ED_1E55 itself.
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
        assert_eq!(r.outstanding_samples.len(), OUTSTANDING_SAMPLES);
        let ol = r.open_loop.clone().expect("open model reports extras");
        assert_eq!(ol.model, "poisson(20000)");
        assert!(ol.sched_lag_mean_ns <= ol.sched_lag_max_ns as f64);
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

    /// Pins the row format: a ThreadScan row carries exactly the keys it
    /// always has and `structure` is the kind's label — downstream
    /// plotting reads these.
    #[test]
    fn result_row_keeps_its_json_keys() {
        #[track_caller]
        fn assert_keys<const N: usize>(v: &crate::json::Value, mut want: [&str; N]) {
            let crate::json::Value::Object(fields) = v else {
                panic!("not an object: {v:?}");
            };
            want.sort_unstable(); // parsed objects iterate in key order
            assert_eq!(fields.keys().map(String::as_str).collect::<Vec<_>>(), want);
        }
        let p = quick(StructureKind::Hash, 2)
            .with_load_model(crate::load::LoadModel::OpenPoisson { qps: 20_000.0 });
        let r = run_combo(SchemeKind::ThreadScan, &p);
        let json = r.to_json();
        let v = crate::json::parse(&json).expect("valid JSON");
        assert_keys(
            &v,
            [
                "scheme",
                "structure",
                "threads",
                "update_pct",
                "key_dist",
                "ts_buffer_capacity",
                "duration_s",
                "total_ops",
                "ops_per_sec",
                "outstanding_after",
                "outstanding_samples",
                "leaked",
                "protection_slots",
                "bucket_count",
                "latency",
                "open_loop",
                "threadscan",
            ],
        );
        assert_eq!(v.get("structure").as_str(), Some("hash"));
        assert_eq!(v.get("update_pct").as_f64(), Some(20.0));
        assert_eq!(v.get("key_dist").as_str(), Some("uniform"));
        assert_eq!(v.get("ts_buffer_capacity").as_f64(), Some(1024.0));
        let crate::json::Value::Array(samples) = v.get("outstanding_samples") else {
            panic!("outstanding_samples is not an array: {json}");
        };
        assert_eq!(samples.len(), OUTSTANDING_SAMPLES);
        assert_keys(
            v.get("threadscan"),
            [
                "collects",
                "words_scanned",
                "freed",
                "mailbox_frees",
                "alloc_frees",
                "alloc_misses",
                "overflow_frees",
                "survivors",
                "threads_scanned",
                "retired",
                "collects_skipped",
                "mark_hits",
                "collect_ns_total",
                "collect_ns_max",
                "sort_ns_total",
                "sort_ns_max",
                "mean_collect_us",
                "max_collect_us",
                "mean_sort_us",
                "collect_us_p50",
                "collect_us_p95",
                "collect_us_p99",
                "collect_ns_hist",
            ],
        );
        // Every counter the collector declares is in the block, as read.
        let st = r.threadscan.expect("a ThreadScan row").stats;
        for (name, value) in st.counters() {
            let key = v.get("threadscan").get(name).as_f64();
            assert_eq!(key, Some(value as f64), "{name}");
        }
        assert_keys(
            v.get("latency"),
            ["count", "p50_ns", "p99_ns", "p999_ns", "max_ns", "hist"],
        );
        assert_keys(
            v.get("open_loop"),
            [
                "model",
                "target_qps",
                "sched_lag_max_ns",
                "sched_lag_mean_ns",
            ],
        );
    }

    #[test]
    fn split_ordered_cell_reports_its_directory() {
        let r = run_combo(SchemeKind::Leaky, &quick(StructureKind::SplitOrdered, 2));
        let buckets = r.bucket_count.expect("split-ordered exports buckets");
        assert!(buckets >= 2);
        let v = crate::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(v.get("bucket_count").as_f64(), Some(buckets as f64));
        let hash = run_combo(SchemeKind::Leaky, &quick(StructureKind::Hash, 2));
        assert!(hash.bucket_count.is_none(), "only the split-ordered table");
    }

    /// A cell whose op stream cannot be built panics on the calling
    /// thread, before any worker exists: were the stream built inside a
    /// worker, the start barrier would wait for it forever.
    #[test]
    #[should_panic(expected = "theta must be in (0, 1)")]
    fn an_unbuildable_op_stream_panics_before_the_workers_start() {
        let p =
            quick(StructureKind::List, 2).with_key_dist(crate::dist::KeyDist::Zipf { theta: 1.5 });
        run_combo(SchemeKind::Leaky, &p);
    }

    #[test]
    fn every_scheme_completes_on_the_priority_queue() {
        for scheme in SchemeKind::ALL {
            let r = run_combo(scheme, &quick_pq());
            assert!(r.total_ops > 0, "{:?} produced no ops", scheme);
            assert_eq!(r.structure, "pq");
        }
    }

    #[test]
    fn delete_heavy_mix_reclaims_under_threadscan() {
        // Half of all ops are delete-mins and each retires a node: five
        // times the retire rate of the 20%-update set cells.
        let mut p = quick_pq();
        p.ts_buffer_capacity = 64;
        p.initial_size = 2_000;
        let r = run_combo(SchemeKind::ThreadScan, &p);
        assert!(r.threadscan.unwrap().stats.collects > 0);
        let outstanding = r.outstanding_after.unwrap();
        assert!(
            outstanding < 5_000,
            "outstanding {outstanding} after quiesce"
        );
    }

    /// Leaky's samples are its leak count as the window ran: they never
    /// decrease, and none exceeds the count after it.
    #[test]
    fn leaky_leaks_every_delete_min() {
        let r = run_combo(SchemeKind::Leaky, &quick_pq());
        let leaked = r.leaked.unwrap();
        assert!(leaked > 0, "delete_min must leak under Leaky");
        let samples = &r.outstanding_samples;
        assert!(samples.windows(2).all(|w| w[0] <= w[1]), "{samples:?}");
        assert!(samples.iter().all(|&n| n <= leaked), "{samples:?}");
    }

    /// The paper's §6 Slow-Epoch argument, in the samples of the list at
    /// 100 % updates: ThreadScan's unreclaimed nodes stay bounded by its
    /// delete buffers — at most two 256-entry buffers' worth per worker —
    /// while an errant thread lets slow-epoch's grow past them.
    #[test]
    fn threadscan_garbage_stays_bounded_while_slow_epochs_grows() {
        const THREADS: usize = 4;
        const CAPACITY: usize = 256;
        let p = WorkloadParams::fig3(StructureKind::List, THREADS)
            .with_update_pct(100)
            .with_ts_buffer(CAPACITY)
            .with_duration(Duration::from_millis(400));
        let max_sample = |scheme| {
            let r = run_combo(scheme, &p);
            r.outstanding_samples.into_iter().max().expect("samples")
        };
        let threadscan = max_sample(SchemeKind::ThreadScan);
        assert!(threadscan <= 2 * THREADS * CAPACITY, "{threadscan}");
        let slow_epoch = max_sample(SchemeKind::SlowEpoch);
        assert!(slow_epoch > threadscan, "{slow_epoch} vs {threadscan}");
    }

    /// The queue, counting the inserts it turns away and the pops that
    /// find it empty.
    struct CountingPq(PriorityQueue<Leaky>, AtomicUsize, AtomicUsize);

    impl ConcurrentSet<Leaky> for CountingPq {
        fn contains(&self, h: &LeakyHandle, k: u64) -> bool {
            self.0.contains(h, k)
        }
        fn insert(&self, h: &LeakyHandle, k: u64) -> bool {
            let fresh = self.0.insert(h, k);
            self.1.fetch_add(usize::from(!fresh), Ordering::Relaxed);
            fresh
        }
        fn remove(&self, h: &LeakyHandle, k: u64) -> bool {
            let popped = self.0.remove(h, k);
            self.2.fetch_add(usize::from(!popped), Ordering::Relaxed);
            popped
        }
        fn kind(&self) -> &'static str {
            self.0.kind()
        }
    }

    /// The `Pq` preset draws fresh priorities: started from its own
    /// prefill at the ablation's 50/50 insert/delete-min mix, no insert
    /// is rejected as a duplicate, so the queue random-walks around its
    /// resident size and no pop finds it empty. (A key range small enough
    /// to revisit rejects half the inserts from the first op on, and
    /// delete-min then drains the queue.)
    #[test]
    fn pq_preset_draws_fresh_priorities_and_never_pops_empty() {
        let params = WorkloadParams::fig3(StructureKind::Pq, 2)
            .with_update_pct(100)
            .with_duration(Duration::from_millis(200));
        let pq = CountingPq(
            PriorityQueue::new(),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let (agg, _) = drive_injected(&pq, &params);
        assert!(agg.total_ops > 1_000);
        assert_eq!(pq.1.load(Ordering::Relaxed), 0, "duplicate priorities");
        assert_eq!(
            pq.2.load(Ordering::Relaxed),
            0,
            "after {} ops",
            agg.total_ops
        );
    }
}
