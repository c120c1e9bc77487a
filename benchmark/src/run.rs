//! One measured run of one workload, inside a child process: build, prefill,
//! drive the workers through warm-up and the timed window, check the
//! outputs, report. A fresh process per run keeps the process-global signal
//! handler and counters from leaking between runs and makes `VmHWM` mean
//! "this run".

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use threadscan::{CollectorConfig, StatsSnapshot};
use ts_sigscan::SignalPlatform;
use ts_smr::{Leaky, Smr, ThreadScanSmr};
use ts_structures::{ConcurrentSet, HarrisList, LockFreeHashTable};

use crate::gen::{derive_seed, Arrivals, OpKind, OpStream, Rng, OP_NAMES};
use crate::hist::Hist;
use crate::report::{Json, Measured};
use crate::spec::{Structure, Workload, SERVICE_LIMIT_NS, STALL_NS};

pub type ThreadScan = ThreadScanSmr<SignalPlatform>;

/// The paper's stock configuration; the benchmark sets no other knob.
pub fn threadscan() -> ThreadScan {
    let platform = SignalPlatform::new().expect("install the ThreadScan signal handler");
    ThreadScanSmr::with_config(
        platform,
        CollectorConfig::default().with_buffer_capacity(1024),
    )
}

pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

pub struct RunArgs {
    pub seed: u64,
    pub warmup: Duration,
    pub window: Duration,
    pub leaky: bool,
    /// Time every op and keep spans; otherwise time one op in 32.
    pub traced: bool,
    pub trace_out: Option<std::path::PathBuf>,
}

pub trait Scheme: Smr {
    fn collector_stats(&self) -> Option<StatsSnapshot>;
}

impl Scheme for ThreadScan {
    fn collector_stats(&self) -> Option<StatsSnapshot> {
        Some(self.stats())
    }
}

impl Scheme for Leaky {
    fn collector_stats(&self) -> Option<StatsSnapshot> {
        None
    }
}

pub trait BenchSet<S: Smr>: ConcurrentSet<S> {
    fn len_sequential(&self) -> usize;
}

impl<S: Smr> BenchSet<S> for LockFreeHashTable<S> {
    fn len_sequential(&self) -> usize {
        LockFreeHashTable::len_sequential(self)
    }
}

impl<S: Smr> BenchSet<S> for HarrisList<S> {
    fn len_sequential(&self) -> usize {
        HarrisList::len_sequential(self)
    }
}

fn hash<S: Smr>(w: &Workload) -> LockFreeHashTable<S> {
    LockFreeHashTable::for_expected_nodes(w.resident)
}

fn list<S: Smr>(_: &Workload) -> HarrisList<S> {
    HarrisList::new()
}

pub fn run(w: &Workload, args: &RunArgs) -> Result<Measured, String> {
    match (args.leaky, w.structure) {
        (false, Structure::Hash) => drive(w, args, threadscan, hash),
        (false, Structure::List) => drive(w, args, threadscan, list),
        (true, Structure::Hash) => drive(w, args, Leaky::new, hash),
        (true, Structure::List) => drive(w, args, Leaky::new, list),
    }
}

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

/// Untraced runs time one op in `SAMPLE_EVERY`, which keeps the two clock
/// reads under 2 % of a 100 ns op.
const SAMPLE_EVERY: u64 = 32;
const MAX_SPANS_PER_WORKER: usize = 200_000;

struct Span {
    kind: OpKind,
    start_ns: u64,
    end_ns: u64,
}

/// What a worker counted between MEASURE and STOP.
struct Window {
    ops: u64,
    /// Time from start to completion of each timed op, per kind.
    service: [Hist; 3],
    /// Open loop only: intended arrival to completion.
    latency: Hist,
    timed_ops: u64,
    stall_ops: u64,
    stall_ns: u64,
    over_limit: u64,
    lag_max_ns: u64,
    started_ns: u64,
    spans: Vec<Span>,
}

impl Window {
    fn new(started_ns: u64) -> Self {
        Self {
            ops: 0,
            service: std::array::from_fn(|_| Hist::new()),
            latency: Hist::new(),
            timed_ops: 0,
            stall_ops: 0,
            stall_ns: 0,
            over_limit: 0,
            lag_max_ns: 0,
            started_ns,
            spans: Vec::new(),
        }
    }
}

struct WorkerOut {
    window: Window,
    ended_ns: u64,
    /// Successful inserts minus successful removes since the thread
    /// started, warm-up included: what the final set size must reflect.
    net_inserted: i64,
}

struct WorkerCtx<'a> {
    phase: &'a AtomicU8,
    epoch: Instant,
    ops: OpStream,
    arrivals: Option<Arrivals>,
    traced: bool,
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn worker<S: Smr, T: ConcurrentSet<S>>(
    set: &T,
    handle: &S::Handle,
    mut ctx: WorkerCtx<'_>,
) -> WorkerOut {
    let epoch = ctx.epoch;
    let base_ns = now_ns(epoch);
    let sample_mask = if ctx.traced { 0 } else { SAMPLE_EVERY - 1 };
    let mut phase = WARMUP;
    let mut win = Window::new(base_ns);
    let mut net_inserted = 0i64;
    let mut n = 0u64;
    'run: loop {
        // Open loop: wait for the next intended arrival, however late the
        // previous op finished; a backlog is worked off back to back.
        let mut due = None;
        if let Some(arrivals) = ctx.arrivals.as_mut() {
            let due_ns = base_ns + arrivals.next_ns();
            loop {
                let now = now_ns(epoch);
                if now >= due_ns {
                    due = Some((due_ns, now));
                    break;
                }
                if ctx.phase.load(Ordering::Relaxed) == STOP {
                    break 'run;
                }
                std::hint::spin_loop();
            }
        }
        let seen = ctx.phase.load(Ordering::Relaxed);
        if seen != phase {
            if seen == STOP {
                break;
            }
            phase = seen;
            win = Window::new(now_ns(epoch));
        }

        let (kind, key) = ctx.ops.next_op();
        let timed = due.is_some() || n & sample_mask == 0;
        let start_ns = match due {
            Some((_, now)) => now,
            None if timed => now_ns(epoch),
            None => 0,
        };
        let changed = match kind {
            OpKind::Contains => {
                std::hint::black_box(set.contains(handle, key));
                0
            }
            OpKind::Insert => set.insert(handle, key) as i64,
            OpKind::Remove => -(set.remove(handle, key) as i64),
        };
        net_inserted += changed;
        win.ops += 1;
        n += 1;
        if timed {
            let end_ns = now_ns(epoch);
            let service = end_ns - start_ns;
            win.service[kind as usize].record(service);
            win.timed_ops += 1;
            if service > STALL_NS {
                win.stall_ops += 1;
                win.stall_ns += service;
                if ctx.traced && win.spans.len() < MAX_SPANS_PER_WORKER {
                    win.spans.push(Span {
                        kind,
                        start_ns,
                        end_ns,
                    });
                }
            }
            if let Some((due_ns, _)) = due {
                let latency = end_ns - due_ns;
                win.latency.record(latency);
                win.lag_max_ns = win.lag_max_ns.max(start_ns - due_ns);
                win.over_limit += (latency > SERVICE_LIMIT_NS) as u64;
            }
        }
    }
    WorkerOut {
        window: win,
        ended_ns: now_ns(epoch),
        net_inserted,
    }
}

fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn drive<S: Scheme, T: BenchSet<S>>(
    w: &Workload,
    args: &RunArgs,
    make_scheme: impl FnOnce() -> S,
    make_set: impl FnOnce(&Workload) -> T,
) -> Result<Measured, String> {
    let workers = workers();
    let setup_started = Instant::now();
    let scheme = make_scheme();
    let set = make_set(w);
    {
        let handle = scheme.register();
        let mut keys = Rng::new(derive_seed(args.seed, 0));
        let mut resident = 0;
        while resident < w.resident {
            resident += set.insert(&handle, keys.below(w.key_range())) as usize;
        }
    }
    let phase = AtomicU8::new(WARMUP);
    let start = Barrier::new(workers + 1);
    let epoch = Instant::now();

    let (setup_s, window_s, unreclaimed_mean, delta, outs) = std::thread::scope(|s| {
        let threads: Vec<_> = (0..workers)
            .map(|i| {
                let ctx = WorkerCtx {
                    phase: &phase,
                    epoch,
                    ops: OpStream::new(
                        derive_seed(args.seed, 1 + i as u64),
                        w.key_range(),
                        w.update_pct,
                    ),
                    arrivals: w
                        .arrivals_per_worker
                        .map(|rate| Arrivals::new(derive_seed(args.seed, 1001 + i as u64), rate)),
                    traced: args.traced,
                };
                let (scheme, set, start) = (&scheme, &set, &start);
                s.spawn(move || {
                    let handle = scheme.register();
                    start.wait();
                    worker::<S, T>(set, &handle, ctx)
                })
            })
            .collect();
        start.wait();
        let setup_s = setup_started.elapsed().as_secs_f64();

        // From here the main thread only sleeps and samples.
        std::thread::sleep(args.warmup);
        let before = scheme.collector_stats();
        phase.store(MEASURE, Ordering::Relaxed);
        let began = Instant::now();
        let (mut last, mut node_seconds) = (began, 0.0);
        while last.duration_since(began) < args.window {
            std::thread::sleep(Duration::from_millis(1));
            let now = Instant::now();
            node_seconds += scheme.outstanding() as f64 * (now - last).as_secs_f64();
            last = now;
        }
        phase.store(STOP, Ordering::Relaxed);
        let window_s = began.elapsed().as_secs_f64();
        let delta = before.zip(scheme.collector_stats());
        let outs: Vec<WorkerOut> = threads
            .into_iter()
            .map(|t| t.join().expect("worker panicked"))
            .collect();
        (setup_s, window_s, node_seconds / window_s, delta, outs)
    });

    // Every worker has dropped its handle, so nothing can pin a node now.
    scheme.quiesce();
    let outstanding = scheme.outstanding();
    let expected_len = w.resident as i64 + outs.iter().map(|o| o.net_inserted).sum::<i64>();
    let len = set.len_sequential() as i64;
    if len != expected_len {
        return Err(format!(
            "set size {len} after the run, but prefill + inserts - removes = {expected_len}"
        ));
    }
    if let Some(after) = scheme.collector_stats() {
        if outstanding > 64 * workers {
            return Err(format!(
                "{outstanding} nodes still unreclaimed after quiesce()"
            ));
        }
        if after.freed == 0 {
            return Err("ThreadScan freed nothing".into());
        }
    }

    let mut m = Measured::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    let ops: u64 = outs.iter().map(|o| o.window.ops).sum();
    // Each worker's own window, so a late STOP sighting does not inflate the rate.
    let ops_per_s: f64 = outs
        .iter()
        .map(|o| o.window.ops as f64 / ((o.ended_ns - o.window.started_ns) as f64 / 1e9))
        .sum();
    let mut service: [Hist; 3] = std::array::from_fn(|_| Hist::new());
    let mut latency = Hist::new();
    for o in &outs {
        for (all, one) in service.iter_mut().zip(&o.window.service) {
            all.merge(one);
            if w.arrivals_per_worker.is_none() {
                latency.merge(one);
            }
        }
        latency.merge(&o.window.latency);
    }
    put("ops_per_s", ops_per_s);
    put("attempted", ops as f64);
    put(
        "failed",
        outs.iter().map(|o| o.window.over_limit).sum::<u64>() as f64,
    );
    put("latency_samples", latency.count() as f64);
    put(
        "op_p50_us",
        latency.quantile(0.5).ok_or("no op was timed")? / 1e3,
    );
    put(
        "op_p99_us",
        latency.quantile(0.99).ok_or("no op was timed")? / 1e3,
    );
    put("unreclaimed_mean_nodes", unreclaimed_mean);
    put("setup_s", setup_s);
    put("service.achieved_rate", ops_per_s);
    let lag_max = outs.iter().map(|o| o.window.lag_max_ns).max().unwrap_or(0);
    put("service.sched_lag_max_us", lag_max as f64 / 1e3);

    let timed_ops: u64 = outs.iter().map(|o| o.window.timed_ops).sum();
    let stall_ops: u64 = outs.iter().map(|o| o.window.stall_ops).sum();
    let stall_ns: u64 = outs.iter().map(|o| o.window.stall_ns).sum();
    let worker_ns: u64 = outs.iter().map(|o| o.ended_ns - o.window.started_ns).sum();
    for (name, hist) in OP_NAMES.iter().zip(&service) {
        put(
            &format!("structures.{name}_ns_p50"),
            hist.quantile(0.5).unwrap_or(0.0),
        );
    }
    put(
        "core.stall_ops_share",
        stall_ops as f64 / timed_ops.max(1) as f64,
    );
    // Meaningful only when every op is timed, i.e. in a traced run.
    put("core.stall_time_share", stall_ns as f64 / worker_ns as f64);

    if let Some((before, after)) = delta {
        let collects = (after.collects - before.collects) as f64;
        let per_collect = |total: usize| {
            if collects > 0.0 {
                total as f64 / collects
            } else {
                0.0
            }
        };
        let collect_ns = after.collect_ns_total - before.collect_ns_total;
        let freed = after.freed - before.freed;
        let survivors = after.survivors - before.survivors;
        put("core.collects_per_s", collects / window_s);
        put("core.collect_us_mean", per_collect(collect_ns) / 1e3);
        put(
            "core.collect_time_share",
            collect_ns as f64 / 1e9 / (window_s * workers as f64),
        );
        put(
            "core.retired_per_collect",
            per_collect(after.retired - before.retired),
        );
        put(
            "core.words_per_collect",
            per_collect(after.words_scanned - before.words_scanned),
        );
        put(
            "core.survivor_ratio",
            survivors as f64 / (freed + survivors).max(1) as f64,
        );
    }

    if let Some(path) = &args.trace_out {
        write_trace(path, w, epoch, window_s, &outs, &service)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    put("rss_peak_mb", rss_peak_mb()?);
    Ok(m)
}

/// Spans as `{id, name, thread, start_ns, end_ns, parent}`: the run, each
/// worker's timed window under it, and under each worker the ops that hit
/// a collect. Shorter ops are folded into the per-kind summaries. A span's
/// self time is its length minus its children's.
fn write_trace(
    path: &std::path::Path,
    w: &Workload,
    epoch: Instant,
    window_s: f64,
    outs: &[WorkerOut],
    service: &[Hist; 3],
) -> std::io::Result<()> {
    let span =
        |id: usize, name: &str, thread: &str, start: u64, end: u64, parent: Option<usize>| {
            let mut fields = vec![
                ("id", Json::Int(id as u64)),
                ("name", Json::str(name)),
                ("thread", Json::str(thread)),
                ("start_ns", Json::Int(start)),
                ("end_ns", Json::Int(end)),
            ];
            fields.extend(parent.map(|p| ("parent", Json::Int(p as u64))));
            Json::obj(fields)
        };
    let run_start = outs.iter().map(|o| o.window.started_ns).min().unwrap_or(0);
    let mut spans = vec![span(0, "run", "main", run_start, now_ns(epoch), None)];
    let mut next_id = 1 + outs.len();
    for (i, o) in outs.iter().enumerate() {
        let (worker_id, thread) = (1 + i, format!("worker-{i}"));
        let (start, end) = (o.window.started_ns, o.ended_ns);
        spans.push(span(
            worker_id,
            "worker.window",
            &thread,
            start,
            end,
            Some(0),
        ));
        for s in &o.window.spans {
            let name = format!("structures.{}", OP_NAMES[s.kind as usize]);
            spans.push(span(
                next_id,
                &name,
                &thread,
                s.start_ns,
                s.end_ns,
                Some(worker_id),
            ));
            next_id += 1;
        }
    }
    let folded = OP_NAMES.iter().zip(service).map(|(name, hist)| {
        let q = |q| Json::Num(hist.quantile(q).unwrap_or(0.0));
        (
            format!("structures.{name}"),
            Json::obj([
                ("count", Json::Int(hist.count())),
                ("p50_ns", q(0.5)),
                ("p99_ns", q(0.99)),
            ]),
        )
    });
    let doc = Json::obj([
        ("workload", Json::str(w.name)),
        ("window_s", Json::Num(window_s)),
        ("stall_threshold_ns", Json::Int(STALL_NS)),
        ("folded", Json::obj(folded)),
        ("spans", Json::Arr(spans)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("{doc}\n"))
}
