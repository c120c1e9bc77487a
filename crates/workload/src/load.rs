//! The load-generation layer: how operations *arrive* at the workers.
//!
//! Every pre-refactor benchmark was a closed loop — each worker issues
//! the next operation the instant the previous one returns — so the
//! offered load always equals the achieved throughput and a slow
//! operation silently delays every later one. That shape cannot observe
//! *coordinated omission*: the latency a production request would see
//! while reclamation (or anything else) stalls a worker.
//!
//! [`LoadModel`] makes the arrival process pluggable:
//!
//! * [`LoadModel::Closed`] — today's behavior, bit-for-bit: no schedule,
//!   no per-op timing, issue as fast as the structure allows.
//! * [`LoadModel::OpenPoisson`] — arrivals follow a Poisson process at a
//!   target aggregate QPS, split evenly across workers (the
//!   superposition of independent per-worker Poisson processes is itself
//!   Poisson, so per-worker generation needs no coordination).
//!
//! Under the open model every operation has an **intended arrival time**
//! from a deterministic per-worker [`ArrivalSchedule`], and latency is
//! measured **from intended arrival to completion** — a worker running
//! behind schedule bills its backlog to every queued request, exactly as
//! a user would experience it (the coordinated-omission-correct
//! measurement). Every arrival is served, however late.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use threadscan::Hist;
use ts_choose::Rng;

use crate::json::{object, Value};

/// How operations arrive at the workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadModel {
    /// Closed loop: issue back-to-back, no arrival schedule, no per-op
    /// latency (the pre-refactor runner, preserved observationally
    /// bit-for-bit).
    Closed,
    /// Open loop, Poisson arrivals at `qps` operations/second aggregate
    /// across all workers.
    OpenPoisson {
        /// Target aggregate arrival rate, operations per second.
        qps: f64,
    },
}

impl LoadModel {
    /// Harness label for reports: `closed` or `poisson(50000)`.
    pub fn label(&self) -> String {
        match *self {
            Self::Closed => "closed".to_string(),
            Self::OpenPoisson { qps } => format!("poisson({qps})"),
        }
    }

    /// Whether this model schedules arrivals (and therefore measures
    /// per-operation latency).
    pub fn is_open(&self) -> bool {
        !matches!(self, Self::Closed)
    }

    /// The target aggregate arrival rate; `None` for the closed loop.
    pub fn target_qps(&self) -> Option<f64> {
        match *self {
            Self::Closed => None,
            Self::OpenPoisson { qps } => Some(qps),
        }
    }

    /// Panics early (at run setup, not mid-measurement) on nonsensical
    /// parameters.
    pub fn validate(&self) {
        match *self {
            Self::Closed => {}
            Self::OpenPoisson { qps } => {
                assert!(qps.is_finite() && qps > 0.0, "poisson qps must be > 0");
            }
        }
    }
}

/// Deterministic per-worker stream of intended arrival times.
///
/// Yields monotonically non-decreasing nanosecond offsets from the
/// worker's window start. Two schedules built with the same `(model,
/// seed, worker, workers)` yield identical streams.
#[derive(Debug, Clone)]
pub struct ArrivalSchedule {
    rng: Rng,
    /// Exponential inter-arrival rate, events per nanosecond.
    rate_per_ns: f64,
    /// Accumulated process time, ns.
    t: f64,
}

impl ArrivalSchedule {
    /// The schedule for `worker` of `workers` under `model`; `None` for
    /// the closed loop, which has no schedule. The aggregate rate is
    /// split evenly across workers, each seeded independently from
    /// `seed`.
    pub fn for_worker(
        model: &LoadModel,
        seed: u64,
        worker: usize,
        workers: usize,
    ) -> Option<ArrivalSchedule> {
        model.validate();
        assert!(workers >= 1, "need at least one worker");
        let worker_seed = seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let qps = model.target_qps()?;
        Some(ArrivalSchedule {
            rng: Rng::seeded(worker_seed),
            rate_per_ns: qps / workers as f64 / 1e9,
            t: 0.0,
        })
    }

    /// The next intended arrival, as a nanosecond offset from the
    /// window start.
    pub fn next_ns(&mut self) -> u64 {
        // Exponential inter-arrival: -ln(U)/rate with U in (0, 1].
        let u = 1.0 - self.rng.unit();
        self.t += -u.ln() / self.rate_per_ns;
        self.t as u64
    }
}

/// One worker's share of a measured window, merged across workers by
/// [`Aggregate::from_reports`].
#[derive(Debug)]
pub(crate) struct WorkerReport {
    /// Completed operations; under the open model also the arrivals that
    /// fell inside the window, each of which is served.
    pub ops: u64,
    /// Intended-arrival-to-completion latency (open model only; empty
    /// under `Closed`).
    pub hist: Hist,
    /// Worst single-op latency, ns (open model only).
    pub max_ns: u64,
    /// Worst observed scheduling lag (service start minus intended
    /// arrival), ns.
    pub lag_max_ns: u64,
    /// Sum of observed lags, one per op, for the mean.
    pub lag_sum_ns: u64,
}

/// Sleep granularity guards for the arrival wait loop: sleep for long
/// waits (capped so the stop flag is re-checked), yield for medium ones,
/// spin the last few microseconds for arrival precision.
const SLEEP_FLOOR_NS: u64 = 300_000;
const SLEEP_SLACK_NS: u64 = 200_000;
const SLEEP_CAP_NS: u64 = 1_000_000;
const YIELD_FLOOR_NS: u64 = 5_000;

/// The seed every worker's [`ArrivalSchedule`] derives from: one fixed
/// seed, so a load model offers the same trace on every run.
const ARRIVAL_SEED: u64 = 0xA441_7A1E;

/// Drives one worker for the measured window: the load-generation layer
/// under the runner's measurement loop.
///
/// `do_op` executes one operation. Under [`LoadModel::Closed`] this is
/// exactly the pre-refactor tight loop — a per-op relaxed stop check
/// around `do_op`, no clocks, no schedule. Under the open model each op
/// waits for its intended arrival from the worker's [`ArrivalSchedule`]
/// and latency is recorded from that intended arrival to completion.
pub(crate) fn drive_worker(
    model: &LoadModel,
    worker: usize,
    workers: usize,
    stop: &AtomicBool,
    mut do_op: impl FnMut(),
) -> WorkerReport {
    let mut report = WorkerReport {
        ops: 0,
        hist: Hist::new(),
        max_ns: 0,
        lag_max_ns: 0,
        lag_sum_ns: 0,
    };

    let Some(mut schedule) = ArrivalSchedule::for_worker(model, ARRIVAL_SEED, worker, workers)
    else {
        // Closed loop: the pre-refactor measurement loop, preserved
        // observationally — per-op stop check (see the runner's
        // post-stop regression note), no timing instrumentation, no
        // atomics beyond the stop flag.
        while !stop.load(Ordering::Relaxed) {
            do_op();
            report.ops += 1;
        }
        return report;
    };

    // Each worker keeps its own epoch, taken right after the start
    // barrier releases it: intended arrivals and completions are
    // compared on the same clock, and cross-worker skew (microseconds
    // of barrier wake-up spread) never enters any latency.
    let epoch = Instant::now();
    'window: while !stop.load(Ordering::Relaxed) {
        let intended = schedule.next_ns();
        // Wait for the intended arrival (if we are not already late).
        loop {
            if stop.load(Ordering::Relaxed) {
                break 'window;
            }
            let now = epoch.elapsed().as_nanos() as u64;
            if now >= intended {
                break;
            }
            let wait = intended - now;
            if wait > SLEEP_FLOOR_NS {
                std::thread::sleep(Duration::from_nanos(
                    (wait - SLEEP_SLACK_NS).min(SLEEP_CAP_NS),
                ));
            } else if wait > YIELD_FLOOR_NS {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let lag = (epoch.elapsed().as_nanos() as u64).saturating_sub(intended);
        report.lag_max_ns = report.lag_max_ns.max(lag);
        report.lag_sum_ns = report.lag_sum_ns.saturating_add(lag);
        do_op();
        let latency = (epoch.elapsed().as_nanos() as u64).saturating_sub(intended);
        report.hist.record(latency);
        report.max_ns = report.max_ns.max(latency);
        report.ops += 1;
    }
    report
}

/// Per-operation latency summary: the tail the open-loop harness exists
/// to measure. Percentiles come from the shared log-linear histogram
/// ([`threadscan::hist`]), interpolated inside buckets at most 3.1 % wide.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Operations with a recorded latency.
    pub count: u64,
    /// Median intended-arrival-to-completion latency, ns.
    pub p50_ns: f64,
    /// 99th percentile latency, ns.
    pub p99_ns: f64,
    /// 99.9th percentile latency, ns.
    pub p999_ns: f64,
    /// Worst single operation, ns (exact, not bucketed).
    pub max_ns: u64,
    /// The histogram itself, mergeable across runs.
    pub hist: Hist,
}

impl LatencySummary {
    /// Summarizes a histogram; `None` when nothing was recorded.
    pub fn from_hist(hist: Hist, max_ns: u64) -> Option<Self> {
        Some(Self {
            count: hist.count(),
            p50_ns: hist.quantile(0.50)?,
            p99_ns: hist.quantile(0.99)?,
            p999_ns: hist.quantile(0.999)?,
            max_ns,
            hist,
        })
    }

    /// The `latency` block of a result row (see [`crate::json`]).
    pub fn to_json(&self) -> Value {
        object([
            ("count", self.count.into()),
            ("p50_ns", self.p50_ns.into()),
            ("p99_ns", self.p99_ns.into()),
            ("p999_ns", self.p999_ns.into()),
            ("max_ns", self.max_ns.into()),
            ("hist", (&self.hist).into()),
        ])
    }
}

/// Open-loop bookkeeping attached to a run: the offered rate and how far
/// workers fell behind their schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopExtras {
    /// The load model's label ([`LoadModel::label`]).
    pub model: String,
    /// Target aggregate arrival rate, ops/second.
    pub target_qps: f64,
    /// Worst observed scheduling lag across workers, ns — how far the
    /// most backlogged worker ran behind its arrival schedule.
    pub sched_lag_max_ns: u64,
    /// Mean scheduling lag over all arrivals, ns.
    pub sched_lag_mean_ns: f64,
}

impl OpenLoopExtras {
    /// The `open_loop` block of a result row (see [`crate::json`]).
    pub fn to_json(&self) -> Value {
        object([
            ("model", self.model.as_str().into()),
            ("target_qps", self.target_qps.into()),
            ("sched_lag_max_ns", self.sched_lag_max_ns.into()),
            ("sched_lag_mean_ns", self.sched_lag_mean_ns.into()),
        ])
    }
}

/// All workers' reports folded together.
#[derive(Debug)]
pub(crate) struct Aggregate {
    /// Completed ops.
    pub total_ops: u64,
    /// Per-op latency (open model; `None` when no op completed).
    pub latency: Option<LatencySummary>,
    lag_max_ns: u64,
    lag_sum_ns: u64,
}

impl Aggregate {
    /// Merges per-worker reports.
    pub fn from_reports(reports: Vec<WorkerReport>) -> Self {
        let mut total_ops = 0u64;
        let mut hist = Hist::new();
        let mut max_ns = 0u64;
        let mut lag_max_ns = 0u64;
        let mut lag_sum_ns = 0u64;
        for r in &reports {
            total_ops += r.ops;
            hist.merge(&r.hist);
            max_ns = max_ns.max(r.max_ns);
            lag_max_ns = lag_max_ns.max(r.lag_max_ns);
            lag_sum_ns = lag_sum_ns.saturating_add(r.lag_sum_ns);
        }
        Self {
            total_ops,
            latency: LatencySummary::from_hist(hist, max_ns),
            lag_max_ns,
            lag_sum_ns,
        }
    }

    /// The open-loop extras block; `None` for the closed model.
    pub fn open_extras(&self, model: &LoadModel) -> Option<OpenLoopExtras> {
        let target_qps = model.target_qps()?;
        Some(OpenLoopExtras {
            model: model.label(),
            target_qps,
            sched_lag_max_ns: self.lag_max_ns,
            // One lag per served arrival, and every arrival is served.
            sched_lag_mean_ns: if self.total_ops == 0 {
                0.0
            } else {
                self.lag_sum_ns as f64 / self.total_ops as f64
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_arrivals(
        model: &LoadModel,
        seed: u64,
        worker: usize,
        workers: usize,
        n: usize,
    ) -> Vec<u64> {
        let mut s = ArrivalSchedule::for_worker(model, seed, worker, workers).expect("open model");
        (0..n).map(|_| s.next_ns()).collect()
    }

    #[test]
    fn closed_model_has_no_schedule() {
        assert!(ArrivalSchedule::for_worker(&LoadModel::Closed, 1, 0, 4).is_none());
        assert!(!LoadModel::Closed.is_open());
        assert_eq!(LoadModel::Closed.target_qps(), None);
    }

    #[test]
    fn poisson_interarrival_mean_tracks_one_over_qps() {
        // One worker of four at 1M QPS aggregate: per-worker rate
        // 250k/s, mean inter-arrival 4000 ns.
        let model = LoadModel::OpenPoisson { qps: 1_000_000.0 };
        let n = 200_000;
        let a = collect_arrivals(&model, 0xA11CE, 1, 4, n);
        let mean = a[n - 1] as f64 / (n - 1) as f64;
        let expect = 4_000.0;
        assert!(
            (mean - expect).abs() / expect < 0.02,
            "mean inter-arrival {mean:.1} ns vs expected {expect} ns"
        );
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
    }

    #[test]
    fn schedules_are_deterministic_per_seed_and_worker() {
        let model = LoadModel::OpenPoisson { qps: 10_000.0 };
        let a = collect_arrivals(&model, 42, 2, 8, 1000);
        let b = collect_arrivals(&model, 42, 2, 8, 1000);
        assert_eq!(a, b, "same (seed, worker) must replay identically");
        let c = collect_arrivals(&model, 42, 3, 8, 1000);
        assert_ne!(a, c, "distinct workers draw distinct streams");
        let d = collect_arrivals(&model, 43, 2, 8, 1000);
        assert_ne!(a, d, "distinct seeds draw distinct streams");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(LoadModel::Closed.label(), "closed");
        assert_eq!(
            LoadModel::OpenPoisson { qps: 50_000.0 }.label(),
            "poisson(50000)"
        );
    }

    #[test]
    #[should_panic(expected = "qps must be > 0")]
    fn zero_qps_is_rejected() {
        LoadModel::OpenPoisson { qps: 0.0 }.validate();
    }

    #[test]
    fn drive_worker_closed_counts_every_op_and_records_no_latency() {
        let stop = AtomicBool::new(false);
        let mut n = 0u64;
        let report = drive_worker(&LoadModel::Closed, 0, 1, &stop, || {
            n += 1;
            if n >= 1000 {
                stop.store(true, Ordering::Relaxed);
            }
        });
        assert_eq!(report.ops, 1000);
        assert!(report.hist.is_empty(), "closed loop takes no clocks");
        assert_eq!(report.lag_sum_ns, 0);
    }

    #[test]
    fn drive_worker_open_measures_latency_and_lag() {
        let stop = AtomicBool::new(false);
        let mut n = 0u64;
        // 100k QPS on one worker: ~10 µs apart, a 300 ms window would be
        // far too long — stop after 200 ops instead.
        let model = LoadModel::OpenPoisson { qps: 100_000.0 };
        let report = drive_worker(&model, 0, 1, &stop, || {
            n += 1;
            if n >= 200 {
                stop.store(true, Ordering::Relaxed);
            }
        });
        assert_eq!(report.ops, 200);
        assert_eq!(report.hist.count(), 200);
        assert!(report.max_ns > 0, "completions take nonzero time");
        assert!(report.lag_sum_ns <= 200 * report.lag_max_ns);
    }

    #[test]
    fn aggregate_merges_reports_and_builds_extras() {
        let mut h0 = Hist::new();
        h0.record(1_000);
        h0.record(2_000);
        let mut h1 = Hist::new();
        h1.record(3_000);
        h1.record(1_000_000);
        let reports = vec![
            WorkerReport {
                ops: 2,
                hist: h0,
                max_ns: 2_000,
                lag_max_ns: 50,
                lag_sum_ns: 60,
            },
            WorkerReport {
                ops: 2,
                hist: h1,
                max_ns: 1_000_000,
                lag_max_ns: 900,
                lag_sum_ns: 940,
            },
        ];
        let agg = Aggregate::from_reports(reports);
        assert_eq!(agg.total_ops, 4);
        let lat = agg.latency.as_ref().expect("latency recorded");
        assert_eq!(lat.count, 4);
        assert_eq!(lat.max_ns, 1_000_000);
        assert!(lat.p50_ns <= lat.p99_ns && lat.p99_ns <= lat.p999_ns);
        let extras = agg
            .open_extras(&LoadModel::OpenPoisson { qps: 123.0 })
            .expect("open model has extras");
        assert_eq!(extras.sched_lag_max_ns, 900);
        assert!((extras.sched_lag_mean_ns - 250.0).abs() < 1e-9);
        assert!(agg.open_extras(&LoadModel::Closed).is_none());
    }

    #[test]
    fn empty_latency_summary_is_none() {
        assert!(LatencySummary::from_hist(Hist::new(), 0).is_none());
    }
}
