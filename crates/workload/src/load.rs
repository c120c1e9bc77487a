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
//! * [`LoadModel::OpenBursty`] — a duty-cycled Poisson process: within
//!   each `burst` period, arrivals land only in the first `duty`
//!   fraction, at rate `qps / duty`, so the long-run average is still
//!   `qps` but load comes in square-wave bursts.
//!
//! Under an open model every operation has an **intended arrival time**
//! from a deterministic per-worker [`ArrivalSchedule`], and latency is
//! measured **from intended arrival to completion** — a worker running
//! behind schedule bills its backlog to every queued request, exactly as
//! a user would experience it (the coordinated-omission-correct
//! measurement). [`BacklogPolicy`] bounds that backlog: `Queue` serves
//! every arrival eventually, `DropAfter` sheds arrivals observed more
//! than a threshold behind schedule, counting them as drops the way a
//! deadline-bound service would.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use threadscan::hist::Hist;

use crate::json::ObjectBuilder;

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
    /// Open loop, duty-cycled (bursty) Poisson arrivals: each `burst`
    /// period delivers its share of `qps` compressed into the first
    /// `duty` fraction of the period.
    OpenBursty {
        /// Target aggregate arrival rate, operations per second
        /// (long-run average; the in-burst rate is `qps / duty`).
        qps: f64,
        /// Burst period length.
        burst: Duration,
        /// Fraction of each period during which arrivals land, in
        /// `(0, 1]` (`1.0` degenerates to plain Poisson).
        duty: f64,
    },
}

impl LoadModel {
    /// Harness label for reports, e.g. `closed`, `poisson(50000)`,
    /// `bursty(50000,10ms,0.25)`.
    pub fn label(&self) -> String {
        match *self {
            Self::Closed => "closed".to_string(),
            Self::OpenPoisson { qps } => format!("poisson({qps})"),
            Self::OpenBursty { qps, burst, duty } => {
                format!("bursty({qps},{burst:?},{duty})")
            }
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
            Self::OpenPoisson { qps } | Self::OpenBursty { qps, .. } => Some(qps),
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
            Self::OpenBursty { qps, burst, duty } => {
                assert!(qps.is_finite() && qps > 0.0, "bursty qps must be > 0");
                assert!(!burst.is_zero(), "burst period must be non-zero");
                assert!(
                    duty > 0.0 && duty <= 1.0,
                    "duty must be in (0, 1], got {duty}"
                );
            }
        }
    }
}

/// What to do when a worker falls behind its arrival schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BacklogPolicy {
    /// Serve every arrival eventually; backlog (and with it measured
    /// latency) grows without bound when offered load exceeds capacity.
    Queue,
    /// Shed any arrival observed more than this far behind schedule —
    /// it counts as dropped, its operation never runs, and its latency
    /// is not recorded (the drop count itself is the signal).
    DropAfter(Duration),
}

/// Deterministic per-worker stream of intended arrival times.
///
/// Yields monotonically non-decreasing nanosecond offsets from the
/// worker's window start. Two schedules built with the same `(model,
/// seed, worker, workers)` yield identical streams.
#[derive(Debug, Clone)]
pub struct ArrivalSchedule {
    rng: SmallRng,
    /// Exponential inter-arrival rate, events per nanosecond. For the
    /// bursty model this is the *in-burst* rate and `t` advances through
    /// compressed "on-time".
    rate_per_ns: f64,
    /// Duty-cycle mapping; `None` for plain Poisson.
    burst: Option<BurstWindow>,
    /// Accumulated process time, ns (on-time for bursty).
    t: f64,
}

#[derive(Debug, Clone, Copy)]
struct BurstWindow {
    period_ns: f64,
    on_ns: f64,
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
        let per_worker = |qps: f64| qps / workers as f64 / 1e9;
        match *model {
            LoadModel::Closed => None,
            LoadModel::OpenPoisson { qps } => Some(ArrivalSchedule {
                rng: SmallRng::seed_from_u64(worker_seed),
                rate_per_ns: per_worker(qps),
                burst: None,
                t: 0.0,
            }),
            LoadModel::OpenBursty { qps, burst, duty } => {
                let period_ns = burst.as_nanos() as f64;
                Some(ArrivalSchedule {
                    rng: SmallRng::seed_from_u64(worker_seed),
                    // In-burst rate: the period's arrivals compressed
                    // into its on-window.
                    rate_per_ns: per_worker(qps) / duty,
                    burst: Some(BurstWindow {
                        period_ns,
                        on_ns: period_ns * duty,
                    }),
                    t: 0.0,
                })
            }
        }
    }

    /// The next intended arrival, as a nanosecond offset from the
    /// window start.
    pub fn next_ns(&mut self) -> u64 {
        // Exponential inter-arrival: -ln(U)/rate with U in (0, 1].
        let u: f64 = 1.0 - self.rng.gen_range(0.0..1.0);
        self.t += -u.ln() / self.rate_per_ns;
        match self.burst {
            None => self.t as u64,
            // The process runs in "on-time"; wall time inserts the off
            // fraction of every elapsed period back in.
            Some(BurstWindow { period_ns, on_ns }) => {
                let periods = (self.t / on_ns).floor();
                let within = self.t - periods * on_ns;
                (periods * period_ns + within) as u64
            }
        }
    }
}

/// One worker's share of a measured window, merged across workers by
/// [`Aggregate::from_reports`].
#[derive(Debug)]
pub(crate) struct WorkerReport {
    /// Completed operations.
    pub ops: u64,
    /// Intended-arrival-to-completion latency (open models only; empty
    /// under `Closed`).
    pub hist: Hist,
    /// Worst single-op latency, ns (open models only).
    pub max_ns: u64,
    /// Arrivals whose intended time fell inside the window (served or
    /// dropped).
    pub offered: u64,
    /// Arrivals shed by the backlog policy.
    pub dropped: u64,
    /// Worst observed scheduling lag (service start minus intended
    /// arrival), ns.
    pub lag_max_ns: u64,
    /// Sum of observed lags, for the mean.
    pub lag_sum_ns: u64,
    /// Lag observations (== offered, kept separate for clarity).
    pub lag_samples: u64,
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

/// The load-generation knobs the runner hands each worker, bundled
/// ([`crate::params::WorkloadParams::load_spec`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoadSpec<'a> {
    /// How operations arrive.
    pub model: &'a LoadModel,
    /// What to do with late arrivals.
    pub backlog: BacklogPolicy,
}

/// Drives one worker for the measured window: the load-generation layer
/// under the runner's measurement loop.
///
/// `do_op` executes one operation. Under [`LoadModel::Closed`] this is
/// exactly the pre-refactor tight loop — a per-op relaxed stop check
/// around `do_op`, no clocks, no schedule. Under an open model each op waits
/// for its intended arrival from the worker's [`ArrivalSchedule`],
/// latency is recorded from that intended arrival to completion, and
/// the backlog policy decides whether late arrivals are served or shed.
pub(crate) fn drive_worker(
    spec: LoadSpec<'_>,
    worker: usize,
    workers: usize,
    stop: &AtomicBool,
    mut do_op: impl FnMut(),
) -> WorkerReport {
    let mut report = WorkerReport {
        ops: 0,
        hist: Hist::new(),
        max_ns: 0,
        offered: 0,
        dropped: 0,
        lag_max_ns: 0,
        lag_sum_ns: 0,
        lag_samples: 0,
    };

    let Some(mut schedule) = ArrivalSchedule::for_worker(spec.model, ARRIVAL_SEED, worker, workers)
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

    let max_lag_ns = match spec.backlog {
        BacklogPolicy::Queue => u64::MAX,
        BacklogPolicy::DropAfter(d) => d.as_nanos().min(u64::MAX as u128) as u64,
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
        report.offered += 1;
        let lag = (epoch.elapsed().as_nanos() as u64).saturating_sub(intended);
        report.lag_max_ns = report.lag_max_ns.max(lag);
        report.lag_sum_ns = report.lag_sum_ns.saturating_add(lag);
        report.lag_samples += 1;
        if lag > max_lag_ns {
            report.dropped += 1;
            continue;
        }
        do_op();
        let latency = (epoch.elapsed().as_nanos() as u64).saturating_sub(intended);
        report.hist.record(latency);
        report.max_ns = report.max_ns.max(latency);
        report.ops += 1;
    }
    report
}

/// Per-operation latency summary: the tail the open-loop harness exists
/// to measure. Percentiles come from the shared log2 histogram
/// ([`threadscan::hist`]), so they are upper bounds within a factor of
/// two — the resolution that matters for "did reclamation add a
/// millisecond excursion", not nanosecond micro-ranking.
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
    /// The raw log2 histogram, mergeable across runs.
    pub hist: Hist,
}

impl LatencySummary {
    /// Summarizes a histogram; `None` when nothing was recorded.
    pub fn from_hist(hist: Hist, max_ns: u64) -> Option<Self> {
        if hist.is_empty() {
            return None;
        }
        Some(Self {
            count: hist.count(),
            p50_ns: hist.percentile_ns(0.50),
            p99_ns: hist.percentile_ns(0.99),
            p999_ns: hist.percentile_ns(0.999),
            max_ns,
            hist,
        })
    }

    /// Renders as one JSON object (see [`crate::json`]).
    pub fn to_json(&self) -> String {
        ObjectBuilder::new()
            .num("count", self.count as f64)
            .num("p50_ns", self.p50_ns)
            .num("p99_ns", self.p99_ns)
            .num("p999_ns", self.p999_ns)
            .num("max_ns", self.max_ns as f64)
            .arr_num("hist", self.hist.counts().iter().map(|&c| c as f64))
            .build()
    }
}

/// Open-loop bookkeeping attached to a run: how much load was offered
/// versus served, and how far workers fell behind their schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopExtras {
    /// The load model's label ([`LoadModel::label`]).
    pub model: String,
    /// Target aggregate arrival rate, ops/second.
    pub target_qps: f64,
    /// Arrivals whose intended time fell inside the window.
    pub offered: u64,
    /// Arrivals shed by the backlog policy.
    pub dropped: u64,
    /// Worst observed scheduling lag across workers, ns — how far the
    /// most backlogged worker ran behind its arrival schedule.
    pub sched_lag_max_ns: u64,
    /// Mean scheduling lag over all arrivals, ns.
    pub sched_lag_mean_ns: f64,
}

impl OpenLoopExtras {
    /// Renders as one JSON object (see [`crate::json`]).
    pub fn to_json(&self) -> String {
        ObjectBuilder::new()
            .str("model", &self.model)
            .num("target_qps", self.target_qps)
            .num("offered", self.offered as f64)
            .num("dropped", self.dropped as f64)
            .num("sched_lag_max_ns", self.sched_lag_max_ns as f64)
            .num("sched_lag_mean_ns", self.sched_lag_mean_ns)
            .build()
    }
}

/// All workers' reports folded together.
#[derive(Debug)]
pub(crate) struct Aggregate {
    /// Completed ops.
    pub total_ops: u64,
    /// Per-op latency (open models; `None` when no op completed).
    pub latency: Option<LatencySummary>,
    offered: u64,
    dropped: u64,
    lag_max_ns: u64,
    lag_sum_ns: u64,
    lag_samples: u64,
}

impl Aggregate {
    /// Merges per-worker reports.
    pub fn from_reports(reports: Vec<WorkerReport>) -> Self {
        let mut total_ops = 0u64;
        let mut hist = Hist::new();
        let mut max_ns = 0u64;
        let mut offered = 0u64;
        let mut dropped = 0u64;
        let mut lag_max_ns = 0u64;
        let mut lag_sum_ns = 0u64;
        let mut lag_samples = 0u64;
        for r in &reports {
            total_ops += r.ops;
            hist.merge(&r.hist);
            max_ns = max_ns.max(r.max_ns);
            offered += r.offered;
            dropped += r.dropped;
            lag_max_ns = lag_max_ns.max(r.lag_max_ns);
            lag_sum_ns = lag_sum_ns.saturating_add(r.lag_sum_ns);
            lag_samples += r.lag_samples;
        }
        Self {
            total_ops,
            latency: LatencySummary::from_hist(hist, max_ns),
            offered,
            dropped,
            lag_max_ns,
            lag_sum_ns,
            lag_samples,
        }
    }

    /// The open-loop extras block; `None` for the closed model.
    pub fn open_extras(&self, model: &LoadModel) -> Option<OpenLoopExtras> {
        let target_qps = model.target_qps()?;
        Some(OpenLoopExtras {
            model: model.label(),
            target_qps,
            offered: self.offered,
            dropped: self.dropped,
            sched_lag_max_ns: self.lag_max_ns,
            sched_lag_mean_ns: if self.lag_samples == 0 {
                0.0
            } else {
                self.lag_sum_ns as f64 / self.lag_samples as f64
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
    fn bursty_honors_the_duty_cycle_and_the_average_rate() {
        let burst = Duration::from_millis(10);
        let duty = 0.25;
        let model = LoadModel::OpenBursty {
            qps: 100_000.0,
            burst,
            duty,
        };
        let n = 100_000;
        let a = collect_arrivals(&model, 7, 0, 1, n);
        let period = burst.as_nanos() as u64;
        let on = (period as f64 * duty) as u64;
        // Every arrival lands in the on-window of its period. The
        // on-window edge itself is subject to float rounding; allow 1 ns.
        for &t in &a {
            assert!(
                t % period <= on + 1,
                "arrival at {t} ns is {} ns into a {period} ns period (on-window {on} ns)",
                t % period
            );
        }
        // Long-run average rate is still ~qps.
        let rate = (n - 1) as f64 / (a[n - 1] as f64 / 1e9);
        assert!(
            (rate - 100_000.0).abs() / 100_000.0 < 0.05,
            "long-run rate {rate:.0} qps vs target 100000"
        );
    }

    #[test]
    fn duty_one_is_plain_poisson() {
        let model = LoadModel::OpenBursty {
            qps: 500_000.0,
            burst: Duration::from_millis(5),
            duty: 1.0,
        };
        let n = 50_000;
        let a = collect_arrivals(&model, 3, 0, 2, n);
        // Per-worker 250k/s => mean 4000 ns.
        let mean = a[n - 1] as f64 / (n - 1) as f64;
        assert!((mean - 4_000.0).abs() / 4_000.0 < 0.05, "mean {mean:.1}");
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
        assert!(LoadModel::OpenBursty {
            qps: 1000.0,
            burst: Duration::from_millis(10),
            duty: 0.5
        }
        .label()
        .starts_with("bursty(1000,"));
    }

    #[test]
    #[should_panic(expected = "duty must be in (0, 1]")]
    fn zero_duty_is_rejected() {
        LoadModel::OpenBursty {
            qps: 1000.0,
            burst: Duration::from_millis(1),
            duty: 0.0,
        }
        .validate();
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
        let report = drive_worker(
            LoadSpec {
                model: &LoadModel::Closed,
                backlog: BacklogPolicy::Queue,
            },
            0,
            1,
            &stop,
            || {
                n += 1;
                if n >= 1000 {
                    stop.store(true, Ordering::Relaxed);
                }
            },
        );
        assert_eq!(report.ops, 1000);
        assert!(report.hist.is_empty(), "closed loop takes no clocks");
        assert_eq!(report.offered, 0);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn drive_worker_open_measures_latency_and_lag() {
        let stop = AtomicBool::new(false);
        let mut n = 0u64;
        // 100k QPS on one worker: ~10 µs apart, a 300 ms window would be
        // far too long — stop after 200 ops instead.
        let report = drive_worker(
            LoadSpec {
                model: &LoadModel::OpenPoisson { qps: 100_000.0 },
                backlog: BacklogPolicy::Queue,
            },
            0,
            1,
            &stop,
            || {
                n += 1;
                if n >= 200 {
                    stop.store(true, Ordering::Relaxed);
                }
            },
        );
        assert_eq!(report.ops, 200);
        assert_eq!(report.hist.count(), 200);
        assert!(report.max_ns > 0, "completions take nonzero time");
        assert_eq!(report.offered, 200);
        assert_eq!(report.lag_samples, 200);
    }

    #[test]
    fn drop_policy_sheds_backlogged_arrivals() {
        let stop = AtomicBool::new(false);
        let mut n = 0u64;
        // Offered 1M QPS but every op takes ~1 ms: the worker falls
        // behind immediately; with a 2 ms drop threshold, most arrivals
        // must be shed.
        let report = drive_worker(
            LoadSpec {
                model: &LoadModel::OpenPoisson { qps: 1_000_000.0 },
                backlog: BacklogPolicy::DropAfter(Duration::from_millis(2)),
            },
            0,
            1,
            &stop,
            || {
                std::thread::sleep(Duration::from_millis(1));
                n += 1;
                if n >= 20 {
                    stop.store(true, Ordering::Relaxed);
                }
            },
        );
        assert_eq!(report.ops, 20);
        assert!(
            report.dropped > report.ops,
            "overload must shed more than it serves: dropped {} vs served {}",
            report.dropped,
            report.ops
        );
        assert!(
            report.lag_max_ns > 2_000_000,
            "lag must exceed the drop threshold: {}",
            report.lag_max_ns
        );
    }

    #[test]
    fn aggregate_merges_reports_and_builds_extras() {
        let mut h0 = Hist::new();
        h0.record(1_000);
        h0.record(2_000);
        let mut h1 = Hist::new();
        h1.record(1_000_000);
        let reports = vec![
            WorkerReport {
                ops: 2,
                hist: h0,
                max_ns: 2_000,
                offered: 2,
                dropped: 0,
                lag_max_ns: 50,
                lag_sum_ns: 60,
                lag_samples: 2,
            },
            WorkerReport {
                ops: 1,
                hist: h1,
                max_ns: 1_000_000,
                offered: 2,
                dropped: 1,
                lag_max_ns: 900,
                lag_sum_ns: 940,
                lag_samples: 2,
            },
        ];
        let agg = Aggregate::from_reports(reports);
        assert_eq!(agg.total_ops, 3);
        let lat = agg.latency.as_ref().expect("latency recorded");
        assert_eq!(lat.count, 3);
        assert_eq!(lat.max_ns, 1_000_000);
        assert!(lat.p50_ns <= lat.p99_ns && lat.p99_ns <= lat.p999_ns);
        let extras = agg
            .open_extras(&LoadModel::OpenPoisson { qps: 123.0 })
            .expect("open model has extras");
        assert_eq!(extras.offered, 4);
        assert_eq!(extras.dropped, 1);
        assert_eq!(extras.sched_lag_max_ns, 900);
        assert!((extras.sched_lag_mean_ns - 250.0).abs() < 1e-9);
        assert!(agg.open_extras(&LoadModel::Closed).is_none());
    }

    #[test]
    fn empty_latency_summary_is_none() {
        assert!(LatencySummary::from_hist(Hist::new(), 0).is_none());
    }
}
