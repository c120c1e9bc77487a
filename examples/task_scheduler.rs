//! A deadline-driven task scheduler on the Shavit–Lotan priority queue,
//! reclaimed by ThreadScan.
//!
//! Producers submit jobs tagged with a deadline tick; worker threads pull
//! the earliest-deadline job with `delete_min`. Every completed job is a
//! node retirement, so a busy scheduler is constant reclamation pressure —
//! and none of this code knows it: no hazard slots, no epoch brackets,
//! just `register()` once per thread.
//!
//! ```text
//! cargo run --release --example task_scheduler            # closed loop
//! cargo run --release --example task_scheduler -- --open  # Poisson 100k QPS
//! cargo run --release --example task_scheduler -- --open 250000
//! ```
//!
//! With `--open`, producers submit on a Poisson schedule
//! ([`ts_workload::LoadModel::OpenPoisson`]) instead of as fast as the
//! queue accepts, and every job's latency is measured from its *intended
//! submission time* to execution — the coordinated-omission-correct
//! number a job submitter would experience, including any time the job
//! waited behind a reclamation phase. The demo prints p50/p99/p999 from
//! the shared log-linear histogram ([`threadscan::Hist`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use threadscan::{CollectorConfig, Hist};
use ts_sigscan::SignalPlatform;
use ts_smr::{Smr, ThreadScanSmr};
use ts_structures::{ConcurrentSet, PriorityQueue};
use ts_workload::load::{ArrivalSchedule, LoadModel};

type Ts = ThreadScanSmr<SignalPlatform>;

const PRODUCERS: u64 = 2;
const WORKERS: usize = 2;
const JOBS_PER_PRODUCER: u64 = 20_000;
const JOB_ID_BITS: u64 = 20;

fn main() {
    // `--open [qps]`: Poisson submissions at an aggregate target rate.
    let argv: Vec<String> = std::env::args().collect();
    let open_qps: Option<f64> = argv.iter().position(|a| a == "--open").map(|i| {
        argv.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(100_000.0)
    });

    let scheme = Arc::new(ThreadScanSmr::with_config(
        SignalPlatform::new().expect("POSIX signals required"),
        // A modest buffer so the demo visibly runs collect phases.
        CollectorConfig::default().with_buffer_capacity(512),
    ));
    // The queue key encodes (deadline_tick << 20) | job_id: earliest
    // deadline first, ties broken by submission order, keys unique.
    let queue = Arc::new(PriorityQueue::<Ts>::new());
    let executed = Arc::new(AtomicU64::new(0));
    let total_jobs = PRODUCERS * JOBS_PER_PRODUCER;

    // Open-loop bookkeeping: the intended submission time of every job
    // (ns from the shared epoch, written before the job is queued), and
    // the merged latency histogram. One epoch for all threads — jobs
    // cross threads, so submitter and executor must share a clock.
    let submit_ns: Arc<Vec<AtomicU64>> =
        Arc::new((0..total_jobs).map(|_| AtomicU64::new(0)).collect());
    let hist = Arc::new(Mutex::new(Hist::new()));
    let max_lat_ns = Arc::new(AtomicU64::new(0));
    let epoch = Instant::now();

    let t0 = Instant::now();
    std::thread::scope(|s| {
        let producer_handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let scheme = Arc::clone(&scheme);
                let queue = Arc::clone(&queue);
                let submit_ns = Arc::clone(&submit_ns);
                s.spawn(move || {
                    let h = scheme.register();
                    let mut schedule = open_qps.and_then(|qps| {
                        ArrivalSchedule::for_worker(
                            &LoadModel::OpenPoisson { qps },
                            0xD15C0,
                            p as usize,
                            PRODUCERS as usize,
                        )
                    });
                    let mut seed = 0x9E37_79B9 ^ p;
                    for job in 0..JOBS_PER_PRODUCER {
                        // Pseudo-random deadline 0..4096 ticks out.
                        seed = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let deadline = seed >> 52;
                        let job_id = p * JOBS_PER_PRODUCER + job;
                        let key = (deadline << JOB_ID_BITS) | job_id;
                        if let Some(sch) = schedule.as_mut() {
                            // Wait for the job's intended submission time,
                            // and publish it (Release) before the insert
                            // makes the job visible to executors.
                            let intended = sch.next_ns();
                            while (epoch.elapsed().as_nanos() as u64) < intended {
                                std::thread::yield_now();
                            }
                            submit_ns[job_id as usize].store(intended, Ordering::Release);
                        }
                        assert!(queue.insert(&h, key), "job ids are unique");
                    }
                })
            })
            .collect();

        for _ in 0..WORKERS {
            let scheme = Arc::clone(&scheme);
            let queue = Arc::clone(&queue);
            let executed = Arc::clone(&executed);
            let submit_ns = Arc::clone(&submit_ns);
            let hist = Arc::clone(&hist);
            let max_lat_ns = Arc::clone(&max_lat_ns);
            s.spawn(move || {
                let h = scheme.register();
                let mut local = Hist::new();
                let mut local_max = 0u64;
                loop {
                    match queue.delete_min(&h) {
                        Some(key) => {
                            // "Execute" the job.
                            if open_qps.is_some() {
                                let job_id = (key & ((1 << JOB_ID_BITS) - 1)) as usize;
                                let intended = submit_ns[job_id].load(Ordering::Acquire);
                                let lat =
                                    (epoch.elapsed().as_nanos() as u64).saturating_sub(intended);
                                local.record(lat);
                                local_max = local_max.max(lat);
                            }
                            if executed.fetch_add(1, Ordering::AcqRel) + 1 == total_jobs {
                                break;
                            }
                        }
                        None if executed.load(Ordering::Acquire) >= total_jobs => break,
                        None => std::thread::yield_now(),
                    }
                }
                hist.lock().unwrap().merge(&local);
                max_lat_ns.fetch_max(local_max, Ordering::AcqRel);
            });
        }

        // Producers finishing is what lets a worker's final `None` mean
        // "drained" rather than "momentarily empty".
        for h in producer_handles {
            h.join().expect("producer");
        }
    });

    let ran = executed.load(Ordering::Relaxed);
    assert_eq!(ran, total_jobs, "every job ran once");

    scheme.quiesce();
    let stats = scheme.stats();
    println!("jobs executed:   {ran} in {:?}", t0.elapsed());
    println!("collect phases:  {}", stats.collects);
    println!("nodes freed:     {}", stats.freed);
    println!("words scanned:   {}", stats.words_scanned);
    println!("outstanding:     {}", scheme.outstanding());
    if let Some(qps) = open_qps {
        let hist = hist.lock().unwrap();
        assert_eq!(hist.count(), total_jobs, "every job's latency recorded");
        println!("offered load:    poisson {qps} jobs/s");
        let [p50, p99, p999] = [0.50, 0.99, 0.999].map(|q| hist.quantile(q).unwrap() / 1e3);
        println!(
            "job latency:     p50 {p50:.1} us, p99 {p99:.1} us, p999 {p999:.1} us, max {:.1} us",
            max_lat_ns.load(Ordering::Relaxed) as f64 / 1e3,
        );
        println!("OK: submit-to-execute latency measured from intended arrivals");
    } else {
        println!("OK: every executed job's node was retired through ThreadScan");
    }
}
