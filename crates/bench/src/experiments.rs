//! The experiment table: every figure and ablation `ts-bench` can run.
//!
//! A sweep experiment is a function from the command line to a [`Sweep`]
//! plan — its cells and its extra columns — which the shared
//! [`sweep`](crate::sweep::sweep) loop runs; the three experiments that
//! are not (structure × scheme × threads) sweeps bring their own loop
//! ([`crate::bespoke`]).

use ts_workload::SchemeKind::{Epoch, Hazard, Leaky, ThreadScan};
use ts_workload::StructureKind::{Hash, List, Pq};
use ts_workload::{
    BacklogPolicy, KeyDist, LatencySummary, LoadModel, Report, RunResult, SchemeKind, StructureKind,
};

use crate::bespoke;
use crate::cli::{hw_threads, oversub_ladder, thread_ladder, CliArgs};
use crate::sweep::{col, ts, Cell, Common, Sweep, COLLECT_TAIL};

/// How an experiment runs.
pub enum Run {
    /// Plans cells for the shared sweep loop.
    Sweep(fn(&CliArgs) -> Sweep),
    /// Runs its own loop.
    Bespoke(fn(&CliArgs)),
}

/// One row of the table.
pub struct Experiment {
    /// `ts-bench <name>`.
    pub name: &'static str,
    /// One line for `ts-bench list`.
    pub about: &'static str,
    /// The experiment.
    pub run: Run,
}

/// Every experiment of the `ts-bench` binary.
pub const TABLE: &[Experiment] = &[
    Experiment {
        name: "fig3",
        about: "Figure 3: throughput vs threads, list/hash/skiplist x the five schemes",
        run: Run::Sweep(fig3),
    },
    Experiment {
        name: "fig4",
        about: "Figure 4: oversubscription (1x-8x hw threads), leaky/epoch/threadscan + tuned hash line",
        run: Run::Sweep(fig4),
    },
    Experiment {
        name: "service_tail",
        about: "open-loop per-op latency (p50/p99/p999) vs offered QPS, zipfian keys",
        run: Run::Sweep(service_tail),
    },
    Experiment {
        name: "buffer_size",
        about: "ThreadScan delete-buffer capacity sweep on the hash table (§6 tuning note)",
        run: Run::Sweep(buffer_size),
    },
    Experiment {
        name: "update_ratio",
        about: "update-percentage sweep, list and hash, leaky/epoch/threadscan",
        run: Run::Sweep(update_ratio),
    },
    Experiment {
        name: "zipf",
        about: "key-skew sweep (uniform to zipf 0.99) with ThreadScan survivor counts",
        run: Run::Sweep(zipf),
    },
    Experiment {
        name: "pq",
        about: "priority queue at 50/50 insert/delete-min: half of all ops retire a node",
        run: Run::Sweep(pq),
    },
    Experiment {
        name: "telemetry",
        about: "what the telemetry sink costs: the same ThreadScan cell with it off and on",
        run: Run::Sweep(telemetry),
    },
    Experiment {
        name: "growth",
        about: "split-ordered directory growth 2^8 -> past the old 2^20 cap, op-latency checkpoints",
        run: Run::Bespoke(bespoke::growth),
    },
    Experiment {
        name: "garbage",
        about: "outstanding garbage over time: epoch vs slow-epoch vs threadscan",
        run: Run::Bespoke(bespoke::garbage),
    },
    Experiment {
        name: "probes",
        about: "single-thread ns/op (fastest, median, IQR): ordering-audit fast paths, own/foreign free",
        run: Run::Bespoke(bespoke::probes),
    },
];

const BASELINES: [SchemeKind; 3] = [Leaky, Epoch, ThreadScan];

/// Twice the hardware threads: the single thread count of the knob
/// sweeps, where reclamation pressure rather than scaling is the subject.
fn busy() -> Vec<usize> {
    vec![hw_threads() * 2]
}

fn fig3(args: &CliArgs) -> Sweep {
    let mut s = Sweep::new("fig3", Common::parse(args, 2.0, 3));
    let ladder = if s.common.quick {
        vec![1, 2]
    } else {
        thread_ladder()
    };
    s.grid(
        &args.get_structures("structures", &StructureKind::ALL),
        &args.get_positive_list("threads", &ladder),
        &args.get_schemes("schemes", &SchemeKind::ALL),
        |p| p,
    );
    s.series = true;
    s
}

/// "Slow Epoch and Hazard Pointers were not included in the
/// oversubscription experiment" (§6); the hash table also gets the tuned
/// line ("ThreadScan was tuned for the hash table"): 4096-entry buffers.
fn fig4(args: &CliArgs) -> Sweep {
    let mut s = Sweep::new("fig4", Common::parse(args, 2.0, 2));
    let ladder = if s.common.quick {
        vec![2, 4]
    } else {
        oversub_ladder()
    };
    for kind in StructureKind::ALL {
        for &t in &args.get_positive_list("threads", &ladder) {
            s.grid(&[kind], &[t], &SchemeKind::OVERSUB, |p| p);
            if kind == Hash {
                let tuned = s.common.cell(kind, t).with_ts_buffer(4096);
                s.cells
                    .push(Cell::new(ThreadScan, tuned).labelled("threadscan-4096"));
            }
        }
    }
    s.columns = vec![COLLECT_TAIL];
    s.series = true;
    s
}

/// Arrivals on a schedule, latency from intended arrival to completion:
/// a collect phase (or an epoch stall) shows as a p99/p999 excursion, as
/// a service would see it. Zipfian keys keep hot nodes on some thread's
/// stack at scan time, exercising survivor carry-over while the tail is
/// measured. `--burst-ms`/`--duty` duty-cycle the arrivals; `--drop-ms`
/// sheds arrivals later than that instead of queueing them. The table is
/// sized by `--keys`, not by a scaled preset, so `--scale` is no flag here.
fn service_tail(args: &CliArgs) -> Sweep {
    let mut s = Sweep::new("service_tail", Common::unscaled(args, 3.0, 1));
    let quick = s.common.quick;
    let threads = args.get_positive_list("threads", &[if quick { 2 } else { 8 }]);
    let keys = args.get_positive("keys", if quick { 262_144 } else { 4_000_000 });
    let theta = args.get_f64_in("theta", 0.99, "in (0, 1)", |t| t > 0.0 && t < 1.0);
    let levels: &[f64] = if quick {
        &[20_000.0, 60_000.0]
    } else {
        &[100_000.0, 300_000.0, 1_000_000.0]
    };
    let schemes: &[SchemeKind] = if quick {
        &[Leaky, ThreadScan]
    } else {
        &BASELINES
    };
    let schemes = args.get_schemes("schemes", schemes);
    let backlog = match args.get("drop-ms") {
        Some(_) => BacklogPolicy::DropAfter(args.get_span("drop-ms", 50.0, 1e-3)),
        None => BacklogPolicy::Queue,
    };
    let burst = args
        .get("burst-ms")
        .map(|_| args.get_span("burst-ms", 10.0, 1e-3));
    let duty = args.get_f64_in("duty", 0.25, "in (0, 1]", |d| d > 0.0 && d <= 1.0);
    for qps in args.get_positive_f64_list("qps", levels) {
        let model = match burst {
            Some(burst) => LoadModel::OpenBursty { qps, burst, duty },
            None => LoadModel::OpenPoisson { qps },
        };
        s.grid(&[Hash], &threads, &schemes, |mut p| {
            (p.key_range, p.initial_size) = (keys as u64, keys / 2);
            p.with_key_dist(KeyDist::Zipf { theta })
                .with_load_model(model)
                .with_backlog(backlog)
        });
    }
    fn us(r: &RunResult, pick: fn(&LatencySummary) -> f64) -> String {
        let lat = r.latency.as_ref().expect("open-loop runs measure latency");
        format!("{:.1}", pick(lat) / 1e3)
    }
    s.columns = vec![
        col("qps", |c, _| {
            format!("{:.0}", c.params.load_model.target_qps().unwrap_or(0.0))
        }),
        col("p50_us", |_, r| us(r, |l| l.p50_ns)),
        col("p99_us", |_, r| us(r, |l| l.p99_ns)),
        col("p999_us", |_, r| us(r, |l| l.p999_ns)),
        col("max_us", |_, r| us(r, |l| l.max_ns as f64)),
        col("drops", |_, r| {
            r.open_loop.as_ref().map_or(0, |o| o.dropped).to_string()
        }),
        col("lag_max_us", |_, r| {
            let lag = r.open_loop.as_ref().map_or(0, |o| o.sched_lag_max_ns);
            format!("{:.1}", lag as f64 / 1e3)
        }),
    ];
    s
}

/// "Increasing the size of the delete buffer … is a useful way of
/// amortizing the cost of signals and of waiting. However, it also
/// increases the size of the list of pointers" (§6).
fn buffer_size(args: &CliArgs) -> Sweep {
    let mut s = Sweep::new("buffer_size", Common::parse(args, 2.0, 1));
    let sizes: &[usize] = if s.common.quick {
        &[64, 256]
    } else {
        &[256, 512, 1024, 2048, 4096, 8192, 16384]
    };
    let threads = args.get_positive_list("threads", &busy());
    // The collector's buffers hold at least two entries.
    let capacity = |s: &str| s.parse().ok().filter(|&n: &usize| n >= 2);
    for size in args.get_list("sizes", sizes, "capacities of at least 2", capacity) {
        s.grid(&[Hash], &threads, &[ThreadScan], |p| p.with_ts_buffer(size));
    }
    s.columns = vec![
        col("buffer", |c, _| c.params.ts_buffer_capacity.to_string()),
        col("collects", |_, r| ts(r).collects.to_string()),
        col("freed", |_, r| ts(r).freed.to_string()),
        col("words/collect", |_, r| {
            format!("{:.0}", ts(r).words_per_collect())
        }),
    ];
    s
}

/// ThreadScan's reclamation cost "is amortized … against reclaimed
/// nodes" (§6): more removals mean more scans but more freed per scan.
fn update_ratio(args: &CliArgs) -> Sweep {
    let mut s = Sweep::new("update_ratio", Common::parse(args, 1.5, 1));
    let threads = args.get_positive_list("threads", &busy());
    let percent = |s: &str| s.parse().ok().filter(|&pct: &u32| pct <= 100);
    let ratios = args.get_list(
        "ratios",
        &[0, 10, 20, 50, 100],
        "percentages 0-100",
        percent,
    );
    for kind in [List, Hash] {
        for &pct in &ratios {
            s.grid(&[kind], &threads, &BASELINES, |p| p.with_update_pct(pct));
        }
    }
    s.columns = vec![col("update%", |c, _| c.params.update_pct.to_string())];
    s
}

/// Under skew, hot nodes are likely to sit in *some* thread's stack at
/// scan time, so ThreadScan's conservative mark keeps resurrecting them
/// as survivors; epoch schemes do not care which node was retired.
fn zipf(args: &CliArgs) -> Sweep {
    let mut s = Sweep::new("zipf", Common::parse(args, 1.5, 1));
    let threads = args.get_positive_list("threads", &busy());
    for kind in [Hash, List] {
        let skews = [0.5, 0.9, 0.99].map(|theta| KeyDist::Zipf { theta });
        for dist in [KeyDist::Uniform].into_iter().chain(skews) {
            s.grid(&[kind], &threads, &BASELINES, |p| p.with_key_dist(dist));
        }
    }
    s.columns = vec![
        col("skew", |c, _| c.params.key_dist.label()),
        col("survivors", |_, r| ts(r).survivors.to_string()),
    ];
    s
}

/// `delete_min` retires a node on every successful call: roughly 5× the
/// retire pressure of the 20%-update set workloads.
fn pq(args: &CliArgs) -> Sweep {
    let mut s = Sweep::new("pq", Common::parse(args, 1.5, 1));
    let prefill = args.get_usize("prefill", if s.common.quick { 1_000 } else { 20_000 });
    let threads = args.get_positive_list("threads", &[1, 2, 4, 8]);
    let schemes = [Leaky, Hazard, Epoch, ThreadScan];
    s.grid(&[Pq], &threads, &schemes, |mut p| {
        p.initial_size = prefill;
        p.with_update_pct(100)
    });
    s
}

/// The subsystem's contract: off is free (the sink is a plain `Option`
/// field, zero extra atomics) and on is cheap (one ring cell per event:
/// eight per collect, one per signal sent, two per scanned thread).
fn telemetry(args: &CliArgs) -> Sweep {
    let mut s = Sweep::new("telemetry", Common::parse(args, 1.5, 3));
    for kind in args.get_structures("structure", &[List]) {
        for t in args.get_positive_list("threads", &[2, 4]) {
            for on in [false, true] {
                let label = format!("threadscan[telemetry-{}]", if on { "on" } else { "off" });
                let params = s.common.cell(kind, t).with_telemetry(on);
                s.cells.push(Cell::new(ThreadScan, params).labelled(label));
            }
        }
    }
    s.epilogue = |report: &Report| {
        for pair in report.results().chunks(2) {
            let (off, on) = (pair[0].ops_per_sec, pair[1].ops_per_sec);
            println!(
                "# {} t={}: telemetry costs {:.2}% (positive = slower)",
                pair[0].structure,
                pair[0].threads,
                (off - on) / off * 100.0
            );
        }
        // What the last sink-on cell recorded, for scale.
        let Some(on) = report.results().last() else {
            return;
        };
        println!(
            "# {} t={} telemetry-on: total_ops {} (counters, _sum and _count are the \
             last repeat's; _bucket lines cover every repeat)",
            on.structure, on.threads, on.total_ops
        );
        for line in ts_telemetry::render_prometheus(&ts(on)).lines() {
            println!("# {line}");
        }
    };
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CliArgs {
        CliArgs::from_args(["--quick".to_string()])
    }

    #[test]
    fn names_are_unique_and_usable_on_a_command_line() {
        for (i, e) in TABLE.iter().enumerate() {
            assert!(
                !e.name.is_empty()
                    && e.name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit()),
                "{:?}",
                e.name
            );
            assert_ne!(e.name, "list", "reserved for the listing");
            assert!(!e.about.is_empty() && !e.about.contains('\n'), "{}", e.name);
            assert!(
                TABLE[..i].iter().all(|other| other.name != e.name),
                "duplicate experiment {}",
                e.name
            );
        }
    }

    /// The flags the README documents — the shared ones for every sweep,
    /// plus each experiment's own — are all read by the plan, so
    /// [`CliArgs::reject_unread`] turns away typos and nothing else.
    #[test]
    fn every_documented_flag_is_read_by_its_plan() {
        const SHARED: &str = "--quick --duration 0.1 --repeats 1 --threads 2 \
                              --json out.jsonl --telemetry --trace-out trace.json";
        for e in TABLE {
            let Run::Sweep(plan) = e.run else { continue };
            // service_tail's table is sized by --keys.
            let scale = if e.name == "service_tail" {
                ""
            } else {
                "--scale 64"
            };
            let own = match e.name {
                "fig3" => "--structures list --schemes leaky",
                "service_tail" => {
                    "--qps 1000 --schemes leaky --keys 1024 --theta 0.9 \
                     --burst-ms 10 --duty 0.25 --drop-ms 50"
                }
                "buffer_size" => "--sizes 64",
                "update_ratio" => "--ratios 20",
                "pq" => "--prefill 100",
                "telemetry" => "--structure list",
                _ => "",
            };
            let words = [SHARED, scale, own]
                .into_iter()
                .flat_map(str::split_whitespace);
            let args = CliArgs::from_args(words.map(str::to_string));
            plan(&args);
            assert_eq!(args.unread(&["json", "trace-out"]), [""; 0], "{}", e.name);
        }
    }

    /// Every sweep plans at least one runnable cell under `--quick`,
    /// without running any: CI then runs each of them for real.
    #[test]
    fn every_sweep_plans_valid_cells_under_quick() {
        let plans = TABLE.iter().filter_map(|e| match e.run {
            Run::Sweep(plan) => Some(plan),
            Run::Bespoke(_) => None,
        });
        for plan in plans {
            let s = plan(&quick());
            assert!(!s.cells.is_empty(), "{} planned nothing", s.name);
            assert!(s.common.repeats >= 1 && s.common.quick, "{}", s.name);
            for cell in &s.cells {
                cell.params.load_model.validate(); // panics on a bad model
                assert!(cell.params.threads >= 1, "{}", s.name);
                assert!(!cell.label.is_empty(), "{}", s.name);
            }
        }
    }
}
