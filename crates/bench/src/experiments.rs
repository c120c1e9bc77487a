//! The experiment table: every figure and ablation `ts-bench` can run.
//!
//! A sweep experiment is a function from the command line to a [`Sweep`]
//! plan — its cells and its extra columns — which the shared
//! [`sweep`](crate::sweep::sweep) loop runs; `probes`, which times
//! single-threaded fast paths rather than (structure × scheme × threads)
//! cells, brings its own loop ([`crate::bespoke`]).

use ts_workload::SchemeKind::{Leaky, ThreadScan};
use ts_workload::StructureKind::{Hash, Pq};
use ts_workload::{
    KeyDist, LoadModel, Report, RunResult, SchemeKind, StructureKind, WorkloadParams,
};

use crate::bespoke;
use crate::cli::{oversub_ladder, thread_ladder, usage_error, CliArgs};
use crate::sweep::{col, ts, Common, Sweep, COLLECT_TAIL};

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
        about: "Figure 3: throughput vs threads x the five schemes, with update/skew/buffer axes",
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
        name: "probes",
        about: "single-thread ns/op (fastest, median, IQR): ordering-audit fast paths, own/foreign free",
        run: Run::Bespoke(bespoke::probes),
    },
];

/// The `buffers` of a grid that does not sweep them: the paper's capacity.
const PAPER_BUFFERS: &[usize] = &[WorkloadParams::PAPER_BUFFER];

/// The closed-loop sweep: structures × update percentages × key skews ×
/// threads × schemes, every cell a Figure 3 preset. The defaults are the
/// paper's cell — 20 % updates over uniform keys, 1024-entry buffers —
/// and the three axes vary it:
///
/// * `--updates`: ThreadScan's cost "is amortized … against reclaimed
///   nodes" (§6), so more removals mean more scans but more freed per
///   scan. `--structures pq --updates 100` is the priority queue at 50/50
///   insert/delete-min, where every delete-min retires a node.
/// * `--skews`: hot nodes are likely to sit in *some* thread's stack at
///   scan time, so the conservative mark keeps them as survivors; epoch
///   schemes do not care which node was retired.
/// * `--buffers` (ThreadScan cells only, labelled `threadscan-<cap>`):
///   "increasing the size of the delete buffer … is a useful way of
///   amortizing the cost of signals and of waiting. However, it also
///   increases the size of the list of pointers" (§6).
///
/// The `unfreed max` column is the most retired-but-unfreed nodes any of
/// the cell's samples saw: the §6 Slow-Epoch argument, that one errant
/// thread lets epoch garbage grow while ThreadScan's stays bounded by its
/// delete buffers, is `--structures list --updates 100 --schemes
/// epoch,slow-epoch,threadscan --buffers 256 --threads 4 --scale 1`.
fn fig3(args: &CliArgs) -> Sweep {
    let mut s = Sweep::new("fig3", Common::parse(args, 2.0, 3));
    let ladder = if s.common.quick {
        vec![1, 2]
    } else {
        thread_ladder()
    };
    let structures = args.get_structures("structures", &StructureKind::ALL);
    let percent = |s: &str| s.parse().ok().filter(|&pct: &u32| pct <= 100);
    let updates = args.get_list("updates", &[20], "percentages 0-100", percent);
    let skews = args.get_list(
        "skews",
        &[KeyDist::Uniform],
        "uniform or a theta in (0, 1)",
        KeyDist::parse,
    );
    // The collector's buffers hold at least two entries.
    let capacity = |s: &str| s.parse().ok().filter(|&n: &usize| n >= 2);
    let buffers = args.get_list(
        "buffers",
        PAPER_BUFFERS,
        "capacities of at least 2",
        capacity,
    );
    let threads = args.get_positive_list("threads", &ladder);
    let schemes = args.get_schemes("schemes", &SchemeKind::ALL);
    // The zipf sampler's setup is linear in the key range, and the
    // queue's range is the whole space of fresh priorities.
    if structures.contains(&Pq) && skews.iter().any(|&d| d != KeyDist::Uniform) {
        usage_error(format_args!(
            "--skews must be uniform for pq: it draws fresh uniform priorities"
        ));
    }
    for &kind in &structures {
        for &pct in &updates {
            for &dist in &skews {
                s.grid(&[kind], &threads, &schemes, &buffers, |p| {
                    p.with_update_pct(pct).with_key_dist(dist)
                });
            }
        }
    }
    s.columns = vec![
        col("update%", |c, _, _| c.params.update_pct.to_string()),
        col("keys", |c, _, _| c.params.key_dist.label()),
        col("unfreed max", |_, r, _| {
            let max = r.outstanding_samples.iter().max();
            max.copied().unwrap_or(0).to_string()
        }),
        col("collects", |_, r, _| ts(r).collects.to_string()),
        col("freed", |_, r, _| ts(r).freed.to_string()),
        col("survivors", |_, r, _| ts(r).survivors.to_string()),
        col("words/collect", |_, r, _| {
            format!("{:.0}", ts(r).words_per_collect())
        }),
    ];
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
    let threads = args.get_positive_list("threads", &ladder);
    let tuned: &[usize] = &[WorkloadParams::PAPER_BUFFER, 4096];
    for kind in StructureKind::ALL {
        let buffers = if kind == Hash { tuned } else { PAPER_BUFFERS };
        s.grid(&[kind], &threads, &SchemeKind::OVERSUB, buffers, |p| p);
    }
    s.columns = vec![COLLECT_TAIL];
    s.series = true;
    s
}

/// Arrivals on a schedule, latency from intended arrival to completion:
/// a collect phase (or an epoch stall) shows as a p99/p999 excursion, as
/// a service would see it. Zipfian keys keep hot nodes on some thread's
/// stack at scan time, exercising survivor carry-over while the tail is
/// measured. The table is sized by `--keys`, not by a scaled preset, so
/// `--scale` is no flag here.
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
        &SchemeKind::OVERSUB
    };
    let mut schemes = args.get_schemes("schemes", schemes);
    // Leaky first on each cell, so the rows after it can be divided by it.
    schemes.sort_by_key(|&scheme| scheme != Leaky);
    for qps in args.get_positive_f64_list("qps", levels) {
        s.grid(&[Hash], &threads, &schemes, PAPER_BUFFERS, |mut p| {
            (p.key_range, p.initial_size) = (keys as u64, keys / 2);
            p.with_key_dist(KeyDist::Zipf { theta })
                .with_load_model(LoadModel::OpenPoisson { qps })
        });
    }
    /// Tail `i` (p50, p99, p999) over Leaky's on the same cell. `-` for
    /// a cell no arrival fell in (a low `--qps` over a short window can
    /// schedule its first arrival past the window's end) or one with no
    /// Leaky row.
    fn vs_leaky(r: &RunResult, report: &Report, i: usize) -> String {
        let ratio = report.tail_vs_leaky(r);
        ratio.map_or("-".to_string(), |tail| format!("{:.2}", tail[i]))
    }
    s.columns = vec![
        col("qps", |c, _, _| {
            format!("{:.0}", c.params.load_model.target_qps().unwrap_or(0.0))
        }),
        col("p50/leaky", |_, r, report| vs_leaky(r, report, 0)),
        col("p99/leaky", |_, r, report| vs_leaky(r, report, 1)),
        col("p999/leaky", |_, r, report| vs_leaky(r, report, 2)),
        col("max_us", |_, r, _| {
            let max = r.latency.as_ref().map(|l| l.max_ns as f64 / 1e3);
            max.map_or("-".to_string(), |us| format!("{us:.1}"))
        }),
        col("lag_max_us", |_, r, _| {
            let lag = r.open_loop.as_ref().map_or(0, |o| o.sched_lag_max_ns);
            format!("{:.1}", lag as f64 / 1e3)
        }),
    ];
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::time::Duration;

    use ts_workload::SchemeKind::{Epoch, Hazard, SlowEpoch};
    use ts_workload::StructureKind::List;

    use crate::cli::hw_threads;
    use crate::sweep::Cell;

    fn quick() -> CliArgs {
        CliArgs::from_args(["--quick".to_string()])
    }

    /// The `TABLE` row `name`'s plan for the command line `words`.
    fn plan(name: &str, words: &str) -> Sweep {
        let e = TABLE.iter().find(|e| e.name == name).expect("a row");
        let Run::Sweep(plan) = e.run else {
            panic!("{name} is not a sweep")
        };
        plan(&CliArgs::from_args(
            words.split_whitespace().map(str::to_string),
        ))
    }

    /// What decides a cell's measurement, one string per cell, sorted.
    fn planned(s: &Sweep) -> Vec<String> {
        let cells = s.cells.iter().map(|c| {
            let p = &c.params;
            let knobs = (p.update_pct, p.key_dist, p.ts_buffer_capacity);
            let what = (
                p.structure,
                p.threads,
                c.scheme,
                knobs,
                p.key_range,
                p.duration,
            );
            format!("{what:?}")
        });
        let mut cells: Vec<String> = cells.collect();
        cells.sort();
        cells
    }

    /// `--quick`'s scale (1/64) and window (0.25 s).
    const QUICK: (usize, Duration) = (64, Duration::from_millis(250));

    /// The cells a row deleted from the table planned, in [`planned`]'s
    /// form: every combination of its axes at a (scale, window) such as
    /// [`QUICK`], with the preset's 1024-entry buffers wherever the row
    /// did not sweep them.
    fn deleted_row(
        (scale, window): (usize, Duration),
        kinds: &[StructureKind],
        threads: &[usize],
        schemes: &[SchemeKind],
        updates: &[u32],
        skews: &[KeyDist],
        buffers: &[usize],
    ) -> Vec<String> {
        let mut cells = Vec::new();
        for &kind in kinds {
            let key_range = WorkloadParams::fig3(kind, 1).scaled_down(scale).key_range;
            for &t in threads {
                for &scheme in schemes {
                    for &pct in updates {
                        for &dist in skews {
                            for &cap in buffers {
                                let knobs = (pct, dist, cap);
                                let what = (kind, t, scheme, knobs, key_range, window);
                                cells.push(format!("{what:?}"));
                            }
                        }
                    }
                }
            }
        }
        cells.sort();
        cells
    }

    /// `update_ratio`, `zipf` and `buffer_size` ran at twice the
    /// hardware threads; each is now a `fig3` command with the same cells.
    #[test]
    fn the_folded_knob_rows_are_fig3_commands_with_the_same_cells() {
        let busy = hw_threads() * 2;
        let update_ratio = plan(
            "fig3",
            &format!(
                "--quick --structures list,hash --schemes leaky,epoch,threadscan \
                 --updates 0,10,20,50,100 --threads {busy}"
            ),
        );
        let want = deleted_row(
            QUICK,
            &[List, Hash],
            &[busy],
            &SchemeKind::OVERSUB,
            &[0, 10, 20, 50, 100],
            &[KeyDist::Uniform],
            &[1024],
        );
        assert_eq!(planned(&update_ratio), want);

        let zipf = plan(
            "fig3",
            &format!(
                "--quick --structures hash,list --schemes leaky,epoch,threadscan \
                 --skews uniform,0.5,0.9,0.99 --threads {busy}"
            ),
        );
        let skewed = |theta| KeyDist::Zipf { theta };
        let skews = [KeyDist::Uniform, skewed(0.5), skewed(0.9), skewed(0.99)];
        let want = deleted_row(
            QUICK,
            &[Hash, List],
            &[busy],
            &SchemeKind::OVERSUB,
            &[20],
            &skews,
            &[1024],
        );
        assert_eq!(planned(&zipf), want);

        let buffer_size = plan(
            "fig3",
            &format!(
                "--quick --structures hash --schemes threadscan --buffers 64,256 --threads {busy}"
            ),
        );
        let uniform = [KeyDist::Uniform];
        let want = deleted_row(
            QUICK,
            &[Hash],
            &[busy],
            &[ThreadScan],
            &[20],
            &uniform,
            &[64, 256],
        );
        assert_eq!(planned(&buffer_size), want);
        let labels: Vec<&str> = buffer_size.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["threadscan-64", "threadscan-256"]);
    }

    /// `pq` is `fig3` on the queue at 100 % updates. Its one intended
    /// difference: the queue holds the preset's 10 000 / `--scale`
    /// priorities, not a `--prefill` of its own.
    #[test]
    fn the_pq_row_is_a_fig3_command_with_the_same_cells() {
        let pq = plan(
            "fig3",
            "--quick --structures pq --updates 100 --schemes leaky,hazard,epoch,threadscan \
             --threads 1,2,4,8",
        );
        let schemes = [Leaky, Hazard, Epoch, ThreadScan];
        let uniform = [KeyDist::Uniform];
        let want = deleted_row(
            QUICK,
            &[Pq],
            &[1, 2, 4, 8],
            &schemes,
            &[100],
            &uniform,
            &[1024],
        );
        assert_eq!(planned(&pq), want);
        let resident = WorkloadParams::fig3(Pq, 1).scaled_down(64).initial_size;
        assert_eq!(resident, 10_000 / 64);
        assert!(pq.cells.iter().all(|c| c.params.initial_size == resident));
    }

    /// `garbage` sampled unreclaimed nodes in a loop of its own; every
    /// cell samples them now, so it is this `fig3` command. Its intended
    /// differences: epoch runs at the registry's threshold of 1024 (was
    /// 256), slow-epoch at 1024 / 40 ms / every 4096 ops (was 256 / 40 ms
    /// / 2048), and the list holds 1024 of 2048 keys at 50/50
    /// insert/remove (was 512 of 1024, each remove re-inserted).
    #[test]
    fn the_garbage_row_is_a_fig3_command_with_the_same_cells() {
        let garbage = plan(
            "fig3",
            "--structures list --updates 100 --schemes epoch,slow-epoch,threadscan \
             --buffers 256 --threads 4 --scale 1 --duration 3 --repeats 1",
        );
        let at = (1, Duration::from_secs(3));
        let uniform = [KeyDist::Uniform];
        let mut want = deleted_row(
            at,
            &[List],
            &[4],
            &[Epoch, SlowEpoch],
            &[100],
            &uniform,
            &[1024],
        );
        want.extend(deleted_row(
            at,
            &[List],
            &[4],
            &[ThreadScan],
            &[100],
            &uniform,
            &[256],
        ));
        want.sort();
        assert_eq!(planned(&garbage), want);
        let labels: Vec<&str> = garbage.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["epoch", "slow-epoch", "threadscan-256"]);
        for c in &garbage.cells {
            assert_eq!((c.params.initial_size, c.params.key_range), (1024, 2048));
        }
        assert_eq!(garbage.common.repeats, 1);
    }

    /// Without an axis flag the figures plan the cells and labels they
    /// always have: fig3's 3 structures × 2 threads × 5 schemes, and
    /// fig4's three schemes plus the tuned `threadscan-4096` on the hash
    /// table alone.
    #[test]
    fn without_axis_flags_the_figures_plan_their_paper_cells() {
        let fig3 = plan("fig3", "--quick");
        let mut want = Vec::new();
        for kind in StructureKind::ALL {
            for t in [1, 2] {
                for scheme in SchemeKind::ALL {
                    want.push(format!("{} {t} {}", kind.label(), scheme.label()));
                }
            }
        }
        let row = |c: &Cell| {
            format!(
                "{} {} {}",
                c.params.structure.label(),
                c.params.threads,
                c.label
            )
        };
        assert_eq!(fig3.cells.iter().map(row).collect::<Vec<_>>(), want);
        assert_eq!(fig3.cells.len(), 30);
        let uniform = [KeyDist::Uniform];
        let all = deleted_row(
            QUICK,
            &StructureKind::ALL,
            &[1, 2],
            &SchemeKind::ALL,
            &[20],
            &uniform,
            &[1024],
        );
        assert_eq!(planned(&fig3), all);

        let fig4 = plan("fig4", "--quick");
        let mut want = Vec::new();
        for kind in StructureKind::ALL {
            for t in [2, 4] {
                for scheme in SchemeKind::OVERSUB {
                    want.push(format!("{} {t} {}", kind.label(), scheme.label()));
                }
                if kind == Hash {
                    want.push(format!("hash {t} threadscan-4096"));
                }
            }
        }
        assert_eq!(fig4.cells.iter().map(row).collect::<Vec<_>>(), want);
        for c in &fig4.cells {
            let tuned = c.label == "threadscan-4096";
            let cap = if tuned { 4096 } else { 1024 };
            assert_eq!(c.params.ts_buffer_capacity, cap, "{}", row(c));
        }
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
                              --json out.jsonl --trace-out trace.json";
        for e in TABLE {
            let Run::Sweep(plan) = e.run else { continue };
            // service_tail's table is sized by --keys.
            let scale = if e.name == "service_tail" {
                ""
            } else {
                "--scale 64"
            };
            let own = match e.name {
                "fig3" => {
                    "--structures list --schemes leaky --updates 20 --skews uniform \
                     --buffers 1024"
                }
                "service_tail" => "--qps 1000 --schemes leaky --keys 1024 --theta 0.9",
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
