//! `ts-bench pairs`: the pair protocol a performance claim in this repo is
//! judged by, as code.
//!
//! It runs two builds of the frozen benchmark package (`benchmark/`), the
//! parent's and the change's, in alternation. Pair `i` runs seed `i` on
//! every workload, the parent first on odd seeds and the change first on
//! even ones, each as `<bin> --workload <name> --seed <i> --seconds <s>
//! --trace <0|1>`; the last line a run prints is its JSON result. For
//! every workload and every metric `BENCHMARK.json` declares for that pass
//! (end-to-end under `--trace 0`, per-layer under `--trace 1`), it reports
//! both sides' median and quartiles, the change's median against the
//! parent's, and in how many pairs the change read better. An end-to-end
//! metric is **unresolved** when the parent's own spread, `(q3 - q1) /
//! median`, is wider than its bound: a move that size cannot be told from
//! noise. A per-layer metric, which has no bound, is **unresolved** when
//! the two sides' q1–q3 ranges overlap, and **moved** when they do not.
//!
//! An end-to-end metric whose change median reads worse than the parent's
//! by more than its bound, or a workload whose failed-op share rose, is a
//! breach: exit status 1, unless `--no-gate`. `--json <file>` writes the
//! whole record, raw per-pair values included, as one JSON document in
//! `BENCH_baseline.json`'s shape: `BENCH_<pr>.json` at the repo root.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use ts_workload::json::{self, object, Value};

use crate::bespoke::quartiles;
use crate::cli::{hw_threads, machine_info, usage_error, write_output, CliArgs};

/// The benchmark's declaration: its workloads and its metrics.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// A metric `BENCHMARK.json` declares.
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// How much worse the change's median may read, as a share of the
    /// parent's: end-to-end metrics only.
    bound: Option<f64>,
}

impl Metric {
    fn of(declared: &Value) -> Self {
        let text = |key: &str| declared[key].as_str().unwrap_or_default().to_string();
        Self {
            name: text("name"),
            unit: text("unit"),
            higher_is_better: declared["better"] == "higher",
            bound: declared["bound"].as_f64(),
        }
    }

    /// How much worse `change` reads than `parent`, as a share of
    /// `parent`: negative when it reads better.
    fn worse_by(&self, parent: f64, change: f64) -> f64 {
        let delta = relative(parent, change);
        if self.higher_is_better {
            -delta
        } else {
            delta
        }
    }
}

/// `change` against `parent`, as a share of `parent`; 0 when they are
/// equal, a metric that reads 0 on both sides included.
fn relative(parent: f64, change: f64) -> f64 {
    if change == parent {
        0.0
    } else {
        (change - parent) / parent
    }
}

/// What `BENCHMARK.json` declares.
struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn spec() -> Spec {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
    let items = |key: &str| match &doc[key] {
        Value::Array(items) => items.clone(),
        _ => panic!("BENCHMARK.json has no {key:?} list"),
    };
    Spec {
        workloads: items("workloads")
            .iter()
            .map(|w| w["name"].as_str().unwrap_or_default().to_string())
            .collect(),
        end_to_end: items("end_to_end").iter().map(Metric::of).collect(),
        per_layer: items("per_layer").iter().map(Metric::of).collect(),
    }
}

/// What one run of the benchmark reported.
struct Run {
    metrics: BTreeMap<String, f64>,
    attempted: f64,
    failed: f64,
    /// The commit the binary's `# …, commit <hash>` header line names.
    commit: Option<String>,
}

/// `failed / attempted`, or 0 when nothing was attempted.
fn share(failed: f64, attempted: f64) -> f64 {
    if attempted > 0.0 {
        failed / attempted
    } else {
        0.0
    }
}

/// Reads one run's stdout: the header's commit and the JSON result on the
/// last line.
fn parse_run(stdout: &str) -> Result<Run, String> {
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let doc = json::parse(last.ok_or("printed nothing")?)?;
    if doc["correct"] != true {
        return Err("its result is not `correct: true`".into());
    }
    let Value::Object(metrics) = &doc["metrics"] else {
        return Err("its result has no metrics object".into());
    };
    let metrics = metrics.iter().map(|(name, m)| {
        let value = m["value"].as_f64();
        value
            .map(|v| (name.clone(), v))
            .ok_or(format!("metric {name} has no numeric value"))
    });
    let count = |key: &str| doc[key].as_f64().ok_or(format!("no {key} count"));
    let commit = stdout.lines().find_map(|line| {
        let (_, commit) = line.strip_prefix("# ")?.rsplit_once(", commit ")?;
        Some(commit.trim().to_string()).filter(|c| c != "unknown")
    });
    Ok(Run {
        metrics: metrics.collect::<Result<_, String>>()?,
        attempted: count("attempted")?,
        failed: count("failed")?,
        commit,
    })
}

/// Ends the process with status 1: a run that cannot be read cannot be
/// compared.
fn run_failed(what: &str, why: &str) -> ! {
    eprintln!("ts-bench: {what}: {why}");
    std::process::exit(1);
}

/// One pass of one workload on `bin`.
fn run_once(bin: &str, workload: &str, seed: usize, seconds: f64, trace: usize) -> Run {
    let (seed, seconds, trace) = (seed.to_string(), seconds.to_string(), trace.to_string());
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        &trace,
    ];
    let command = format!("{bin} {}", args.join(" "));
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .unwrap_or_else(|e| run_failed(&command, &e.to_string()));
    if !out.status.success() {
        run_failed(&command, &format!("exited with {}", out.status));
    }
    parse_run(&String::from_utf8_lossy(&out.stdout)).unwrap_or_else(|e| run_failed(&command, &e))
}

/// Both sides' runs of one workload, in pair order.
#[derive(Default)]
struct Sides {
    parent: Vec<Run>,
    change: Vec<Run>,
}

/// One metric of one workload, both sides compared.
struct Compared {
    parent: Vec<f64>,
    change: Vec<f64>,
    /// `(q1, median, q3)` of each side.
    parent_q: (f64, f64, f64),
    change_q: (f64, f64, f64),
    /// Pairs in which the change read strictly better.
    change_better: usize,
    /// The change's median against the parent's, signed so that positive
    /// is worse.
    worse_by: f64,
}

impl Compared {
    fn new(metric: &Metric, parent: Vec<f64>, change: Vec<f64>) -> Self {
        let pairs = parent.iter().zip(&change);
        let change_better = pairs.filter(|(p, c)| metric.worse_by(**p, **c) < 0.0);
        let (parent_q, change_q) = (quartiles(&parent), quartiles(&change));
        Self {
            change_better: change_better.count(),
            worse_by: metric.worse_by(parent_q.1, change_q.1),
            parent,
            change,
            parent_q,
            change_q,
        }
    }

    /// The parent's inter-quartile range over its median.
    fn parent_spread(&self) -> f64 {
        let (q1, median, q3) = self.parent_q;
        (q3 - q1) / median
    }

    /// Whether the move cannot be told from noise: with a `bound`, the
    /// parent's spread is wider than it; without one, the two sides' q1–q3
    /// ranges overlap.
    fn unresolved(&self, bound: Option<f64>) -> bool {
        let ((p1, _, p3), (c1, _, c3)) = (self.parent_q, self.change_q);
        match bound {
            Some(bound) => self.parent_spread() > bound,
            None => p1 <= c3 && c1 <= p3,
        }
    }
}

/// `x` to four significant digits.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 || !x.is_finite() {
        0
    } else {
        (3 - x.abs().log10().floor() as i32).clamp(0, 6) as usize
    };
    format!("{x:.digits$}")
}

/// Runs the pairs; see the module documentation.
///
/// Flags: `--parent <bin>` and `--change <bin>` (required), `--pairs 10`,
/// `--workloads <every BENCHMARK.json workload>`, `--seconds 20`,
/// `--trace 0`, `--no-gate`, `--json <file>`.
pub fn pairs(args: &CliArgs) {
    let spec = spec();
    let binary = |key: &str| {
        let path = args
            .get(key)
            .unwrap_or_else(|| usage_error(format_args!("--{key} <benchmark binary> is required")));
        if !Path::new(path).is_file() {
            usage_error(format_args!("--{key} {path}: no such file"));
        }
        path.to_string()
    };
    let (parent_bin, change_bin) = (binary("parent"), binary("change"));
    let n = args.get_positive("pairs", 10);
    let known = |name: &str| spec.workloads.iter().find(|w| *w == name).cloned();
    let workloads = args.get_list("workloads", &spec.workloads, "benchmark workloads", known);
    let seconds = args.get_f64_in("seconds", 20.0, "positive", |s| s > 0.0 && s.is_finite());
    let trace = args.get_usize("trace", 0);
    if trace > 1 {
        usage_error(format_args!("--trace must be 0 or 1, got {trace}"));
    }
    let gate = !args.get_flag("no-gate");
    args.reject_unread(&["json"]);
    let metrics = if trace == 0 {
        &spec.end_to_end
    } else {
        &spec.per_layer
    };

    let mut runs: BTreeMap<&str, Sides> = BTreeMap::new();
    let total = 2 * n * workloads.len();
    let mut done = 0;
    for seed in 1..=n {
        for workload in &workloads {
            let sides = runs.entry(workload).or_default();
            let change_first = seed % 2 == 0;
            for change in [change_first, !change_first] {
                done += 1;
                let side = if change { "change" } else { "parent" };
                eprintln!("[{done}/{total}] {workload} seed {seed} {side}");
                let bin = if change { &change_bin } else { &parent_bin };
                let run = run_once(bin, workload, seed, seconds, trace);
                let into = if change {
                    &mut sides.change
                } else {
                    &mut sides.parent
                };
                into.push(run);
            }
        }
    }

    let first = runs.values().next().expect("at least one workload");
    let commit = |runs: &[Run]| {
        let commit = runs.first().and_then(|r| r.commit.clone());
        commit.unwrap_or_else(|| "unknown".to_string())
    };
    let (parent_commit, change_commit) = (commit(&first.parent), commit(&first.change));
    println!(
        "# pairs: {n} alternating pairs of {seconds} s, trace {trace}, {}; \
         parent {parent_commit}, change {change_commit}",
        machine_info()
    );

    let mut breaches = Vec::new();
    let mut workload_docs = Vec::new();
    for (workload, sides) in &runs {
        let shares = |runs: &[Run]| -> Vec<f64> {
            runs.iter().map(|r| share(r.failed, r.attempted)).collect()
        };
        let overall = |runs: &[Run]| {
            let attempted = runs.iter().map(|r| r.attempted).sum();
            share(runs.iter().map(|r| r.failed).sum(), attempted)
        };
        let (parent_share, change_share) = (overall(&sides.parent), overall(&sides.change));
        if change_share > parent_share {
            breaches.push(format!(
                "{workload}: failed-op share {change_share} > the parent's {parent_share}"
            ));
        }
        println!(
            "== {workload}: failed-op share parent {}, change {}",
            sig(parent_share),
            sig(change_share)
        );
        println!(
            "{:<38} {:>28} {:>28} {:>8} {:>7}  verdict",
            "metric", "parent median (q1–q3)", "change median (q1–q3)", "worse", "better"
        );
        let mut metric_docs = Vec::new();
        for metric in metrics {
            let column = |runs: &[Run]| -> Vec<f64> {
                let value = |r: &Run| {
                    r.metrics.get(&metric.name).copied().unwrap_or_else(|| {
                        run_failed(workload, &format!("a run did not report {}", metric.name))
                    })
                };
                runs.iter().map(value).collect()
            };
            let cmp = Compared::new(metric, column(&sides.parent), column(&sides.change));
            let unresolved = cmp.unresolved(metric.bound);
            let breach = metric.bound.filter(|&bound| cmp.worse_by > bound);
            if let Some(bound) = breach {
                breaches.push(format!(
                    "{workload} {}: {:+.1} % worse (bound {:.0} %)",
                    metric.name,
                    100.0 * cmp.worse_by,
                    100.0 * bound
                ));
            }
            let verdict = match (breach, unresolved, metric.bound) {
                (Some(_), _, _) => "BREACH",
                (None, true, _) => "unresolved",
                (None, false, Some(_)) => "ok",
                (None, false, None) => "moved",
            };
            let quoted = |(q1, median, q3): (f64, f64, f64)| {
                format!("{} ({}–{})", sig(median), sig(q1), sig(q3))
            };
            println!(
                "{:<38} {:>28} {:>28} {:>+7.1}% {:>3}/{:<3}  {verdict}",
                metric.name,
                quoted(cmp.parent_q),
                quoted(cmp.change_q),
                100.0 * cmp.worse_by,
                cmp.change_better,
                n
            );
            let better = if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let mut doc = vec![
                ("unit", metric.unit.as_str().into()),
                ("better", better.into()),
                ("parent", cmp.parent.iter().copied().collect()),
                ("change", cmp.change.iter().copied().collect()),
                ("parent_q1", cmp.parent_q.0.into()),
                ("parent_median", cmp.parent_q.1.into()),
                ("parent_q3", cmp.parent_q.2.into()),
                ("change_q1", cmp.change_q.0.into()),
                ("change_median", cmp.change_q.1.into()),
                ("change_q3", cmp.change_q.2.into()),
                ("parent_iqr_over_median", cmp.parent_spread().into()),
                (
                    "change_vs_parent_median",
                    relative(cmp.parent_q.1, cmp.change_q.1).into(),
                ),
                ("pairs_change_better", cmp.change_better.into()),
                ("unresolved", Value::Bool(unresolved)),
            ];
            if let Some(bound) = metric.bound {
                doc.push(("bound", bound.into()));
            }
            metric_docs.push((metric.name.as_str(), object(doc)));
        }
        let failed_share = object([
            ("parent", shares(&sides.parent).into_iter().collect()),
            ("change", shares(&sides.change).into_iter().collect()),
        ]);
        let workload_doc = object([
            // A run that is not correct has already ended the process.
            ("correct", Value::Bool(true)),
            ("failed_share", failed_share),
            ("metrics", object(metric_docs)),
        ]);
        workload_docs.push((*workload, workload_doc));
    }

    if let Some(path) = args.get("json") {
        let doc = object([
            (
                "what",
                "alternating parent/change pairs of the frozen benchmark, by ts-bench pairs".into(),
            ),
            ("parent_commit", parent_commit.as_str().into()),
            ("change_commit", change_commit.as_str().into()),
            ("nproc", hw_threads().into()),
            ("host", machine_info().into()),
            ("pairs", n.into()),
            ("seconds", seconds.into()),
            ("trace", trace.into()),
            ("seeds", (1..=n).collect()),
            (
                "order",
                "seed-major over the workloads; odd seeds run the parent first, \
                 even seeds the change first"
                    .into(),
            ),
            (
                "command",
                format!(
                    "<binary> --workload <name> --seed <seed> --seconds {seconds} --trace {trace}"
                )
                .into(),
            ),
            (
                "quantiles",
                "python statistics.quantiles(n=4, method=\"inclusive\")".into(),
            ),
            (
                "unresolved_rule",
                "with a BENCHMARK.json bound (end to end): the parent's (q3 - q1) / median \
                 exceeds it; without one (per layer): the parent's and the change's q1-q3 \
                 ranges overlap, and the verdict is \"moved\" when they do not"
                    .into(),
            ),
            ("breaches", breaches.iter().map(String::as_str).collect()),
            ("workloads", object(workload_docs)),
        ]);
        let mut rendered = String::new();
        json::pretty(&doc, 0, &mut rendered);
        write_output(path, "json", "", |out| writeln!(out, "{rendered}"));
    }

    for breach in &breaches {
        println!("# breach: {breach}");
    }
    if gate && !breaches.is_empty() {
        eprintln!(
            "ts-bench: {} breach(es) of a BENCHMARK.json bound",
            breaches.len()
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_are_pythons_inclusive_method() {
        // statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive")
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn the_spec_is_the_benchmarks_declaration() {
        let spec = spec();
        assert_eq!(
            spec.workloads,
            ["hash_paper", "hash_churn", "list_paper", "hash_service"]
        );
        assert_eq!(spec.end_to_end.len(), 5);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let ops = &spec.end_to_end[0];
        assert_eq!(
            (ops.name.as_str(), ops.higher_is_better),
            ("ops_per_s", true)
        );
    }

    #[test]
    fn worse_is_signed_by_the_metrics_direction() {
        let metric = |higher_is_better| Metric {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: Some(0.1),
        };
        assert_eq!(metric(true).worse_by(100.0, 80.0), 0.2);
        assert_eq!(metric(false).worse_by(100.0, 80.0), -0.2);
        assert_eq!(metric(false).worse_by(0.0, 0.0), 0.0, "no NaN for 0 = 0");
        let cmp = Compared::new(&metric(false), vec![4.0, 5.0, 6.0], vec![3.0, 5.0, 7.0]);
        assert_eq!(cmp.change_better, 1, "a tie is not better");
        assert_eq!(cmp.worse_by, 0.0);
        assert_eq!(cmp.parent_spread(), 1.0 / 5.0);
    }

    #[test]
    fn a_metric_without_a_bound_is_unresolved_while_the_quartile_ranges_overlap() {
        let metric = Metric {
            name: "m".into(),
            unit: "ns".into(),
            higher_is_better: false,
            bound: None,
        };
        let parent = vec![10.0, 11.0, 12.0, 13.0, 14.0];
        let overlapping = Compared::new(&metric, parent.clone(), vec![12.5, 13.0, 14.0, 15.0]);
        assert!(overlapping.unresolved(None));
        let faster = Compared::new(&metric, parent.clone(), vec![5.0, 6.0, 7.0, 8.0]);
        let slower = Compared::new(&metric, parent, vec![20.0, 21.0, 22.0]);
        assert!(!faster.unresolved(None) && !slower.unresolved(None));
        assert!(faster.worse_by < 0.0 && slower.worse_by > 0.0);
        // A bound judges by the parent's own spread instead: 2 / 12.
        assert!(overlapping.unresolved(Some(0.1)));
        assert!(!slower.unresolved(Some(0.2)));
    }

    #[test]
    fn a_run_is_its_last_line_and_its_header_commit() {
        let stdout = "# ThreadScan benchmark: nproc 2\n\
                      # rustc 1.90.0 (abc 2025-01-01), commit 61e35a5\n\
                      hash_churn (why)\n\
                      {\"correct\": true, \"attempted\": 40, \"failed\": 2, \
                      \"metrics\": {\"ops_per_s\": {\"value\": 4.5, \"unit\": \"1/s\"}}}\n";
        let run = parse_run(stdout).unwrap();
        assert_eq!(run.commit.as_deref(), Some("61e35a5"));
        assert_eq!(run.metrics["ops_per_s"], 4.5);
        assert_eq!(share(run.failed, run.attempted), 0.05);
        let unknown = stdout.replace("61e35a5", "unknown");
        assert_eq!(parse_run(&unknown).unwrap().commit, None);
        assert!(parse_run(&stdout.replace("true", "false")).is_err());
        assert!(parse_run("").is_err());
    }

    #[test]
    fn sig_keeps_four_significant_digits() {
        assert_eq!(sig(4_480_123.0), "4480123");
        assert_eq!(sig(4.5901), "4.590");
        assert_eq!(sig(0.35512), "0.3551");
        assert_eq!(sig(0.0), "0");
    }
}
