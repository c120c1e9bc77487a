//! The repo's one benchmark. See `README.md` beside this package for the
//! workloads, the metrics and how they interact.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [--seed N]      every workload, both passes
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>                one pass of one workload
//!     --selfcheck                                                             the matrix twice, compared
//!     --smoke                                                                 0.3 s per workload, all checks
//! ```
//!
//! The last line of stdout is one JSON object.

mod gen;
mod hist;
mod probes;
mod report;
mod run;
mod spec;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use gen::derive_seed;
use report::{median, parse_measured, render_measured, Json, Measured};
use spec::{Metric, Reduce, Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// Each end-to-end number is reduced over this many fresh processes.
const REPEATS: u32 = 5;
const WARMUP: Duration = Duration::from_millis(500);
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    selfcheck: bool,
    smoke: bool,
    // Set only by this program when it starts itself as a child.
    child: Option<String>,
    window_ms: u64,
    warmup_ms: u64,
    leaky: bool,
    traced: bool,
    trace_out: Option<PathBuf>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = num(&flag, value()?)?,
            "--seconds" => cli.seconds = Some(num(&flag, value()?)?),
            "--trace" => cli.trace = Some(num::<u8>(&flag, value()?)? != 0),
            "--selfcheck" => cli.selfcheck = true,
            "--smoke" => cli.smoke = true,
            "--child" => cli.child = Some(value()?),
            "--window-ms" => cli.window_ms = num(&flag, value()?)?,
            "--warmup-ms" => cli.warmup_ms = num(&flag, value()?)?,
            "--leaky" => cli.leaky = true,
            "--traced" => cli.traced = true,
            "--trace-out" => cli.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(s) = cli.seconds {
        if !(s.is_finite() && s > 0.0) {
            return Err(format!("--seconds {s}: must be positive"));
        }
    }
    Ok(cli)
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {known:?}")
    })
}

fn child_main(kind: &str, cli: &Cli) -> Result<(), String> {
    let measured = match kind {
        "run" => {
            let w = find_workload(
                cli.workload
                    .as_deref()
                    .ok_or("--child run needs --workload")?,
            )?;
            let args = run::RunArgs {
                seed: cli.seed,
                warmup: Duration::from_millis(cli.warmup_ms),
                window: Duration::from_millis(cli.window_ms),
                leaky: cli.leaky,
                traced: cli.traced,
                trace_out: cli.trace_out.clone(),
            };
            run::run(w, &args)?
        }
        "probes" => probes::run(cli.seed),
        other => return Err(format!("unknown child kind {other:?}")),
    };
    print!("{}", render_measured(&measured));
    Ok(())
}

/// Starts this binary again as a child, waits for it, and reads its report.
fn child(args: &[String]) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed: {}", out.status));
    }
    parse_measured(&String::from_utf8_lossy(&out.stdout))
}

/// How long each child warms up and measures.
#[derive(Clone, Copy)]
struct Plan {
    repeats: u32,
    warmup: Duration,
    window: Duration,
}

impl Plan {
    fn run_args(&self, w: &Workload, seed: u64) -> Vec<String> {
        [
            "--child",
            "run",
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--warmup-ms",
            &self.warmup.as_millis().to_string(),
            "--window-ms",
            &self.window.as_millis().to_string(),
        ]
        .map(String::from)
        .to_vec()
    }
}

/// What one pass over one workload produced, already reduced to the
/// metrics the pass is responsible for.
struct Outcome {
    metrics: Measured,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn json(&self, metrics: &[Metric]) -> Json {
        let values = metrics.iter().map(|m| {
            let value = Json::obj([
                ("value", Json::Num(self.metrics[m.name])),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name, value)
        });
        Json::obj([
            // A run that fails a check never gets this far: it exits non-zero.
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(values)),
        ])
    }

    fn print(&self, w: &Workload, metrics: &[Metric]) {
        println!("{} ({})", w.name, w.why);
        println!("  {} ops attempted, {} failed", self.attempted, self.failed);
        for m in metrics {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", may worsen {:.0}%", 100.0 * b));
            println!(
                "  {:<38} {:>16.4} {:<6} ({better} is better{bound})",
                m.name, self.metrics[m.name], m.unit
            );
        }
    }
}

fn reduce(m: &Metric, repeats: &[f64]) -> f64 {
    match (m.reduce, m.higher_is_better) {
        (Reduce::Median, _) => median(repeats),
        (Reduce::Best, true) => repeats.iter().copied().fold(f64::MIN, f64::max),
        (Reduce::Best, false) => repeats.iter().copied().fold(f64::MAX, f64::min),
    }
}

/// Untraced pass: `repeats` fresh processes, each metric reduced over them.
fn end_to_end(w: &Workload, seed: u64, plan: Plan) -> Result<Outcome, String> {
    let repeats: Vec<Measured> = (0..plan.repeats)
        .map(|r| child(&plan.run_args(w, derive_seed(seed, r as u64))))
        .collect::<Result<_, _>>()?;
    let column = |name: &str| repeats.iter().map(|m| m[name]).collect::<Vec<f64>>();
    let names = END_TO_END.iter().map(|m| m.name).chain(["latency_samples"]);
    for name in names.filter(|_| plan.repeats > 1) {
        println!("# {} {name} repeats: {:?}", w.name, column(name));
    }
    Ok(Outcome {
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), reduce(m, &column(m.name))))
            .collect(),
        attempted: column("attempted").iter().sum::<f64>() as u64,
        failed: column("failed").iter().sum::<f64>() as u64,
    })
}

fn trace_path(w: &Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace.{}.json", w.name))
}

/// Traced pass: one run with a span around every op, one without (the
/// collector's counters and the service numbers come from this one, so
/// tracing does not distort them, and the gap between the two is the
/// tracing overhead), the same workload under `Leaky`, and the layer probes.
fn per_layer(w: &Workload, seed: u64, plan: Plan) -> Result<Outcome, String> {
    let base = plan.run_args(w, seed);
    let with =
        |extra: &[&str]| [base.clone(), extra.iter().map(|s| s.to_string()).collect()].concat();
    let out = trace_path(w);
    let traced = child(&with(&["--traced", "--trace-out", &out.to_string_lossy()]))?;
    let untraced = child(&base)?;
    let leaky = child(&with(&["--leaky"]))?;
    let probes = child(&["--child", "probes", "--seed", &seed.to_string()].map(String::from))?;

    let mut metrics = untraced.clone();
    let from_spans = |name: &str| name.starts_with("structures.") || name.starts_with("core.stall");
    metrics.extend(
        traced
            .iter()
            .filter(|(name, _)| from_spans(name))
            .map(|(k, v)| (k.clone(), *v)),
    );
    metrics.extend(probes);
    metrics.insert("smr.leaky_ops_per_s".into(), leaky["ops_per_s"]);
    metrics.insert("service.op_p99_us".into(), untraced["op_p99_us"]);
    metrics.insert(
        "bench.trace_overhead_pct".into(),
        100.0 * (untraced["ops_per_s"] - traced["ops_per_s"]) / untraced["ops_per_s"],
    );
    metrics.retain(|name, _| PER_LAYER.iter().any(|m| m.name == name));
    if let Some(missing) = PER_LAYER.iter().find(|m| !metrics.contains_key(m.name)) {
        return Err(format!(
            "per-layer metric {} was not measured",
            missing.name
        ));
    }
    println!("# spans: {}", out.display());
    Ok(Outcome {
        metrics,
        attempted: (traced["attempted"] + untraced["attempted"]) as u64,
        failed: (traced["failed"] + untraced["failed"]) as u64,
    })
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn print_header(seed: u64, plan: Plan) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# ThreadScan benchmark: nproc {nproc}, workers {}, repeats {}, window {:.2} s after {:.2} s warm-up, seed {seed}",
        run::workers(),
        plan.repeats,
        plan.window.as_secs_f64(),
        plan.warmup.as_secs_f64(),
    );
    println!(
        "# {}, commit {}",
        tool_line("rustc", &["-V"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"])
    );
    println!("# one thread per core at most: Fig. 4-style oversubscription is not measured");
}

/// `--selfcheck`: the end-to-end matrix twice, back to back. Two runs of
/// the same code must agree within each metric's bound.
fn selfcheck(seed: u64, plan: Plan) -> Result<bool, String> {
    let matrix = || {
        WORKLOADS
            .iter()
            .map(|w| end_to_end(w, seed, plan))
            .collect::<Result<Vec<_>, _>>()
    };
    let (first, second) = (matrix()?, matrix()?);
    println!(
        "{:<14} {:<24} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut agree = true;
    for ((w, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        for m in &END_TO_END {
            let (a, b) = (a.metrics[m.name], b.metrics[m.name]);
            let diff = (b - a).abs() / a;
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = if diff <= bound { "" } else { "  OUTSIDE" };
            agree &= diff <= bound;
            println!(
                "{:<14} {:<24} {a:>16.4} {b:>16.4} {:>8.2}% {:>6.0}%{verdict}",
                w.name,
                m.name,
                100.0 * diff,
                100.0 * bound
            );
        }
    }
    Ok(agree)
}

fn parent_main(cli: &Cli) -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with --release".into());
    }
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return Err(
            "refusing to measure on one core: workers would share it with the reclaimer".into(),
        );
    }
    let seconds = cli.seconds.unwrap_or(DEFAULT_SECONDS);
    let timed = Plan {
        repeats: REPEATS,
        warmup: WARMUP,
        window: Duration::from_secs_f64(seconds / REPEATS as f64),
    };
    // The traced pass runs three windows plus the probes in about the same time.
    let traced = Plan {
        repeats: 1,
        warmup: WARMUP,
        window: Duration::from_secs_f64(seconds / 4.0),
    };

    if cli.smoke {
        let plan = Plan {
            repeats: 1,
            warmup: Duration::from_millis(100),
            window: Duration::from_millis(300),
        };
        print_header(cli.seed, plan);
        for w in &WORKLOADS {
            end_to_end(w, cli.seed, plan)?.print(w, &END_TO_END);
        }
        println!("smoke: every workload ran and passed its checks");
        return Ok(ExitCode::SUCCESS);
    }
    if cli.selfcheck {
        print_header(cli.seed, timed);
        let agree = selfcheck(cli.seed, timed)?;
        println!(
            "selfcheck: {}",
            if agree {
                "every pair within its bound"
            } else {
                "FAILED"
            }
        );
        return Ok(if agree {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let selected: Vec<&Workload> = match &cli.workload {
        Some(name) => vec![find_workload(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let passes: &[bool] = match cli.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    print_header(cli.seed, if passes == [true] { traced } else { timed });
    let mut results = Vec::new();
    for w in selected {
        for &trace in passes {
            let (outcome, metrics): (_, &[Metric]) = if trace {
                (per_layer(w, cli.seed, traced)?, &PER_LAYER)
            } else {
                (end_to_end(w, cli.seed, timed)?, &END_TO_END)
            };
            outcome.print(w, metrics);
            results.push((w.name, trace, outcome.json(metrics)));
        }
    }
    // One pass of one workload is the driver's contract: its object alone.
    let last_line = if let [(_, _, only)] = &results[..] {
        only.to_string()
    } else {
        let keyed = results
            .into_iter()
            .map(|(name, trace, json)| (format!("{name}.trace{}", trace as u8), json));
        Json::obj(keyed).to_string()
    };
    println!("{last_line}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let outcome = parse_cli().and_then(|cli| match cli.child.clone() {
        Some(kind) => child_main(&kind, &cli).map(|()| ExitCode::SUCCESS),
        None => parent_main(&cli),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
