//! Figure 4 regeneration: throughput under oversubscription (more threads
//! than hardware contexts) for {Leaky, Epoch, ThreadScan}.
//!
//! "Slow Epoch and Hazard Pointers were not included in the
//! oversubscription experiment since they were shown not to scale well in
//! normal circumstances" (§6). The hash table additionally gets the tuned
//! ThreadScan line with 4096-entry per-thread buffers ("ThreadScan was
//! tuned for the hash table to improve performance").
//!
//! The thread ladder sweeps 1×–8× the hardware contexts, and every
//! ThreadScan row carries reclaimer collect-latency percentiles
//! (p50/p95/p99, from the collector's log2 latency histogram, merged
//! across all repeats of the cell) in the JSON report — under
//! oversubscription the *tail* is the story, not the mean.
//!
//! ```text
//! cargo run -p ts-bench --release --bin fig4_oversub -- \
//!     [--duration 2.0] [--repeats 2] [--threads ...] [--scale 1] \
//!     [--json out] \
//!     [--telemetry] [--trace-out trace.json]
//! ```
//!
//! `--trace-out` (which implies `--telemetry`) captures every collect's
//! phase timeline into a chrome://tracing / Perfetto document: each
//! collect decomposes into announce → signal → per-thread scan spans →
//! sort → free, one track per scanned thread.

use std::time::Duration;

use threadscan::Hist;
use ts_bench::cli::{machine_info, oversub_ladder, CliArgs};
use ts_workload::{run_combo, Report, SchemeKind, StructureKind, WorkloadParams};

fn main() {
    let args = CliArgs::parse();
    let quick = args.get_flag("quick");
    let duration =
        Duration::from_secs_f64(args.get_f64("duration", if quick { 0.25 } else { 2.0 }));
    let repeats = args.get_usize("repeats", if quick { 1 } else { 2 });
    let scale = args.get_usize("scale", if quick { 64 } else { 1 });
    let threads = args.get_usize_list(
        "threads",
        &if quick { vec![2, 4] } else { oversub_ladder() },
    );
    let telemetry = args.telemetry_requested();

    println!("# Figure 4: oversubscription ({})", machine_info());
    println!(
        "# duration={duration:?} repeats={repeats} scale=1/{scale} threads={threads:?} \
         telemetry={telemetry}"
    );

    let mut report = Report::new("fig4");
    for structure in StructureKind::ALL {
        for &t in &threads {
            for scheme in SchemeKind::OVERSUB {
                let params = WorkloadParams::fig3(structure, t)
                    .scaled_down(scale)
                    .with_duration(duration)
                    .with_telemetry(telemetry);
                run_cell(&mut report, scheme, &params, repeats, None);

                // The tuned line: hash table + ThreadScan + 4096 buffers.
                if structure == StructureKind::Hash && scheme == SchemeKind::ThreadScan {
                    let tuned = params.clone().with_ts_buffer(4096);
                    run_cell(
                        &mut report,
                        scheme,
                        &tuned,
                        repeats,
                        Some("threadscan-4096"),
                    );
                }
            }
        }
    }

    println!("{}", report.render_series());
    args.write_trace();
    args.write_json_report(&report);
}

fn run_cell(
    report: &mut Report,
    scheme: SchemeKind,
    params: &WorkloadParams,
    repeats: usize,
    rename: Option<&str>,
) {
    let mut acc = 0.0f64;
    let mut hist = Hist::new();
    let mut last = None;
    for _ in 0..repeats {
        let r = run_combo(scheme, params);
        acc += r.ops_per_sec;
        if let Some(ts) = &r.threadscan {
            hist.add_counts(&ts.collect_ns_hist);
        }
        last = Some(r);
    }
    let mut r = last.expect("repeats >= 1");
    r.ops_per_sec = acc / repeats as f64;
    if let Some(ts) = &mut r.threadscan {
        // Percentiles over *every* repeat's phases, matching the
        // averaged ops/sec — a noisy final repeat must not skew the
        // reported tail. `collects` is summed alongside so it stays
        // equal to the histogram's total; the remaining extras
        // (means, maxima) still describe the last repeat.
        ts.collect_us_p50 = hist.percentile_ns(0.50) / 1e3;
        ts.collect_us_p95 = hist.percentile_ns(0.95) / 1e3;
        ts.collect_us_p99 = hist.percentile_ns(0.99) / 1e3;
        ts.collect_ns_hist = hist.counts().iter().map(|&c| c as usize).collect();
        ts.collects = hist.count() as usize;
    }
    if let Some(name) = rename {
        r.scheme = name.to_string();
    }
    match &r.threadscan {
        Some(ts) if ts.collects > 0 => eprintln!(
            "  {:9} {:16} t={:<4} {:>10.3} Mops/s  collect-lat µs p50/p95/p99: \
             {:.1}/{:.1}/{:.1}",
            r.structure,
            r.scheme,
            params.threads,
            r.ops_per_sec / 1e6,
            ts.collect_us_p50,
            ts.collect_us_p95,
            ts.collect_us_p99,
        ),
        _ => eprintln!(
            "  {:9} {:16} t={:<4} {:>10.3} Mops/s",
            r.structure,
            r.scheme,
            params.threads,
            r.ops_per_sec / 1e6
        ),
    }
    report.push(r);
}
