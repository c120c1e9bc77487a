//! The one sweep loop: every figure and ablation is a list of cells plus
//! a few extra columns, run, tabulated and reported here.

use std::time::Duration;

use threadscan::{Hist, StatsSnapshot};
use ts_workload::SchemeKind::ThreadScan;
use ts_workload::{
    json, run_combo, CollectorReport, LatencySummary, Report, RunResult, SchemeKind, StructureKind,
    WorkloadParams,
};

use crate::cli::{machine_info, write_output, CliArgs};

/// The flags every sweep takes: `--quick` (a fast sanity shape),
/// `--duration <s>` and `--repeats <n>` per cell, `--trace-out <file>`,
/// and — unless the sweep sizes its structure from flags of its own —
/// `--scale <n>` dividing the paper's structure sizes.
pub struct Common {
    /// `--quick` was given.
    pub quick: bool,
    /// Measurement window per run.
    pub duration: Duration,
    /// Runs per cell (at least one); the row reports their mean throughput.
    pub repeats: usize,
    /// Structure sizes are divided by this.
    pub scale: usize,
    /// Install the telemetry sink on every cell's collector: `--trace-out`
    /// was given.
    pub telemetry: bool,
}

impl Common {
    /// Parses the shared flags; `full_secs` / `full_repeats` are the
    /// experiment's defaults for a real (non-`--quick`) sweep.
    pub fn parse(args: &CliArgs, full_secs: f64, full_repeats: usize) -> Self {
        let mut common = Self::unscaled(args, full_secs, full_repeats);
        common.scale = args.get_positive("scale", if common.quick { 64 } else { 1 });
        common
    }

    /// [`Self::parse`] for a sweep that sizes its structure from flags of
    /// its own: `--scale` stays 1 and unread, so giving it is an error.
    pub(crate) fn unscaled(args: &CliArgs, full_secs: f64, full_repeats: usize) -> Self {
        let quick = args.get_flag("quick");
        Self {
            quick,
            duration: args.get_span("duration", if quick { 0.25 } else { full_secs }),
            repeats: args.get_positive("repeats", if quick { 1 } else { full_repeats }),
            scale: 1,
            telemetry: args.trace_out().is_some(),
        }
    }

    /// The Figure 3 preset for `kind` at this sweep's scale and window.
    pub fn cell(&self, kind: StructureKind, threads: usize) -> WorkloadParams {
        WorkloadParams::fig3(kind, threads)
            .scaled_down(self.scale)
            .with_duration(self.duration)
            .with_telemetry(self.telemetry)
    }
}

/// One measured point: a scheme, the cell it runs, and the name the row
/// carries in the table and the JSON `scheme` field.
pub struct Cell {
    /// Reclamation scheme.
    pub scheme: SchemeKind,
    /// Row label: the scheme's own, with the buffer capacity for a
    /// ThreadScan cell off the paper's.
    pub label: String,
    /// The workload.
    pub params: WorkloadParams,
}

impl Cell {
    /// A cell labelled with its scheme, and a ThreadScan cell whose
    /// buffers are not [`WorkloadParams::PAPER_BUFFER`] with its capacity
    /// too (`threadscan-4096`).
    pub fn new(scheme: SchemeKind, params: WorkloadParams) -> Self {
        let cap = params.ts_buffer_capacity;
        let label = match scheme {
            ThreadScan if cap != WorkloadParams::PAPER_BUFFER => format!("threadscan-{cap}"),
            _ => scheme.label().to_string(),
        };
        Self {
            scheme,
            label,
            params,
        }
    }
}

/// An experiment-specific table column.
pub struct Column {
    /// Header.
    pub head: &'static str,
    /// Cell text for one finished row, given the report it is the last
    /// row of.
    pub value: fn(&Cell, &RunResult, &Report) -> String,
}

/// A column.
pub const fn col(head: &'static str, value: fn(&Cell, &RunResult, &Report) -> String) -> Column {
    Column { head, value }
}

/// The collector's counters for a row (zeros under other schemes).
pub fn ts(r: &RunResult) -> StatsSnapshot {
    r.threadscan.as_ref().map(|t| t.stats).unwrap_or_default()
}

/// Reclaimer collect-latency p50/p95/p99 in µs, from the row's histogram
/// (merged over the cell's repeats); `-` where no phase ran.
pub const COLLECT_TAIL: Column = col("collect-µs p50/95/99", |_, r, _| {
    let tail = |t: &CollectorReport| {
        let [a, b, c] = [0.50, 0.95, 0.99].map(|q| t.collect_us(q));
        Some(format!("{:.0}/{:.0}/{:.0}", a?, b?, c?))
    };
    r.threadscan.as_ref().and_then(tail).unwrap_or("-".into())
});

/// A planned experiment: what to run and what to show.
pub struct Sweep {
    /// Report name (`fig3`, `service_tail`, …).
    pub name: &'static str,
    /// The shared flags this plan was built from.
    pub common: Common,
    /// Cells, in run order.
    pub cells: Vec<Cell>,
    /// Columns after `structure scheme threads Mops/s`.
    pub columns: Vec<Column>,
    /// Also print the paper-style series grids (threads × schemes per
    /// structure, update % and key distribution); only meaningful when
    /// cells differ in nothing else.
    pub series: bool,
}

impl Sweep {
    /// An empty plan.
    pub fn new(name: &'static str, common: Common) -> Self {
        Self {
            name,
            common,
            cells: Vec::new(),
            columns: Vec::new(),
            series: false,
        }
    }

    /// Adds `kinds × threads × schemes` cells (that nesting), each the
    /// Figure 3 preset passed through `shape`; a ThreadScan cell becomes
    /// one cell per capacity in `buffers`, the one knob only it reads.
    pub fn grid(
        &mut self,
        kinds: &[StructureKind],
        threads: &[usize],
        schemes: &[SchemeKind],
        buffers: &[usize],
        shape: impl Fn(WorkloadParams) -> WorkloadParams,
    ) {
        for &kind in kinds {
            for &t in threads {
                for &scheme in schemes {
                    let params = shape(self.common.cell(kind, t));
                    if scheme != ThreadScan {
                        self.cells.push(Cell::new(scheme, params));
                        continue;
                    }
                    for &cap in buffers {
                        let params = params.clone().with_ts_buffer(cap);
                        self.cells.push(Cell::new(scheme, params));
                    }
                }
            }
        }
    }
}

/// Runs one cell `repeats` times and labels the row.
fn run_cell(cell: &Cell, repeats: usize) -> RunResult {
    let runs = (0..repeats).map(|_| run_combo(cell.scheme, &cell.params));
    let mut r = merge_repeats(runs.collect());
    r.scheme = cell.label.clone();
    r
}

/// Folds a cell's repeats into one row: the last run's, with the mean
/// throughput of all runs and — so a noisy final repeat cannot skew a
/// reported tail — the op-latency histogram with its worst op, the worst
/// scheduling lag and the unreclaimed-node samples of all of them. The
/// `threadscan` block covers every repeat too: its counters and latency
/// histogram are the repeats' merged ([`CollectorReport::merge`]), so its
/// totals are sums over the repeats and its maxima the largest.
fn merge_repeats(runs: Vec<RunResult>) -> RunResult {
    let repeats = runs.len();
    let mut ops_per_sec = 0.0;
    let mut latency = Hist::new();
    let (mut max_ns, mut lag_max_ns) = (0, 0);
    let mut samples = Vec::new();
    let mut threadscan: Option<CollectorReport> = None;
    for r in &runs {
        ops_per_sec += r.ops_per_sec;
        samples.extend_from_slice(&r.outstanding_samples);
        if let Some(ts) = &r.threadscan {
            threadscan.get_or_insert_default().merge(ts);
        }
        if let Some(lat) = &r.latency {
            latency.merge(&lat.hist);
            max_ns = max_ns.max(lat.max_ns);
        }
        if let Some(ol) = &r.open_loop {
            lag_max_ns = lag_max_ns.max(ol.sched_lag_max_ns);
        }
    }
    let mut r = runs.into_iter().last().expect("at least one repeat ran");
    r.ops_per_sec = ops_per_sec / repeats as f64;
    r.total_ops = (r.ops_per_sec * r.duration_s) as u64;
    r.outstanding_samples = samples;
    r.threadscan = threadscan;
    r.latency = LatencySummary::from_hist(latency, max_ns);
    if let Some(ol) = &mut r.open_loop {
        ol.sched_lag_max_ns = lag_max_ns;
    }
    r
}

/// Runs a plan: progress on stderr, one table row per cell on stdout,
/// then the `--trace-out` and `--json` outputs. A flag the plan did not
/// read ends the process (status 2) before the first cell.
pub fn sweep(args: &CliArgs, plan: Sweep) {
    // The plan has read its flags; the two epilogues below read theirs
    // after the cells ran, too late to call a typo a typo.
    args.reject_unread(&["json", "trace-out"]);
    let c = &plan.common;
    println!("# {} ({})", plan.name, machine_info());
    println!(
        "# duration={:?} repeats={} scale=1/{} telemetry={}",
        c.duration, c.repeats, c.scale, c.telemetry
    );
    let mut header = format!(
        "{:<13} {:<26} {:>7} {:>10}",
        "structure", "scheme", "threads", "Mops/s"
    );
    let widths = plan.columns.iter().map(|c| c.head.chars().count().max(12));
    let widths: Vec<usize> = widths.collect();
    for (col, w) in plan.columns.iter().zip(&widths) {
        header.push_str(&format!(" {:>w$}", col.head));
    }
    println!("{header}");

    let mut report = Report::new(plan.name);
    for (i, cell) in plan.cells.iter().enumerate() {
        eprintln!(
            "[{}/{}] {} {} t={}",
            i + 1,
            plan.cells.len(),
            cell.params.structure.label(),
            cell.label,
            cell.params.threads
        );
        report.push(run_cell(cell, c.repeats));
        let r = report.results().last().expect("just pushed");
        let mut row = format!(
            "{:<13} {:<26} {:>7} {:>10.3}",
            r.structure,
            r.scheme,
            r.threads,
            r.ops_per_sec / 1e6
        );
        for (col, w) in plan.columns.iter().zip(&widths) {
            row.push_str(&format!(" {:>w$}", (col.value)(cell, r, &report)));
        }
        println!("{row}");
    }
    if plan.series {
        println!("{}", report.render_series());
    }
    crate::trace::write_trace(args);
    if let Some(path) = args.get("json") {
        write_output(path, "json", "", |out| {
            json::write_lines(out, report.rows())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use ts_workload::OpenLoopExtras;

    /// An open-loop ThreadScan row whose ops took `latencies_ns`, with
    /// `lag_max_ns` as its worst scheduling lag; its collector ran one
    /// 8 ns phase per op and freed ten nodes per phase.
    fn open_run(latencies_ns: &[u64], lag_max_ns: u64) -> RunResult {
        let mut hist = Hist::new();
        latencies_ns.iter().for_each(|&ns| hist.record(ns));
        let max_ns = latencies_ns.iter().copied().max().unwrap_or(0);
        let mut collect = CollectorReport {
            stats: StatsSnapshot {
                collects: latencies_ns.len(),
                freed: 10 * latencies_ns.len(),
                ..Default::default()
            },
            collect_ns: Hist::new(),
        };
        latencies_ns
            .iter()
            .for_each(|_| collect.collect_ns.record(8));
        RunResult {
            scheme: "threadscan".into(),
            structure: "hash".into(),
            threads: 2,
            update_pct: 20,
            key_dist: "zipf(0.99)".into(),
            ts_buffer_capacity: WorkloadParams::PAPER_BUFFER,
            duration_s: 1.0,
            total_ops: latencies_ns.len() as u64,
            ops_per_sec: latencies_ns.len() as f64,
            outstanding_after: Some(0),
            outstanding_samples: Vec::new(),
            leaked: None,
            protection_slots: None,
            threadscan: Some(collect),
            bucket_count: None,
            latency: LatencySummary::from_hist(hist, max_ns),
            open_loop: Some(OpenLoopExtras {
                model: "poisson(3)".into(),
                target_qps: 3.0,
                sched_lag_max_ns: lag_max_ns,
                sched_lag_mean_ns: 0.0,
            }),
        }
    }

    /// Every tail a row reports covers all repeats, whichever repeat was
    /// last: the worst op and the worst lag here come from the first, and
    /// the unreclaimed-node samples are both repeats', in run order. So
    /// do the collector's counters, which agree with their histogram.
    #[test]
    fn a_rows_tails_merge_over_its_repeats() {
        let mut first = open_run(&[1_000, 2_000, 9_000_000], 700);
        first.outstanding_samples = vec![40, 900];
        let mut last = open_run(&[1_500], 50);
        last.outstanding_samples = vec![60];
        let r = merge_repeats(vec![first, last]);
        assert_eq!(r.outstanding_samples, [40, 900, 60]);
        let lat = r.latency.expect("both repeats measured latency");
        assert_eq!(lat.count, 4);
        assert_eq!(lat.hist.count(), 4);
        assert_eq!(lat.max_ns, 9_000_000);
        assert!(lat.p999_ns >= 4_000_000.0, "{lat:?}");
        assert_eq!(r.open_loop.expect("open loop").sched_lag_max_ns, 700);
        let ts = r.threadscan.expect("threadscan");
        assert_eq!(ts.collect_ns.buckets().collect::<Vec<_>>(), [(8, 4)]);
        assert_eq!(ts.collect_ns.count(), ts.stats.collects as u64);
        assert_eq!(ts.stats.freed, 30 + 10);
        assert_eq!(r.ops_per_sec, 2.0);
    }
}
