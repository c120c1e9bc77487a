//! Result reporting: aligned text tables (the figure series) and the
//! JSON rows for downstream plotting.

use crate::json::{object, Value};
use crate::params::SchemeKind;
use crate::runner::RunResult;

/// Collects results for one experiment and renders them.
#[derive(Default)]
pub struct Report {
    results: Vec<RunResult>,
    /// Experiment identifier, e.g. `"fig3"`.
    pub experiment: String,
}

impl Report {
    /// A report for the named experiment.
    pub fn new(experiment: &str) -> Self {
        Self {
            results: Vec::new(),
            experiment: experiment.to_string(),
        }
    }

    /// Adds one measured cell.
    pub fn push(&mut self, result: RunResult) {
        self.results.push(result);
    }

    /// The measured cells, in the order pushed.
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// `r`'s p50, p99 and p999 latency, each over the Leaky row's of the
    /// same cell (structure, threads, mix, keys and offered rate) in this
    /// report. Scheduling lag that every scheme pays then cancels. `None`
    /// unless both rows measured latency.
    pub fn tail_vs_leaky(&self, r: &RunResult) -> Option<[f64; 3]> {
        fn cell(x: &RunResult) -> (&str, usize, u32, &str, Option<f64>) {
            let qps = x.open_loop.as_ref().map(|o| o.target_qps);
            (&x.structure, x.threads, x.update_pct, &x.key_dist, qps)
        }
        let leaky = SchemeKind::Leaky.label();
        let base = self
            .results
            .iter()
            .find(|b| b.scheme == leaky && cell(b) == cell(r))?;
        let (mine, theirs) = (r.latency.as_ref()?, base.latency.as_ref()?);
        Some([
            mine.p50_ns / theirs.p50_ns,
            mine.p99_ns / theirs.p99_ns,
            mine.p999_ns / theirs.p999_ns,
        ])
    }

    /// Renders the figure as the paper presents it: one block per
    /// workload — structure, update percentage and key distribution —
    /// thread counts as rows, schemes as columns, throughput (Mops/s) as
    /// cells.
    pub fn render_series(&self) -> String {
        let mut out = String::new();
        let block = |r: &RunResult| (r.structure.clone(), r.update_pct, r.key_dist.clone());
        let mut blocks: Vec<(String, u32, String)> = self.results.iter().map(block).collect();
        blocks.sort();
        blocks.dedup();
        for key in &blocks {
            let rows: Vec<&RunResult> = self.results.iter().filter(|r| block(r) == *key).collect();
            let (structure, pct, dist) = key;
            let mut schemes: Vec<String> = rows.iter().map(|r| r.scheme.clone()).collect();
            schemes.sort();
            schemes.dedup();
            let mut threads: Vec<usize> = rows.iter().map(|r| r.threads).collect();
            threads.sort_unstable();
            threads.dedup();

            out.push_str(&format!(
                "\n== {} : {structure}, {pct}% updates, {dist} keys (throughput, Mops/s) ==\n",
                self.experiment
            ));
            // A space before every column, however long its label
            // (`threadscan-4096`).
            let width = |s: &String| s.len().max(13);
            out.push_str(&format!("{:>8}", "threads"));
            for s in &schemes {
                out.push_str(&format!(" {s:>w$}", w = width(s)));
            }
            out.push('\n');
            for &t in &threads {
                out.push_str(&format!("{t:>8}"));
                for s in &schemes {
                    let w = width(s);
                    let cell = rows
                        .iter()
                        .find(|r| r.threads == t && &r.scheme == s)
                        .map(|r| format!(" {:>w$.3}", r.ops_per_sec / 1e6))
                        .unwrap_or_else(|| format!(" {:>w$}", "-"));
                    out.push_str(&cell);
                }
                out.push('\n');
            }
        }
        // Never silent: frees the reclaimer had to do itself are the
        // paced-free path degrading, so a run that had any says so.
        for r in &self.results {
            let stats = r.threadscan.as_ref().map(|ts| &ts.stats);
            if let Some(ts) = stats.filter(|ts| ts.overflow_frees > 0) {
                out.push_str(&format!(
                    "note: {}/{} threads: reclaimers freed {} of {} nodes themselves \
                     (no mailbox would take them); owners freed {}, {} of them right \
                     before an allocation\n",
                    r.structure,
                    r.threads,
                    ts.overflow_frees,
                    ts.freed,
                    ts.mailbox_frees,
                    ts.alloc_frees
                ));
            }
        }
        out
    }

    /// Every result as its JSON row, in the order pushed. A row with a
    /// [`Self::tail_vs_leaky`] also carries it, as `latency_vs_leaky`:
    /// `{"p50": …, "p99": …, "p999": …}`.
    pub fn rows(&self) -> impl Iterator<Item = Value> + '_ {
        self.results.iter().map(|r| {
            let mut row = r.to_value();
            if let (Some([p50, p99, p999]), Value::Object(members)) =
                (self.tail_vs_leaky(r), &mut row)
            {
                let ratios = [("p50", p50), ("p99", p99), ("p999", p999)];
                let ratios = object(ratios.map(|(k, v)| (k, v.into())));
                members.insert("latency_vs_leaky".into(), ratios);
            }
            row
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunResult;

    fn result(structure: &str, scheme: &str, threads: usize, mops: f64) -> RunResult {
        RunResult {
            scheme: scheme.into(),
            structure: structure.into(),
            threads,
            update_pct: 20,
            key_dist: "uniform".into(),
            ts_buffer_capacity: 1024,
            duration_s: 1.0,
            total_ops: (mops * 1e6) as u64,
            ops_per_sec: mops * 1e6,
            outstanding_after: Some(0),
            outstanding_samples: Vec::new(),
            leaked: None,
            protection_slots: None,
            threadscan: None,
            bucket_count: None,
            latency: None,
            open_loop: None,
        }
    }

    #[test]
    fn series_renders_grid() {
        let mut rep = Report::new("fig3");
        rep.push(result("list", "leaky", 1, 1.0));
        rep.push(result("list", "leaky", 2, 1.9));
        rep.push(result("list", "threadscan", 1, 0.9));
        rep.push(result("list", "threadscan", 2, 1.8));
        let s = rep.render_series();
        assert!(s.contains("fig3 : list"));
        assert!(s.contains("leaky"));
        assert!(s.contains("threadscan"));
        assert!(s.contains("1.900"));
    }

    #[test]
    fn overflow_frees_are_reported_only_when_nonzero() {
        let mut rep = Report::new("fig3");
        rep.push(result("list", "threadscan", 2, 1.8));
        assert!(!rep.render_series().contains("note:"));
        let mut degraded = result("hash", "threadscan", 4, 2.5);
        degraded.threadscan = Some(crate::CollectorReport {
            stats: threadscan::StatsSnapshot {
                freed: 1000,
                mailbox_frees: 900,
                alloc_frees: 850,
                overflow_frees: 70,
                ..Default::default()
            },
            ..Default::default()
        });
        rep.push(degraded);
        let s = rep.render_series();
        assert!(
            s.contains("note: hash/4 threads: reclaimers freed 70 of 1000 nodes themselves"),
            "{s}"
        );
        assert!(
            s.contains("owners freed 900, 850 of them right before an allocation"),
            "{s}"
        );
    }

    /// A swept axis splits the grid: the same (threads, scheme) at two
    /// update ratios is two blocks, not one cell that shows whichever
    /// row came first.
    #[test]
    fn rows_that_differ_only_in_update_pct_render_as_two_blocks() {
        let mut rep = Report::new("fig3");
        rep.push(result("hash", "leaky", 2, 1.25));
        let mut all_updates = result("hash", "leaky", 2, 0.75);
        all_updates.update_pct = 100;
        rep.push(all_updates);
        let s = rep.render_series();
        assert!(
            s.contains("== fig3 : hash, 20% updates, uniform keys"),
            "{s}"
        );
        assert!(
            s.contains("== fig3 : hash, 100% updates, uniform keys"),
            "{s}"
        );
        assert!(s.contains("1.250") && s.contains("0.750"), "{s}");
    }

    /// A label as wide as its column used to run into its neighbour
    /// (`slow-epochthreadscan-256`).
    #[test]
    fn long_scheme_labels_stay_apart() {
        let mut rep = Report::new("fig3");
        rep.push(result("list", "slow-epoch", 4, 0.4));
        rep.push(result("list", "threadscan-256", 4, 0.5));
        rep.push(result("list", "threadscan-4096", 4, 0.6));
        let s = rep.render_series();
        let header = s.lines().find(|l| l.contains("threads ")).expect("header");
        let words: Vec<&str> = header.split_whitespace().collect();
        assert_eq!(
            words,
            ["threads", "slow-epoch", "threadscan-256", "threadscan-4096"]
        );
        let row = s.lines().find(|l| l.trim_start().starts_with('4')).unwrap();
        assert_eq!(row.len(), header.len(), "{s}");
    }

    #[test]
    fn missing_cells_render_as_dash() {
        let mut rep = Report::new("x");
        rep.push(result("hash", "epoch", 1, 1.0));
        rep.push(result("hash", "leaky", 2, 2.0));
        let s = rep.render_series();
        assert!(s.contains('-'), "{s}");
    }

    #[test]
    fn json_lines_parse_back() {
        let mut rep = Report::new("fig4");
        rep.push(result("skiplist", "epoch", 100, 3.5));
        let mut lines = Vec::new();
        crate::json::write_lines(&mut lines, rep.rows()).unwrap();
        let lines = String::from_utf8(lines).unwrap();
        let v = crate::json::parse(lines.trim_end()).unwrap();
        assert_eq!(v["scheme"], "epoch");
        assert_eq!(v["threads"], 100);
    }

    /// A row whose ops took `ns` each, at `threads` threads.
    fn open_row(scheme: &str, threads: usize, ns: u64) -> RunResult {
        let mut hist = threadscan::Hist::new();
        (0..100).for_each(|_| hist.record(ns));
        let mut r = result("hash", scheme, threads, 1.0);
        r.latency = crate::LatencySummary::from_hist(hist, ns);
        r
    }

    #[test]
    fn tails_divide_by_leakys_on_the_same_cell_only() {
        let mut rep = Report::new("service_tail");
        rep.push(open_row("leaky", 2, 1_000));
        rep.push(open_row("threadscan", 2, 2_000));
        rep.push(open_row("threadscan", 8, 2_000));
        let rows: Vec<Value> = rep.rows().collect();
        let ratio = |i: usize, q: &str| rows[i].get("latency_vs_leaky").get(q).as_f64();
        assert_eq!(ratio(0, "p99"), Some(1.0));
        for q in ["p50", "p99", "p999"] {
            let r = ratio(1, q).expect("a Leaky row on its cell");
            assert!((r - 2.0).abs() < 0.07, "{q}: {r}");
        }
        assert_eq!(
            rows[2].get("latency_vs_leaky"),
            &Value::Null,
            "no Leaky row at 8"
        );
        let p99_ns = rows[1].get("latency").get("p99_ns").as_f64();
        assert!(p99_ns.is_some_and(|ns| ns > 1e3), "the absolute µs stay");
    }
}
