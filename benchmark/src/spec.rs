//! The benchmark's fixed shape: workloads, metrics, bounds. `BENCHMARK.json`
//! at the repo root states the same thing for the driver; a unit test keeps
//! the two in step.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Structure {
    /// `LockFreeHashTable::for_expected_nodes(resident)`.
    Hash,
    /// `HarrisList::new()`.
    List,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub structure: Structure,
    /// Keys resident after prefill; the key range is twice this.
    pub resident: usize,
    pub update_pct: u64,
    /// `Some(rate)`: open loop, Poisson arrivals at `rate` ops/s per worker.
    /// `None`: closed loop, each worker issues its next op on completion.
    pub arrivals_per_worker: Option<f64>,
}

impl Workload {
    pub fn key_range(&self) -> u64 {
        2 * self.resident as u64
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hash_paper",
        why:
            "Fig. 3 hash cell (131072 of 262144 keys, 20% updates): collect is ~1% of time, so it \
              is the control for collect-path work and shows fast-path costs",
        structure: Structure::Hash,
        resident: 131_072,
        update_pct: 20,
        arrivals_per_worker: None,
    },
    Workload {
        name: "hash_churn",
        why:
            "small hash (4096 of 8192 keys), 100% updates: hundreds of collects/s, so sort, scan, \
              signal, free and the retire path dominate",
        structure: Structure::Hash,
        resident: 4_096,
        update_pct: 100,
        arrivals_per_worker: None,
    },
    Workload {
        name: "list_paper",
        why: "Fig. 3 list cell (1024 of 2048 keys, 20% updates): ~500 hops per op, so traversal \
              and guard cost are everything and reclamation nothing",
        structure: Structure::List,
        resident: 1_024,
        update_pct: 20,
        arrivals_per_worker: None,
    },
    Workload {
        name: "hash_service",
        why: "hash_churn table and mix as an open loop (Poisson, 200000 ops/s per worker, ~10% \
              utilisation): p99 is the collect stall, so longer stalls show",
        structure: Structure::Hash,
        resident: 4_096,
        update_pct: 100,
        arrivals_per_worker: Some(200_000.0),
    },
];

/// An op of `hash_service` later than this after its intended arrival has
/// failed.
pub const SERVICE_LIMIT_NS: u64 = 1_000_000_000;

/// A traced op longer than this ran, or was interrupted by, a collect; its
/// span is kept whole instead of being folded into a histogram.
pub const STALL_NS: u64 = 20_000;

/// How the repeats of one run become the run's value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reduce {
    /// The repeat on the metric's better side. For rates and times: on a
    /// shared box interference only ever slows a repeat down, in phases of
    /// 10-30 s, so the fastest repeat is both the steadiest estimate and
    /// the one closest to what the code can do (README, "Noise").
    Best,
    /// For space, which interference pushes either way.
    Median,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub reduce: Reduce,
    /// Share of the baseline median by which the metric may worsen.
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    reduce: Reduce,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        reduce,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        reduce: Reduce::Median,
        bound: None,
    }
}

pub const END_TO_END: [Metric; 5] = [
    e2e("ops_per_s", "1/s", true, Reduce::Best, 0.25),
    e2e("op_p50_us", "us", false, Reduce::Best, 0.25),
    e2e(
        "unreclaimed_mean_nodes",
        "count",
        false,
        Reduce::Median,
        0.20,
    ),
    e2e("rss_peak_mb", "MB", false, Reduce::Median, 0.10),
    e2e("setup_s", "s", false, Reduce::Best, 0.25),
];

pub const PER_LAYER: [Metric; 34] = [
    // Traced pass: spans around every set op, collector counters over the window.
    layer("structures.contains_ns_p50", "ns", false),
    layer("structures.insert_ns_p50", "ns", false),
    layer("structures.remove_ns_p50", "ns", false),
    layer("core.stall_ops_share", "share", false),
    layer("core.stall_time_share", "share", false),
    layer("core.collects_per_s", "1/s", false),
    layer("core.collect_us_mean", "us", false),
    layer("core.collect_time_share", "share", false),
    layer("core.retired_per_collect", "count", true),
    layer("core.words_per_collect", "count", false),
    layer("core.survivor_ratio", "share", false),
    layer("smr.leaky_ops_per_s", "1/s", true),
    layer("service.achieved_rate", "1/s", true),
    layer("service.sched_lag_max_us", "us", false),
    layer("service.op_p99_us", "us", false),
    layer("bench.trace_overhead_pct", "%", false),
    // Layer probes: one rung each, in isolation.
    layer("smr.pin_unpin_ns", "ns", false),
    layer("structures.hash_contains_ns", "ns", false),
    layer("structures.list_contains_ns", "ns", false),
    layer("structures.skip_contains_ns", "ns", false),
    layer("alloc.box_node_ns", "ns", false),
    layer("alloc.pool_node_ns", "ns", false),
    layer("core.buffer_push_ns", "ns", false),
    layer("core.retire_ns", "ns", false),
    layer("core.retire_contended_ns", "ns", false),
    layer("core.master_build_ns_per_entry.2k", "ns", false),
    layer("core.master_build_ns_per_entry.32k", "ns", false),
    layer("core.scan_ns_per_word", "ns", false),
    layer("core.scan_miss_ns_per_word", "ns", false),
    layer("core.free_ns_per_node", "ns", false),
    layer("core.collect_self_us", "us", false),
    layer("core.collect_peers_us", "us", false),
    layer("sigscan.roundtrip_us", "us", false),
    layer("sigscan.roundtrip_idle_us", "us", false),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; pull out every `"name": "…"`
    /// and the bounds and compare with the tables above.
    #[test]
    fn benchmark_json_names_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let start = text
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("no {key}"));
            let open = start + text[start..].find('[').unwrap();
            &text[open..open + text[open..].find(']').unwrap()]
        };
        let field = |section: &str, key: &str| -> Vec<String> {
            section
                .split(&format!("\"{key}\":"))
                .skip(1)
                .map(|rest| {
                    rest.trim_start()
                        .trim_start_matches('"')
                        .split(['"', ',', '}'])
                        .next()
                        .unwrap()
                        .trim()
                        .to_string()
                })
                .collect()
        };
        let names = |ms: &[Metric]| ms.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        let units = |ms: &[Metric]| ms.iter().map(|m| m.unit.to_string()).collect::<Vec<_>>();
        let better = |ms: &[Metric]| {
            ms.iter()
                .map(|m| {
                    if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    }
                    .to_string()
                })
                .collect::<Vec<_>>()
        };

        let w = section("workloads");
        assert_eq!(field(w, "name"), WORKLOADS.map(|w| w.name.to_string()));
        let e = section("end_to_end");
        assert_eq!(field(e, "name"), names(&END_TO_END));
        assert_eq!(field(e, "unit"), units(&END_TO_END));
        assert_eq!(field(e, "better"), better(&END_TO_END));
        let bounds: Vec<f64> = field(e, "bound")
            .iter()
            .map(|b| b.parse().unwrap())
            .collect();
        assert_eq!(bounds, END_TO_END.map(|m| m.bound.unwrap()));
        let p = section("per_layer");
        assert_eq!(field(p, "name"), names(&PER_LAYER));
        assert_eq!(field(p, "unit"), units(&PER_LAYER));
        assert_eq!(field(p, "better"), better(&PER_LAYER));
    }
}
