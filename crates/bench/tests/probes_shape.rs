//! The shape of the one per-layer path outside the frozen benchmark:
//! `ts-bench probes` reports five rows, each with its spread, and the
//! experiment table and the scheme registry hold what the paper's
//! evaluation has and nothing else.

use std::process::Command;

use ts_workload::{json, SchemeKind};

fn ts_bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ts-bench"))
        .args(args)
        .output()
        .expect("spawn ts-bench");
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn probes_reports_five_rows_with_their_spread() {
    let path = std::env::temp_dir().join(format!("ts-bench-probes-{}.jsonl", std::process::id()));
    ts_bench(&[
        "probes",
        "--quick",
        "--json",
        path.to_str().expect("utf-8 path"),
    ]);
    let written = std::fs::read_to_string(&path).expect("probes wrote --json");
    std::fs::remove_file(&path).expect("remove the report");

    let rows: Vec<json::Value> = written
        .lines()
        .map(|line| json::parse(line).expect("one JSON object per line"))
        .collect();
    let names: Vec<&str> = rows.iter().filter_map(|r| r["probe"].as_str()).collect();
    assert_eq!(
        names,
        [
            "epoch_begin_end_pair",
            "epoch_retire",
            "hazard_protect_release",
            "free_own_16B",
            "free_foreign_16B",
        ]
    );
    for row in &rows {
        let ns = ["fastest_ns", "q1_ns", "median_ns", "q3_ns"]
            .map(|key| row[key].as_f64().expect("a number"));
        assert!(ns[0] > 0.0 && ns[3].is_finite(), "{row:?}");
        assert!(ns.windows(2).all(|w| w[0] <= w[1]), "{row:?}");
    }
}

/// The table is four rows. The closed-loop knob rows (`buffer_size`,
/// `update_ratio`, `zipf`, `pq`) and `garbage` are `fig3` commands;
/// `stacktrack`, `ordering`, `hetero`, `telemetry` and `growth` are gone.
#[test]
fn the_table_is_exactly_the_four_rows() {
    let listing = ts_bench(&["list"]);
    let names: Vec<&str> = listing
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        names,
        ["fig3", "fig4", "service_tail", "probes"],
        "{listing}"
    );
}

#[test]
fn the_schemes_are_the_papers_five() {
    assert_eq!(SchemeKind::parse("stacktrack"), None);
    assert_eq!(SchemeKind::ALL.len(), 5);
    for kind in SchemeKind::ALL {
        assert_eq!(SchemeKind::parse(kind.label()), Some(kind));
    }
}
