//! `ts-bench pairs` against two stand-in benchmark binaries: shell
//! scripts that log how they were called and print a header and a JSON
//! result the way the frozen benchmark does. The pairs alternate, the
//! record holds every run's value, and a metric that reads worse than its
//! `BENCHMARK.json` bound fails the run unless `--no-gate`.

use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ts_workload::json::{self, Value};

/// A scratch directory of this test process's own, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ts-bench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A stand-in benchmark at `dir/side` reporting `ops_per_s` = `ops`, and
/// logging `<side> <args>` to `dir/calls`.
fn stand_in(dir: &Path, side: &str, ops: f64) -> PathBuf {
    let result = format!(
        "{{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {{\
         \"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}, \
         \"op_p50_us\": {{\"value\": 0.5, \"unit\": \"us\"}}, \
         \"unreclaimed_mean_nodes\": {{\"value\": 1024, \"unit\": \"count\"}}, \
         \"rss_peak_mb\": {{\"value\": 4.5, \"unit\": \"MB\"}}, \
         \"setup_s\": {{\"value\": 0.01, \"unit\": \"s\"}}}}}}"
    );
    let script = format!(
        "#!/bin/sh\necho \"{side} $*\" >> '{}'\necho '# rustc 1.0 (x), commit {side}0'\necho '{result}'\n",
        dir.join("calls").display()
    );
    let path = dir.join(side);
    std::fs::write(&path, script).unwrap();
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
    path
}

fn pairs(dir: &Path, parent: &Path, change: &Path, extra: &[&str]) -> Output {
    let (parent, change) = (parent.to_str().unwrap(), change.to_str().unwrap());
    let record = dir.join("record.json");
    Command::new(env!("CARGO_BIN_EXE_ts-bench"))
        .args([
            "pairs", "--parent", parent, "--change", change, "--pairs", "3",
        ])
        .args(["--workloads", "hash_churn,list_paper", "--seconds", "1.5"])
        .args(["--json", record.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("spawn ts-bench")
}

#[test]
fn pairs_alternate_and_the_record_holds_every_run() {
    let scratch = Scratch::new("pairs-record");
    let dir = &scratch.0;
    let parent = stand_in(dir, "parent", 100.0);
    let change = stand_in(dir, "change", 90.0);
    let out = pairs(dir, &parent, &change, &[]);
    assert!(out.status.success(), "{out:?}");

    let calls = std::fs::read_to_string(dir.join("calls")).unwrap();
    let calls: Vec<&str> = calls.lines().collect();
    let call = |side: &str, workload: &str, seed: usize| {
        format!("{side} --workload {workload} --seed {seed} --seconds 1.5 --trace 0")
    };
    let mut want = Vec::new();
    for seed in 1..=3 {
        for workload in ["hash_churn", "list_paper"] {
            let (first, second) = if seed % 2 == 1 {
                ("parent", "change")
            } else {
                ("change", "parent")
            };
            want.push(call(first, workload, seed));
            want.push(call(second, workload, seed));
        }
    }
    assert_eq!(calls, want);

    let record = std::fs::read_to_string(dir.join("record.json")).unwrap();
    let record = json::parse(&record).unwrap();
    assert_eq!(record["parent_commit"], "parent0");
    assert_eq!(record["change_commit"], "change0");
    assert_eq!(record["pairs"], 3);
    assert_eq!(record["breaches"], Value::Array(Vec::new()));
    let ops = &record["workloads"]["list_paper"]["metrics"]["ops_per_s"];
    assert_eq!(ops["parent"], Value::Array(vec![Value::Number(100.0); 3]));
    assert_eq!(ops["change_median"], 90.0);
    assert_eq!(ops["pairs_change_better"], 0);
    assert_eq!(ops["bound"], 0.25);
    assert_eq!(ops["unresolved"], false);
    let share = &record["workloads"]["hash_churn"]["failed_share"]["change"];
    assert_eq!(*share, Value::Array(vec![Value::Number(0.0); 3]));
}

#[test]
fn a_breached_bound_fails_unless_the_gate_is_off() {
    let scratch = Scratch::new("pairs-gate");
    let dir = &scratch.0;
    let parent = stand_in(dir, "parent", 100.0);
    let change = stand_in(dir, "change", 60.0);
    let out = pairs(dir, &parent, &change, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stdout.contains("# breach: hash_churn ops_per_s"),
        "{stdout}"
    );
    assert!(stdout.contains("BREACH"), "{stdout}");

    let out = pairs(dir, &parent, &change, &["--no-gate"]);
    assert!(out.status.success(), "{out:?}");
    let record = std::fs::read_to_string(dir.join("record.json")).unwrap();
    let breaches = json::parse(&record).unwrap()["breaches"].clone();
    let Value::Array(breaches) = breaches else {
        panic!("no breaches list")
    };
    assert_eq!(breaches.len(), 2, "one per workload: {breaches:?}");
}
