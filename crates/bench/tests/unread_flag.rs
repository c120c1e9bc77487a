//! A typo is not a measurement: `ts-bench` exits with status 2, naming
//! the flag, the stray word or the zero count, before it measures
//! anything — sweeps and bespoke experiments alike — while the correctly
//! spelt flag runs.

use std::process::{Command, Output};

fn ts_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ts-bench"))
        .args(args)
        .output()
        .expect("spawn ts-bench")
}

#[test]
fn a_misspelt_flag_fails_before_the_first_cell() {
    for (args, flag) in [
        (&["fig3", "--quick", "--thread", "1"][..], "--thread"),
        (&["fig3", "--quick", "--watermark", "8"][..], "--watermark"),
        (&["probes", "--quick", "--trial", "1"][..], "--trial"),
        (&["garbage", "--quick", "--json", "g.jsonl"][..], "--json"),
        // A word that is no flag and no flag's value.
        (&["fig3", "--quick", "--threads", "1", "2"][..], ": 2"),
        (&["fig3", "quick"][..], ": quick"),
        // A count of zero divides by it or indexes an empty sample set.
        (&["garbage", "--quick", "--samples", "0"][..], "--samples"),
        (&["probes", "--quick", "--trials", "0"][..], "--trials"),
        (&["probes", "--quick", "--iters", "0"][..], "--iters"),
    ] {
        let out = ts_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }
}

#[test]
fn the_correctly_spelt_flag_runs() {
    let out = ts_bench(&[
        "fig3",
        "--quick",
        "--threads",
        "1",
        "--structures",
        "list",
        "--schemes",
        "leaky",
        "--duration",
        "0.05",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows = stdout.lines().filter(|l| l.starts_with("list "));
    assert_eq!(rows.count(), 1, "{stdout}");
}
