//! A typo is not a measurement: `ts-bench` exits with status 2, naming
//! the flag, the stray word, the zero count or the malformed or
//! out-of-range value or the flag given twice, before it measures
//! anything — sweeps and `probes` alike — while the correctly spelt flag
//! runs. No input reaches a panic.

use std::process::{Command, Output};

fn ts_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ts-bench"))
        .args(args)
        .output()
        .expect("spawn ts-bench")
}

/// `ts-bench args` exits 2 with one `ts-bench: …` line containing
/// `needle` on stderr and nothing on stdout.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = ts_bench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with("ts-bench: "), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed before failing");
}

#[test]
fn a_misspelt_flag_fails_before_the_first_cell() {
    for (args, flag) in [
        (&["fig3", "--quick", "--thread", "1"][..], "--thread"),
        (&["fig3", "--quick", "--watermark", "8"][..], "--watermark"),
        (&["probes", "--quick", "--trial", "1"][..], "--trial"),
        // A word that is no flag and no flag's value.
        (&["fig3", "--quick", "--threads", "1", "2"][..], ": 2"),
        (&["fig3", "quick"][..], ": quick"),
        // A word after a boolean flag is no value of its.
        (&["fig3", "--quick", "x"][..], "--quick"),
        (&["fig3", "--quick", "--telemetry", "on"][..], "--telemetry"),
        // A flag given twice: the last value used to win silently.
        (
            &[
                "fig3",
                "--quick",
                "--structures",
                "list",
                "--schemes",
                "leaky",
                "--threads",
                "1",
                "--threads",
                "2",
            ][..],
            "given twice: --threads",
        ),
        // Arrivals are Poisson and every one is served: no bursts, no
        // shedding.
        (
            &["service_tail", "--quick", "--burst-ms", "10"][..],
            "--burst-ms",
        ),
        (&["service_tail", "--quick", "--duty", "0.25"][..], "--duty"),
        (
            &["service_tail", "--quick", "--drop-ms", "50"][..],
            "--drop-ms",
        ),
        // A count of zero divides by it or indexes an empty sample set.
        (&["probes", "--quick", "--trials", "0"][..], "--trials"),
        (&["probes", "--quick", "--iters", "0"][..], "--iters"),
        (&["fig3", "--quick", "--repeats", "0"][..], "--repeats"),
        (&["fig3", "--quick", "--scale", "0"][..], "--scale"),
        (&["service_tail", "--quick", "--keys", "0"][..], "--keys"),
        // service_tail's table is sized by --keys: --scale would do nothing.
        (&["service_tail", "--quick", "--scale", "8"][..], "--scale"),
        // A thread count of zero, in a list or alone.
        (
            &["fig3", "--quick", "--threads", "0"][..],
            "--threads must be at least 1",
        ),
        (
            &["fig4", "--quick", "--threads", "2,0"][..],
            "--threads must be at least 1",
        ),
    ] {
        assert_usage_error(args, flag);
    }
}

#[test]
fn a_malformed_value_fails_before_the_first_cell() {
    for (args, flag) in [
        (
            &["fig3", "--quick", "--schemes", "leaky,threadsan"][..],
            "--schemes expects scheme labels",
        ),
        (
            &["fig3", "--quick", "--threads", "x"][..],
            "--threads expects numbers",
        ),
        (
            &["fig3", "--quick", "--duration", "abc"][..],
            "--duration expects a number",
        ),
    ] {
        assert_usage_error(args, flag);
    }
}

/// `pairs` needs two benchmark binaries, and reads only its own flags.
/// This test binary stands in for a benchmark binary: it is a file that
/// exists, and none of these get as far as running it.
#[test]
fn pairs_fails_before_its_first_run() {
    let bin = env!("CARGO_BIN_EXE_ts-bench");
    let both = ["pairs", "--parent", bin, "--change", bin];
    let with = |extra: &[&'static str]| [&both[..], extra].concat();
    for (args, needle) in [
        (vec!["pairs"], "--parent <benchmark binary> is required"),
        (vec!["pairs", "--parent", bin], "--change"),
        (
            vec!["pairs", "--parent", "no/such/bin", "--change", bin],
            "no such file",
        ),
        (with(&["--workloads", "hash_chrun"]), "--workloads"),
        (with(&["--trace", "2"]), "--trace must be 0 or 1"),
        (with(&["--pairs", "0"]), "--pairs"),
        (with(&["--seconds", "0"]), "--seconds"),
        (
            with(&["--quick"]),
            "no such flag for this experiment: --quick",
        ),
    ] {
        assert_usage_error(&args, needle);
    }
}

/// Each of these once reached a panic (exit 101) or, for `--theta`, a
/// worker panic that left the main thread waiting at its start barrier; the
/// `fig3` axes are range-checked the same way.
#[test]
fn an_out_of_range_value_fails_before_the_first_cell() {
    for (args, flag) in [
        (&["fig3", "--quick", "--duration", "-1"][..], "--duration"),
        (&["fig3", "--quick", "--duration", "nan"][..], "--duration"),
        (&["service_tail", "--quick", "--qps", "0"][..], "--qps"),
        (
            &["service_tail", "--quick", "--theta", "-1", "--threads", "1"][..],
            "--theta",
        ),
        (&["service_tail", "--quick", "--theta", "1"][..], "--theta"),
        (&["fig3", "--quick", "--updates", "150"][..], "--updates"),
        (&["fig3", "--quick", "--buffers", "1"][..], "--buffers"),
        (&["fig3", "--quick", "--skews", "1"][..], "--skews"),
        (&["fig3", "--quick", "--skews", "zipf"][..], "--skews"),
        // The zipf sampler's setup is linear in the queue's 2^56 range.
        (
            &["fig3", "--quick", "--structures", "pq", "--skews", "0.5"][..],
            "--skews",
        ),
    ] {
        assert_usage_error(args, flag);
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

/// At 1 QPS over a 0.1 s window no arrival falls in the window: the
/// latency columns of such a cell read `-`, and the run succeeds.
#[test]
fn a_cell_no_arrival_fell_in_renders_a_dash() {
    let out = ts_bench(&[
        "service_tail",
        "--quick",
        "--qps",
        "1",
        "--threads",
        "2",
        "--schemes",
        "leaky",
        "--duration",
        "0.1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let row: Vec<&str> = stdout
        .lines()
        .find(|l| l.starts_with("hash "))
        .expect("one row")
        .split_whitespace()
        .collect();
    // structure scheme threads Mops/s qps p50 p99 p999 max lag_max
    assert_eq!(row[5..9], ["-"; 4], "{stdout}");
}
