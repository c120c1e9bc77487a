//! `ts-bench <experiment> [flags]` — every figure and ablation of the
//! reproduction behind one binary; `ts-bench list` names them. `ts-bench
//! pairs` compares two builds of the frozen benchmark instead.
//!
//! ```text
//! cargo run --release -p ts-bench -- fig3 --quick --json fig3.jsonl
//! ```

use ts_bench::cli::CliArgs;
use ts_bench::experiments::{Run, TABLE};
use ts_bench::pairs::pairs;
use ts_bench::sweep::sweep;

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    if name == "list" {
        for e in TABLE {
            println!("{:<13} {}", e.name, e.about);
        }
        return;
    }
    if name == "pairs" {
        return pairs(&CliArgs::from_args(argv));
    }
    let Some(experiment) = TABLE.iter().find(|e| e.name == name) else {
        eprintln!("usage: ts-bench <experiment> [--quick] [--json <file>] [flags]");
        eprintln!("       ts-bench list");
        eprintln!("       ts-bench pairs --parent <bin> --change <bin> [flags]");
        std::process::exit(2);
    };
    let args = CliArgs::from_args(argv);
    match experiment.run {
        Run::Sweep(plan) => sweep(&args, plan(&args)),
        Run::Bespoke(run) => run(&args),
    }
}
