//! The allocator-substrate ablation (§6 setup: "we used the highly
//! scalable TCMalloc allocator"): the `allocator` sweep with the global
//! allocator selected at runtime — the system allocator by default,
//! [`ts_alloc`]'s thread-caching allocator under `--real-alloc`.
//!
//! A binary of its own, not a `ts-bench` experiment: a
//! `#[global_allocator]` is per binary, and [`SwitchableAlloc`] pads every
//! small system allocation to its size class even before the flip, which
//! the other experiments' numbers must not pay for.

use ts_alloc::SwitchableAlloc;
use ts_bench::cli::CliArgs;
use ts_bench::{experiments, sweep};

#[global_allocator]
static ALLOC: SwitchableAlloc = SwitchableAlloc;

fn main() {
    let args = CliArgs::parse();
    if args.get_flag("real-alloc") {
        // One-way: must happen before the workloads allocate anything.
        ts_alloc::enable_ts_alloc();
    }
    sweep::sweep(&args, experiments::allocator(&args));
}
