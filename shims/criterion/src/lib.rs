//! Offline stand-in for `criterion`.
//!
//! Implements the API subset the `ts-bench` suite uses — groups with
//! `sample_size` / `measurement_time` / `warm_up_time` / `throughput`,
//! `bench_function`, `bench_with_input`, `Bencher::iter` / `iter_custom`,
//! `BenchmarkId`, `black_box`, and the `criterion_group!` /
//! `criterion_main!` macros — as a simple wall-clock harness printing
//! median ns/iter.
//!
//! **Deliberate deviations from real criterion:** no statistical analysis,
//! outlier detection, plots, or baselines; measurement windows are capped
//! at 200 ms per benchmark so the whole suite stays fast (set
//! `TS_BENCH_FULL=1` to honour the configured times).
//!
//! When a registry becomes reachable, delete `shims/criterion` and point
//! the workspace dependency at crates.io; no source change is needed.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver (one per `criterion_group!` run).
#[derive(Default)]
pub struct Criterion {
    settings: Settings,
}

#[derive(Clone)]
struct Settings {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Settings {
    fn default() -> Self {
        Self {
            sample_size: 20,
            measurement_time: Duration::from_millis(200),
            warm_up_time: Duration::from_millis(50),
        }
    }
}

impl Settings {
    /// Caps configured windows unless `TS_BENCH_FULL=1`.
    fn effective(&self) -> (Duration, Duration) {
        if std::env::var_os("TS_BENCH_FULL").is_some_and(|v| v == "1") {
            (self.measurement_time, self.warm_up_time)
        } else {
            (
                self.measurement_time.min(Duration::from_millis(200)),
                self.warm_up_time.min(Duration::from_millis(50)),
            )
        }
    }
}

impl Criterion {
    /// Accepted for source compatibility; CLI flags are ignored.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            settings: self.settings.clone(),
            throughput: None,
            _parent: self,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&id.into().0, &self.settings, None, &mut f);
        self
    }
}

/// A group of related benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    settings: Settings,
    throughput: Option<Throughput>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the target sample count (stored; sampling here is adaptive).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n.max(1);
        self
    }

    /// Sets the measurement window.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.settings.measurement_time = t;
        self
    }

    /// Sets the warm-up window.
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.settings.warm_up_time = t;
        self
    }

    /// Declares per-iteration throughput for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into().0);
        run_one(&label, &self.settings, self.throughput, &mut f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into().0);
        run_one(&label, &self.settings, self.throughput, &mut |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (reports are printed as benches run).
    pub fn finish(self) {}
}

/// Identifies one benchmark within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// A function name plus a parameter value.
    pub fn new(name: impl Display, param: impl Display) -> Self {
        Self(format!("{name}/{param}"))
    }

    /// A parameter value alone.
    pub fn from_parameter(param: impl Display) -> Self {
        Self(param.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self(s)
    }
}

/// Work performed per iteration, for rate reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Timer handed to the benchmark closure.
pub struct Bencher {
    samples: Vec<f64>,
    warm: Duration,
    measure: Duration,
}

impl Bencher {
    /// Times `f`, called repeatedly in growing batches.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        self.iter_custom(|iters| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed()
        });
    }

    /// Like [`Self::iter`], with the caller holding the stopwatch:
    /// `routine(iters)` runs `iters` iterations and returns how long they
    /// took, so per-iteration setup can stay outside the measurement (as
    /// in real criterion).
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        // Warm-up: let caches/branch predictors settle and estimate cost.
        let warm_start = Instant::now();
        let mut per_iter = Duration::from_nanos(100);
        while warm_start.elapsed() < self.warm {
            per_iter = routine(1).max(Duration::from_nanos(1));
        }
        // Batch so each sample spans >= ~50 µs of work.
        let batch = (Duration::from_micros(50).as_nanos() / per_iter.as_nanos().max(1))
            .clamp(1, 1 << 20) as u64;
        let start = Instant::now();
        while start.elapsed() < self.measure {
            self.samples
                .push(routine(batch).as_nanos() as f64 / batch as f64);
        }
        if self.samples.is_empty() {
            self.samples.push(routine(1).as_nanos() as f64);
        }
    }
}

fn run_one(
    label: &str,
    settings: &Settings,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) {
    let (measure, warm) = settings.effective();
    let mut bencher = Bencher {
        samples: Vec::new(),
        warm,
        measure,
    };
    f(&mut bencher);
    let mut s = bencher.samples;
    if s.is_empty() {
        println!("{label:<56} (no samples — closure never called iter)");
        return;
    }
    s.sort_by(|a, b| a.total_cmp(b));
    let median = s[s.len() / 2];
    let rate = match throughput {
        Some(Throughput::Elements(n)) => format!("  {:>12.0} elem/s", n as f64 * 1e9 / median),
        Some(Throughput::Bytes(n)) => format!("  {:>12.0} B/s", n as f64 * 1e9 / median),
        None => String::new(),
    };
    println!(
        "{label:<56} median {median:>12.1} ns/iter  ({} samples){rate}",
        s.len()
    );
}

/// Declares a benchmark group function, as in real criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(10);
        group.measurement_time(Duration::from_millis(20));
        group.warm_up_time(Duration::from_millis(5));
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("sum", 64), &64u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.bench_function("push", |b| {
            let mut v = Vec::new();
            b.iter(|| {
                v.push(1u8);
                if v.len() > 1024 {
                    v.clear();
                }
            })
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn harness_runs_and_reports() {
        benches();
    }
}
