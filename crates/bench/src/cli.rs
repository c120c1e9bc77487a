//! Tiny `--key value` argument parsing for the experiments (keeps the
//! workspace free of CLI dependencies), the one writer of `--json` and
//! `--trace-out` files, and the default thread ladders.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::time::Duration;

use ts_workload::{SchemeKind, StructureKind};

/// Parsed `--key value` arguments.
pub struct CliArgs {
    /// Key → value, and whether a getter has looked the key up yet: what
    /// stays `false` is a flag nothing reads ([`Self::unread`]).
    map: HashMap<String, (String, Cell<bool>)>,
    /// Arguments that are neither a `--key` nor the value after one.
    stray: Vec<String>,
    /// Keys given more than once: which value would win is no
    /// measurement anyone asked for.
    repeated: BTreeSet<String>,
}

impl CliArgs {
    /// Parses `std::env::args()`, accepting `--key value` and `--flag`.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (tests).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut map = HashMap::new();
        let (mut stray, mut repeated) = (Vec::new(), BTreeSet::new());
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().unwrap(),
                    _ => "true".to_string(),
                };
                if map
                    .insert(key.to_string(), (value, Cell::new(false)))
                    .is_some()
                {
                    repeated.insert(key.to_string());
                }
            } else {
                stray.push(arg);
            }
        }
        Self {
            map,
            stray,
            repeated,
        }
    }

    /// String value for `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|(value, read)| {
            read.set(true);
            value.as_str()
        })
    }

    /// The given flags no getter has asked for so far and `later` does
    /// not name, sorted: a misspelt `--thread 4` would otherwise run the
    /// default ladder and report it as the measurement asked for.
    pub fn unread(&self, later: &[&str]) -> Vec<&str> {
        let unread = self.map.iter().filter(|(_, (_, read))| !read.get());
        let mut unread: Vec<&str> = unread
            .map(|(key, _)| key.as_str())
            .filter(|key| !later.contains(key))
            .collect();
        unread.sort_unstable();
        unread
    }

    /// Exits with status 2, naming them, if any flag is [`Self::unread`],
    /// any argument was no flag at all (`fig3 --threads 1 2` would
    /// otherwise measure `--threads 1`, `fig3 quick` the full sweep) or
    /// any flag was given twice (`--threads 1 --threads 2` would measure
    /// only 2).
    /// An experiment calls this once it has read its flags and before it
    /// measures anything; `later` names the flags it reads afterwards
    /// (the `--json` / `--trace-out` epilogues).
    pub fn reject_unread(&self, later: &[&str]) {
        let unread = self.unread(later);
        if !self.stray.is_empty() {
            eprintln!(
                "ts-bench: neither a --flag nor a flag's value: {}",
                self.stray.join(", ")
            );
        }
        if !unread.is_empty() {
            let flags: Vec<String> = unread.iter().map(|k| format!("--{k}")).collect();
            eprintln!(
                "ts-bench: no such flag for this experiment: {}",
                flags.join(", ")
            );
        }
        if !self.repeated.is_empty() {
            let flags: Vec<String> = self.repeated.iter().map(|k| format!("--{k}")).collect();
            eprintln!("ts-bench: flag given twice: {}", flags.join(", "));
        }
        if !(self.stray.is_empty() && unread.is_empty() && self.repeated.is_empty()) {
            std::process::exit(2);
        }
    }

    /// Numeric value with a default.
    fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                usage_error(format_args!("--{key} expects a number, got {v:?}"))
            }),
            None => default,
        }
    }

    /// `usize` value with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get_num(key, default)
    }

    /// A count that divides or indexes what is measured: exits with
    /// status 2, naming the flag, on a zero.
    pub(crate) fn get_positive(&self, key: &str, default: usize) -> usize {
        at_least_one(key, self.get_usize(key, default))
    }

    /// [`Self::get_positive`] for every entry of a list: a thread count
    /// of zero measures nothing.
    pub(crate) fn get_positive_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        let list = self.get_usize_list(key, default).into_iter();
        list.map(|n| at_least_one(key, n)).collect()
    }

    /// `f64` value with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get_num(key, default)
    }

    /// [`Self::get_f64`], which `ok` must accept: otherwise a
    /// [`usage_error`] saying the flag must be `what`.
    pub(crate) fn get_f64_in(
        &self,
        key: &str,
        default: f64,
        what: &str,
        ok: impl Fn(f64) -> bool,
    ) -> f64 {
        let v = self.get_f64(key, default);
        if !ok(v) {
            usage_error(format_args!("--{key} must be {what}, got {v}"));
        }
        v
    }

    /// A non-zero time span given in seconds: a negative, zero, NaN or
    /// overflowing value is a [`usage_error`] naming the flag.
    pub(crate) fn get_span(&self, key: &str, default_s: f64) -> Duration {
        let v = self.get_f64(key, default_s);
        match Duration::try_from_secs_f64(v) {
            Ok(span) if !span.is_zero() => span,
            _ => usage_error(format_args!(
                "--{key} must be a positive time span, got {v}"
            )),
        }
    }

    /// Boolean flag: given bare, it is on. A word after it is no value
    /// of its (`fig3 --quick x` would otherwise run the full sweep), so
    /// anything but the parser's implicit `true` ends the process with
    /// status 2, naming the flag.
    pub fn get_flag(&self, key: &str) -> bool {
        match self.get(key) {
            None => false,
            Some("true") => true,
            Some(v) => usage_error(format_args!("--{key} takes no value, got {v:?}")),
        }
    }

    /// Comma-separated list with a default; `parse` rejects an item by
    /// returning `None`, which is a [`usage_error`] naming the flag and
    /// `what` it takes.
    pub(crate) fn get_list<T: Clone>(
        &self,
        key: &str,
        default: &[T],
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Vec<T> {
        let Some(list) = self.get(key) else {
            return default.to_vec();
        };
        let items = list.split(',').map(|item| {
            parse(item.trim()).unwrap_or_else(|| {
                usage_error(format_args!("--{key} expects {what}, got {item:?}"))
            })
        });
        items.collect()
    }

    /// Comma-separated usize list with a default.
    pub fn get_usize_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        self.get_list(key, default, "numbers", |s| s.parse().ok())
    }

    /// Comma-separated list of positive, finite f64s with a default (QPS
    /// ladders).
    pub(crate) fn get_positive_f64_list(&self, key: &str, default: &[f64]) -> Vec<f64> {
        let positive = |v: &f64| *v > 0.0 && v.is_finite();
        self.get_list(key, default, "positive numbers", |s| {
            s.parse().ok().filter(positive)
        })
    }

    /// Comma-separated scheme labels (see [`SchemeKind::label`]) with a
    /// default, e.g. `--schemes leaky,threadscan`.
    pub fn get_schemes(&self, key: &str, default: &[SchemeKind]) -> Vec<SchemeKind> {
        self.get_list(key, default, "scheme labels", SchemeKind::parse)
    }

    /// Comma-separated structure labels (see [`StructureKind::label`])
    /// with a default, e.g. `--structures list,hash,skiplist`.
    pub fn get_structures(&self, key: &str, default: &[StructureKind]) -> Vec<StructureKind> {
        self.get_list(key, default, "structure labels", StructureKind::parse)
    }

    /// The `--trace-out <file.json>` destination, if given: the sweep
    /// installs the telemetry sink on every cell and writes the trace
    /// after the last one ([`crate::trace::write_trace`]).
    pub fn trace_out(&self) -> Option<&str> {
        self.get("trace-out")
    }
}

/// The one writer of `--json` and `--trace-out` files: `render` writes
/// the document to `path`, then a `# <what> written to <path><note>` line
/// says where it went.
///
/// # Panics
///
/// If the file cannot be created or written.
pub fn write_output(
    path: &str,
    what: &str,
    note: &str,
    render: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) {
    let write = || {
        let mut out = BufWriter::new(File::create(path)?);
        render(&mut out)?;
        out.flush()
    };
    write().unwrap_or_else(|e| panic!("write {what} to {path}: {e}"));
    println!("# {what} written to {path}{note}");
}

/// Ends the process on a command line that cannot be measured as given:
/// one `ts-bench: <why>` line on stderr and status 2, before any cell
/// runs or anything reaches stdout.
pub(crate) fn usage_error(why: std::fmt::Arguments<'_>) -> ! {
    eprintln!("ts-bench: {why}");
    std::process::exit(2);
}

/// `n`, unless it is zero: then a [`usage_error`] naming `--key`.
fn at_least_one(key: &str, n: usize) -> usize {
    if n == 0 {
        usage_error(format_args!("--{key} must be at least 1"));
    }
    n
}

/// Hardware threads of this machine.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Default thread ladder for throughput sweeps: powers of two through
/// `2 × hardware threads` (the paper sweeps 1→80 on a 40-core × 2 SMT
/// box; we scale to whatever this machine has).
pub fn thread_ladder() -> Vec<usize> {
    let top = hw_threads() * 2;
    let mut ladder: Vec<usize> = (0..).map(|i| 1 << i).take_while(|&t| t < top).collect();
    ladder.push(top);
    ladder
}

/// Oversubscription ladder: 1× to 8× hardware threads. The paper's
/// Figure 4 runs to 200 threads on an 80-thread machine (2.5×); the
/// heavy-traffic goal wants the deep-oversubscription regime too, where
/// descheduled reclaimers dominate latency tails.
pub fn oversub_ladder() -> Vec<usize> {
    let steps = [1.0f64, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0];
    let scaled = steps.map(|s| ((hw_threads() as f64) * s).round().max(2.0) as usize);
    let mut out = scaled.to_vec();
    out.dedup();
    out
}

/// Machine description for result metadata.
pub fn machine_info() -> String {
    let (arch, os) = (std::env::consts::ARCH, std::env::consts::OS);
    format!("{} hardware threads, {arch} {os}", hw_threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> CliArgs {
        CliArgs::from_args(s.iter().map(|s| s.to_string()))
    }

    /// `--trace-out` alone installs the sink; `--telemetry` is no flag,
    /// so nothing reads it and the sweep rejects it as unread.
    #[test]
    fn telemetry_is_requested_by_flag_or_trace_out() {
        let common = |a: &CliArgs| crate::sweep::Common::parse(a, 1.0, 1).telemetry;
        assert!(!common(&args(&["--quick"])));
        let a = args(&["--trace-out", "t.json"]);
        assert!(common(&a));
        assert_eq!(a.trace_out(), Some("t.json"));
        assert_eq!(args(&[]).trace_out(), None);
        let a = args(&["--quick", "--telemetry"]);
        assert!(!common(&a));
        assert_eq!(a.unread(&[]), ["telemetry"]);
    }

    #[test]
    fn parses_key_values_and_flags() {
        let a = args(&["--duration", "2.5", "--quick", "--threads", "1,2,4"]);
        assert_eq!(a.get_f64("duration", 1.0), 2.5);
        assert!(a.get_flag("quick"));
        assert_eq!(a.get_usize_list("threads", &[9]), vec![1, 2, 4]);
        assert_eq!(a.get_usize("missing", 7), 7);
    }

    #[test]
    fn a_flag_no_getter_asked_for_is_unread() {
        let a = args(&["--thread", "4", "--quick", "--json", "out.jsonl"]);
        assert!(a.get_flag("quick"));
        assert_eq!(a.get_usize_list("threads", &[9]), vec![9]);
        assert_eq!(a.unread(&[]), ["json", "thread"]);
        assert_eq!(a.unread(&["json"]), ["thread"]);
        assert_eq!(a.get("json"), Some("out.jsonl"));
        assert_eq!(a.unread(&[]), ["thread"]);
    }

    #[test]
    fn ladders_are_sane() {
        let l = thread_ladder();
        assert_eq!(l[0], 1);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
        let o = oversub_ladder();
        assert!(o.iter().all(|&t| t >= 2));
    }
}
