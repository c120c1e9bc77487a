//! Exhaustive interleaving exploration: pluggable schedulers and a
//! DFS enumerator over a scenario's decision points.
//!
//! A scenario — `ts-simthread`'s protocol model, or a property test's
//! input generator — is driven entirely through explicit *choice points*:
//! which simulated thread steps next, which node an op targets, how long
//! a generated vector is. This module abstracts those choice points
//! behind [`Chooser`] so the same scenario code runs under three
//! schedulers:
//!
//! * [`RandomChooser`] — seeded uniform choices, recorded as they are
//!   made; the randomized suites for large shapes.
//! * [`TraceChooser`] — replays a recorded **decision string** (the
//!   dot-separated indices printed when an exploration fails), so any
//!   failing interleaving is reproducible in isolation.
//! * The DFS enumerator inside [`explore`] — runs the scenario once per
//!   *distinct decision sequence*, backtracking depth-first until every
//!   interleaving at the scenario's bounds has been executed. This is
//!   stateless model checking in the loom/shuttle style, at the
//!   granularity of the model's abstract operations.
//!
//! Exploration is exhaustive, so scenarios must keep bounds small
//! (2–3 simulated threads, ≤ 8 operations: at most a few thousand
//! schedules). [`ExploreConfig::max_schedules`] is a hard safety rail: a
//! scenario that exceeds it fails loudly instead of burning CI time.
//!
//! A scenario is any `Fn(&mut dyn Chooser)` that panics on an invariant
//! violation (the model's census asserts do exactly that). [`explore`]
//! catches the panic, reports how many schedules ran before it, and
//! returns the failing decision string — [`replay`] turns that string
//! back into the violating run under a debugger or with extra logging.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::Rng;

/// A source of scheduling/parameter decisions for a model run.
///
/// Every nondeterministic choice the model makes goes through
/// [`Chooser::choose`], which picks an index in `0..n`. Implementations
/// decide *how*: randomly, by replaying a trace, or by systematic
/// enumeration.
pub trait Chooser {
    /// Picks an index in `0..n` (`n >= 1`). `label` names the decision
    /// point in diagnostics; it carries no semantics.
    fn choose(&mut self, label: &'static str, n: usize) -> usize;
}

/// Seeded uniform random decisions (the randomized-schedule scheduler).
///
/// Every decision is recorded, so a sampled case that fails under
/// [`check_inputs`](crate::check_inputs) is reported with a decision
/// string that [`replay`] reproduces.
pub struct RandomChooser {
    rng: Rng,
    path: Vec<Decision>,
}

impl RandomChooser {
    /// A chooser whose decision stream is a pure function of `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            rng: Rng::seeded(seed),
            path: Vec::new(),
        }
    }

    /// The violation a panic ending this chooser's run amounts to.
    pub(crate) fn violation(&self, schedules: usize, payload: &(dyn Any + Send)) -> Violation {
        Violation::new(schedules, &self.path, payload)
    }
}

impl Chooser for RandomChooser {
    fn choose(&mut self, label: &'static str, n: usize) -> usize {
        assert!(n >= 1, "choice point with no alternatives");
        let taken = self.rng.below(n as u64) as usize;
        self.path.push(Decision { taken, n, label });
        taken
    }
}

/// Replays a recorded decision string, panicking on any divergence.
pub struct TraceChooser {
    decisions: Vec<usize>,
    pos: usize,
}

impl TraceChooser {
    /// Parses a dot-separated decision string (e.g. `"0.2.1.0"`), as
    /// printed by a failing [`explore`] run.
    pub fn parse(trace: &str) -> Self {
        let decisions = trace
            .split('.')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("malformed decision string component {s:?}"))
            })
            .collect();
        Self { decisions, pos: 0 }
    }

    /// Decisions consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

impl Chooser for TraceChooser {
    fn choose(&mut self, label: &'static str, n: usize) -> usize {
        assert!(n >= 1, "choice point with no alternatives");
        let taken = *self.decisions.get(self.pos).unwrap_or_else(|| {
            panic!(
                "decision string exhausted at step {} ({label}): the trace \
                 was recorded against a different scenario or bounds",
                self.pos
            )
        });
        assert!(
            taken < n,
            "decision {taken} out of range 0..{n} at step {} ({label}): the \
             trace was recorded against a different scenario or bounds",
            self.pos
        );
        self.pos += 1;
        taken
    }
}

/// One decision made during an explored run.
#[derive(Debug, Clone, Copy)]
struct Decision {
    taken: usize,
    n: usize,
    label: &'static str,
}

/// DFS chooser: follows a fixed prefix, then defaults to alternative 0,
/// recording the full path so the driver can backtrack. Every choice is
/// offered at most `cap` alternatives, `min(n, cap)`; `capped` records
/// whether any choice point had more.
struct DfsChooser {
    prefix: Vec<Decision>,
    path: Vec<Decision>,
    cap: usize,
    capped: bool,
}

impl Chooser for DfsChooser {
    fn choose(&mut self, label: &'static str, n: usize) -> usize {
        assert!(n >= 1, "choice point with no alternatives");
        self.capped |= n > self.cap;
        let n = n.min(self.cap);
        let pos = self.path.len();
        let taken = match self.prefix.get(pos) {
            Some(d) => {
                assert_eq!(
                    d.n, n,
                    "scenario is nondeterministic: decision point {pos} ({label}) \
                     had {} alternatives on the previous run, {n} now — explored \
                     scenarios must be pure functions of their decisions",
                    d.n
                );
                d.taken
            }
            None => 0,
        };
        self.path.push(Decision { taken, n, label });
        taken
    }
}

/// Bounds for one exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Hard cap on enumerated schedules; exceeding it is an error (the
    /// scenario's bounds are too large for exhaustive exploration).
    pub max_schedules: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            max_schedules: 1_000_000,
        }
    }
}

/// Result of a completed (exhaustive) exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreReport {
    /// Distinct schedules (decision sequences) executed.
    pub schedules: usize,
    /// Longest decision sequence encountered.
    pub max_depth: usize,
}

/// A schedule that violated a scenario invariant.
#[derive(Debug)]
pub struct Violation {
    /// Schedules executed up to and including the failing one.
    pub schedules: usize,
    /// Replayable decision string for the failing schedule (feed to
    /// [`replay`] / [`TraceChooser::parse`]).
    pub trace: String,
    /// Human-readable decisions with labels, one per line.
    pub annotated: String,
    /// The panic message of the violated invariant.
    pub message: String,
}

impl Violation {
    fn new(schedules: usize, path: &[Decision], payload: &(dyn Any + Send)) -> Self {
        Self {
            schedules,
            trace: format_trace(path),
            annotated: format_annotated(path),
            message: panic_message(payload),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "violation after {} schedule(s)\n  panic: {}\n  replay decision string: {}\n  decisions:\n{}",
            self.schedules, self.message, self.trace, self.annotated
        )
    }
}

fn format_trace(path: &[Decision]) -> String {
    path.iter()
        .map(|d| d.taken.to_string())
        .collect::<Vec<_>>()
        .join(".")
}

fn format_annotated(path: &[Decision]) -> String {
    path.iter()
        .enumerate()
        .map(|(i, d)| format!("    {i:3}: {} = {}/{}", d.label, d.taken, d.n))
        .collect::<Vec<_>>()
        .join("\n")
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Exhaustively enumerates every decision sequence of `scenario`,
/// returning how many schedules ran, or the first [`Violation`].
///
/// The scenario must be a pure function of its decisions: two runs fed
/// the same choices must make the same sequence of `choose` calls (the
/// enumerator asserts this). Panics inside the scenario are treated as
/// invariant violations and reported with a replayable decision string;
/// exceeding [`ExploreConfig::max_schedules`] panics, because a
/// truncated exploration would silently claim exhaustiveness.
pub fn explore_with_config<F>(
    name: &str,
    config: ExploreConfig,
    scenario: F,
) -> Result<ExploreReport, Violation>
where
    F: Fn(&mut dyn Chooser),
{
    let run = dfs(
        &scenario,
        usize::MAX,
        config.max_schedules.saturating_add(1),
    )?;
    assert!(
        run.schedules <= config.max_schedules,
        "[{name}] exceeded {} schedules: bounds too large for exhaustive \
         exploration (shrink the scenario or raise max_schedules)",
        config.max_schedules
    );
    Ok(ExploreReport {
        schedules: run.schedules,
        max_depth: run.max_depth,
    })
}

/// What one depth-first enumeration ran.
pub(crate) struct Dfs {
    /// Schedules executed.
    pub(crate) schedules: usize,
    /// Longest decision sequence encountered.
    pub(crate) max_depth: usize,
    /// Every decision sequence under the cap ran (the budget did not cut
    /// the enumeration short).
    pub(crate) complete: bool,
    /// Some choice point offered more than `cap` alternatives, so a
    /// larger cap would enumerate more.
    pub(crate) capped: bool,
}

/// Runs `scenario` once per distinct decision sequence, depth first, with
/// every choice point offered `min(n, cap)` alternatives, until the tree
/// is exhausted or `budget` schedules have run. The first panic ends the
/// enumeration as a [`Violation`].
pub(crate) fn dfs(
    scenario: &dyn Fn(&mut dyn Chooser),
    cap: usize,
    budget: usize,
) -> Result<Dfs, Violation> {
    let mut run = Dfs {
        schedules: 0,
        max_depth: 0,
        complete: false,
        capped: false,
    };
    let mut prefix: Vec<Decision> = Vec::new();
    while run.schedules < budget {
        let mut chooser = DfsChooser {
            prefix: std::mem::take(&mut prefix),
            path: Vec::new(),
            cap,
            capped: false,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| scenario(&mut chooser)));
        run.schedules += 1;
        run.max_depth = run.max_depth.max(chooser.path.len());
        run.capped |= chooser.capped;
        if let Err(payload) = outcome {
            return Err(Violation::new(
                run.schedules,
                &chooser.path,
                payload.as_ref(),
            ));
        }
        // Backtrack: drop fully-explored suffix decisions, then advance
        // the deepest decision that still has untried alternatives.
        let mut path = chooser.path;
        while path.last().is_some_and(|d| d.taken + 1 >= d.n) {
            path.pop();
        }
        match path.last_mut() {
            None => {
                run.complete = true;
                break;
            }
            Some(d) => d.taken += 1,
        }
        prefix = path;
    }
    Ok(run)
}

/// [`explore_with_config`] with default bounds.
pub fn explore<F>(name: &str, scenario: F) -> Result<ExploreReport, Violation>
where
    F: Fn(&mut dyn Chooser),
{
    explore_with_config(name, ExploreConfig::default(), scenario)
}

/// Like [`explore`], but panics with the full diagnostic on violation —
/// the form test suites call directly.
pub fn check<F>(name: &str, scenario: F) -> ExploreReport
where
    F: Fn(&mut dyn Chooser),
{
    match explore(name, scenario) {
        Ok(report) => report,
        Err(v) => panic!("[{name}] {v}"),
    }
}

/// Re-runs `scenario` under the decision string of a failed exploration.
///
/// Panics (with the original invariant message) if the violation
/// reproduces — which it must, for a deterministic scenario.
pub fn replay<F>(trace: &str, scenario: F)
where
    F: FnOnce(&mut dyn Chooser),
{
    let mut chooser = TraceChooser::parse(trace);
    scenario(&mut chooser);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy scenario: three binary decisions; "bug" when they read 1,0,1.
    fn toy(ch: &mut dyn Chooser) {
        let a = ch.choose("a", 2);
        let b = ch.choose("b", 2);
        let c = ch.choose("c", 2);
        assert!(!(a == 1 && b == 0 && c == 1), "toy invariant violated");
    }

    #[test]
    fn exhaustive_enumeration_counts_all_schedules() {
        // No violation: 2 * 3 * 2 = 12 distinct schedules.
        let report = check("count", |ch| {
            ch.choose("x", 2);
            ch.choose("y", 3);
            ch.choose("z", 2);
        });
        assert_eq!(report.schedules, 12);
        assert_eq!(report.max_depth, 3);
    }

    #[test]
    fn variable_depth_trees_are_fully_enumerated() {
        // First decision selects a branch with a different number of
        // follow-up decisions: 1 (leaf) + 2 + 3*2 = 9 schedules.
        let report = check("vardepth", |ch| match ch.choose("branch", 3) {
            0 => {}
            1 => {
                ch.choose("b1", 2);
            }
            _ => {
                ch.choose("b2a", 3);
                ch.choose("b2b", 2);
            }
        });
        assert_eq!(report.schedules, 9);
    }

    #[test]
    fn violation_reports_replayable_trace() {
        let v = explore("toy", toy).expect_err("toy scenario must fail");
        assert_eq!(v.trace, "1.0.1");
        assert!(v.message.contains("toy invariant violated"));
        // The printed decision string replays to the same violation.
        let replayed = catch_unwind(|| replay(&v.trace, toy)).expect_err("replay must reproduce");
        assert!(panic_message(replayed.as_ref()).contains("toy invariant violated"));
    }

    #[test]
    fn trace_chooser_rejects_divergent_traces() {
        let err = catch_unwind(|| {
            replay("5", |ch| {
                ch.choose("a", 2);
            })
        })
        .expect_err("out-of-range decision must panic");
        assert!(panic_message(err.as_ref()).contains("out of range"));
        let err = catch_unwind(|| {
            replay("1", |ch| {
                ch.choose("a", 2);
                ch.choose("b", 2);
            })
        })
        .expect_err("exhausted trace must panic");
        assert!(panic_message(err.as_ref()).contains("exhausted"));
    }

    #[test]
    fn random_chooser_is_deterministic_per_seed() {
        let stream = |seed| {
            let mut ch = RandomChooser::seeded(seed);
            (0..32).map(|_| ch.choose("s", 7)).collect::<Vec<_>>()
        };
        assert_eq!(stream(9), stream(9));
        assert_ne!(stream(9), stream(10), "different seeds should diverge");
    }

    #[test]
    fn schedule_cap_fails_loudly() {
        let result = catch_unwind(|| {
            explore_with_config("cap", ExploreConfig { max_schedules: 3 }, |ch| {
                ch.choose("wide", 10);
            })
        });
        assert!(result.is_err(), "cap overflow must panic, not truncate");
    }
}
