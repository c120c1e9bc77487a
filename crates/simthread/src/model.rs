//! Protocol model checking over the deterministic [`SimPlatform`].
//!
//! Runs the full collector protocol with an explicit schedule of the
//! abstract operations the paper's proofs quantify over:
//!
//! * **Alloc** — a node becomes reachable;
//! * **Acquire** — a simulated thread copies a reference into its private
//!   memory (shadow stack or §4.3 heap block) — legal only while the node
//!   is still reachable (Assumption 1.1: removed nodes cannot be newly
//!   reached);
//! * **Release** — a private reference is dropped;
//! * **Retire** — the node is unlinked and handed to the collector (and
//!   the retiring thread frees one node parked in its mailbox, if any);
//! * **Collect** — a forced reclamation phase.
//!
//! The schedule is produced by a pluggable [`Chooser`] (`ts-choose`):
//! [`run_model`] drives a seeded [`RandomChooser`] (randomized suites,
//! arbitrary shapes), while the exhaustive suites drive [`ModelMachine`]
//! directly under the DFS enumerator, enumerating *every* interleaving at
//! small bounds.
//!
//! Checked invariants:
//!
//! * **Safety (Lemma 1)** — a node is never freed while any simulated
//!   thread still publishes a reference to it. Checked *inside the node's
//!   destructor* against an exact root census.
//! * **Eventual reclamation (Lemma 4)** — once all references are released
//!   and all nodes retired, a bounded number of phases frees everything,
//!   including what is parked in mailboxes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use threadscan::{Collector, CollectorConfig, ThreadHandle};
use ts_choose::{Chooser, RandomChooser};

use crate::virtsig::SimPlatform;

/// Parameters for one model run.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Simulated threads (each gets a collector handle + shadow stack).
    pub sim_threads: usize,
    /// Root slots per shadow stack.
    pub shadow_slots: usize,
    /// Delete-buffer capacity (small values force frequent phases).
    pub buffer_capacity: usize,
    /// Schedule length in operations (randomized driver only).
    pub steps: usize,
    /// RNG seed (same seed ⇒ same schedule ⇒ same outcome).
    pub seed: u64,
    /// Cells per simulated thread's registered heap block (§4.3
    /// extension); 0 disables heap blocks. When enabled, half of all
    /// Acquire ops publish into the heap block instead of the shadow
    /// stack.
    pub heap_block_cells: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            sim_threads: 4,
            shadow_slots: 8,
            buffer_capacity: 8,
            steps: 2000,
            seed: 0,
            heap_block_cells: 0,
        }
    }
}

/// Outcome of a model run. A safety violation panics inside the run
/// instead of being reported here, so reaching a report at all means the
/// safety invariant held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelReport {
    /// Nodes allocated over the schedule.
    pub allocated: usize,
    /// Nodes whose destructor ran (must equal `allocated` at the end).
    pub freed: usize,
    /// Reclamation phases executed.
    pub collects: usize,
    /// Peak retired-but-not-freed node count observed.
    pub max_outstanding: usize,
}

/// Exact census of published references, shared with node destructors.
struct Census {
    root_counts: Mutex<HashMap<usize, usize>>,
    freed: AtomicUsize,
}

/// A model node; its destructor checks the safety invariant.
struct ModelNode {
    census: Arc<Census>,
    /// Padding so interior pointers and ranges are exercised.
    _pad: [u64; 6],
}

impl Drop for ModelNode {
    fn drop(&mut self) {
        let addr = self as *mut ModelNode as usize;
        // During unwinding from an earlier violation, teardown drops the
        // remaining nodes; re-asserting would turn one diagnosable panic
        // into a double-panic abort (fatal to the explorer's replay loop).
        if !std::thread::panicking() {
            let roots = self.census.root_counts.lock();
            let outstanding = roots.get(&addr).copied().unwrap_or(0);
            assert_eq!(
                outstanding, 0,
                "SAFETY VIOLATION: node {addr:#x} freed with {outstanding} live root(s)"
            );
        }
        self.census.freed.fetch_add(1, Ordering::SeqCst);
    }
}

/// Where a held reference is published.
enum RootKind {
    /// Shadow-stack slot index.
    Slot(usize),
    /// Heap-block cell index (§4.3 extension).
    Cell(usize),
}

/// A reference currently held by a simulated thread.
struct Held {
    kind: RootKind,
    node: usize,
}

/// The protocol model as an explicit state machine: a collector over the
/// deterministic platform plus the exact census the safety checks need.
///
/// Each method is one abstract operation from the paper's proofs. Drivers
/// (randomized or exhaustive) sequence them; the machine enforces the
/// model's legality rules (Assumption 1.1 etc.) by skipping illegal ops
/// (returning `false`), so any op order a scheduler produces is valid to
/// run. Nodes are referred to by *logical id* — their allocation index —
/// which is stable across interleavings, so exhaustive scenarios can name
/// nodes in fixed per-thread programs.
pub struct ModelMachine {
    census: Arc<Census>,
    handles: Vec<ThreadHandle<SimPlatform>>,
    collector: Arc<Collector<SimPlatform>>,
    shadows: Vec<Arc<crate::shadow::ShadowStack>>,
    heap_blocks: Vec<Box<[usize]>>,
    /// Address of each allocated node, by logical id.
    nodes: Vec<usize>,
    /// Whether each logical id is still reachable (allocated, not retired).
    reachable: Vec<bool>,
    held: Vec<Vec<Held>>,
    retired: usize,
    max_outstanding: usize,
    heap_block_cells: usize,
}

impl ModelMachine {
    /// Builds the collector, platform, and per-thread state for `config`
    /// (the `steps`/`seed` fields are driver concerns and ignored here).
    pub fn new(config: &ModelConfig) -> Self {
        assert!(config.sim_threads >= 1);
        let platform = SimPlatform::direct(config.shadow_slots);
        let collector = Collector::with_config(
            platform.clone(),
            CollectorConfig::default().with_buffer_capacity(config.buffer_capacity),
        );
        let census = Arc::new(Census {
            root_counts: Mutex::new(HashMap::new()),
            freed: AtomicUsize::new(0),
        });

        // All simulated threads live on one real thread: the schedule *is*
        // the interleaving, at operation granularity.
        let handles: Vec<_> = (0..config.sim_threads)
            .map(|_| collector.register())
            .collect();
        let shadows: Vec<_> = (0..config.sim_threads)
            .map(|i| platform.shadow(i))
            .collect();

        // §4.3 heap blocks: one registered block of `heap_block_cells`
        // words per simulated thread; cell value 0 means free.
        let heap_blocks: Vec<Box<[usize]>> = (0..config.sim_threads)
            .map(|_| vec![0usize; config.heap_block_cells].into_boxed_slice())
            .collect();
        if config.heap_block_cells > 0 {
            for (t, block) in heap_blocks.iter().enumerate() {
                handles[t]
                    .add_heap_block(block.as_ptr().cast(), block.len() * 8)
                    .expect("register model heap block");
            }
        }

        Self {
            census,
            handles,
            collector,
            shadows,
            heap_blocks,
            nodes: Vec::new(),
            reachable: Vec::new(),
            held: (0..config.sim_threads).map(|_| Vec::new()).collect(),
            retired: 0,
            max_outstanding: 0,
            heap_block_cells: config.heap_block_cells,
        }
    }

    /// Number of simulated threads.
    pub fn sim_threads(&self) -> usize {
        self.handles.len()
    }

    /// Nodes allocated so far (== the next logical id).
    pub fn allocated(&self) -> usize {
        self.nodes.len()
    }

    /// Logical ids of nodes that are still reachable.
    pub fn reachable_ids(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.reachable[i])
            .collect()
    }

    /// References currently held by simulated thread `t`.
    pub fn held_count(&self, t: usize) -> usize {
        self.held[t].len()
    }

    /// Retired-but-not-freed node count right now.
    pub fn outstanding(&self) -> usize {
        self.retired - self.census.freed.load(Ordering::SeqCst)
    }

    fn note_outstanding(&mut self) {
        let outstanding = self.outstanding();
        self.max_outstanding = self.max_outstanding.max(outstanding);
    }

    /// **Alloc**: a new node becomes reachable; returns its logical id.
    pub fn alloc(&mut self) -> usize {
        let addr = Box::into_raw(Box::new(ModelNode {
            census: Arc::clone(&self.census),
            _pad: [0; 6],
        })) as usize;
        self.nodes.push(addr);
        self.reachable.push(true);
        self.note_outstanding();
        self.nodes.len() - 1
    }

    /// **Acquire**: thread `t` publishes a reference to `node` at byte
    /// offset `8 * offset_words` (interior pointers must pin too), into
    /// its heap block when `use_heap`, else its shadow stack. Skipped
    /// (`false`) when the node is no longer reachable (Assumption 1.1) or
    /// the chosen root storage is full.
    pub fn acquire(&mut self, t: usize, node: usize, offset_words: usize, use_heap: bool) -> bool {
        if node >= self.nodes.len() || !self.reachable[node] {
            return false;
        }
        let addr = self.nodes[node];
        // Census first: from the instant the reference exists in private
        // memory it must pin the node.
        *self.census.root_counts.lock().entry(addr).or_insert(0) += 1;
        let published = addr + (offset_words % 6) * 8;
        let placed = if use_heap && self.heap_block_cells > 0 {
            self.heap_blocks[t]
                .iter()
                .position(|&c| c == 0)
                .map(|cell| {
                    self.heap_blocks[t][cell] = published;
                    RootKind::Cell(cell)
                })
        } else {
            self.shadows[t].publish(published).map(RootKind::Slot)
        };
        match placed {
            Some(kind) => {
                self.held[t].push(Held { kind, node });
                self.note_outstanding();
                true
            }
            None => {
                // Root storage full: back out.
                *self.census.root_counts.lock().get_mut(&addr).unwrap() -= 1;
                false
            }
        }
    }

    /// **Release**: thread `t` drops its `held_idx`-th reference
    /// (swap-removed). Skipped when out of range.
    pub fn release(&mut self, t: usize, held_idx: usize) -> bool {
        if held_idx >= self.held[t].len() {
            return false;
        }
        let h = self.held[t].swap_remove(held_idx);
        match h.kind {
            RootKind::Slot(slot) => {
                self.shadows[t].retract(slot);
            }
            RootKind::Cell(cell) => self.heap_blocks[t][cell] = 0,
        }
        // Census strictly after the root disappears from scannable
        // memory: the destructor check is therefore conservative.
        let addr = self.nodes[h.node];
        *self.census.root_counts.lock().get_mut(&addr).unwrap() -= 1;
        self.note_outstanding();
        true
    }

    /// **Retire**: thread `t` unlinks `node` and hands it to the
    /// collector. Skipped when the node is not currently reachable (each
    /// node is retired at most once).
    pub fn retire(&mut self, t: usize, node: usize) -> bool {
        if node >= self.nodes.len() || !self.reachable[node] {
            return false;
        }
        self.reachable[node] = false;
        // SAFETY: `addr` came from Box::into_raw and `reachable[node]`
        // was just cleared, so it is retired exactly once.
        unsafe { self.handles[t].retire(self.nodes[node] as *mut ModelNode) };
        self.retired += 1;
        self.note_outstanding();
        true
    }

    /// **Collect**: a forced reclamation phase.
    pub fn collect(&mut self) {
        self.collector.collect_now();
        self.note_outstanding();
    }

    /// End of schedule: releases every root, retires everything still
    /// reachable, and collects until quiescent, then checks Lemma 4
    /// (every allocated node freed).
    pub fn finish(mut self) -> ModelReport {
        for t in 0..self.handles.len() {
            while self.release(t, 0) {}
        }
        for node in 0..self.nodes.len() {
            if self.reachable[node] {
                self.retire(0, node);
            }
        }
        // Lemma 4: with no roots left, one phase suffices; we allow two
        // for the survivors carried out of the last in-schedule phase.
        // Forced phases also free whatever is parked in the mailboxes.
        self.collect();
        self.collect();
        let allocated = self.nodes.len();
        let freed = self.census.freed.load(Ordering::SeqCst);
        assert_eq!(
            freed,
            allocated,
            "LIVENESS VIOLATION: {} of {} nodes never freed (collector pending_estimate {})",
            allocated - freed,
            allocated,
            self.collector.pending_estimate(),
        );

        let stats = self.collector.stats();
        ModelReport {
            allocated,
            freed,
            collects: stats.collects,
            max_outstanding: self.max_outstanding,
        }
    }
}

/// Runs one schedule drawn from `chooser`; panics on any violation.
///
/// This is the randomized driver's op mix (Alloc 30%, Acquire 25%,
/// Release 20%, Retire 20%, Collect 5%), with every choice point —
/// op kind, thread, node, slot — routed through `chooser`,
/// so the same schedule logic runs random, replayed, or enumerated.
pub fn run_model_with(config: &ModelConfig, chooser: &mut dyn Chooser) -> ModelReport {
    let mut machine = ModelMachine::new(config);
    for _ in 0..config.steps {
        match chooser.choose("op", 100) {
            // Alloc (30%)
            0..=29 => {
                machine.alloc();
            }
            // Acquire (25%)
            30..=54 => {
                let reachable = machine.reachable_ids();
                if reachable.is_empty() {
                    continue;
                }
                let t = chooser.choose("acquire-thread", config.sim_threads);
                let node = reachable[chooser.choose("acquire-node", reachable.len())];
                let offset = chooser.choose("acquire-offset", 6);
                let use_heap =
                    config.heap_block_cells > 0 && chooser.choose("acquire-root", 2) == 1;
                machine.acquire(t, node, offset, use_heap);
            }
            // Release (20%)
            55..=74 => {
                let t = chooser.choose("release-thread", config.sim_threads);
                let held = machine.held_count(t);
                if held == 0 {
                    continue;
                }
                let idx = chooser.choose("release-idx", held);
                machine.release(t, idx);
            }
            // Retire (20%)
            75..=94 => {
                let reachable = machine.reachable_ids();
                if reachable.is_empty() {
                    continue;
                }
                let t = chooser.choose("retire-thread", config.sim_threads);
                let node = reachable[chooser.choose("retire-node", reachable.len())];
                machine.retire(t, node);
            }
            // Forced collect (5%)
            _ => machine.collect(),
        }
    }
    machine.finish()
}

/// Runs one seeded random schedule; panics on any safety violation.
pub fn run_model(config: &ModelConfig) -> ModelReport {
    let mut chooser = RandomChooser::seeded(config.seed);
    run_model_with(config, &mut chooser)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_choose::check_inputs;

    #[test]
    fn default_model_run_is_clean() {
        let report = run_model(&ModelConfig::default());
        assert_eq!(report.allocated, report.freed);
        assert!(report.collects > 0, "schedule must exercise collection");
    }

    #[test]
    fn model_is_deterministic_per_seed() {
        let cfg = ModelConfig {
            seed: 42,
            ..Default::default()
        };
        let a = run_model(&cfg);
        let b = run_model(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_buffers_force_many_phases() {
        let report = run_model(&ModelConfig {
            buffer_capacity: 2,
            steps: 1000,
            ..Default::default()
        });
        assert!(
            report.collects >= 20,
            "expected frequent phases, got {}",
            report.collects
        );
    }

    #[test]
    fn single_thread_model_works() {
        let report = run_model(&ModelConfig {
            sim_threads: 1,
            shadow_slots: 2,
            steps: 500,
            seed: 7,
            ..Default::default()
        });
        assert_eq!(report.allocated, report.freed);
    }

    #[test]
    fn heap_block_roots_pin_like_stack_roots() {
        let report = run_model(&ModelConfig {
            heap_block_cells: 6,
            buffer_capacity: 4,
            steps: 3000,
            seed: 13,
            ..Default::default()
        });
        assert_eq!(report.allocated, report.freed);
    }

    #[test]
    fn all_extensions_together() {
        let report = run_model(&ModelConfig {
            heap_block_cells: 4,
            buffer_capacity: 3,
            steps: 4000,
            seed: 17,
            ..Default::default()
        });
        assert_eq!(report.allocated, report.freed);
    }

    #[test]
    fn retiring_thread_frees_its_parked_nodes_one_per_retire() {
        // The two-stage buffer on the machine: the retire that finds the
        // fresh half full runs a phase that parks its nodes in the
        // retiring thread's mailbox; that retire and each later one by
        // the same thread frees one, and a forced collect frees whatever
        // is still parked.
        const CAP: usize = 8;
        let cfg = ModelConfig {
            sim_threads: 2,
            buffer_capacity: CAP,
            ..Default::default()
        };
        let mut machine = ModelMachine::new(&cfg);
        for _ in 0..CAP / 2 {
            let id = machine.alloc();
            machine.retire(0, id);
        }
        assert_eq!(machine.outstanding(), CAP / 2, "fresh half full");
        for _ in 0..3 {
            let id = machine.alloc();
            machine.retire(0, id);
            // One parked node freed for the one fresh node buffered.
            assert_eq!(machine.outstanding(), CAP / 2);
        }
        // Another thread's retire frees nothing of thread 0's.
        let id = machine.alloc();
        machine.retire(1, id);
        assert_eq!(machine.outstanding(), CAP / 2 + 1);
        machine.collect();
        assert_eq!(machine.outstanding(), 0, "forced collect frees the rest");
        let report = machine.finish();
        assert_eq!(report.allocated, report.freed);
        assert_eq!(report.allocated, CAP / 2 + 4);
    }

    #[test]
    fn machine_skips_illegal_ops() {
        let cfg = ModelConfig {
            sim_threads: 2,
            shadow_slots: 1,
            ..Default::default()
        };
        let mut machine = ModelMachine::new(&cfg);
        let id = machine.alloc();
        assert!(machine.acquire(0, id, 0, false));
        assert!(
            !machine.acquire(0, id, 0, false),
            "shadow stack full: acquire must back out"
        );
        assert!(machine.retire(1, id));
        assert!(!machine.retire(1, id), "double retire must be skipped");
        assert!(
            !machine.acquire(1, id, 0, false),
            "Assumption 1.1: retired nodes cannot be newly acquired"
        );
        assert!(machine.release(0, 0));
        assert!(!machine.release(0, 0), "nothing held anymore");
        let report = machine.finish();
        assert_eq!(report.allocated, 1);
        assert_eq!(report.freed, 1);
    }

    /// Safety and liveness hold across arbitrary shapes and schedules,
    /// both drawn from the one chooser.
    #[test]
    fn random_schedules_uphold_lemma1_and_lemma4() {
        check_inputs("random_schedules_uphold_lemma1_and_lemma4", 64, 24, |ch| {
            let config = ModelConfig {
                sim_threads: 1 + ch.choose("sim_threads", 5),
                shadow_slots: 1 + ch.choose("shadow_slots", 11),
                buffer_capacity: 2 + ch.choose("buffer_capacity", 30),
                steps: 800,
                ..Default::default()
            };
            let report = run_model_with(&config, ch);
            assert_eq!(report.allocated, report.freed);
        });
    }

    /// The §4.3 extension preserves both lemmas across arbitrary shapes
    /// and schedules.
    #[test]
    fn extended_schedules_uphold_lemma1_and_lemma4() {
        check_inputs(
            "extended_schedules_uphold_lemma1_and_lemma4",
            64,
            24,
            |ch| {
                let config = ModelConfig {
                    sim_threads: 1 + ch.choose("sim_threads", 4),
                    shadow_slots: 1 + ch.choose("shadow_slots", 7),
                    buffer_capacity: 2 + ch.choose("buffer_capacity", 14),
                    heap_block_cells: ch.choose("heap_block_cells", 8),
                    steps: 600,
                    ..Default::default()
                };
                let report = run_model_with(&config, ch);
                assert_eq!(report.allocated, report.freed);
            },
        );
    }
}
