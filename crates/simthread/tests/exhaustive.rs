//! Exhaustive interleaving scenarios for the paper's handshake arguments.
//!
//! Each test fixes small per-thread programs (2–3 simulated threads,
//! ≤ 8 operations) and lets the DFS enumerator in [`ts_choose::explore`]
//! run **every** interleaving, asserting the exact schedule count so a
//! silently-shrunk exploration cannot pass. Scenario names are referenced
//! by the memory-ordering policy table in the README: a relaxed atomic in
//! `crates/core` / `crates/smr` is only as trustworthy as the scenario
//! named next to it.
//!
//! A failing schedule prints a replayable decision string; reproduce it
//! with `ts_choose::replay(trace, scenario)` (see README "Replaying a
//! failing trace").
//!
//! Under `RUSTFLAGS="--cfg ts_mutate_ordering"` the collector's scan→free
//! edge is deliberately severed (see `collector.rs`); the
//! `mutation_scan_free_is_caught` test then asserts the Lemma 1 scenario
//! *fails* — CI runs exactly that test to prove the explorer has teeth.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use ts_choose::{check, Chooser};
use ts_simthread::{ModelConfig, ModelMachine};

/// Interleaves fixed per-thread programs: `lens[t]` is thread `t`'s op
/// count, `step(t, pc)` executes thread `t`'s `pc`-th op. The chooser
/// picks which live thread steps next, so distinct decision sequences
/// correspond 1:1 to distinct interleavings (the multinomial
/// `(Σlens)! / Πlens!`).
fn interleave(ch: &mut dyn Chooser, lens: &[usize], mut step: impl FnMut(usize, usize)) {
    let mut pc = vec![0usize; lens.len()];
    loop {
        let live: Vec<usize> = (0..lens.len()).filter(|&t| pc[t] < lens[t]).collect();
        if live.is_empty() {
            return;
        }
        let t = live[ch.choose("thread", live.len())];
        step(t, pc[t]);
        pc[t] += 1;
    }
}

/// `n! / Π k_i!` — the number of interleavings of threads with `k_i` ops.
fn multinomial(lens: &[usize]) -> usize {
    let n: usize = lens.iter().sum();
    let mut result = 1usize;
    let mut denom_pool: Vec<usize> = lens
        .iter()
        .flat_map(|&k| (2..=k).collect::<Vec<_>>())
        .collect();
    for factor in 2..=n {
        result *= factor;
        // Cancel denominator factors greedily; counts stay small (≤ 8!).
        denom_pool.retain(|&d| {
            if result.is_multiple_of(d) {
                result /= d;
                false
            } else {
                true
            }
        });
    }
    for d in denom_pool {
        result /= d;
    }
    result
}

fn small_model(sim_threads: usize) -> ModelConfig {
    ModelConfig {
        sim_threads,
        shadow_slots: 4,
        buffer_capacity: 4,
        steps: 0, // unused: programs drive the machine directly
        seed: 0,
        heap_block_cells: 0,
    }
}

/// Lemma 1 handshake, 2 threads: a reader acquires/releases two nodes
/// while a reclaimer retires them and forces phases. In every
/// interleaving the census must show zero roots at each free.
fn acquire_release_vs_retire(ch: &mut dyn Chooser) {
    let mut m = ModelMachine::new(&small_model(2));
    let n0 = m.alloc();
    let n1 = m.alloc();
    const LENS: &[usize] = &[4, 4];
    interleave(ch, LENS, |t, pc| match (t, pc) {
        (0, 0) => drop(m.acquire(0, n0, 0, false)),
        (0, 1) => drop(m.acquire(0, n1, 3, false)),
        (0, 2) => drop(m.release(0, 0)),
        (0, 3) => drop(m.release(0, 0)),
        (1, 0) => drop(m.retire(1, n0)),
        (1, 1) => drop(m.retire(1, n1)),
        (1, _) => m.collect(),
        _ => unreachable!(),
    });
    let report = m.finish(); // Lemma 4: everything freed, boundedly
    assert_eq!(report.allocated, report.freed);
}

#[test]
fn lemma1_acquire_release_vs_retire_2threads() {
    let report = check(
        "lemma1_acquire_release_vs_retire_2threads",
        acquire_release_vs_retire,
    );
    assert_eq!(report.schedules, multinomial(&[4, 4])); // C(8,4) = 70
    println!(
        "lemma1_acquire_release_vs_retire_2threads: {} schedules (max depth {}) — exhaustive",
        report.schedules, report.max_depth
    );
}

/// Lemma 1 scan→free handshake, 3 threads: reader, retirer, and a
/// dedicated reclaimer interleave so phases run at every point relative
/// to acquire/retire. This is the scenario the CI mutation check relies
/// on: severing the scan edge frees a rooted node in the very first
/// DFS schedule.
fn scan_free_handshake(ch: &mut dyn Chooser) {
    let mut m = ModelMachine::new(&small_model(3));
    let n0 = m.alloc();
    let n1 = m.alloc();
    let n2 = m.alloc();
    const LENS: &[usize] = &[3, 3, 2];
    interleave(ch, LENS, |t, pc| match (t, pc) {
        (0, 0) => drop(m.acquire(0, n0, 0, false)),
        (0, 1) => drop(m.release(0, 0)),
        (0, 2) => drop(m.acquire(0, n1, 2, false)),
        (1, 0) => drop(m.retire(1, n0)),
        (1, 1) => drop(m.retire(1, n1)),
        (1, 2) => drop(m.retire(1, n2)),
        (2, _) => m.collect(),
        _ => unreachable!(),
    });
    let report = m.finish();
    assert_eq!(report.allocated, report.freed);
}

#[cfg(not(ts_mutate_ordering))]
#[test]
fn lemma1_scan_free_handshake_3threads() {
    let report = check("lemma1_scan_free_handshake_3threads", scan_free_handshake);
    assert_eq!(report.schedules, multinomial(&[3, 3, 2])); // 8!/(3!3!2!) = 560
    println!(
        "lemma1_scan_free_handshake_3threads: {} schedules (max depth {}) — exhaustive",
        report.schedules, report.max_depth
    );
}

/// The CI mutation check: with `--cfg ts_mutate_ordering` the collector
/// skips the scan round, so the Lemma 1 scenario MUST fail — and the
/// failure must be replayable from its decision string.
#[cfg(ts_mutate_ordering)]
#[test]
fn mutation_scan_free_is_caught() {
    let v = ts_choose::explore("lemma1_scan_free_handshake_3threads", scan_free_handshake)
        .expect_err("severed scan→free edge must violate Lemma 1");
    assert!(
        v.message.contains("SAFETY VIOLATION"),
        "expected a census violation, got: {}",
        v.message
    );
    // The printed decision string reproduces the violating schedule.
    let trace = v.trace.clone();
    let replayed = std::panic::catch_unwind(move || {
        ts_choose::replay(&trace, scan_free_handshake);
    });
    assert!(replayed.is_err(), "replay must reproduce the violation");
    println!(
        "mutation caught after {} schedule(s); replay decision string: {}",
        v.schedules, v.trace
    );
}

/// Lemma 4 through the mailbox: with `buffer_capacity` 4 the retirer's
/// second retire fills the fresh half, so its third runs a phase;
/// whatever that phase finds unmarked is parked in the retirer's mailbox
/// and one of them freed right there — its destructor checks the census
/// — while the reader's acquire/release of the first node lands anywhere
/// around it.
/// A node the phase marked instead survives and must still be freed by
/// the end, as must anything left parked.
fn mailbox_handoff(ch: &mut dyn Chooser) {
    let mut m = ModelMachine::new(&small_model(2));
    let n0 = m.alloc();
    let n1 = m.alloc();
    let n2 = m.alloc();
    const LENS: &[usize] = &[2, 3];
    interleave(ch, LENS, |t, pc| match (t, pc) {
        (0, 0) => drop(m.acquire(0, n0, 1, false)),
        (0, 1) => drop(m.release(0, 0)),
        (1, 0) => drop(m.retire(1, n0)),
        (1, 1) => drop(m.retire(1, n1)), // fills the fresh half
        (1, 2) => drop(m.retire(1, n2)), // a phase; frees one parked node
        _ => unreachable!(),
    });
    let report = m.finish();
    assert_eq!(report.allocated, report.freed);
}

#[test]
fn lemma4_mailbox_handoff_2threads() {
    let report = check("lemma4_mailbox_handoff_2threads", mailbox_handoff);
    assert_eq!(report.schedules, multinomial(&[2, 3])); // C(5,2) = 10
    println!(
        "lemma4_mailbox_handoff_2threads: {} schedules (max depth {}) — exhaustive",
        report.schedules, report.max_depth
    );
}

/// A node that records its free instead of being observed-after-free.
struct FlagNode {
    freed: Arc<AtomicBool>,
}

impl Drop for FlagNode {
    fn drop(&mut self) {
        self.freed.store(true, Ordering::SeqCst);
    }
}

fn flag_node(map: &mut HashMap<usize, Arc<AtomicBool>>) -> *mut FlagNode {
    let freed = Arc::new(AtomicBool::new(false));
    let ptr = Box::into_raw(Box::new(FlagNode {
        freed: Arc::clone(&freed),
    }));
    map.insert(ptr as usize, freed);
    ptr
}

/// Epoch fast-path handshake (`begin_op` announce / `end_op` clear vs a
/// retiring writer at advance threshold 1): a reader that loaded the
/// shared pointer between `begin_op` and `end_op` pins the epoch, so the
/// node cannot be freed while the reader could still dereference it —
/// in every interleaving. This is the scenario justifying the relaxed
/// `begin_op` global load and the plain-store `end_op` clear in
/// `crates/smr/src/epoch.rs` (the announce store itself must stay
/// `SeqCst`; see the README ordering-policy table).
fn epoch_fastpath(ch: &mut dyn Chooser) {
    use ts_smr::{retire_box, EpochScheme, Smr, SmrHandle};

    let scheme = EpochScheme::with_threshold(1); // every retire tries to advance
    let reader = scheme.register();
    let writer = scheme.register();

    let mut flags: HashMap<usize, Arc<AtomicBool>> = HashMap::new();
    let node = flag_node(&mut flags);
    let filler1 = flag_node(&mut flags);
    let filler2 = flag_node(&mut flags);
    let shared = AtomicUsize::new(node as usize);

    let mut protected = 0usize;
    const LENS: &[usize] = &[4, 4];
    interleave(ch, LENS, |t, pc| match (t, pc) {
        // Reader: announce, load, "dereference", clear.
        (0, 0) => reader.begin_op(),
        (0, 1) => protected = shared.load(Ordering::SeqCst),
        (0, 2) => {
            if protected != 0 {
                assert!(
                    !flags[&protected].load(Ordering::SeqCst),
                    "EPOCH VIOLATION: node freed while an active reader holds it"
                );
            }
        }
        (0, 3) => reader.end_op(),
        // Writer: unlink, then retire the node + fillers, each retire
        // attempting an epoch advance and expiry.
        (1, 0) => shared.store(0, Ordering::SeqCst),
        (1, 1) => unsafe { retire_box(&writer, node) },
        (1, 2) => unsafe { retire_box(&writer, filler1) },
        (1, 3) => unsafe { retire_box(&writer, filler2) },
        _ => unreachable!(),
    });

    // Lemma 4 analog: once both handles are quiescent, everything frees.
    drop(reader);
    drop(writer);
    scheme.quiesce();
    for (addr, freed) in &flags {
        assert!(
            freed.load(Ordering::SeqCst),
            "node {addr:#x} never freed after quiesce"
        );
    }
}

#[test]
fn epoch_fastpath_handshake() {
    let report = check("epoch_fastpath_handshake", epoch_fastpath);
    assert_eq!(report.schedules, multinomial(&[4, 4])); // C(8,4) = 70
    println!(
        "epoch_fastpath_handshake: {} schedules (max depth {}) — exhaustive",
        report.schedules, report.max_depth
    );
}

/// Hazard-pointer protect/validate vs unlink/retire handshake at scan
/// threshold 1: once `load_protected` returns a non-null pointer, every
/// subsequent scan must keep the node until `end_op`. Justifies the
/// relaxed pre-fence hazard publication in `crates/smr/src/hazard.rs`
/// (the publication is ordered by the `SeqCst` fence that follows it,
/// not by its own store ordering).
fn hazard_protect_vs_retire(ch: &mut dyn Chooser) {
    use ts_smr::{retire_box, HazardPointers, Smr, SmrHandle};

    let scheme = HazardPointers::with_params(1, 1); // scan on every retire
    let reader = scheme.register();
    let writer = scheme.register();

    let mut flags: HashMap<usize, Arc<AtomicBool>> = HashMap::new();
    let node = flag_node(&mut flags);
    let filler = flag_node(&mut flags);
    let shared = AtomicPtr::new(node.cast::<u8>());

    let mut protected: *mut u8 = std::ptr::null_mut();
    const LENS: &[usize] = &[3, 3];
    interleave(ch, LENS, |t, pc| match (t, pc) {
        // Reader: protect (publish + fence + validate), "deref", release.
        (0, 0) => protected = reader.load_protected(0, &shared),
        (0, 1) => {
            if !protected.is_null() {
                assert!(
                    !flags[&(protected as usize)].load(Ordering::SeqCst),
                    "HAZARD VIOLATION: node freed while protected"
                );
            }
        }
        (0, 2) => reader.end_op(),
        // Writer: unlink, then retire node + filler (each scans).
        (1, 0) => shared.store(std::ptr::null_mut(), Ordering::SeqCst),
        (1, 1) => unsafe { retire_box(&writer, node) },
        (1, 2) => unsafe { retire_box(&writer, filler) },
        _ => unreachable!(),
    });

    drop(reader);
    drop(writer);
    scheme.quiesce();
    for (addr, freed) in &flags {
        assert!(
            freed.load(Ordering::SeqCst),
            "node {addr:#x} never freed after quiesce"
        );
    }
}

#[test]
fn hazard_protect_vs_retire_handshake() {
    let report = check("hazard_protect_vs_retire", hazard_protect_vs_retire);
    assert_eq!(report.schedules, multinomial(&[3, 3])); // C(6,3) = 20
    println!(
        "hazard_protect_vs_retire: {} schedules (max depth {}) — exhaustive",
        report.schedules, report.max_depth
    );
}

/// Growable-directory grow-vs-traverse handshake: one thread publishes a
/// taller root (twice — two grows) while another traverses an entry that
/// existed before either grow. The design claim (see
/// `crates/structures/src/growable_dir.rs`): a reader holding a stale
/// root snapshot is never invalidated, because growth installs the old
/// tree as child 0 of the new root — so the read must return the
/// original value in **every** interleaving, with no reader/grower
/// handshake beyond the root CAS.
fn growable_directory_grow_vs_traverse(ch: &mut dyn Chooser) {
    use ts_structures::growable_dir::{GrowableDirectory, SEG_LEN};

    let dir = GrowableDirectory::new();
    let a = 0x10 as *mut u8; // sentinels, never dereferenced
    let b = 0x20 as *mut u8;
    dir.entry(0).store(a, Ordering::Release);
    assert_eq!(dir.height(), 1);

    const LENS: &[usize] = &[2, 3];
    interleave(ch, LENS, |t, pc| match (t, pc) {
        // Grower: two out-of-range writes, each may grow the tree.
        (0, 0) => dir.entry(SEG_LEN).store(b, Ordering::Release),
        (0, 1) => dir.entry(2 * SEG_LEN).store(b, Ordering::Release),
        // Traverser: in-range reads before/between/after the grows must
        // always resolve through whatever root they observe to slot 0.
        (1, _) => assert_eq!(
            dir.entry(0).load(Ordering::Acquire),
            a,
            "GROW VIOLATION: pre-grow entry unreadable during growth"
        ),
        _ => unreachable!(),
    });

    // Post-conditions hold on every schedule: both grows landed in one
    // height-2 tree (indices < SEG_LEN^2 need no second level-up).
    assert_eq!(dir.height(), 2);
    assert_eq!(dir.entry(SEG_LEN).load(Ordering::Acquire), b);
    assert_eq!(dir.entry(2 * SEG_LEN).load(Ordering::Acquire), b);
    assert_eq!(dir.entry(0).load(Ordering::Acquire), a);
}

#[test]
fn growable_directory_grow_vs_traverse_2threads() {
    let report = check(
        "growable_directory_grow_vs_traverse_2threads",
        growable_directory_grow_vs_traverse,
    );
    assert_eq!(report.schedules, multinomial(&[2, 3])); // C(5,2) = 10
    println!(
        "growable_directory_grow_vs_traverse_2threads: {} schedules (max depth {}) — exhaustive",
        report.schedules, report.max_depth
    );
}

#[test]
fn multinomial_matches_known_counts() {
    assert_eq!(multinomial(&[4, 4]), 70);
    assert_eq!(multinomial(&[3, 3, 2]), 560);
    assert_eq!(multinomial(&[2, 3]), 10);
    assert_eq!(multinomial(&[3, 3]), 20);
    assert_eq!(multinomial(&[1, 1, 1]), 6);
}
