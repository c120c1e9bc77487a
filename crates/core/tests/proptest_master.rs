//! The master buffer against the linear-scan oracles.
//!
//! One full phase (build, scan, partition) must agree with the reference
//! kernels from `threadscan::scan` (`find_range_linear` /
//! `find_exact_linear`) for every entry set, probe word and match mode:
//! same hit/miss per word, same `(reclaimable, survivors)` partition —
//! from the empty buffer up to phases of several thousand entries.

use proptest::prelude::*;
use threadscan::master::MasterBuffer;
use threadscan::retired::{noop_drop, Retired};
use threadscan::scan::{find_exact_linear, find_range_linear};
use threadscan::{CollectorConfig, MatchMode};

const MODES: [MatchMode; 2] = [MatchMode::Range, MatchMode::Exact];

/// Builds disjoint nodes from (gap, size) pairs. Addresses are multiples
/// of 8 so Exact-mode masked keys stay distinct (masked collisions would
/// make "which duplicate gets marked" ambiguous — a non-goal here; the
/// unit tests cover tagged/unaligned retire addresses).
fn build_nodes(gaps: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut cursor = 0x1000usize;
    let mut nodes = Vec::new();
    for &(gap, size) in gaps {
        cursor += gap * 8;
        nodes.push((cursor, size));
        cursor += size.next_multiple_of(8);
    }
    nodes
}

/// Retired records for `nodes`, in reverse address order so the build has
/// something to sort.
fn entries_of(nodes: &[(usize, usize)]) -> Vec<Retired> {
    nodes
        .iter()
        .rev()
        .map(|&(a, s)| unsafe { Retired::from_raw_parts(a, s, noop_drop) })
        .collect()
}

/// Runs one full phase (build, scan all words, partition) and returns the
/// freed and surviving address lists plus each word's hit/miss.
fn run_phase(
    nodes: &[(usize, usize)],
    words: &[usize],
    mode: MatchMode,
) -> (Vec<usize>, Vec<usize>, Vec<bool>) {
    let config = CollectorConfig::default().with_match_mode(mode);
    let master = MasterBuffer::new(entries_of(nodes), &config);
    let session = master.session();
    let hits = words.iter().map(|&w| session.scan_word(w)).collect();
    let (freed, kept) = master.partition();
    (
        freed.iter().map(Retired::addr).collect(),
        kept.iter().map(Retired::addr).collect(),
        hits,
    )
}

/// Oracle cross-check (the find_range_linear pattern): a word hits iff
/// the linear kernel finds it, and a node survives iff some word hit it.
/// `nodes` must be in ascending address order.
fn check_against_oracle(
    nodes: &[(usize, usize)],
    words: &[usize],
    mode: MatchMode,
) -> TestCaseResult {
    let (freed, kept, hits) = run_phase(nodes, words, mode);

    let addrs: Vec<usize> = nodes.iter().map(|&(a, _)| a).collect();
    let ends: Vec<usize> = nodes.iter().map(|&(a, s)| a + s).collect();
    let mask = CollectorConfig::default().low_bit_mask;
    let mut marked = vec![false; nodes.len()];
    let mut expect_hits = Vec::with_capacity(words.len());
    for &w in words {
        let hit = match mode {
            MatchMode::Range => find_range_linear(&addrs, &ends, w),
            MatchMode::Exact => find_exact_linear(&addrs, w, mask),
        };
        if let Some(i) = hit {
            marked[i] = true;
        }
        expect_hits.push(hit.is_some());
    }
    let side = |want: bool| -> Vec<usize> {
        addrs
            .iter()
            .zip(&marked)
            .filter(|(_, &m)| m == want)
            .map(|(&a, _)| a)
            .collect()
    };
    prop_assert_eq!(hits, expect_hits, "per-word hits must match the oracle");
    prop_assert_eq!(kept, side(true), "survivors must match the oracle");
    prop_assert_eq!(freed, side(false), "freed set must match the oracle");
    Ok(())
}

/// Arbitrary probes plus words aimed at every node: base, tagged base,
/// interior, one-past-end.
fn words_for(nodes: &[(usize, usize)], mut probes: Vec<usize>) -> Vec<usize> {
    for &(a, s) in nodes {
        probes.extend_from_slice(&[a, a | 0b101, a + s / 2, a + s]);
    }
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small phases (including the empty one), both match modes.
    #[test]
    fn scan_agrees_with_linear_oracle(
        gaps in proptest::collection::vec((1usize..200, 1usize..256), 0..96),
        probes in proptest::collection::vec(any::<usize>(), 0..48),
        mode in prop_oneof![Just(MatchMode::Range), Just(MatchMode::Exact)],
    ) {
        let nodes = build_nodes(&gaps);
        check_against_oracle(&nodes, &words_for(&nodes, probes), mode)?;
    }
}

proptest! {
    // The oracle is O(words × entries): a handful of big phases is enough.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Phases of several thousand entries — the size where the deleted
    /// parallel path used to take over.
    #[test]
    fn large_phase_scan_agrees_with_linear_oracle(
        gaps in proptest::collection::vec((1usize..200, 1usize..256), 4096..4608),
        probes in proptest::collection::vec(any::<usize>(), 0..48),
        mode in prop_oneof![Just(MatchMode::Range), Just(MatchMode::Exact)],
    ) {
        let nodes = build_nodes(&gaps);
        prop_assert!(nodes.len() >= 4096);
        check_against_oracle(&nodes, &words_for(&nodes, probes), mode)?;
    }
}

/// Each word's hit/miss against a fresh buffer of `nodes`.
fn probe_each(nodes: &[(usize, usize)], words: &[usize], mode: MatchMode) -> Vec<bool> {
    run_phase(nodes, words, mode).2
}

#[test]
fn boundary_words_miss_in_both_modes() {
    // Two adjacent 64-byte nodes with a 64-byte gap between them.
    let nodes = [(0x1000, 64), (0x1080, 64)];
    let words = [
        0x0ff8, // below addrs[0]
        0x10c0, // == end of the last entry (exclusive)
        0x1040, // == end of the first entry: start of the gap
        0x1078, // last word of the gap
        0x1000, // base of the first entry
        0x1080, // base of the last entry
    ];
    for mode in MODES {
        assert_eq!(
            probe_each(&nodes, &words, mode),
            [false, false, false, false, true, true],
            "{mode:?}"
        );
        check_against_oracle(&nodes, &words, mode).unwrap();
    }
    // The modes differ only inside a node and on tag bits.
    assert_eq!(
        probe_each(&nodes, &[0x1020, 0x10bf], MatchMode::Range),
        [true, true]
    );
    assert_eq!(
        probe_each(&nodes, &[0x1020, 0x10bf, 0x1085], MatchMode::Exact),
        [false, false, true]
    );
}

#[test]
fn out_of_range_words_are_rejected_without_losing_hits() {
    // The `[addrs[0], ends[last])` prefilter in `probe_word`: runs of
    // below-range words, runs of above-range words, and the two kinds
    // alternating (the mix the binary search predicted worst), with real
    // hits in between — every verdict must equal the linear oracle's.
    let nodes = build_nodes(&[(4, 64), (9, 176), (1, 24), (30, 64)]);
    let (lo, hi) = (nodes[0].0, nodes[3].0 + nodes[3].1);
    let below = [0usize, 8, lo - 8, lo - 1];
    let above = [hi, hi + 1, hi + 8, usize::MAX - 7, usize::MAX];
    let inside = [lo, lo | 0b111, nodes[1].0 + 80, nodes[3].0, hi - 1];
    let mut words = Vec::new();
    words.extend_from_slice(&below);
    words.extend_from_slice(&above);
    for i in 0..5 {
        words.extend_from_slice(&[below[i % 4], above[i], inside[i]]);
    }
    for mode in MODES {
        check_against_oracle(&nodes, &words, mode).unwrap();
        let verdicts = probe_each(&nodes, &words, mode);
        assert!(verdicts[..9].iter().all(|&hit| !hit), "{mode:?}");
        for (i, triple) in verdicts[9..].chunks(3).enumerate() {
            assert!(!triple[0] && !triple[1], "{mode:?}: miss pair {i}");
        }
        // The first and last entries' base words hit in either mode.
        assert!(verdicts[9 + 2] && verdicts[9 + 3 * 3 + 2], "{mode:?}");
    }
    // Exact mode compares the masked word: a tagged base just above
    // `addrs[0]` hits, a word whose masked key falls below it does not.
    assert_eq!(
        probe_each(&nodes, &[lo | 0b101, lo - 3], MatchMode::Exact),
        [true, false]
    );
}

#[test]
fn empty_buffer_matches_nothing_in_both_modes() {
    for mode in MODES {
        let words = [0usize, 8, 0x1000, usize::MAX];
        let (freed, kept, hits) = run_phase(&[], &words, mode);
        assert!(freed.is_empty() && kept.is_empty());
        assert_eq!(hits, [false; 4], "{mode:?}");
    }
}

#[test]
fn single_entry_buffer_in_both_modes() {
    let nodes = [(0x2000, 24)];
    // below, base, one-past-end, far above
    let words = [0x1ff8, 0x2000, 0x2018, usize::MAX];
    for mode in MODES {
        assert_eq!(
            probe_each(&nodes, &words, mode),
            [false, true, false, false],
            "{mode:?}"
        );
        check_against_oracle(&nodes, &words, mode).unwrap();
        let (freed, kept, _) = run_phase(&nodes, &[0x1ff8, 0x2018], mode);
        assert_eq!((freed, kept), (vec![0x2000], vec![]), "{mode:?}");
    }
}
