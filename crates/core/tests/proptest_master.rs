//! The master buffer against the linear-scan oracle.
//!
//! One full phase (build, scan, partition) must agree with the reference
//! kernel from `threadscan::scan` (`find_range_linear`) for every entry
//! set and probe word: same hit/miss per word, same
//! `(reclaimable, survivors)` partition — from the empty buffer up to
//! phases of several thousand entries. A buffer set recycled from phase
//! to phase, as the collector runs it, must agree with a fresh one.

use threadscan::master::MasterBuffer;
use threadscan::retired::{noop_drop, Retired};
use threadscan::scan::find_range_linear;
use threadscan::CollectorConfig;
use ts_choose::{check_inputs, Chooser};

/// Builds disjoint nodes from (gap, size) pairs, at 8-aligned addresses
/// like real allocations.
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
fn run_phase(nodes: &[(usize, usize)], words: &[usize]) -> (Vec<usize>, Vec<usize>, Vec<bool>) {
    let master = MasterBuffer::new(entries_of(nodes), &CollectorConfig::default());
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
fn check_against_oracle(nodes: &[(usize, usize)], words: &[usize]) {
    let (freed, kept, hits) = run_phase(nodes, words);

    let addrs: Vec<usize> = nodes.iter().map(|&(a, _)| a).collect();
    let ends: Vec<usize> = nodes.iter().map(|&(a, s)| a + s).collect();
    let mut marked = vec![false; nodes.len()];
    let mut expect_hits = Vec::with_capacity(words.len());
    for &w in words {
        let hit = find_range_linear(&addrs, &ends, w);
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
    assert_eq!(hits, expect_hits, "per-word hits must match the oracle");
    assert_eq!(kept, side(true), "survivors must match the oracle");
    assert_eq!(freed, side(false), "freed set must match the oracle");
}

/// Arbitrary probes plus words aimed at every node: base, tagged base,
/// interior, one-past-end.
fn words_for(nodes: &[(usize, usize)], mut probes: Vec<usize>) -> Vec<usize> {
    for &(a, s) in nodes {
        probes.extend_from_slice(&[a, a | 0b101, a + s / 2, a + s]);
    }
    probes
}

/// `len` nodes from (gap, size) pairs of `1..200` words and `1..256`
/// bytes, with up to 47 arbitrary probe words.
fn phase_input(ch: &mut dyn Chooser, len: usize) -> (Vec<(usize, usize)>, Vec<usize>) {
    let gaps: Vec<(usize, usize)> = (0..len)
        .map(|_| (1 + ch.choose("gap", 199), 1 + ch.choose("size", 255)))
        .collect();
    let probes = (0..ch.choose("probes", 48))
        .map(|_| ch.choose("probe", usize::MAX))
        .collect();
    (build_nodes(&gaps), probes)
}

/// Small phases (including the empty one).
#[test]
fn scan_agrees_with_linear_oracle() {
    check_inputs("scan_agrees_with_linear_oracle", 4096, 48, |ch| {
        let len = ch.choose("nodes", 96);
        let (nodes, probes) = phase_input(ch, len);
        check_against_oracle(&nodes, &words_for(&nodes, probes));
    });
}

/// Phases of several thousand entries — the size where the deleted
/// parallel path used to take over. The oracle is O(words × entries) and
/// the smallest input is already large, so this one is sampled only.
#[test]
fn large_phase_scan_agrees_with_linear_oracle() {
    check_inputs("large_phase_scan_agrees_with_linear_oracle", 0, 4, |ch| {
        let len = 4096 + ch.choose("nodes", 512);
        let (nodes, probes) = phase_input(ch, len);
        assert!(nodes.len() >= 4096);
        check_against_oracle(&nodes, &words_for(&nodes, probes));
    });
}

/// One buffer set recycled through 2–4 phases of growing and shrinking
/// size gives each phase what a fresh buffer gives on the same input: the
/// same hit/miss per word and the same `(reclaimable, survivors)`. The
/// words aim at some nodes and miss the rest, so both sides of the split
/// are populated; a mark, key or end left over from an earlier phase would
/// move a node to the wrong side or change a verdict.
#[test]
fn recycled_phases_equal_fresh_ones() {
    check_inputs("recycled_phases_equal_fresh_ones", 4096, 48, |ch| {
        let mut master = MasterBuffer::default();
        let (mut reclaimable, mut survivors) = (Vec::new(), Vec::new());
        let addrs = |records: &[Retired]| records.iter().map(Retired::addr).collect::<Vec<_>>();
        for _ in 0..2 + ch.choose("phases", 3) {
            let len = ch.choose("nodes", 48);
            let (nodes, mut words) = phase_input(ch, len);
            for &(a, s) in &nodes {
                if ch.choose("aimed", 2) == 1 {
                    words.push(a + ch.choose("offset", s));
                }
            }
            master.intake().extend(entries_of(&nodes));
            master.build();
            let session = master.session();
            let hits: Vec<bool> = words.iter().map(|&w| session.scan_word(w)).collect();
            reclaimable.clear();
            survivors.clear();
            master.split_into(&mut reclaimable, &mut survivors);
            let recycled = (addrs(&reclaimable), addrs(&survivors), hits);
            assert_eq!(recycled, run_phase(&nodes, &words));
            assert!(master.is_empty(), "a split leaves no records behind");
        }
    });
}

/// Each word's hit/miss against a fresh buffer of `nodes`.
fn probe_each(nodes: &[(usize, usize)], words: &[usize]) -> Vec<bool> {
    run_phase(nodes, words).2
}

#[test]
fn boundary_words_miss() {
    // Two adjacent 64-byte nodes with a 64-byte gap between them.
    let nodes = [(0x1000, 64), (0x1080, 64)];
    let words = [
        0x0ff8, // below addrs[0]
        0x10c0, // == end of the last entry (exclusive)
        0x1040, // == end of the first entry: start of the gap
        0x1078, // last word of the gap
        0x1000, // base of the first entry
        0x1080, // base of the last entry
        0x1020, // interior of the first entry
        0x10bf, // last byte of the last entry
        0x1085, // tagged base of the last entry
    ];
    assert_eq!(
        probe_each(&nodes, &words),
        [false, false, false, false, true, true, true, true, true]
    );
    check_against_oracle(&nodes, &words);
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
    check_against_oracle(&nodes, &words);
    let verdicts = probe_each(&nodes, &words);
    assert!(verdicts[..9].iter().all(|&hit| !hit));
    for (i, triple) in verdicts[9..].chunks(3).enumerate() {
        assert_eq!(triple, [false, false, true], "triple {i}");
    }
}

#[test]
fn empty_buffer_matches_nothing() {
    let words = [0usize, 8, 0x1000, usize::MAX];
    let (freed, kept, hits) = run_phase(&[], &words);
    assert!(freed.is_empty() && kept.is_empty());
    assert_eq!(hits, [false; 4]);
}

#[test]
fn single_entry_buffer() {
    let nodes = [(0x2000, 24)];
    // below, base, one-past-end, far above
    let words = [0x1ff8, 0x2000, 0x2018, usize::MAX];
    assert_eq!(probe_each(&nodes, &words), [false, true, false, false]);
    check_against_oracle(&nodes, &words);
    let (freed, kept, _) = run_phase(&nodes, &[0x1ff8, 0x2018]);
    assert_eq!((freed, kept), (vec![0x2000], vec![]));
}
