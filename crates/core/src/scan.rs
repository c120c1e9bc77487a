//! The conservative matching kernel.
//!
//! This is the innermost loop of `TS-Scan` (Algorithm 1, lines 19-24):
//! for each word of a thread's private memory, decide whether it (possibly)
//! refers to a node in the sorted delete buffer. Everything here is
//! panic-free and allocation-free: it runs inside POSIX signal handlers.
//!
//! The paper (§4.2) compares each word, low-order bits masked off, for
//! equality with a node address. This port matches the node's whole
//! extent instead. A tagged pointer `base | tag` lies inside
//! `[base, base + size)` whenever `tag < size` — and a node that can be
//! linked at all holds at least a pointer, so low-bit tags on it always
//! are — which means tags need no mask and retire addresses no alignment
//! contract; and the interior pointers Rust code holds routinely
//! (`&node.next`, a skip-list tower level) pin their node too. It never
//! frees anything the paper's match would retain.

/// Index of the buffer entry whose range `[addrs[i], ends[i])` contains `w`,
/// if any. `addrs` must be sorted ascending; `ends` is parallel to it.
#[inline]
pub fn find_range(addrs: &[usize], ends: &[usize], w: usize) -> Option<usize> {
    debug_assert_eq!(addrs.len(), ends.len());
    // Greatest i with addrs[i] <= w.
    let idx = addrs.partition_point(|&a| a <= w);
    if idx == 0 {
        return None;
    }
    let i = idx - 1;
    if w < ends[i] {
        Some(i)
    } else {
        None
    }
}

/// Linear-scan oracle for [`find_range`], used by tests and kept here so the
/// property tests in several crates can share it.
pub fn find_range_linear(addrs: &[usize], ends: &[usize], w: usize) -> Option<usize> {
    addrs
        .iter()
        .zip(ends.iter())
        .position(|(&a, &e)| a <= w && w < e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_choose::check_inputs;

    fn fixture() -> (Vec<usize>, Vec<usize>) {
        // Three nodes: [100,120), [200,264), [300,301).
        (vec![100, 200, 300], vec![120, 264, 301])
    }

    #[test]
    fn range_hits_base_interior_and_misses_end() {
        let (addrs, ends) = fixture();
        assert_eq!(find_range(&addrs, &ends, 100), Some(0), "base pointer");
        assert_eq!(find_range(&addrs, &ends, 119), Some(0), "interior");
        assert_eq!(find_range(&addrs, &ends, 120), None, "one-past-end");
        assert_eq!(find_range(&addrs, &ends, 199), None, "gap");
        assert_eq!(find_range(&addrs, &ends, 263), Some(1));
        assert_eq!(find_range(&addrs, &ends, 300), Some(2), "1-byte node");
        assert_eq!(find_range(&addrs, &ends, 99), None, "below first");
        assert_eq!(find_range(&addrs, &ends, usize::MAX), None);
    }

    #[test]
    fn range_on_empty_buffer_never_matches() {
        assert_eq!(find_range(&[], &[], 0), None);
        assert_eq!(find_range(&[], &[], usize::MAX), None);
    }

    /// Binary-search range matching agrees with the linear oracle on
    /// arbitrary disjoint sorted node sets and probe words.
    #[test]
    fn range_matches_linear_oracle() {
        check_inputs("range_matches_linear_oracle", 4096, 64, |ch| {
            // Build disjoint sorted ranges from positive gaps and sizes.
            let mut addrs = Vec::new();
            let mut ends = Vec::new();
            let mut cursor = 0usize;
            for _ in 0..ch.choose("ranges", 64) {
                cursor += 1 + ch.choose("gap", 999);
                addrs.push(cursor);
                cursor += 1 + ch.choose("size", 511);
                ends.push(cursor);
            }
            // Probe both arbitrary words and words near the ranges.
            let mut probes: Vec<usize> = (0..ch.choose("probes", 64))
                .map(|_| ch.choose("probe", usize::MAX))
                .collect();
            for (&a, &e) in addrs.iter().zip(ends.iter()) {
                probes.extend_from_slice(&[a, a - 1, e - 1, e]);
            }
            for w in probes {
                assert_eq!(
                    find_range(&addrs, &ends, w),
                    find_range_linear(&addrs, &ends, w),
                    "probe {w}"
                );
            }
        });
    }
}
