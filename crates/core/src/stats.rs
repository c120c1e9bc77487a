//! Collector statistics.
//!
//! The paper's discussion (§6 Results) attributes ThreadScan's overhead to
//! stack scans and signal traffic, amortized "across threads and against
//! reclaimed nodes". These counters expose exactly those quantities so the
//! benchmark harness (and users) can verify the amortization claim.

use core::sync::atomic::{AtomicUsize, Ordering};

/// Monotonic counters describing a collector's lifetime activity.
///
/// `retired`, `freed`, `mailbox_frees`, `alloc_frees` and `alloc_misses`
/// hold only the collector-level share here — what the reclaimer-lock
/// holder counted, plus the totals of threads that have unregistered. Live
/// threads count their own retires, mailbox frees and allocation hooks in
/// owner-written per-thread counters (so neither `retire` nor the
/// allocation hook touches a line another thread writes), and
/// [`Collector::stats`](crate::Collector::stats) adds those in.
#[derive(Default)]
pub struct CollectorStats {
    /// Completed reclamation phases (`TS-Collect` calls that scanned).
    pub collects: AtomicUsize,
    /// Collect attempts that found an already-drained buffer and returned
    /// to work without scanning (§4.2: "it can go back to work").
    pub collects_skipped: AtomicUsize,
    /// Nodes handed to `retire`.
    pub retired: AtomicUsize,
    /// Nodes whose destructor ran.
    pub freed: AtomicUsize,
    /// Marked nodes carried into a later phase (summed over phases).
    pub survivors: AtomicUsize,
    /// Threads that scanned, summed over phases (== signals sent + self-scans).
    pub threads_scanned: AtomicUsize,
    /// Words examined by all scans.
    pub words_scanned: AtomicUsize,
    /// Words that matched a retired node.
    pub mark_hits: AtomicUsize,
    /// Nodes freed by the thread that retired into the phase, one per
    /// later `retire` or allocation, after the reclaimer parked them in its
    /// mailbox. A subset of [`Self::freed`].
    pub mailbox_frees: AtomicUsize,
    /// Mailbox frees paired with an allocation: the owner freed a parked
    /// node right before allocating a new one (`ThreadHandle::before_alloc`).
    /// A subset of [`Self::mailbox_frees`]; the rest are retire-side frees.
    pub alloc_frees: AtomicUsize,
    /// Allocation hooks that found the caller's mailbox empty and freed
    /// nothing.
    pub alloc_misses: AtomicUsize,
    /// Nodes a triggered phase's reclaimer freed itself because no mailbox
    /// would take them: the contributing thread's mailbox was full (an
    /// idle or slow owner), or nobody contributed them to this phase
    /// (survivors of an earlier one, orphans). A subset of
    /// [`Self::freed`]; forced and teardown frees are not counted here.
    pub overflow_frees: AtomicUsize,
    /// Nanoseconds the reclaimer spent inside collect phases, summed.
    /// With `collects`, gives the mean reclaimer latency the paper's §7
    /// "Future Work" worries about.
    pub collect_ns_total: AtomicUsize,
    /// Longest single collect phase, in nanoseconds.
    pub collect_ns_max: AtomicUsize,
    /// Nanoseconds spent sorting and building the master buffer, summed
    /// over phases — the sort's share of reclaimer latency.
    pub sort_ns_total: AtomicUsize,
    /// Longest single master-buffer sort, in nanoseconds.
    pub sort_ns_max: AtomicUsize,
    /// Log2-bucketed histogram of per-phase collect latency:
    /// `collect_ns_hist[i]` counts phases whose reclaimer-side latency
    /// was in `[2^i, 2^(i+1))` nanoseconds (the last bucket saturates).
    /// Coarse on purpose — one relaxed increment per phase keeps it off
    /// any hot path while still supporting p50/p95/p99 estimates
    /// ([`StatsSnapshot::collect_us_percentile`]).
    pub collect_ns_hist: [AtomicUsize; HIST_BUCKETS],
}

/// Number of log2 latency-histogram buckets (re-exported from the shared
/// histogram module — collector and workload histograms share one shape
/// so they can be merged; see [`crate::hist`]).
pub const HIST_BUCKETS: usize = crate::hist::BUCKETS;

/// A point-in-time copy of [`CollectorStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)] // field meanings documented on `CollectorStats`
pub struct StatsSnapshot {
    pub collects: usize,
    pub collects_skipped: usize,
    pub retired: usize,
    pub freed: usize,
    pub survivors: usize,
    pub threads_scanned: usize,
    pub words_scanned: usize,
    pub mark_hits: usize,
    pub mailbox_frees: usize,
    pub alloc_frees: usize,
    pub alloc_misses: usize,
    pub overflow_frees: usize,
    pub collect_ns_total: usize,
    pub collect_ns_max: usize,
    pub sort_ns_total: usize,
    pub sort_ns_max: usize,
    pub collect_ns_hist: [usize; HIST_BUCKETS],
}

impl CollectorStats {
    /// Takes a relaxed snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            collects: self.collects.load(Ordering::Relaxed),
            collects_skipped: self.collects_skipped.load(Ordering::Relaxed),
            retired: self.retired.load(Ordering::Relaxed),
            freed: self.freed.load(Ordering::Relaxed),
            survivors: self.survivors.load(Ordering::Relaxed),
            threads_scanned: self.threads_scanned.load(Ordering::Relaxed),
            words_scanned: self.words_scanned.load(Ordering::Relaxed),
            mark_hits: self.mark_hits.load(Ordering::Relaxed),
            mailbox_frees: self.mailbox_frees.load(Ordering::Relaxed),
            alloc_frees: self.alloc_frees.load(Ordering::Relaxed),
            alloc_misses: self.alloc_misses.load(Ordering::Relaxed),
            overflow_frees: self.overflow_frees.load(Ordering::Relaxed),
            collect_ns_total: self.collect_ns_total.load(Ordering::Relaxed),
            collect_ns_max: self.collect_ns_max.load(Ordering::Relaxed),
            sort_ns_total: self.sort_ns_total.load(Ordering::Relaxed),
            sort_ns_max: self.sort_ns_max.load(Ordering::Relaxed),
            collect_ns_hist: core::array::from_fn(|i| {
                self.collect_ns_hist[i].load(Ordering::Relaxed)
            }),
        }
    }

    /// Records one phase's reclaimer-side latency into the histogram.
    pub(crate) fn record_collect_ns(&self, ns: usize) {
        self.collect_ns_hist[crate::hist::bucket(ns as u64)].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(&self, field: &AtomicUsize, n: usize) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises `field` to at least `n` (for maxima; racy-but-monotonic).
    #[inline]
    pub(crate) fn raise(&self, field: &AtomicUsize, n: usize) {
        let mut cur = field.load(Ordering::Relaxed);
        while cur < n {
            match field.compare_exchange_weak(cur, n, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }
}

impl StatsSnapshot {
    /// Nodes still tracked: retired but not yet freed. This *includes*
    /// nodes parked in a thread's mailbox (proven reclaimable but whose
    /// destructor has not run) — `freed` only counts completed
    /// destructors, so `retired - freed` counts the mailboxes as
    /// outstanding, exactly like
    /// [`Collector::pending_estimate`](crate::Collector::pending_estimate)
    /// does.
    pub fn outstanding(&self) -> usize {
        self.retired.saturating_sub(self.freed)
    }

    /// Average words scanned per completed collect (the per-phase scan cost
    /// the paper identifies as the main overhead).
    pub fn words_per_collect(&self) -> f64 {
        if self.collects == 0 {
            0.0
        } else {
            self.words_scanned as f64 / self.collects as f64
        }
    }

    /// Mean reclaimer-side collect latency in microseconds (§7's
    /// responsiveness concern).
    pub fn mean_collect_us(&self) -> f64 {
        if self.collects == 0 {
            0.0
        } else {
            self.collect_ns_total as f64 / self.collects as f64 / 1e3
        }
    }

    /// Worst-case collect latency in microseconds.
    pub fn max_collect_us(&self) -> f64 {
        self.collect_ns_max as f64 / 1e3
    }

    /// Mean per-phase master-buffer sort time in microseconds — the
    /// sort's share of [`Self::mean_collect_us`].
    pub fn mean_sort_us(&self) -> f64 {
        if self.collects == 0 {
            0.0
        } else {
            self.sort_ns_total as f64 / self.collects as f64 / 1e3
        }
    }

    /// Approximate collect-latency percentile in microseconds, from the
    /// log2 histogram: the smallest bucket upper bound below which at
    /// least `q` (in `0.0..=1.0`) of all phases completed. Zero when no
    /// phase has run. Coarse by design — buckets are powers of two, so
    /// the value is an upper bound within a factor of two.
    pub fn collect_us_percentile(&self, q: f64) -> f64 {
        self.collect_hist().percentile_ns(q) / 1e3
    }

    /// The collect-latency histogram as a shared mergeable
    /// [`Hist`](crate::hist::Hist) — fold several repeats' snapshots
    /// together with [`Hist::merge`](crate::hist::Hist::merge) (or
    /// [`Hist::add_counts`](crate::hist::Hist::add_counts)) before
    /// computing percentiles.
    pub fn collect_hist(&self) -> crate::hist::Hist {
        let mut h = crate::hist::Hist::new();
        h.add_counts(&self.collect_ns_hist);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let stats = CollectorStats::default();
        stats.add(&stats.retired, 10);
        stats.add(&stats.freed, 4);
        stats.add(&stats.collects, 2);
        stats.add(&stats.words_scanned, 1000);
        let snap = stats.snapshot();
        assert_eq!(snap.retired, 10);
        assert_eq!(snap.freed, 4);
        assert_eq!(snap.outstanding(), 6);
        assert_eq!(snap.words_per_collect(), 500.0);
    }

    #[test]
    fn words_per_collect_handles_zero_collects() {
        assert_eq!(StatsSnapshot::default().words_per_collect(), 0.0);
        assert_eq!(StatsSnapshot::default().mean_collect_us(), 0.0);
    }

    #[test]
    fn raise_is_monotonic_max() {
        let stats = CollectorStats::default();
        stats.raise(&stats.collect_ns_max, 500);
        stats.raise(&stats.collect_ns_max, 200); // lower: no effect
        stats.raise(&stats.collect_ns_max, 900);
        assert_eq!(stats.snapshot().collect_ns_max, 900);
    }

    #[test]
    fn collect_latency_snapshot_and_means() {
        let stats = CollectorStats::default();
        stats.add(&stats.collects, 4);
        stats.add(&stats.collect_ns_total, 8_000);
        stats.raise(&stats.collect_ns_max, 3_000);
        let snap = stats.snapshot();
        assert_eq!(snap.mean_collect_us(), 2.0);
        assert_eq!(snap.max_collect_us(), 3.0);
    }

    #[test]
    fn mean_sort_us_amortizes_over_collects() {
        let stats = CollectorStats::default();
        stats.add(&stats.collects, 2);
        stats.add(&stats.sort_ns_total, 6_000);
        assert_eq!(stats.snapshot().mean_sort_us(), 3.0);
        assert_eq!(StatsSnapshot::default().mean_sort_us(), 0.0);
    }

    #[test]
    fn latency_histogram_buckets_by_log2() {
        let stats = CollectorStats::default();
        stats.record_collect_ns(0); // clamps to bucket 0
        stats.record_collect_ns(1);
        stats.record_collect_ns(1023); // [512, 1024) -> bucket 9
        stats.record_collect_ns(1024); // bucket 10
        stats.record_collect_ns(usize::MAX); // saturates into the last bucket
        let snap = stats.snapshot();
        assert_eq!(snap.collect_ns_hist[0], 2);
        assert_eq!(snap.collect_ns_hist[9], 1);
        assert_eq!(snap.collect_ns_hist[10], 1);
        assert_eq!(snap.collect_ns_hist[HIST_BUCKETS - 1], 1);
        assert_eq!(snap.collect_ns_hist.iter().sum::<usize>(), 5);
    }

    #[test]
    fn percentile_of_saturated_last_bucket_is_its_bound() {
        // Regression (satellite of the explorer PR): with only the
        // saturation bucket populated, q=1.0 must return the last
        // bucket's upper bound — 2^HIST_BUCKETS ns in µs — and keep
        // doing so if HIST_BUCKETS ever changes. The old fallback
        // expressed this as `2^len`, which equals the last bucket's
        // bound only by coincidence of the current bound formula.
        let stats = CollectorStats::default();
        stats.record_collect_ns(usize::MAX); // saturates into bucket 31
        let snap = stats.snapshot();
        let expect = 2f64.powi(HIST_BUCKETS as i32) / 1e3;
        assert_eq!(snap.collect_us_percentile(1.0), expect);
        assert_eq!(snap.collect_us_percentile(0.5), expect);
    }

    #[test]
    fn percentiles_walk_the_histogram() {
        let stats = CollectorStats::default();
        // 90 fast phases (~1 µs), 10 slow ones (~1 ms).
        for _ in 0..90 {
            stats.record_collect_ns(1_000); // bucket 9, upper bound 1024 ns
        }
        for _ in 0..10 {
            stats.record_collect_ns(1_000_000); // bucket 19
        }
        let snap = stats.snapshot();
        let p50 = snap.collect_us_percentile(0.50);
        let p95 = snap.collect_us_percentile(0.95);
        let p99 = snap.collect_us_percentile(0.99);
        assert_eq!(p50, 1.024, "p50 lands in the fast bucket");
        assert_eq!(p95, 1048.576, "p95 lands in the slow bucket");
        assert!(p50 <= p95 && p95 <= p99, "percentiles are monotone");
        assert_eq!(StatsSnapshot::default().collect_us_percentile(0.99), 0.0);
    }

    #[test]
    fn outstanding_saturates() {
        let snap = StatsSnapshot {
            retired: 3,
            freed: 5,
            ..Default::default()
        };
        assert_eq!(snap.outstanding(), 0);
    }
}
