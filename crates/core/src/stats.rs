//! Collector statistics.
//!
//! The paper's discussion (§6 Results) attributes ThreadScan's overhead to
//! stack scans and signal traffic, amortized "across threads and against
//! reclaimed nodes". These counters expose exactly those quantities so the
//! benchmark harness (and users) can verify the amortization claim.
//!
//! Every counter is declared once, in the `counters!` list below, with
//! its doc comment and its fold (`sum` or `max`). The list generates
//! [`CollectorStats`], [`StatsSnapshot`] and every fold and report of them
//! ([`CollectorStats::absorb`], [`StatsSnapshot::merge`],
//! [`StatsSnapshot::counters`]). To add a counter, add its line to the
//! list and its increment where it happens. The distribution of per-phase
//! latency is no counter: the collector keeps one histogram of it,
//! [`Collector::collect_latency`](crate::Collector::collect_latency).

use core::sync::atomic::{AtomicUsize, Ordering};

/// How a reading `b` folds into a reading `a` of the same counter, across
/// threads and runs: a `sum` adds, a `max` keeps the larger.
macro_rules! fold {
    (sum, $a:expr, $b:expr) => {
        $a += $b
    };
    (max, $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
}

macro_rules! counters {
    ($($(#[$doc:meta])+ $name:ident: $fold:ident,)+) => {
        /// Monotonic counters describing a collector's lifetime activity.
        ///
        /// A collector keeps one for its reclaimer's counts and departed
        /// threads'. A registered thread counts its retires, mailbox frees
        /// and allocation hooks under the lock on its delete buffer, which
        /// `retire` and the allocation hook take anyway, and
        /// [`Collector::stats`](crate::Collector::stats) merges them into
        /// the collector's; unregistering absorbs them.
        #[derive(Default)]
        pub struct CollectorStats {
            $($(#[$doc])+ pub $name: AtomicUsize,)+
        }

        /// A point-in-time copy of [`CollectorStats`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $($(#[$doc])+ pub $name: usize,)+
        }

        impl CollectorStats {
            /// Takes a relaxed snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }

            /// Folds a snapshot into these counters the way
            /// [`StatsSnapshot::merge`] folds it into a snapshot.
            pub fn absorb(&self, other: &StatsSnapshot) {
                $(
                    let theirs = other.$name;
                    let fold = |mut mine: usize| {
                        fold!($fold, mine, theirs);
                        Some(mine)
                    };
                    let _ = self.$name.fetch_update(Ordering::Relaxed, Ordering::Relaxed, fold);
                )+
            }
        }

        impl StatsSnapshot {
            /// Folds `other` into this snapshot, counter by counter: totals
            /// add, maxima (`collect_ns_max`, `sort_ns_max`) keep the
            /// larger. Merging per-thread or per-run snapshots gives the
            /// counters of them all.
            pub fn merge(&mut self, other: &StatsSnapshot) {
                $(fold!($fold, self.$name, other.$name);)+
            }

            /// Every counter as `(name, value)`, in declaration order; the
            /// name is the field's.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, usize)> {
                [$((stringify!($name), self.$name)),+].into_iter()
            }
        }
    };
}

counters! {
    /// Completed reclamation phases (`TS-Collect` calls that scanned).
    collects: sum,
    /// Collect attempts that found an already-drained buffer and returned
    /// to work without scanning (§4.2: "it can go back to work").
    collects_skipped: sum,
    /// Nodes handed to `retire`.
    retired: sum,
    /// Nodes whose destructor ran (an owner counts its own right before).
    freed: sum,
    /// Marked nodes carried into a later phase (summed over phases).
    survivors: sum,
    /// Registrations that scanned and acked, summed over phases (the
    /// reclaimer's own included; a thread registered twice counts twice).
    threads_scanned: sum,
    /// Words examined by all scans.
    words_scanned: sum,
    /// Words that matched a retired node.
    mark_hits: sum,
    /// Nodes freed by the thread that retired into the phase, one per
    /// later `retire` or allocation, after the reclaimer parked them in its
    /// mailbox. A subset of [`Self::freed`].
    mailbox_frees: sum,
    /// Mailbox frees paired with an allocation: the owner freed a parked
    /// node right before allocating a new one (`ThreadHandle::before_alloc`).
    /// A subset of [`Self::mailbox_frees`]; the rest are retire-side frees.
    alloc_frees: sum,
    /// Allocation hooks that found the caller's mailbox empty and freed
    /// nothing.
    alloc_misses: sum,
    /// Nodes a triggered phase's reclaimer freed itself because no mailbox
    /// would take them: the contributing thread's mailbox was full (an
    /// idle or slow owner), or nobody contributed them to this phase
    /// (survivors of an earlier one, including the fresh records of a
    /// thread that unregistered). A subset of
    /// [`Self::freed`]; forced and teardown frees are not counted here.
    overflow_frees: sum,
    /// Nanoseconds the reclaimer spent inside collect phases, summed.
    /// With `collects`, gives the mean reclaimer latency the paper's §7
    /// "Future Work" worries about.
    collect_ns_total: sum,
    /// Longest single collect phase, in nanoseconds.
    collect_ns_max: max,
    /// Nanoseconds spent sorting and building the master buffer, summed
    /// over phases — the sort's share of reclaimer latency.
    sort_ns_total: sum,
    /// Longest single master-buffer sort, in nanoseconds.
    sort_ns_max: max,
}

impl CollectorStats {
    #[inline]
    pub(crate) fn add(&self, field: &AtomicUsize, n: usize) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises `field` to at least `n` (for maxima).
    #[inline]
    pub(crate) fn raise(&self, field: &AtomicUsize, n: usize) {
        field.fetch_max(n, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Nodes still tracked: retired but not yet freed. This *includes*
    /// nodes parked in a thread's mailbox (proven reclaimable but whose
    /// destructor has not run) — `freed` counts a node only once it has
    /// left the mailbox for its destructor, so `retired - freed` counts
    /// the mailboxes as outstanding, exactly like
    /// [`Collector::pending_estimate`](crate::Collector::pending_estimate)
    /// does.
    pub fn outstanding(&self) -> usize {
        self.retired.saturating_sub(self.freed)
    }

    /// `total` per completed collect; zero before the first.
    fn per_collect(&self, total: usize) -> f64 {
        if self.collects == 0 {
            0.0
        } else {
            total as f64 / self.collects as f64
        }
    }

    /// Average words scanned per completed collect (the per-phase scan cost
    /// the paper identifies as the main overhead).
    pub fn words_per_collect(&self) -> f64 {
        self.per_collect(self.words_scanned)
    }

    /// Mean reclaimer-side collect latency in microseconds (§7's
    /// responsiveness concern).
    pub fn mean_collect_us(&self) -> f64 {
        self.per_collect(self.collect_ns_total) / 1e3
    }

    /// Worst-case collect latency in microseconds.
    pub fn max_collect_us(&self) -> f64 {
        self.collect_ns_max as f64 / 1e3
    }

    /// Mean per-phase master-buffer sort time in microseconds — the
    /// sort's share of [`Self::mean_collect_us`].
    pub fn mean_sort_us(&self) -> f64 {
        self.per_collect(self.sort_ns_total) / 1e3
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

    /// A snapshot whose counters read `base`, `base + 1`, … in
    /// declaration order.
    fn distinct(base: usize) -> StatsSnapshot {
        StatsSnapshot {
            collects: base,
            collects_skipped: base + 1,
            retired: base + 2,
            freed: base + 3,
            survivors: base + 4,
            threads_scanned: base + 5,
            words_scanned: base + 6,
            mark_hits: base + 7,
            mailbox_frees: base + 8,
            alloc_frees: base + 9,
            alloc_misses: base + 10,
            overflow_frees: base + 11,
            collect_ns_total: base + 12,
            collect_ns_max: base + 13,
            sort_ns_total: base + 14,
            sort_ns_max: base + 15,
        }
    }

    #[test]
    fn counters_yield_every_field_once_in_declaration_order() {
        let counters: Vec<_> = distinct(100).counters().collect();
        assert_eq!(counters.len(), 16);
        for (i, &(name, value)) in counters.iter().enumerate() {
            assert_eq!(value, 100 + i, "{name}");
            assert_eq!(counters.iter().filter(|(n, _)| *n == name).count(), 1);
        }
        assert_eq!(counters[0], ("collects", 100));
        assert_eq!(counters[15], ("sort_ns_max", 115));
    }

    #[test]
    fn merge_sums_totals_and_keeps_maxima() {
        let (a, b) = (distinct(1000), distinct(0));
        let mut merged = a;
        merged.merge(&b);
        let folded = a.counters().zip(b.counters()).zip(merged.counters());
        for (((name, x), (_, y)), (_, m)) in folded {
            let want = if name.ends_with("_max") {
                x.max(y)
            } else {
                x + y
            };
            assert_eq!(m, want, "{name}");
        }
    }

    #[test]
    fn absorb_folds_like_merge() {
        let (a, b) = (distinct(7), distinct(500));
        let stats = CollectorStats::default();
        stats.absorb(&a);
        stats.absorb(&b);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(stats.snapshot(), merged);
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
