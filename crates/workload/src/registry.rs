//! The scheme and structure registries — the two one-match-per-kind
//! factories every cell is built from.
//!
//! Adding a scheme is: implement [`ts_smr::Smr`] in its own module, give
//! it a [`HarnessScheme`] impl, add a [`SchemeKind`] variant, and add one
//! arm to [`SchemeKind::with`]. Adding a structure is: implement
//! [`ConcurrentSet`] in its own module, add a [`StructureKind`] variant,
//! and add one arm to [`StructureKind::build_set`]. Nothing else in the
//! harness changes: the runner is one [`SchemeFn`], generic over the
//! scheme, that drives an `Arc<dyn ConcurrentSet<S>>` and never names a
//! concrete combination.

use std::sync::Arc;

use ts_sigscan::SignalPlatform;
use ts_smr::{EpochScheme, HazardPointers, Leaky, Smr, ThreadScanSmr};
use ts_structures::{
    ConcurrentSet, HarrisList, LazyList, LockFreeHashTable, PriorityQueue, SkipList,
    SplitOrderedSet, REQUIRED_SLOTS,
};

use crate::params::{SchemeKind, StructureKind, WorkloadParams};
use crate::runner::CollectorReport;

/// Hazard-pointer slots the harness provisions: enough for every
/// registered structure (the skip list and the priority queue built on it
/// need the most — a slot pair per level plus two roving slots).
pub const HARNESS_HAZARD_SLOTS: usize = REQUIRED_SLOTS;

/// A scheme the harness runs, with the report fields only some schemes
/// have. Both default to `None`.
pub trait HarnessScheme: Smr {
    /// The collector's counters and phase latency (ThreadScan only).
    fn collector_report(&self) -> Option<CollectorReport> {
        None
    }

    /// Nodes intentionally leaked (Leaky only).
    fn leaked(&self) -> Option<usize> {
        None
    }
}

impl HarnessScheme for Leaky {
    fn leaked(&self) -> Option<usize> {
        Some(Leaky::leaked(self))
    }
}

impl HarnessScheme for HazardPointers {}

impl HarnessScheme for EpochScheme {}

impl HarnessScheme for ThreadScanSmr<SignalPlatform> {
    fn collector_report(&self) -> Option<CollectorReport> {
        Some(CollectorReport {
            stats: self.stats(),
            collect_ns: self.collector().collect_latency(),
        })
    }
}

/// Code generic over the scheme of a cell: [`SchemeKind::with`] builds the
/// concrete scheme and hands it to [`call`](Self::call), which is then
/// monomorphized per scheme.
pub trait SchemeFn {
    /// What the code returns.
    type Out;

    /// Runs with the cell's scheme.
    fn call<S: HarnessScheme>(self, scheme: S) -> Self::Out;
}

/// The ThreadScan arm of [`SchemeKind::with`]: the signal platform and a
/// collector configured from `params`.
fn threadscan(params: &WorkloadParams) -> ThreadScanSmr<SignalPlatform> {
    let platform = SignalPlatform::new().expect("signal platform unavailable on this system");
    let mut config =
        threadscan::CollectorConfig::default().with_buffer_capacity(params.ts_buffer_capacity);
    if params.telemetry {
        config = config.with_telemetry(ts_telemetry::sink());
    }
    ThreadScanSmr::with_config(platform, config)
}

impl SchemeKind {
    /// Builds this scheme, configured from `params`, and runs `f` with it.
    ///
    /// This is the scheme registry: one arm per variant, and the only
    /// place in the harness that names concrete scheme types. Everything
    /// `f` does is monomorphic in the scheme: no call it makes into the
    /// scheme or a structure over it crosses a scheme vtable.
    ///
    /// ```
    /// use ts_workload::registry::{HarnessScheme, SchemeFn};
    /// use ts_workload::{SchemeKind, StructureKind, WorkloadParams};
    ///
    /// /// Inserts one key into a list, then reports the scheme's books.
    /// struct InsertOne<'a>(&'a WorkloadParams);
    ///
    /// impl SchemeFn for InsertOne<'_> {
    ///     type Out = (&'static str, usize);
    ///     fn call<S: HarnessScheme>(self, scheme: S) -> Self::Out {
    ///         let set = StructureKind::List.build_set::<S>(self.0);
    ///         assert!(set.insert(&scheme.register(), 7));
    ///         scheme.quiesce();
    ///         (scheme.name(), scheme.outstanding())
    ///     }
    /// }
    ///
    /// let params = WorkloadParams::fig3(StructureKind::List, 2);
    /// assert_eq!(SchemeKind::Epoch.with(&params, InsertOne(&params)), ("epoch", 0));
    /// ```
    ///
    /// # Panics
    ///
    /// `SchemeKind::ThreadScan` panics when the process cannot install
    /// its signal platform (no spare POSIX real-time signal).
    pub fn with<F: SchemeFn>(self, params: &WorkloadParams, f: F) -> F::Out {
        match self {
            SchemeKind::Leaky => f.call(Leaky::new()),
            SchemeKind::Hazard => f.call(HazardPointers::with_params(HARNESS_HAZARD_SLOTS, 64)),
            SchemeKind::Epoch => f.call(EpochScheme::with_threshold(1024)),
            SchemeKind::SlowEpoch => f.call(EpochScheme::slow(
                1024,
                params.slow_epoch_delay,
                params.slow_epoch_period_ops,
            )),
            SchemeKind::ThreadScan => f.call(threadscan(params)),
        }
    }
}

impl StructureKind {
    /// Builds this structure for scheme `S`, behind the object-safe
    /// [`ConcurrentSet`] trait, sized from `params`.
    ///
    /// This is the structure registry: one arm per variant. The runner
    /// instantiates it at the cell's concrete scheme, so a structure costs
    /// one virtual call per operation and none per traversal step.
    pub fn build_set<S: Smr>(self, params: &WorkloadParams) -> Arc<dyn ConcurrentSet<S>> {
        match self {
            StructureKind::List => Arc::new(HarrisList::<S>::new()),
            StructureKind::Hash => Arc::new(LockFreeHashTable::<S>::for_expected_nodes(
                params.initial_size,
            )),
            StructureKind::Skip => Arc::new(SkipList::<S>::new()),
            StructureKind::Lazy => Arc::new(LazyList::<S>::new()),
            // Start at a quarter of the resident size: the table splits its
            // way to a sensible load factor during prefill, which is the
            // behaviour this structure exists to exercise.
            StructureKind::SplitOrdered => Arc::new(SplitOrderedSet::<S>::with_buckets(
                (params.initial_size / 4).max(2),
            )),
            StructureKind::Pq => Arc::new(PriorityQueue::<S>::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_smr::SmrHandle;

    /// What a freshly built scheme says about itself.
    struct Describe;

    impl SchemeFn for Describe {
        type Out = (&'static str, usize, Option<usize>);
        fn call<S: HarnessScheme>(self, scheme: S) -> Self::Out {
            scheme.quiesce(); // must be callable on a fresh scheme
            let slots = scheme.register().protection_slots();
            (scheme.name(), scheme.outstanding(), slots)
        }
    }

    #[test]
    fn every_scheme_kind_builds_and_names_itself() {
        let params = WorkloadParams::fig3(StructureKind::List, 2).scaled_down(64);
        for kind in SchemeKind::ALL {
            let (name, outstanding, _) = kind.with(&params, Describe);
            assert_eq!(name, kind.label(), "{kind:?}");
            assert_eq!(outstanding, 0);
        }
    }

    #[test]
    fn every_structure_kind_builds_for_a_concrete_scheme() {
        let params = WorkloadParams::fig3(StructureKind::List, 2).scaled_down(64);
        let scheme = EpochScheme::with_threshold(1024);
        let handle = scheme.register();
        for kind in StructureKind::EXTENDED {
            let set = kind.build_set::<EpochScheme>(&params);
            assert!(set.insert(&handle, 7), "{kind:?}");
            assert!(set.contains(&handle, 7));
            assert!(set.remove(&handle, 7));
            assert!(!set.contains(&handle, 7));
        }
    }

    #[test]
    fn every_structure_kind_builds_dyn_including_the_pq() {
        let params = WorkloadParams::fig3(StructureKind::List, 2).scaled_down(64);
        let scheme = EpochScheme::with_threshold(1024);
        let handle = scheme.register();
        // The queue pops the minimum whatever key is asked for.
        let pq = StructureKind::Pq.build_set::<EpochScheme>(&params);
        assert!(pq.insert(&handle, 7));
        assert!(pq.contains(&handle, 0));
        assert!(pq.remove(&handle, 0));
        assert!(!pq.contains(&handle, 7));
        assert_eq!(pq.kind(), "priority-queue");
        assert_eq!(pq.bucket_count(), None);
        // Only the split-ordered table reports a directory size.
        assert!(StructureKind::SplitOrdered
            .build_set::<EpochScheme>(&params)
            .bucket_count()
            .is_some());
    }

    #[test]
    fn telemetry_param_installs_the_sink_and_default_stays_clean() {
        let params = WorkloadParams::fig3(StructureKind::List, 2)
            .scaled_down(64)
            .with_ts_buffer(4096)
            .with_telemetry(true);
        let ts = threadscan(&params);
        assert!(ts.collector().config().telemetry.is_some());
        assert_eq!(ts.collector().config().buffer_capacity, 4096);

        // Default params stay telemetry-free: no sink, no extra atomics.
        let plain = threadscan(&WorkloadParams::fig3(StructureKind::List, 2).scaled_down(64));
        assert!(plain.collector().config().telemetry.is_none());
    }

    #[test]
    fn harness_slots_cover_every_structure() {
        const {
            assert!(HARNESS_HAZARD_SLOTS >= REQUIRED_SLOTS);
        }
        let params = WorkloadParams::fig3(StructureKind::Skip, 1).scaled_down(64);
        let (_, _, slots) = SchemeKind::Hazard.with(&params, Describe);
        assert_eq!(slots, Some(HARNESS_HAZARD_SLOTS));
    }
}
