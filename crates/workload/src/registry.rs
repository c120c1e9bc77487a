//! The scheme and structure registries — the two single-line-per-variant
//! factories that replaced the runner's nested `SchemeKind ×
//! StructureKind` dispatch match.
//!
//! Adding a scheme is now: implement [`ts_smr::Smr`] in its own module,
//! add a [`SchemeKind`] variant, and add one arm to [`SchemeKind::build`].
//! Adding a structure is: implement [`ConcurrentSet`] in its own module,
//! add a [`StructureKind`] variant, and add one arm to
//! [`StructureKind::build_set`]. Nothing else in the harness changes —
//! the runner drives `Arc<dyn DynSmr>` / `Arc<dyn ConcurrentSet<_>>`
//! objects and never names a concrete combination.

use std::sync::Arc;

use ts_sigscan::SignalPlatform;
use ts_smr::dynamic::DynSmr;
use ts_smr::{EpochScheme, HazardPointers, Leaky, Smr, ThreadScanSmr};
use ts_structures::{
    ConcurrentSet, HarrisList, LazyList, LockFreeHashTable, PqAsSet, SkipList, SplitOrderedSet,
    PQ_REQUIRED_SLOTS, REQUIRED_SLOTS,
};

use crate::params::{SchemeKind, StructureKind, WorkloadParams};

/// Hazard-pointer slots the harness provisions: enough for every
/// registered structure (the skip list and the priority queue need the
/// most — a slot pair per level plus two roving slots).
pub const HARNESS_HAZARD_SLOTS: usize = if REQUIRED_SLOTS > PQ_REQUIRED_SLOTS {
    REQUIRED_SLOTS
} else {
    PQ_REQUIRED_SLOTS
};

impl SchemeKind {
    /// Builds this scheme, type-erased, configured from `params`.
    ///
    /// This is the scheme registry: one arm per variant, and the only
    /// place in the harness that names concrete scheme types. Callers
    /// hold the result as `Arc<dyn DynSmr>` and, to drive generic
    /// structures with it, wrap it in
    /// [`ErasedSmr`](ts_smr::dynamic::ErasedSmr).
    ///
    /// ```
    /// use ts_smr::DynSmr;
    /// use ts_workload::{SchemeKind, StructureKind, WorkloadParams};
    ///
    /// let params = WorkloadParams::fig3(StructureKind::List, 2);
    /// let scheme = SchemeKind::Epoch.build(&params);
    /// assert_eq!(scheme.name(), "epoch");
    /// let handle = scheme.register_dyn();
    /// handle.begin_op();
    /// handle.end_op();
    /// assert_eq!(scheme.outstanding(), 0);
    /// ```
    ///
    /// # Panics
    ///
    /// `SchemeKind::ThreadScan` panics when the process cannot install
    /// its signal platform (no spare POSIX real-time signal).
    pub fn build(self, params: &WorkloadParams) -> Arc<dyn DynSmr> {
        match self {
            SchemeKind::Leaky => Arc::new(Leaky::new()),
            SchemeKind::Hazard => Arc::new(HazardPointers::with_params(HARNESS_HAZARD_SLOTS, 64)),
            SchemeKind::Epoch => Arc::new(EpochScheme::with_threshold(1024)),
            SchemeKind::SlowEpoch => Arc::new(EpochScheme::slow(
                1024,
                params.slow_epoch_delay,
                params.slow_epoch_period_ops,
            )),
            SchemeKind::ThreadScan => {
                let platform =
                    SignalPlatform::new().expect("signal platform unavailable on this system");
                let mut config = threadscan::CollectorConfig::default()
                    .with_buffer_capacity(params.ts_buffer_capacity);
                if params.telemetry {
                    config = config.with_telemetry(ts_telemetry::sink());
                }
                Arc::new(ThreadScanSmr::with_config(platform, config))
            }
        }
    }
}

impl StructureKind {
    /// Builds this structure for scheme `S`, type-erased behind the
    /// [`ConcurrentSet`] trait, sized from `params`.
    ///
    /// This is the structure registry: one arm per variant. The runner
    /// instantiates it at `S =` [`ErasedSmr`](ts_smr::dynamic::ErasedSmr)
    /// (one monomorphization per structure, any scheme at runtime, and
    /// one object type for every structure of a heterogeneous run);
    /// library users and the equivalence tests can instantiate it with a
    /// concrete scheme for the zero-virtual-call fast path.
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
            StructureKind::Pq => Arc::new(PqAsSet::<S>::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_smr::dynamic::ErasedSmr;

    #[test]
    fn every_scheme_kind_builds_and_names_itself() {
        let params = WorkloadParams::fig3(StructureKind::List, 2).scaled_down(64);
        for kind in SchemeKind::ALL {
            let scheme = kind.build(&params);
            assert_eq!(scheme.name(), kind.label(), "{kind:?}");
            assert_eq!(scheme.outstanding(), 0);
            scheme.quiesce(); // must be callable on a fresh scheme
        }
    }

    #[test]
    fn every_structure_kind_builds_for_an_erased_scheme() {
        let params = WorkloadParams::fig3(StructureKind::List, 2).scaled_down(64);
        let scheme = SchemeKind::Epoch.build(&params);
        let erased = ErasedSmr::new(scheme);
        let handle = erased.register();
        for kind in StructureKind::EXTENDED {
            let set = kind.build_set::<ErasedSmr>(&params);
            assert!(set.insert(&handle, 7), "{kind:?}");
            assert!(set.contains(&handle, 7));
            assert!(set.remove(&handle, 7));
            assert!(!set.contains(&handle, 7));
        }
    }

    #[test]
    fn every_structure_kind_builds_dyn_including_the_pq() {
        let params = WorkloadParams::fig3(StructureKind::List, 2).scaled_down(64);
        let erased = ErasedSmr::new(SchemeKind::Epoch.build(&params));
        let handle = erased.register();
        // The queue adapter pops the minimum whatever key is asked for.
        let pq = StructureKind::Pq.build_set::<ErasedSmr>(&params);
        assert!(pq.insert(&handle, 7));
        assert!(pq.contains(&handle, 0));
        assert!(pq.remove(&handle, 0));
        assert!(!pq.contains(&handle, 7));
        assert_eq!(pq.kind(), "priority-queue");
        assert_eq!(pq.bucket_count(), None);
        // Only the split-ordered table reports a directory size.
        assert!(StructureKind::SplitOrdered
            .build_set::<ErasedSmr>(&params)
            .bucket_count()
            .is_some());
    }

    #[test]
    fn telemetry_param_installs_the_sink_and_default_stays_clean() {
        let params = WorkloadParams::fig3(StructureKind::List, 2)
            .scaled_down(64)
            .with_ts_buffer(4096)
            .with_telemetry(true);
        let scheme = SchemeKind::ThreadScan.build(&params);
        let ts = scheme
            .as_any()
            .downcast_ref::<ThreadScanSmr<ts_sigscan::SignalPlatform>>()
            .expect("threadscan scheme");
        assert!(ts.collector().config().telemetry.is_some());
        assert_eq!(ts.collector().config().buffer_capacity, 4096);

        // Default params stay telemetry-free: no sink, no extra atomics.
        let plain = SchemeKind::ThreadScan
            .build(&WorkloadParams::fig3(StructureKind::List, 2).scaled_down(64));
        let plain = plain
            .as_any()
            .downcast_ref::<ThreadScanSmr<ts_sigscan::SignalPlatform>>()
            .unwrap();
        assert!(plain.collector().config().telemetry.is_none());
    }

    #[test]
    fn harness_slots_cover_every_structure() {
        const {
            assert!(HARNESS_HAZARD_SLOTS >= REQUIRED_SLOTS);
            assert!(HARNESS_HAZARD_SLOTS >= PQ_REQUIRED_SLOTS);
        }
        let params = WorkloadParams::fig3(StructureKind::Skip, 1).scaled_down(64);
        let scheme = SchemeKind::Hazard.build(&params);
        assert_eq!(
            scheme.register_dyn().protection_slots(),
            Some(HARNESS_HAZARD_SLOTS)
        );
    }
}
