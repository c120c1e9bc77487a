//! Satellite of the guard/dynamic API redesign: every scheme driven
//! through the type-erased layer (`Arc<dyn DynSmr>` → `ErasedSmr`) must
//! be **observationally equivalent** to the monomorphized path — same
//! per-operation results, same final set contents, and the same
//! reclamation accounting after a quiesce. The erased layer may only add
//! virtual-call latency, never change behaviour.

use std::sync::Arc;

use ts_sigscan::SignalPlatform;
use ts_smr::dynamic::{DynSmr, ErasedSmr};
use ts_smr::{EpochScheme, HazardPointers, Leaky, Smr, ThreadScanSmr};
use ts_structures::ConcurrentSet;
use ts_workload::registry::HARNESS_HAZARD_SLOTS;
use ts_workload::{SchemeKind, StructureKind, WorkloadParams};

const KEY_RANGE: u64 = 128;

/// What one churn run observes: every operation's boolean result plus the
/// final membership bitmap.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    op_results: Vec<bool>,
    members: Vec<u64>,
}

/// A deterministic single-threaded mixed workload (LCG-driven), identical
/// for every scheme and both dispatch paths.
fn churn<S: Smr>(scheme: &S, set: &dyn ConcurrentSet<S>) -> Observation {
    let h = scheme.register();
    let mut op_results = Vec::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..4_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = (x >> 33) % KEY_RANGE;
        op_results.push(match i % 3 {
            0 => set.insert(&h, k),
            1 => set.remove(&h, k),
            _ => set.contains(&h, k),
        });
    }
    let members = (0..KEY_RANGE).filter(|&k| set.contains(&h, k)).collect();
    Observation {
        op_results,
        members,
    }
}

/// Monomorphized run: concrete scheme type, generic structure; mirrors
/// the registry's per-scheme configuration.
fn run_mono(
    kind: SchemeKind,
    structure: StructureKind,
    params: &WorkloadParams,
) -> (Observation, usize) {
    fn go<S: Smr>(
        scheme: S,
        structure: StructureKind,
        params: &WorkloadParams,
    ) -> (Observation, usize) {
        let set = structure.build_set::<S>(params);
        let obs = churn(&scheme, &*set);
        scheme.quiesce();
        (obs, scheme.outstanding())
    }
    match kind {
        SchemeKind::Leaky => go(Leaky::new(), structure, params),
        SchemeKind::Hazard => go(
            HazardPointers::with_params(HARNESS_HAZARD_SLOTS, 64),
            structure,
            params,
        ),
        SchemeKind::Epoch => go(EpochScheme::with_threshold(1024), structure, params),
        SchemeKind::SlowEpoch => go(
            EpochScheme::slow(1024, params.slow_epoch_delay, params.slow_epoch_period_ops),
            structure,
            params,
        ),
        SchemeKind::ThreadScan => go(
            ThreadScanSmr::with_config(
                SignalPlatform::new().expect("signal platform"),
                threadscan::CollectorConfig::default()
                    .with_buffer_capacity(params.ts_buffer_capacity),
            ),
            structure,
            params,
        ),
    }
}

/// Erased run: the scheme comes from the registry as `Arc<dyn DynSmr>`
/// and drives the structure, a `dyn ConcurrentSet<ErasedSmr>` object,
/// through `ErasedSmr` — the harness path, and the one type every
/// structure of a heterogeneous run is held as.
fn run_dyn(
    kind: SchemeKind,
    structure: StructureKind,
    params: &WorkloadParams,
) -> (Observation, usize) {
    let dyn_scheme: Arc<dyn DynSmr> = kind.build(params);
    let erased = ErasedSmr::new(Arc::clone(&dyn_scheme));
    let set = structure.build_set::<ErasedSmr>(params);
    let obs = churn(&erased, &*set);
    dyn_scheme.quiesce();
    (obs, dyn_scheme.outstanding())
}

fn assert_equivalent(kind: SchemeKind, structure: StructureKind) {
    let mut params = WorkloadParams::fig3(structure, 1).scaled_down(64);
    params.ts_buffer_capacity = 256; // force in-run ThreadScan phases
    let (mono, mono_outstanding) = run_mono(kind, structure, &params);
    let (dynamic, dyn_outstanding) = run_dyn(kind, structure, &params);

    assert_eq!(
        mono,
        dynamic,
        "{}/{}: erased path diverged from monomorphized path",
        kind.label(),
        structure.label()
    );
    match kind {
        SchemeKind::Leaky => {
            // "Outstanding" is the intentional leak count; the identical
            // deterministic op stream must leak identically.
            assert_eq!(
                mono_outstanding,
                dyn_outstanding,
                "{}: leak accounting diverged",
                structure.label()
            );
        }
        SchemeKind::ThreadScan => {
            // Conservative stack scanning may pin a handful of nodes via
            // stale frames of this very test thread; exact zero is not
            // guaranteed, bounded-small on both paths is.
            assert!(
                mono_outstanding < 64 && dyn_outstanding < 64,
                "{}: outstanding after quiesce too high (mono {mono_outstanding}, dyn {dyn_outstanding})",
                structure.label()
            );
        }
        _ => {
            assert_eq!(mono_outstanding, 0, "{}: mono books", structure.label());
            assert_eq!(dyn_outstanding, 0, "{}: dyn books", structure.label());
        }
    }
}

#[test]
fn every_scheme_is_equivalent_through_the_erased_layer_on_the_list() {
    for kind in SchemeKind::ALL {
        assert_equivalent(kind, StructureKind::List);
    }
}

#[test]
fn every_scheme_is_equivalent_through_the_erased_layer_on_the_hash() {
    for kind in SchemeKind::ALL {
        assert_equivalent(kind, StructureKind::Hash);
    }
}

#[test]
fn erased_layer_is_equivalent_on_the_resizable_table() {
    // The split-ordered table resizes during churn — the most stateful
    // structure.
    for kind in SchemeKind::ALL {
        assert_equivalent(kind, StructureKind::SplitOrdered);
    }
}

#[test]
fn every_scheme_is_equivalent_through_the_dyn_set_layer_on_the_skiplist() {
    for kind in SchemeKind::ALL {
        assert_equivalent(kind, StructureKind::Skip);
    }
}

/// The priority-queue adapter is deterministic single-threaded (tower
/// heights don't affect op results), so the full observation — including
/// the key-ignoring `contains`/`remove` mapping — must survive erasure
/// under every scheme.
#[test]
fn dyn_set_layer_is_equivalent_on_the_pq_adapter() {
    for kind in SchemeKind::ALL {
        assert_equivalent(kind, StructureKind::Pq);
    }
}
