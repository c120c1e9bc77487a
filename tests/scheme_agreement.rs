//! Every scheme the harness can pick agrees with Leaky — which frees
//! nothing, so no reclamation bug can reach its answers — on every
//! structure: the same result for each operation of a deterministic
//! churn, the same final membership, and balanced books after a quiesce.
//!
//! The schemes come from `SchemeKind::with`, the one place the harness
//! builds them, configured exactly as a measured cell is. That makes this
//! the check that ThreadScan and slow-epoch agree with Leaky on all six
//! structures; `ts-structures`' own cross-scheme suite covers only Leaky,
//! epoch and hazard, because that crate has no signal platform.

use ts_workload::registry::{HarnessScheme, SchemeFn};
use ts_workload::{SchemeKind, StructureKind, WorkloadParams};

const KEY_RANGE: u64 = 128;

/// What one churn run observes.
struct Observation {
    /// Every operation's boolean result, in program order.
    op_results: Vec<bool>,
    /// The keys `contains` reports once the churn is done.
    members: Vec<u64>,
    /// Retired-but-unfreed nodes after the handle is gone and a quiesce.
    outstanding: usize,
}

/// A deterministic single-threaded mixed workload (LCG-driven) on one
/// structure, identical for every scheme.
struct Churn<'a> {
    structure: StructureKind,
    params: &'a WorkloadParams,
}

impl SchemeFn for Churn<'_> {
    type Out = Observation;

    fn call<S: HarnessScheme>(self, scheme: S) -> Observation {
        let set = self.structure.build_set::<S>(self.params);
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
        drop(h);
        scheme.quiesce();
        Observation {
            op_results,
            members,
            outstanding: scheme.outstanding(),
        }
    }
}

/// Runs the churn under every scheme on `structure` and checks each
/// against Leaky's observation.
fn assert_agreement(structure: StructureKind) {
    let mut params = WorkloadParams::fig3(structure, 1).scaled_down(64);
    params.ts_buffer_capacity = 256; // force in-run ThreadScan phases
    let churn = || Churn {
        structure,
        params: &params,
    };
    let oracle = SchemeKind::Leaky.with(&params, churn());
    for kind in SchemeKind::ALL {
        let obs = kind.with(&params, churn());
        let cell = format!("{}/{}", kind.label(), structure.label());
        assert!(
            obs.op_results == oracle.op_results,
            "{cell}: an op diverged"
        );
        assert_eq!(obs.members, oracle.members, "{cell}: final membership");
        match kind {
            // Leaky's count is its intentional leak.
            SchemeKind::Leaky => {}
            // Conservative stack scanning may pin a handful of nodes
            // through stale frames of this very thread.
            SchemeKind::ThreadScan => assert!(
                obs.outstanding < 64,
                "{cell}: {} outstanding after quiesce",
                obs.outstanding
            ),
            _ => assert_eq!(obs.outstanding, 0, "{cell}: books"),
        }
    }
}

#[test]
fn every_scheme_agrees_with_leaky_on_the_list() {
    assert_agreement(StructureKind::List);
}

#[test]
fn every_scheme_agrees_with_leaky_on_the_lazy_list() {
    assert_agreement(StructureKind::Lazy);
}

#[test]
fn every_scheme_agrees_with_leaky_on_the_hash() {
    assert_agreement(StructureKind::Hash);
}

/// The split-ordered table resizes during the churn: the most stateful
/// structure.
#[test]
fn every_scheme_agrees_with_leaky_on_the_resizable_table() {
    assert_agreement(StructureKind::SplitOrdered);
}

#[test]
fn every_scheme_agrees_with_leaky_on_the_skiplist() {
    assert_agreement(StructureKind::Skip);
}

/// The priority queue ignores the key of `contains`/`remove`;
/// tower heights do not affect op results single-threaded.
#[test]
fn every_scheme_agrees_with_leaky_on_the_pq_adapter() {
    assert_agreement(StructureKind::Pq);
}
