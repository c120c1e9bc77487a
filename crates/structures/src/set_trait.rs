//! The common concurrent-set interface the evaluation drives.
//!
//! All three data structures in the paper's evaluation are integer sets
//! with `contains` / `insert` / `remove`. The workload harness measures
//! them through this trait, parameterized by the reclamation scheme — one
//! structure implementation × five schemes, exactly like the paper.

use ts_smr::Smr;

/// A concurrent set of `u64` keys managed by reclamation scheme `S`.
///
/// Every method takes the calling thread's scheme handle: the structure
/// opens an RAII guard (`handle.pin()`) for the operation's duration and
/// loads shared pointers / retires unlinked nodes through it, so each
/// scheme imposes exactly its own cost.
pub trait ConcurrentSet<S: Smr>: Send + Sync {
    /// Whether `key` is in the set. Uses an *unsynchronized traversal*
    /// (no writes to shared memory) for schemes that permit it.
    fn contains(&self, handle: &S::Handle, key: u64) -> bool;

    /// Inserts `key`; returns `false` if it was already present.
    fn insert(&self, handle: &S::Handle, key: u64) -> bool;

    /// Removes `key`; returns `false` if it was absent. The removed node
    /// is unlinked and retired through the scheme.
    fn remove(&self, handle: &S::Handle, key: u64) -> bool;

    /// Short structure name for benchmark output.
    fn kind(&self) -> &'static str;

    /// For bucketed tables, the current bucket count (exported as a bench
    /// extra); `None` for structures without a bucket directory.
    fn bucket_count(&self) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitOrderedSet;
    use ts_smr::Leaky;

    #[test]
    fn erased_ops_agree_with_the_generic_trait() {
        let scheme = Leaky::new();
        let h = scheme.register();
        let set = SplitOrderedSet::<Leaky>::new();
        assert!(set.insert(&h, 1));
        let dyn_set: &dyn ConcurrentSet<Leaky> = &set;
        assert!(!dyn_set.insert(&h, 1), "duplicate visible through erasure");
        assert!(dyn_set.contains(&h, 1));
        assert!(dyn_set.remove(&h, 1));
        assert!(!set.contains(&h, 1));
    }
}
