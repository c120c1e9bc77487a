//! The lazy list (Heller, Herlihy, Luchangco, Moir, Scherer, Shavit,
//! OPODIS 2005): the lock-based skip list's engine at tower height 1.

use crate::skiplist::LazySkipList;

/// The lazy list — the algorithm the paper's *introduction* uses to
/// motivate unsynchronized traversals:
///
/// > "modifications to the list are done by acquiring fine-grained locks on
/// > the two nodes adjacent to where an insert or remove of a node is to
/// > take place ... the frequent search operations ... are executed by
/// > reading along the sequence of pointers from the list head, ignoring
/// > the locks, and thus incurring no synchronization overhead."
///
/// `contains` is lock-free and write-free, not wait-free: it restarts
/// from the head when its pred turns out marked. `insert`/`remove` lock
/// the pred (a remove its victim too), validate, and retry on conflict.
/// Removal marks the victim before unlinking, and the remover retires it
/// through the scheme. It runs the [`SkipList`](crate::SkipList)'s own
/// code with one-level towers, so its nodes carry one next pointer and
/// one operation uses 4 hazard slots.
pub type LazyList<S> = LazySkipList<S, 1>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConcurrentSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use ts_smr::{EpochScheme, HazardPointers, Leaky, Smr};

    macro_rules! lazy_semantics {
        ($modname:ident, $ty:ty, $scheme:expr) => {
            mod $modname {
                use super::*;

                #[test]
                fn roundtrip_and_order() {
                    let scheme = $scheme;
                    let list = LazyList::<$ty>::new();
                    let h = scheme.register();
                    for k in [9u64, 3, 7, 1, 5] {
                        assert!(list.insert(&h, k));
                        assert!(!list.insert(&h, k));
                    }
                    assert_eq!(list.keys_sequential(), vec![1, 3, 5, 7, 9]);
                    assert!(list.contains(&h, 7));
                    assert!(!list.contains(&h, 8));
                    assert!(list.remove(&h, 7));
                    assert!(!list.remove(&h, 7));
                    assert_eq!(list.keys_sequential(), vec![1, 3, 5, 9]);
                }
            }
        };
    }

    lazy_semantics!(leaky_semantics, Leaky, Leaky::new());
    lazy_semantics!(epoch_semantics, EpochScheme, EpochScheme::with_threshold(2));
    lazy_semantics!(
        hazard_semantics,
        HazardPointers,
        HazardPointers::with_params(4, 2)
    );

    #[test]
    fn concurrent_adjacent_updates_stay_consistent() {
        // The introduction's claim: adjacent-node locking means low
        // contention — but when threads DO collide on neighbours, the
        // validate/retry protocol must keep the list a set.
        let scheme = Arc::new(EpochScheme::with_threshold(16));
        let list = Arc::new(LazyList::<EpochScheme>::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let scheme = Arc::clone(&scheme);
                let list = Arc::clone(&list);
                s.spawn(move || {
                    let h = scheme.register();
                    // Everyone fights over keys 0..16 (adjacent nodes).
                    for i in 0..2000u64 {
                        let k = (t + i) % 16;
                        if i % 2 == 0 {
                            list.insert(&h, k);
                        } else {
                            list.remove(&h, k);
                        }
                    }
                });
            }
        });
        let keys = list.keys_sequential();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        assert!(keys.iter().all(|&k| k < 16));
        scheme.quiesce();
        assert_eq!(scheme.outstanding(), 0);
    }

    #[test]
    fn readers_never_block_on_writers() {
        // A writer holds its locks for a long time (simulated by a slow
        // validate loop via contention); readers must still complete.
        let scheme = Arc::new(EpochScheme::with_threshold(64));
        let list = Arc::new(LazyList::<EpochScheme>::new());
        {
            let h = scheme.register();
            for k in 0..64u64 {
                list.insert(&h, k);
            }
        }
        use std::sync::atomic::AtomicU64;
        let reads_done = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            let stop = Arc::new(AtomicBool::new(false));
            for _ in 0..2 {
                let scheme = Arc::clone(&scheme);
                let list = Arc::clone(&list);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let h = scheme.register();
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        list.remove(&h, i % 64);
                        list.insert(&h, i % 64);
                        i += 1;
                    }
                });
            }
            let scheme2 = Arc::clone(&scheme);
            let list2 = Arc::clone(&list);
            let reads = Arc::clone(&reads_done);
            let stop2 = Arc::clone(&stop);
            s.spawn(move || {
                let h = scheme2.register();
                for i in 0..50_000u64 {
                    std::hint::black_box(list2.contains(&h, i % 64));
                }
                reads.store(50_000, Ordering::SeqCst);
                stop2.store(true, Ordering::SeqCst);
            });
        });
        assert_eq!(reads_done.load(Ordering::SeqCst), 50_000);
    }
}
