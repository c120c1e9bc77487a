//! Operation mix generation.
//!
//! §6 "Methodology": "The update ratio was set at 20%, so about 10% of all
//! operations were node removals." Updates split evenly between inserts
//! and removes; the rest are lookups. Keys are uniform over the range.

use ts_choose::Rng;

use crate::dist::{scramble_rank, KeyDist, ZipfSampler};

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Membership lookup.
    Contains(u64),
    /// Insertion.
    Insert(u64),
    /// Removal.
    Remove(u64),
}

/// Per-thread deterministic operation stream.
pub struct OpMix {
    rng: Rng,
    key_range: u64,
    update_pct: u32,
    zipf: Option<ZipfSampler>,
}

impl OpMix {
    /// A uniform-key stream seeded per thread (same seed ⇒ same stream).
    pub fn new(seed: u64, key_range: u64, update_pct: u32) -> Self {
        Self::with_dist(seed, key_range, update_pct, KeyDist::Uniform)
    }

    /// A stream with an explicit key distribution.
    pub fn with_dist(seed: u64, key_range: u64, update_pct: u32, dist: KeyDist) -> Self {
        assert!(key_range > 0);
        assert!(update_pct <= 100);
        let zipf = match dist {
            KeyDist::Uniform => None,
            KeyDist::Zipf { theta } => Some(ZipfSampler::new(key_range, theta)),
        };
        Self {
            rng: Rng::seeded(seed),
            key_range,
            update_pct,
            zipf,
        }
    }

    /// The same stream shape under another seed: `with_dist(seed, …)` with
    /// this stream's arguments, sharing its zipf sampler's setup rather
    /// than redoing it.
    pub(crate) fn reseeded(&self, seed: u64) -> Self {
        Self {
            rng: Rng::seeded(seed),
            zipf: self.zipf.clone(),
            ..*self
        }
    }

    /// Next operation.
    #[inline]
    pub fn next_op(&mut self) -> Op {
        let key = match &self.zipf {
            None => self.rng.below(self.key_range),
            Some(z) => scramble_rank(z.sample(&mut self.rng), self.key_range),
        };
        // Half-percent resolution, so an odd `update_pct` still splits
        // evenly between inserts and removes.
        let roll = self.rng.below(200) as u32;
        if roll < self.update_pct {
            Op::Insert(key)
        } else if roll < 2 * self.update_pct {
            Op::Remove(key)
        } else {
            Op::Contains(key)
        }
    }
}

/// Deterministic prefill key set: every other key, giving exactly
/// `initial_size` resident keys at 50% range density — the paper's sizing
/// (each preset's range is 2× its initial size), in deterministic form so
/// every scheme starts from the same structure shape.
pub fn prefill_keys(initial_size: usize, key_range: u64) -> impl Iterator<Item = u64> {
    debug_assert!((initial_size as u64) * 2 <= key_range + 1);
    (0..initial_size as u64).map(|i| i * 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_ratio_approximates_update_pct() {
        let mut mix = OpMix::new(1, 1000, 20);
        let mut ins = 0;
        let mut rem = 0;
        let mut con = 0;
        for _ in 0..100_000 {
            match mix.next_op() {
                Op::Insert(_) => ins += 1,
                Op::Remove(_) => rem += 1,
                Op::Contains(_) => con += 1,
            }
        }
        // ~10% / ~10% / ~80% with generous tolerance.
        assert!((8_000..12_000).contains(&ins), "inserts {ins}");
        assert!((8_000..12_000).contains(&rem), "removes {rem}");
        assert!((76_000..84_000).contains(&con), "contains {con}");
    }

    /// An odd update percentage still splits evenly: 1 % updates are
    /// ~0.5 % inserts and ~0.5 % removes, not 0 % and 1 %.
    #[test]
    fn odd_update_pct_splits_inserts_and_removes_evenly() {
        const OPS: usize = 200_000;
        for (pct, tolerance) in [(1, 0.10), (25, 0.02)] {
            let mut mix = OpMix::new(5, 1000, pct);
            let (mut ins, mut rem) = (0usize, 0usize);
            for _ in 0..OPS {
                match mix.next_op() {
                    Op::Insert(_) => ins += 1,
                    Op::Remove(_) => rem += 1,
                    Op::Contains(_) => {}
                }
            }
            let expect = (OPS * pct as usize / 200) as f64;
            for (kind, got) in [("inserts", ins), ("removes", rem)] {
                assert!(
                    (got as f64 - expect).abs() <= expect * tolerance,
                    "{pct}% updates: {got} {kind}, expected ~{expect}"
                );
            }
        }
    }

    #[test]
    fn zero_update_pct_is_read_only() {
        let mut mix = OpMix::new(2, 100, 0);
        for _ in 0..1000 {
            assert!(matches!(mix.next_op(), Op::Contains(_)));
        }
    }

    #[test]
    fn hundred_pct_updates_have_no_reads() {
        let mut mix = OpMix::new(3, 100, 100);
        for _ in 0..1000 {
            assert!(!matches!(mix.next_op(), Op::Contains(_)));
        }
    }

    #[test]
    fn keys_stay_in_range() {
        let mut mix = OpMix::new(4, 37, 50);
        for _ in 0..10_000 {
            let k = match mix.next_op() {
                Op::Contains(k) | Op::Insert(k) | Op::Remove(k) => k,
            };
            assert!(k < 37);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = OpMix::new(42, 1000, 20);
        let mut b = OpMix::new(42, 1000, 20);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn reseeded_stream_is_the_fresh_stream_of_that_seed() {
        for dist in [KeyDist::Uniform, KeyDist::Zipf { theta: 0.9 }] {
            let mut a = OpMix::with_dist(1, 500, 30, dist).reseeded(42);
            let mut b = OpMix::with_dist(42, 500, 30, dist);
            for _ in 0..1000 {
                assert_eq!(a.next_op(), b.next_op(), "{dist:?}");
            }
        }
    }

    #[test]
    fn zipf_stream_is_deterministic_and_skewed() {
        use crate::dist::KeyDist;
        let mut a = OpMix::with_dist(42, 1000, 20, KeyDist::Zipf { theta: 0.99 });
        let mut b = OpMix::with_dist(42, 1000, 20, KeyDist::Zipf { theta: 0.99 });
        let mut counts = std::collections::HashMap::<u64, usize>::new();
        for _ in 0..20_000 {
            let op = a.next_op();
            assert_eq!(op, b.next_op());
            let k = match op {
                Op::Contains(k) | Op::Insert(k) | Op::Remove(k) => k,
            };
            assert!(k < 1000);
            *counts.entry(k).or_default() += 1;
        }
        let hottest = counts.values().max().copied().unwrap();
        assert!(
            hottest > 20_000 / 50,
            "zipf(0.99) must concentrate traffic, hottest saw {hottest}"
        );
    }

    #[test]
    fn prefill_is_exact_and_in_range() {
        let keys: Vec<u64> = prefill_keys(1024, 2048).collect();
        assert_eq!(keys.len(), 1024);
        assert!(keys.iter().all(|&k| k < 2048));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 1024, "prefill keys must be distinct");
    }
}
