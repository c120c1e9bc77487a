//! Shared log-linear latency histogram.
//!
//! One histogram shape serves every latency surface in the workspace:
//! the collector's per-phase reclaim latency
//! ([`Collector::collect_latency`](crate::Collector::collect_latency))
//! and the workload harness's per-operation service latency. Keeping the
//! bucket math, merge and quantile walk here means a histogram recorded
//! anywhere (a worker thread, a collector, a bench repeat) can be merged
//! with any other and summarized with identical semantics.
//!
//! Each power of two is split into 32 linear sub-buckets, so a bucket is
//! at most 1/32 ≈ 3.1 % as wide as the values in it, and a quantile is
//! interpolated by rank inside its bucket: a 10 % change shows as one.
//! Values below 64 ns have a bucket each; from 2^40 ns (~18 min) on, all
//! share the last. Recording computes one index and does one increment,
//! cheap enough for per-operation hot paths.

const SUB_BITS: u32 = 5;
/// Linear sub-buckets per power of two.
const SUB: usize = 1 << SUB_BITS;
/// Values below this have a bucket each.
const LINEAR: usize = 2 * SUB;
/// Values saturate at 2^40 ns.
const MAX_EXP: u32 = 40;
/// 1152 buckets, ~9 KB of counts.
const BUCKETS: usize = LINEAR + (MAX_EXP - SUB_BITS - 1) as usize * SUB;

/// The bucket `ns` falls in.
fn index(ns: u64) -> usize {
    let v = ns.min((1 << MAX_EXP) - 1);
    if v < LINEAR as u64 {
        return v as usize;
    }
    let exp = u64::BITS - 1 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
    LINEAR + (exp - SUB_BITS - 1) as usize * SUB + sub
}

/// `(lo, width)`: bucket `i` covers `[lo, lo + width)` nanoseconds.
fn bounds(i: usize) -> (u64, u64) {
    if i < LINEAR {
        return (i as u64, 1);
    }
    let exp = ((i - LINEAR) / SUB) as u32 + SUB_BITS + 1;
    let sub = ((i - LINEAR) % SUB) as u64;
    let shift = exp - SUB_BITS;
    ((SUB as u64 + sub) << shift, 1 << shift)
}

/// A plain (non-atomic) histogram of nanosecond durations.
///
/// Cheap to record into from one thread; merge per-thread instances after
/// the fact with [`Hist::merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
        }
    }

    /// Records one duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
    }

    /// Folds `other`'s counts into this histogram.
    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
    }

    /// Total recorded durations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Every non-empty bucket as `(lowest ns it covers, count)`, in
    /// ascending order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let nonzero = self.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        nonzero.map(|(i, &c)| (bounds(i).0, c))
    }

    /// The `q`-quantile (`q` in `0.0..=1.0`) in nanoseconds, interpolated
    /// linearly by rank inside its bucket. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, width) = bounds(i);
                let inside = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo as f64 + width as f64 * inside);
            }
            seen += c;
        }
        unreachable!("rank {rank} beyond total {total}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_choose::Rng;

    #[test]
    fn every_value_falls_inside_its_bucket() {
        for v in (0..5000u64).chain([1 << 20, (1 << 20) + 12345, u64::MAX]) {
            let (lo, width) = bounds(index(v));
            let clamped = v.min((1 << MAX_EXP) - 1);
            assert!(
                lo <= clamped && clamped < lo + width,
                "{v}: [{lo}, +{width})"
            );
            assert!(lo < LINEAR as u64 || width as f64 / lo as f64 <= 1.0 / 32.0);
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
        assert_eq!(BUCKETS, 1152);
    }

    #[test]
    fn bucket_bounds_double() {
        // The first bucket of each power of two starts at it, and each
        // power of two's buckets are twice as wide as the last one's.
        for k in 0..(MAX_EXP - SUB_BITS - 1) as usize {
            assert_eq!(bounds(LINEAR + k * SUB), ((LINEAR as u64) << k, 2 << k));
        }
        assert_eq!(bounds(LINEAR - 1), (63, 1));
        assert_eq!(bounds(LINEAR + SUB - 1), (126, 2));
    }

    #[test]
    fn record_and_count() {
        let mut h = Hist::new();
        assert!(h.is_empty());
        h.record(1);
        h.record(1000); // 2^9 split in 32: [992, 1008)
        h.record(u64::MAX); // the last bucket, [2^40 - 2^34, 2^40)
        assert_eq!(h.count(), 3);
        assert!(!h.is_empty());
        let all: Vec<_> = h.buckets().collect();
        assert_eq!(all, [(1, 1), (992, 1), ((1 << 40) - (1 << 34), 1)]);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        a.record(10);
        b.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let all: Vec<_> = a.buckets().collect();
        assert_eq!(
            all,
            [(10, 2), (999_424, 1)],
            "both 10 ns records share a bucket"
        );
    }

    #[test]
    fn quantiles_stay_within_three_percent_of_a_sorted_vector() {
        let mut rng = Rng::seeded(7);
        // Log-uniform over 50 ns .. 5 ms with a stall cluster, like op latency.
        let mut values: Vec<u64> = (0..200_000)
            .map(|i| {
                if i % 40 == 0 {
                    250_000 + rng.below(50_000)
                } else {
                    (50.0 * (rng.unit() * 11.5).exp()) as u64
                }
            })
            .collect();
        let mut hist = Hist::new();
        values.iter().for_each(|&v| hist.record(v));
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let oracle = values[((q * values.len() as f64).ceil() as usize).max(1) - 1] as f64;
            let got = hist.quantile(q).unwrap();
            assert!(
                (got - oracle).abs() <= 0.03 * oracle,
                "q={q}: hist {got} vs sorted {oracle}"
            );
        }
    }

    #[test]
    fn merge_adds_counts_and_empty_has_no_quantile() {
        let mut a = Hist::new();
        assert!(a.quantile(0.5).is_none());
        let mut b = Hist::new();
        a.record(100);
        b.record(300);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let p = a.quantile(0.9).unwrap();
        assert!((290.0..=310.0).contains(&p), "{p}");
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let mut h = Hist::new();
        for _ in 0..96 {
            h.record(1_000); // [992, 1008)
        }
        for _ in 0..32 {
            h.record(1_000_000); // [999424, 1015808)
        }
        assert_eq!(h.quantile(0.0), Some(992.0));
        assert_eq!(h.quantile(0.375), Some(1000.0), "half-way through 96");
        assert_eq!(h.quantile(0.75), Some(1008.0), "the fast bucket's top");
        assert_eq!(h.quantile(0.875), Some(999_424.0 + 16_384.0 / 2.0));
        assert_eq!(h.quantile(1.0), Some(1_015_808.0));
    }

    #[test]
    fn saturated_values_read_inside_the_last_bucket() {
        let mut h = Hist::new();
        h.record(u64::MAX);
        h.record(1 << 50);
        let (lo, hi) = (((1u64 << 40) - (1 << 34)) as f64, (1u64 << 40) as f64);
        assert_eq!(h.quantile(0.5), Some((lo + hi) / 2.0));
        assert_eq!(h.quantile(1.0), Some(hi));
    }
}
