//! Log-linear latency histogram: 32 linear sub-buckets per power of two,
//! so a bucket is at most 1/32 ≈ 3.1 % wide and an interpolated
//! percentile lands well inside that. `threadscan::hist` quantises to
//! whole powers of two, which would hide a 10 % change.

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Values below this are their own bucket.
const LINEAR: usize = 2 * SUB;
/// Values saturate at 2^40 ns (~18 min), far beyond any op.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = LINEAR + (MAX_EXP - SUB_BITS - 1) as usize * SUB;

pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

fn index(v: u64) -> usize {
    let v = v.min((1 << MAX_EXP) - 1);
    if v < LINEAR as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
    LINEAR + (exp - SUB_BITS - 1) as usize * SUB + sub
}

/// `[lo, lo + width)` covered by bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < LINEAR {
        return (i as u64, 1);
    }
    let exp = ((i - LINEAR) / SUB) as u32 + SUB_BITS + 1;
    let sub = ((i - LINEAR) % SUB) as u64;
    let shift = exp - SUB_BITS;
    ((SUB as u64 + sub) << shift, 1 << shift)
}

impl Hist {
    pub fn new() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile, interpolated linearly by rank inside its bucket
    /// (so two runs rarely report the same digits). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, width) = bounds(i);
                let inside = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo as f64 + width as f64 * inside);
            }
            seen += c;
        }
        unreachable!("rank {rank} beyond total {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

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
    }

    #[test]
    fn quantiles_stay_within_three_percent_of_a_sorted_vector() {
        let mut rng = Rng::new(7);
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
}
