//! Key distributions for workload generation.
//!
//! The paper's methodology draws keys uniformly; real caches and indexes
//! see skew. [`KeyDist::Zipf`] adds a YCSB-style zipfian generator so the
//! ablation benches can ask how reclamation schemes behave when a hot set
//! concentrates both traffic *and* retirement on a few nodes (hot nodes
//! are much more likely to sit in some thread's stack at scan time, so
//! skew directly exercises ThreadScan's survivor carry-over path).

use ts_choose::Rng;

/// How operation keys are drawn from `[0, key_range)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over the range (the paper's methodology).
    Uniform,
    /// Zipfian with exponent `theta` in `(0, 1)`; larger is more skewed.
    /// Ranks are scrambled over the key space (YCSB's "scrambled
    /// zipfian") so the hot set is not one contiguous run of keys.
    Zipf {
        /// Skew exponent; YCSB's default is 0.99.
        theta: f64,
    },
}

impl KeyDist {
    /// Harness label for reports.
    pub fn label(self) -> String {
        match self {
            Self::Uniform => "uniform".to_string(),
            Self::Zipf { theta } => format!("zipf({theta})"),
        }
    }

    /// Parses `--skews` CLI syntax: `uniform`, or a zipf `theta` in
    /// `(0, 1)` given as a bare number (`0.99`).
    pub fn parse(s: &str) -> Option<Self> {
        if s == "uniform" {
            return Some(Self::Uniform);
        }
        let theta: f64 = s.parse().ok()?;
        (theta > 0.0 && theta < 1.0).then_some(Self::Zipf { theta })
    }
}

/// Zipfian rank sampler over `0..n` with `P(rank = i) ∝ 1/(i+1)^theta`,
/// using the Gray et al. closed-form inversion popularized by YCSB:
/// constant-time sampling after an `O(n)` zeta precomputation.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfSampler {
    /// Builds a sampler for ranks `0..n`. `theta` must be in `(0, 1)`
    /// (the closed form diverges at 1).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "zipf needs a non-empty range");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0, 1), got {theta}"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// `ζ_θ(n) = Σ_{i=1..n} i^{-θ}`.
    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Samples a rank; 0 is the hottest.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The configured range.
    pub fn range(&self) -> u64 {
        self.n
    }
}

/// Fixed scramble of a zipf rank over the key space, so the hot set is
/// spread across the range rather than clustered at low keys (which would
/// otherwise put every hot node at the front of a sorted list).
#[inline]
pub fn scramble_rank(rank: u64, key_range: u64) -> u64 {
    let mut z = rank.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % key_range
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(theta: f64, n: u64, samples: usize) -> Vec<usize> {
        let sampler = ZipfSampler::new(n, theta);
        let mut rng = Rng::seeded(7);
        let mut counts = vec![0usize; n as usize];
        for _ in 0..samples {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn ranks_stay_in_range() {
        let sampler = ZipfSampler::new(100, 0.99);
        let mut rng = Rng::seeded(1);
        for _ in 0..50_000 {
            assert!(sampler.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn low_ranks_dominate() {
        let counts = histogram(0.99, 1000, 200_000);
        assert!(
            counts[0] > counts[10] && counts[10] > counts[200],
            "head {} mid {} tail {}",
            counts[0],
            counts[10],
            counts[200]
        );
        // At theta ≈ 0.99 the hottest rank takes a noticeable share.
        assert!(counts[0] > 200_000 / 50, "rank 0 too cold: {}", counts[0]);
    }

    #[test]
    fn lower_theta_is_flatter() {
        let skewed = histogram(0.9, 100, 100_000);
        let flat = histogram(0.1, 100, 100_000);
        assert!(
            flat[0] < skewed[0],
            "theta 0.1 head {} must be colder than theta 0.9 head {}",
            flat[0],
            skewed[0]
        );
        // The flat tail must see real traffic.
        assert!(flat[99] * 50 > flat[0], "theta 0.1 tail starved");
    }

    #[test]
    fn head_probability_matches_closed_form() {
        // P(rank 0) = 1/zetan; check the empirical share within 10%.
        let n = 500u64;
        let theta = 0.8;
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let expect = 1.0 / zetan;
        let counts = histogram(theta, n, 400_000);
        let got = counts[0] as f64 / 400_000.0;
        assert!(
            (got - expect).abs() / expect < 0.10,
            "head share {got:.4} vs closed-form {expect:.4}"
        );
    }

    #[test]
    fn single_element_range_always_yields_zero() {
        let sampler = ZipfSampler::new(1, 0.5);
        let mut rng = Rng::seeded(3);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng), 0);
        }
    }

    /// Boundary: theta approaching 1 (the closed form diverges *at* 1,
    /// so 0.999/0.9999 are the extreme admissible skews). `alpha =
    /// 1/(1-theta)` grows to ~10⁴ — the `powf` must stay finite and the
    /// distribution must stay (extremely) head-heavy.
    #[test]
    fn theta_near_one_stays_finite_and_skewed() {
        for theta in [0.999, 0.9999] {
            let sampler = ZipfSampler::new(1000, theta);
            let mut rng = Rng::seeded(13);
            let mut head = 0usize;
            const N: usize = 100_000;
            for _ in 0..N {
                let rank = sampler.sample(&mut rng);
                assert!(rank < 1000, "theta {theta}: rank {rank} out of range");
                if rank == 0 {
                    head += 1;
                }
            }
            // At theta→1, P(rank 0) → 1/ζ₁(1000) ≈ 1/7.5; demand at
            // least half that so the head is provably hot, not NaN-cold.
            assert!(
                head > N / 15,
                "theta {theta}: head share {head}/{N} lost its skew"
            );
        }
    }

    /// Boundary: n = 2 makes `eta = (1 - (2/n)^(1-θ)) / (1 - ζ(2)/ζ(n))`
    /// a 0/0 form — both numerator and denominator vanish. The quotient
    /// is NaN, but it must be unreachable: `ζ(2) == zetan` means the
    /// two explicit branches in `sample` cover the whole unit interval,
    /// so every draw resolves to rank 0 or 1 before `eta` is touched.
    #[test]
    fn two_element_range_never_produces_nan_ranks() {
        for theta in [0.01, 0.5, 0.99, 0.9999] {
            let sampler = ZipfSampler::new(2, theta);
            let mut rng = Rng::seeded(17);
            let mut counts = [0usize; 2];
            const N: usize = 50_000;
            for _ in 0..N {
                let rank = sampler.sample(&mut rng);
                assert!(rank < 2, "theta {theta}: rank {rank} out of range");
                counts[rank as usize] += 1;
            }
            assert!(
                counts[0] > counts[1],
                "theta {theta}: rank 0 ({}) must stay hotter than rank 1 ({})",
                counts[0],
                counts[1]
            );
            assert!(
                counts[1] > 0,
                "theta {theta}: rank 1 must still see traffic"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let sampler = ZipfSampler::new(64, 0.7);
        let mut a = Rng::seeded(9);
        let mut b = Rng::seeded(9);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut a), sampler.sample(&mut b));
        }
    }

    #[test]
    fn scramble_is_a_fixed_map_within_range() {
        for rank in 0..1000u64 {
            let k1 = scramble_rank(rank, 2048);
            let k2 = scramble_rank(rank, 2048);
            assert_eq!(k1, k2);
            assert!(k1 < 2048);
        }
    }

    #[test]
    fn scramble_spreads_the_hot_set() {
        // The ten hottest ranks must not land in one contiguous run.
        let keys: Vec<u64> = (0..10).map(|r| scramble_rank(r, 100_000)).collect();
        let min = *keys.iter().min().unwrap();
        let max = *keys.iter().max().unwrap();
        assert!(max - min > 10_000, "hot set clustered: {keys:?}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(KeyDist::Uniform.label(), "uniform");
        assert_eq!(KeyDist::Zipf { theta: 0.99 }.label(), "zipf(0.99)");
    }

    #[test]
    fn parse_takes_uniform_or_a_theta_in_the_open_unit_interval() {
        assert_eq!(KeyDist::parse("uniform"), Some(KeyDist::Uniform));
        assert_eq!(KeyDist::parse("0.5"), Some(KeyDist::Zipf { theta: 0.5 }));
        for bad in ["0", "1", "1.5", "-0.5", "nan", "zipf", "zipf(0.99)", ""] {
            assert_eq!(KeyDist::parse(bad), None, "{bad:?}");
        }
    }
}
