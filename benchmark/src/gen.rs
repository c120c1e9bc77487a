//! Seeded input generation: keys, op kinds and Poisson arrival times.
//! Everything the library sees derives from `--seed` through here.

/// xoshiro256++ seeded by splitmix64.
pub struct Rng([u64; 4]);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent seed for one stream (repeat, worker, …) of a run.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix(&mut s)
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        Self(std::array::from_fn(|_| splitmix(&mut s)))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2^-32 for our ranges).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    Contains = 0,
    Insert = 1,
    Remove = 2,
}

pub const OP_NAMES: [&str; 3] = ["contains", "insert", "remove"];

/// One worker's stream of (kind, key): uniform keys, `update_pct` % of ops
/// split evenly between insert and remove (the paper's §6 methodology).
pub struct OpStream {
    rng: Rng,
    key_range: u64,
    update_pct: u64,
}

impl OpStream {
    pub fn new(seed: u64, key_range: u64, update_pct: u64) -> Self {
        assert!(key_range > 0 && update_pct <= 100);
        Self {
            rng: Rng::new(seed),
            key_range,
            update_pct,
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> (OpKind, u64) {
        let key = self.rng.below(self.key_range);
        let roll = self.rng.below(100);
        let kind = if roll < self.update_pct / 2 {
            OpKind::Insert
        } else if roll < self.update_pct {
            OpKind::Remove
        } else {
            OpKind::Contains
        };
        (kind, key)
    }
}

/// Poisson arrivals: intended send times in ns since the worker's start,
/// independent of how fast earlier ops completed (open loop).
pub struct Arrivals {
    rng: Rng,
    mean_gap_ns: f64,
    at_ns: f64,
}

impl Arrivals {
    pub fn new(seed: u64, rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0);
        Self {
            rng: Rng::new(seed),
            mean_gap_ns: 1e9 / rate_per_s,
            at_ns: 0.0,
        }
    }

    #[inline]
    pub fn next_ns(&mut self) -> u64 {
        // 1 - unit() is in (0, 1], so the log is finite.
        self.at_ns += -(1.0 - self.rng.unit()).ln() * self.mean_gap_ns;
        self.at_ns as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed_and_has_the_right_rate() {
        let take = |seed| {
            let mut a = Arrivals::new(seed, 200_000.0);
            (0..100_000).map(|_| a.next_ns()).collect::<Vec<_>>()
        };
        let first = take(42);
        assert_eq!(first, take(42));
        assert_ne!(first, take(43));
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = *first.last().unwrap() as f64 / first.len() as f64;
        assert!(
            (4900.0..5100.0).contains(&mean_gap),
            "mean gap {mean_gap} ns"
        );
    }

    #[test]
    fn op_stream_is_deterministic_and_honours_the_mix() {
        let take = |seed| {
            let mut s = OpStream::new(seed, 2048, 20);
            (0..100_000).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        let ops = take(1);
        assert_eq!(ops, take(1));
        assert_ne!(ops, take(2));
        assert!(ops.iter().all(|&(_, k)| k < 2048));
        let count = |k| ops.iter().filter(|&&(kind, _)| kind == k).count();
        assert!((9_000..11_000).contains(&count(OpKind::Insert)));
        assert!((9_000..11_000).contains(&count(OpKind::Remove)));
        assert!((78_000..82_000).contains(&count(OpKind::Contains)));
    }

    #[test]
    fn derived_seeds_differ_per_stream() {
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(9, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(derive_seed(9, 3), seeds[3]);
    }
}
