//! # ts-choose — one source of decisions for tests and model runs
//!
//! Every nondeterministic input a test needs — which simulated thread
//! steps next, how long a generated vector is, which key an operation
//! targets — is one call to [`Chooser::choose`]`(label, n)`. A generator
//! is plain code that asks a chooser, so the same code runs under three
//! choosers:
//!
//! * the DFS enumerator ([`explore`], [`check`]) runs a scenario once per
//!   distinct decision sequence;
//! * [`RandomChooser`] draws seeded uniform decisions and records them;
//! * [`TraceChooser`] ([`replay`]) replays a recorded decision string.
//!
//! [`check_inputs`] is the property-test driver built from the first two:
//! every input up to a small bound first, so the first failure is the
//! smallest, then seeded samples over the full domains. [`Rng`] is the
//! workspace's one pseudo-random generator.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod explore;

pub use explore::{
    check, explore, explore_with_config, replay, Chooser, ExploreConfig, ExploreReport,
    RandomChooser, TraceChooser, Violation,
};

use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64's state increment.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output from state `x`: the state steps by its increment
/// and is finalized. Spreads consecutive or clustered inputs (seeds,
/// ranks) over the whole 64-bit space; output `i` of the stream seeded
/// with `s` is `splitmix64(s + i * GAMMA)`, wrapping.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256** seeded through SplitMix64 (Blackman & Vigna's
/// recommendation): small, fast, and a pure function of its seed. Not a
/// cryptographic generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose stream is a pure function of `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            s: std::array::from_fn(|i| splitmix64(seed.wrapping_add(GAMMA.wrapping_mul(i as u64)))),
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n >= 1`), unbiased: Lemire's multiply-shift
    /// with rejection.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0): empty range");
        loop {
            let m = u128::from(self.next_u64()) * u128::from(n);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Checks `prop` on every input up to a small bound, then on seeded
/// samples of the full input space; panics on the first failure.
///
/// `prop` draws its whole input from the chooser and panics when the
/// property fails (`assert!` and friends). Two passes:
///
/// 1. **Bounded-exhaustive.** For `b = 1, 2, …`, every choice point is
///    capped at `min(n, b)` alternatives and the DFS runs `prop` on every
///    input under that cap, so the first failure found is one of the
///    smallest. A capped choice is also a valid uncapped one, so its
///    decision string replays against the real generator. The pass stops
///    after `exhaustive_budget` runs in total, or once a bound caps no
///    choice (the whole input space ran); a budget of 0 skips it.
/// 2. **Sampled.** `sampled_cases` runs under [`RandomChooser`] seeds
///    `0..sampled_cases`, over the full domains.
///
/// A failure panics with the pass, the bound or seed, the schedule
/// number, the property's own panic message and a dot-separated decision
/// string that [`replay`] reproduces. On success it prints the largest
/// bound pass 1 completed (visible with `--nocapture`).
pub fn check_inputs<F>(name: &str, exhaustive_budget: usize, sampled_cases: u64, prop: F)
where
    F: Fn(&mut dyn Chooser),
{
    let mut left = exhaustive_budget;
    let mut complete = 0;
    let mut whole_space = false;
    while left > 0 && !whole_space {
        let bound = complete + 1;
        let run = explore::dfs(&prop, bound, left)
            .unwrap_or_else(|v| panic!("[{name}] pass 1, bound {bound}: {v}"));
        left -= run.schedules;
        if !run.complete {
            break;
        }
        complete = bound;
        whole_space = !run.capped;
    }
    for seed in 0..sampled_cases {
        let mut chooser = RandomChooser::seeded(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| prop(&mut chooser))) {
            let v = chooser.violation(seed as usize + 1, payload.as_ref());
            panic!("[{name}] pass 2, seed {seed}: {v}");
        }
    }
    let ran = exhaustive_budget - left;
    let pass1 = match (exhaustive_budget, whole_space) {
        (0, _) => "skipped".to_string(),
        (_, true) => format!("the whole input space (bound {complete}) in {ran} runs"),
        _ => format!("every input up to bound {complete}, {ran} of {exhaustive_budget} runs"),
    };
    println!("[{name}] pass 1: {pass1}; pass 2: {sampled_cases} seeds");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The panic message of `f`, which must panic.
    fn panic_of(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload.downcast_ref::<&str>().unwrap().to_string(),
        }
    }

    /// The decision string a failure message quotes.
    fn trace_in(message: &str) -> &str {
        let (_, rest) = message
            .split_once("replay decision string: ")
            .expect("a failure quotes its decision string");
        rest.lines().next().unwrap()
    }

    /// The first eight draws of `draw` from a fresh `Rng::seeded(seed)`.
    fn first8<T>(seed: u64, mut draw: impl FnMut(&mut Rng) -> T) -> [T; 8] {
        let mut r = Rng::seeded(seed);
        std::array::from_fn(|_| draw(&mut r))
    }

    /// SplitMix64's published first outputs, and two more inputs.
    #[test]
    fn splitmix64_is_the_reference_finalizer() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(GAMMA), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(12_345), 0x2211_8258_a9d1_11a0);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
    }

    /// The streams the vendored `rand` stand-in produced for these seeds
    /// before it was folded into [`Rng`]: every seeded workload, schedule
    /// and sampled case depends on them not moving.
    #[test]
    #[rustfmt::skip]
    fn rng_stream_is_the_shims() {
        assert_eq!(first8(0, Rng::next_u64), [
            0x99ec_5f36_cb75_f2b4, 0xbf6e_1f78_4956_452a, 0x1a5f_849d_4933_e6e0, 0x6aa5_94f1_262d_2d2c,
            0xbba5_ad4a_1f84_2e59, 0xffef_8375_d9eb_caca, 0x6c16_0dee_d2f5_4c98, 0x8920_ad64_8fc3_0a3f,
        ]);
        assert_eq!(first8(0, |r| r.below(100)), [60, 74, 10, 41, 73, 99, 42, 53]);
        assert_eq!(first8(0, |r| r.below(1 << 40)), [
            661_095_659_211, 822_186_309_705, 113_271_676_233, 458_044_535_078,
            805_938_481_695, 1_099_235_030_489, 464_226_479_826, 588_958_753_935,
        ]);
        assert_eq!(first8(0, Rng::unit), [
            0.6012629994179048, 0.7477740925472398, 0.10301998939503632, 0.4165890778296456,
            0.7329967790569901, 0.9997484362337864, 0.42221152382531557, 0.5356548662673611,
        ]);
        assert_eq!(first8(0x51ED_1E55, Rng::next_u64), [
            0x8fb1_e24c_b369_b2a1, 0x15d5_1eba_0d6a_503c, 0x3046_31d6_cef8_8a6d, 0xe12b_6852_6ce1_df0b,
            0xf09e_2d84_22c5_48d4, 0xf5a2_37bb_713e_6883, 0xbb66_1865_bcf6_6179, 0x61e8_ebd8_3eab_0cae,
        ]);
        assert_eq!(first8(0x51ED_1E55, |r| r.below(100)), [56, 8, 18, 87, 93, 95, 73, 38]);
        assert_eq!(first8(0x51ED_1E55, |r| r.below(1 << 40)), [
            617_164_721_331, 93_769_873_933, 207_336_101_582, 967_095_898_732,
            1_033_445_934_114, 1_054_988_548_977, 804_871_759_292, 420_519_598_142,
        ]);
        assert_eq!(first8(0x51ED_1E55, Rng::unit), [
            0.5613080441720857, 0.08528320352835661, 0.1885710858759656, 0.8795685960038847,
            0.9399136016461586, 0.9595064957259126, 0.7320266006836049, 0.38246034650243754,
        ]);
    }

    /// The Lemire rejection threshold must be `(-bound) % bound`; with a
    /// tiny synthetic "word size" the bias of a wrong threshold is
    /// directly countable, so exercise the real sampler over a bound
    /// that forces rejections and check the spread stays tight.
    #[test]
    fn bounded_sampling_is_close_to_uniform() {
        let mut r = Rng::seeded(11);
        const BOUND: u64 = 7;
        const DRAWS: usize = 70_000;
        let mut counts = [0usize; BOUND as usize];
        for _ in 0..DRAWS {
            counts[r.below(BOUND) as usize] += 1;
        }
        let expect = DRAWS / BOUND as usize;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c.abs_diff(expect) < expect / 10,
                "bucket {i}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn deterministic_and_in_range() {
        let mut a = Rng::seeded(42);
        let mut b = Rng::seeded(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..10_000 {
            let v = 10 + a.below(10);
            assert!((10..20).contains(&v));
            let f = a.unit();
            assert!((0.0..1.0).contains(&f));
            let i = a.below(11) as i64 - 5;
            assert!((-5..=5).contains(&i));
        }
    }

    /// Both passes keep every choice inside its domain, and pass 1 stops
    /// once a bound caps nothing: 10 × 6 inputs is the whole space.
    #[test]
    fn ranges_stay_in_bounds() {
        check_inputs("ranges_stay_in_bounds", 1000, 32, |ch| {
            let x = 10 + ch.choose("x", 10);
            let y = ch.choose("y", 6);
            assert!((10..20).contains(&x));
            assert!(y <= 5);
        });
    }

    #[test]
    #[should_panic(expected = "pass 1, bound 1")]
    fn failing_case_panics_with_inputs() {
        check_inputs("failing_case_panics_with_inputs", 16, 16, |ch| {
            let x = ch.choose("x", 10);
            assert!(x > 100, "x was {x}");
        });
    }

    /// Fails iff the generated vector holds two equal values.
    fn distinct_values(ch: &mut dyn Chooser) {
        let len = 1 + ch.choose("len", 8);
        let mut seen = Vec::new();
        for _ in 0..len {
            let v = ch.choose("value", 1000);
            assert!(!seen.contains(&v), "duplicate value {v} in {seen:?}");
            seen.push(v);
        }
    }

    #[test]
    fn smallest_failure_is_found_in_pass_1_and_replays() {
        let message = panic_of(|| check_inputs("distinct", 10_000, 0, distinct_values));
        assert!(message.contains("pass 1, bound 2:"), "{message}");
        assert!(message.contains("duplicate value 0 in [0]"), "{message}");
        // Bound 2 offers lengths 1..=2 and values 0..=1: the first
        // failing input is the length-2 vector [0, 0].
        assert_eq!(trace_in(&message), "1.0.0");
        let replayed = panic_of(|| replay(trace_in(&message), distinct_values));
        assert!(replayed.contains("duplicate value 0 in [0]"), "{replayed}");
    }

    /// Fails only for a value of at least 10⁶.
    fn small_values(ch: &mut dyn Chooser) {
        let x = ch.choose("x", 1 << 40);
        assert!(x < 1_000_000, "value {x} too large");
    }

    #[test]
    fn a_failure_beyond_every_bound_is_sampled_in_pass_2_and_replays() {
        let message = panic_of(|| check_inputs("large", 1000, 8, small_values));
        assert!(message.contains("pass 2, seed 0:"), "{message}");
        let trace = trace_in(&message);
        let x: usize = trace.parse().unwrap();
        assert!(x >= 1_000_000);
        let replayed = panic_of(|| replay(trace, small_values));
        assert!(
            replayed.contains(&format!("value {x} too large")),
            "{replayed}"
        );
    }
}
