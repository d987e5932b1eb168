//! # qdp-proptest — in-tree mini property-test harness
//!
//! A small, zero-dependency replacement for the slice of `proptest` the
//! workspace uses: run a property over many pseudo-random cases, shrink a
//! failure by re-deriving the case at smaller *sizes*, and report the
//! failing seed so the case replays exactly.
//!
//! Cases are pure functions of `(seed, size)`: every case derives all of
//! its inputs from a [`Gen`] handed to the property closure. The master
//! seed is fixed (tier-1 runs are reproducible) and overridable:
//!
//! * `QDP_PROPTEST_SEED=<u64>` — replay a reported failure.
//! * `QDP_PROPTEST_CASES=<n>` — override every suite's case count.
//!
//! ```
//! use qdp_proptest::{check, prop_assert, Config};
//!
//! // in a `#[test]` fn:
//! check("addition_commutes", Config::cases(64), |g| {
//!     let (a, b) = (g.i64_in(-1000..1000), g.i64_in(-1000..1000));
//!     prop_assert!(a + b == b + a, "{a} + {b}");
//!     Ok(())
//! });
//! ```
//!
//! ## Shrinking
//!
//! A failing case `(seed, size)` is re-derived at geometrically smaller
//! sizes (`size/2`, `size/4`, …, bounded by [`Config::shrink_rounds`]).
//! `size` scales collection lengths and recursion depths, so a re-derived
//! failure is a structurally smaller counterexample of the same property.
//! The smallest size that still fails is the one reported.

use qdp_rng::{Rng, SeedableRng, SplitMix64, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Error raised by a failing property case (what `prop_assert!` returns).
#[derive(Debug, Clone)]
pub struct CaseError {
    /// Human-readable description of the violated property.
    pub message: String,
}

impl CaseError {
    /// Build an error from any displayable message.
    pub fn fail(message: impl Into<String>) -> CaseError {
        CaseError {
            message: message.into(),
        }
    }
}

/// Back-compat name for ports from `proptest::test_runner::TestCaseError`.
pub use self::CaseError as TestCaseError;

/// The result a property closure returns per case.
pub type CaseResult = Result<(), CaseError>;

/// Per-suite configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of cases to run (before any `QDP_PROPTEST_CASES` override).
    pub cases: u32,
    /// Maximum shrink attempts on a failure.
    pub shrink_rounds: u32,
}

impl Config {
    /// A config running `cases` cases with default shrinking.
    pub fn cases(cases: u32) -> Config {
        Config {
            cases,
            shrink_rounds: 16,
        }
    }
}

impl Default for Config {
    fn default() -> Config {
        Config::cases(256)
    }
}

/// Deterministic default master seed (spells "QDP PROP").
const DEFAULT_MASTER_SEED: u64 = 0x51D9_97D9_0B06_2026;

fn master_seed() -> u64 {
    match std::env::var("QDP_PROPTEST_SEED") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("QDP_PROPTEST_SEED must be a u64, got {v:?}")),
        Err(_) => DEFAULT_MASTER_SEED,
    }
}

fn case_count(cfg: &Config) -> u32 {
    match std::env::var("QDP_PROPTEST_CASES") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("QDP_PROPTEST_CASES must be a u32, got {v:?}")),
        Err(_) => cfg.cases,
    }
}

/// The per-case input generator: a seeded RNG plus a *size* in `(0, 1]`
/// that scales collection lengths and recursion depths.
pub struct Gen {
    rng: StdRng,
    size: f64,
}

impl Gen {
    /// Build a generator for one case. Exposed so a reported failure can
    /// be replayed by hand in a unit test.
    pub fn from_case_seed(seed: u64, size: f64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            size,
        }
    }

    /// The current size in `(0, 1]` (grows over a run, shrinks on failure).
    pub fn size(&self) -> f64 {
        self.size
    }

    /// Mutable access to the underlying RNG (for call sites that need to
    /// seed a domain RNG from a generated value).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// A uniform `u64` over the full range (seeds, bit patterns).
    pub fn any_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A uniform `i64` over the full range.
    pub fn any_i64(&mut self) -> i64 {
        self.rng.next_u64() as i64
    }

    /// A uniform `u8`.
    pub fn any_u8(&mut self) -> u8 {
        self.rng.random()
    }

    /// A fair `bool`.
    pub fn any_bool(&mut self) -> bool {
        self.rng.random()
    }

    /// Uniform in a half-open `usize` range.
    pub fn usize_in(&mut self, r: std::ops::Range<usize>) -> usize {
        self.rng.random_range(r.start as u64..r.end as u64) as usize
    }

    /// Uniform in a half-open `u8` range.
    pub fn u8_in(&mut self, r: std::ops::Range<u8>) -> u8 {
        self.rng.random_range(r.start as u64..r.end as u64) as u8
    }

    /// Uniform in a half-open `i64` range.
    pub fn i64_in(&mut self, r: std::ops::Range<i64>) -> i64 {
        let span = (r.end - r.start) as u64;
        r.start + self.rng.random_range(0..span) as i64
    }

    /// Uniform in a half-open `i32` range.
    pub fn i32_in(&mut self, r: std::ops::Range<i32>) -> i32 {
        self.i64_in(r.start as i64..r.end as i64) as i32
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, r: std::ops::Range<f64>) -> f64 {
        let u: f64 = self.rng.random();
        r.start + u * (r.end - r.start)
    }

    /// A collection length in `[min, max)`, scaled down by the current
    /// size — this is what makes shrinking produce smaller cases.
    fn len_in(&mut self, r: std::ops::Range<usize>) -> usize {
        debug_assert!(r.start < r.end);
        let max = r.start + (((r.end - r.start) as f64 * self.size).ceil() as usize).max(1);
        self.usize_in(r.start..max)
    }

    /// A recursion depth budget in `[0, max]`, scaled by the current size.
    pub fn depth(&mut self, max: usize) -> usize {
        let cap = ((max as f64 * self.size).ceil() as usize).min(max);
        self.usize_in(0..cap + 1)
    }

    /// Build a `Vec` whose length is size-scaled within `len`.
    pub fn vec_of<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.len_in(len);
        (0..n).map(|_| f(self)).collect()
    }
}

/// Derive the seed for case `i` of a run from the master seed.
fn case_seed(master: u64, name: &str, case: u64) -> u64 {
    // fold the suite name in so different suites explore different cases
    let mut h = SplitMix64::new(master ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut acc = h.next_u64();
    for b in name.bytes() {
        acc = SplitMix64::new(acc ^ b as u64).next_u64();
    }
    acc
}

fn run_case(
    f: &impl Fn(&mut Gen) -> CaseResult,
    seed: u64,
    size: f64,
) -> Result<(), String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut g = Gen::from_case_seed(seed, size);
        f(&mut g)
    }));
    match outcome {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(e.message),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Run `property` over `cfg.cases` seeded cases; on failure, shrink by
/// re-deriving at smaller sizes and panic with the failing seed.
pub fn check(
    name: &str,
    cfg: Config,
    property: impl Fn(&mut Gen) -> CaseResult,
) {
    let master = master_seed();
    let cases = case_count(&cfg);
    for case in 0..cases {
        let seed = case_seed(master, name, case as u64);
        // size ramps up over the run so early cases are small
        let size = ((case + 1) as f64 / cases.max(1) as f64).clamp(0.05, 1.0);
        let Err(first_msg) = run_case(&property, seed, size) else {
            continue;
        };

        // Bounded shrinking: the same seed re-derived at smaller sizes
        // yields structurally smaller counterexamples of the same case
        // family; keep the smallest size that still fails.
        let (mut best_size, mut best_msg) = (size, first_msg);
        let mut s = size;
        for _ in 0..cfg.shrink_rounds {
            s /= 2.0;
            if s < 0.01 {
                break;
            }
            if let Err(msg) = run_case(&property, seed, s) {
                best_size = s;
                best_msg = msg;
            }
        }
        panic!(
            "property {name:?} failed at case {case}/{cases}\n\
             seed: {seed} (size {best_size:.3})\n\
             {best_msg}\n\
             replay: Gen::from_case_seed({seed}, {best_size:.3}), or rerun \
             with QDP_PROPTEST_SEED={master}"
        );
    }
}

/// Assert a condition inside a property, returning `CaseError` on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::CaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::CaseError::fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err($crate::CaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                a,
                b
            )));
        }
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err($crate::CaseError::fail(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($a),
                stringify!($b),
                a
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        check("always_true", Config::cases(32), |g| {
            let _ = g.any_u64();
            counter.set(counter.get() + 1);
            Ok(())
        });
        assert_eq!(counter.get(), 32);
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            check("big_vectors_fail", Config::cases(64), |g| {
                let v = g.vec_of(0..100, |g| g.any_u8());
                prop_assert!(v.len() < 20, "len {}", v.len());
                Ok(())
            });
        }))
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("seed:"), "failure names the seed: {msg}");
        assert!(msg.contains("replay:"), "failure explains replay: {msg}");
    }

    #[test]
    fn shrinking_finds_smaller_size() {
        // fails at every size: the shrink loop must settle near the floor
        let err = catch_unwind(AssertUnwindSafe(|| {
            check("always_fails", Config::cases(8), |_| {
                Err(CaseError::fail("nope"))
            });
        }))
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().unwrap();
        // size should have been shrunk well below the initial ramp value
        assert!(msg.contains("size 0.0"), "shrunk size reported: {msg}");
    }

    #[test]
    fn panics_are_caught_as_failures() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            check("panics", Config::cases(4), |g| {
                let n = g.usize_in(0..10);
                assert!(n > 100, "unconditional panic {n}");
                Ok(())
            });
        }))
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("panic:"), "panic surfaced: {msg}");
    }

    #[test]
    fn cases_are_deterministic() {
        let collect = || {
            let seen = std::cell::RefCell::new(Vec::new());
            check("det", Config::cases(8), |g| {
                seen.borrow_mut().push(g.any_u64());
                Ok(())
            });
            seen.into_inner()
        };
        let a: Vec<u64> = collect();
        let b: Vec<u64> = collect();
        assert_eq!(a, b);
    }
}
