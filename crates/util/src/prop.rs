//! A minimal property-testing harness.
//!
//! The shape mirrors the slice of `proptest` the workspace used: a
//! [`Strategy`] describes how to generate a value from a seeded RNG at a
//! given *size* (0 = simplest possible, [`MAX_SIZE`] = fully general), the
//! [`px_prop!`](crate::px_prop) macro turns `fn name(x in strategy) { body }` items into
//! `#[test]` functions, and failures shrink by regenerating the failing
//! case at progressively smaller sizes ("shrinking-lite") before reporting
//! the smallest reproduction together with the seed that replays it.
//!
//! Assertions inside property bodies are plain `assert!`/`assert_eq!`;
//! the harness catches the panic, shrinks, and re-raises with context.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{Rng, Xoshiro256, GOLDEN_GAMMA};

/// The largest generation size; case sizes ramp from 1 up to this.
pub const MAX_SIZE: u32 = 100;

/// Cases per property when neither the block nor `PX_PROP_CASES` sets a
/// count.
pub const DEFAULT_CASES: u32 = 96;

/// Harness configuration, overridable from the environment.
#[derive(Debug, Clone)]
pub struct PropConfig {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Base seed; every case derives its own stream from it.
    pub seed: u64,
}

impl PropConfig {
    /// `cases` cases at the default seed, with the `PX_PROP_CASES` /
    /// `PX_PROP_SEED` environment overrides applied: a set
    /// `PX_PROP_CASES` wins over `cases`.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and its value, when either variable is
    /// set but malformed.
    #[must_use]
    pub fn from_env(cases: u32) -> PropConfig {
        let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        PropConfig::from_vars(
            cases,
            var("PX_PROP_CASES").as_deref(),
            var("PX_PROP_SEED").as_deref(),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// `cases` cases at the default seed, overridden by the values of
    /// `PX_PROP_CASES` (a positive decimal count; it wins over a block's
    /// `cases = N;`) and `PX_PROP_SEED` (decimal or `0x` hex), each `None`
    /// when unset.
    ///
    /// # Errors
    ///
    /// A message naming the variable and its value when a set value does
    /// not parse, so a typo never silently runs the default.
    fn from_vars(
        cases: u32,
        cases_var: Option<&str>,
        seed_var: Option<&str>,
    ) -> Result<PropConfig, String> {
        let cases = match cases_var {
            None => cases,
            Some(v) => v
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("PX_PROP_CASES={v:?} is not a positive integer"))?,
        };
        let seed = match seed_var {
            None => GOLDEN_GAMMA,
            Some(v) => parse_seed(v)
                .ok_or_else(|| format!("PX_PROP_SEED={v:?} is not a decimal or 0x-hex u64"))?,
        };
        Ok(PropConfig { cases, seed })
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    s.strip_prefix("0x")
        .map_or_else(|| s.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Generates one value at the given size.
    fn generate(&self, rng: &mut Xoshiro256, size: u32) -> Self::Value;

    /// Maps generated values through `f` (proptest's `prop_map`).
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy so heterogeneous alternatives can share a
    /// `Vec` (proptest's `boxed`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated, type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut Xoshiro256, size: u32) -> T {
        (**self).generate(rng, size)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut Xoshiro256, size: u32) -> S::Value {
        (**self).generate(rng, size)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut Xoshiro256, size: u32) -> U {
        (self.f)(self.inner.generate(rng, size))
    }
}

/// Always generates a clone of one value (proptest's `Just`).
#[derive(Debug, Clone)]
pub struct JustValue<T>(pub T);

/// Constructs a [`JustValue`] strategy.
pub fn just<T: Clone + Debug>(value: T) -> JustValue<T> {
    JustValue(value)
}

impl<T: Clone + Debug> Strategy for JustValue<T> {
    type Value = T;
    fn generate(&self, _rng: &mut Xoshiro256, _size: u32) -> T {
        self.0.clone()
    }
}

/// Scales a span by `size` so small sizes generate near the low end.
fn scaled_span(span: u64, size: u32) -> u64 {
    if span <= 1 {
        return span;
    }
    let scaled = (span as u128 * u128::from(size.min(MAX_SIZE)) / u128::from(MAX_SIZE)) as u64;
    scaled.max(1)
}

macro_rules! impl_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Xoshiro256, size: u32) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                let offset = rng.below(scaled_span(span, size).max(1));
                ((self.start as i128) + offset as i128) as $t
            }
        }
    )+};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

/// Full-range integer strategies; `size` scales the magnitude so shrinking
/// drives values toward zero.
macro_rules! any_int {
    ($name:ident, $t:ty, $bits:expr, $doc:literal) => {
        #[doc = $doc]
        #[must_use]
        pub fn $name() -> impl Strategy<Value = $t> + Clone + 'static {
            AnyInt::<$t> {
                _marker: std::marker::PhantomData,
            }
        }

        impl Strategy for AnyInt<$t> {
            type Value = $t;
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_possible_wrap,
                unused_comparisons
            )]
            fn generate(&self, rng: &mut Xoshiro256, size: u32) -> $t {
                let bits = ($bits * size.min(MAX_SIZE)).div_ceil(MAX_SIZE);
                if bits == 0 {
                    return 0;
                }
                let mask = if bits >= 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                let magnitude = rng.next_u64() & mask;
                // Signed types draw a random sign so small sizes still
                // explore negatives.
                let negate = <$t>::MIN < 0 && rng.next_bool();
                if negate {
                    (magnitude as $t).wrapping_neg()
                } else {
                    magnitude as $t
                }
            }
        }
    };
}

/// Generator behind the `any_*` constructors.
#[derive(Debug, Clone)]
pub struct AnyInt<T> {
    _marker: std::marker::PhantomData<T>,
}

any_int!(any_u8, u8, 8, "Any `u8`, magnitude scaled by size.");
any_int!(any_u32, u32, 32, "Any `u32`, magnitude scaled by size.");
any_int!(any_u64, u64, 64, "Any `u64`, magnitude scaled by size.");
any_int!(any_i32, i32, 32, "Any `i32`, magnitude scaled by size.");
any_int!(any_i64, i64, 64, "Any `i64`, magnitude scaled by size.");

/// Uniform boolean strategy.
#[must_use]
pub fn any_bool() -> impl Strategy<Value = bool> + Clone + 'static {
    AnyBool
}

/// Generator behind [`any_bool`].
#[derive(Debug, Clone)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut Xoshiro256, _size: u32) -> bool {
        rng.next_bool()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut Xoshiro256, size: u32) -> Self::Value {
                ($(self.$idx.generate(rng, size),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
);

/// `Vec` strategy with a length drawn from `len` (scaled by size).
pub fn vec_of<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { element, len }
}

/// `Vec` strategy with an exact length.
pub fn vec_exact<S: Strategy>(element: S, len: usize) -> VecStrategy<S> {
    VecStrategy {
        element,
        len: len..len + 1,
    }
}

/// See [`vec_of`].
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut Xoshiro256, size: u32) -> Vec<S::Value> {
        let span = (self.len.end - self.len.start) as u64;
        let len = self.len.start + rng.below(scaled_span(span, size).max(1)) as usize;
        (0..len).map(|_| self.element.generate(rng, size)).collect()
    }
}

/// Picks uniformly among boxed alternatives (proptest's `prop_oneof!`).
pub struct OneOf<T> {
    alternatives: Vec<BoxedStrategy<T>>,
}

/// Constructs a [`OneOf`] from boxed alternatives.
///
/// # Panics
///
/// Panics if `alternatives` is empty.
pub fn one_of<T: Debug>(alternatives: Vec<BoxedStrategy<T>>) -> OneOf<T> {
    assert!(
        !alternatives.is_empty(),
        "one_of needs at least one alternative"
    );
    OneOf { alternatives }
}

impl<T: Debug> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut Xoshiro256, size: u32) -> T {
        rng.choose(&self.alternatives).generate(rng, size)
    }
}

/// `px_oneof![a, b, c]` — uniform choice among strategies generating the
/// same value type; each alternative is boxed.
#[macro_export]
macro_rules! px_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::prop::one_of(vec![$($crate::prop::Strategy::boxed($strat)),+])
    };
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Runs `test` against `cases` generated values, shrinking on failure.
///
/// # Panics
///
/// Panics (fails the enclosing `#[test]`) on the first property violation,
/// reporting the smallest failing input found.
pub fn run_prop<S: Strategy>(name: &str, cfg: &PropConfig, strat: &S, test: impl Fn(S::Value)) {
    for case in 0..cfg.cases {
        let case_seed = cfg.seed ^ u64::from(case).wrapping_mul(GOLDEN_GAMMA);
        // Ramp from small cases to fully general ones.
        let size = 1 + MAX_SIZE * case / cfg.cases.max(1);
        if let Some(message) = run_once(strat, case_seed, size, &test) {
            let (min_size, min_value, min_message) = shrink(strat, case_seed, size, message, &test);
            panic!(
                "property `{name}` failed on case {case}/{} (seed {:#x})\n\
                 minimal failing input (size {min_size}): {min_value}\n\
                 failure: {min_message}\n\
                 replay with PX_PROP_SEED={:#x}",
                cfg.cases, cfg.seed, cfg.seed,
            );
        }
    }
}

/// Generates at (`case_seed`, `size`) and runs the test once; `Some(panic
/// message)` on failure.
fn run_once<S: Strategy>(
    strat: &S,
    case_seed: u64,
    size: u32,
    test: impl Fn(S::Value),
) -> Option<String> {
    let mut rng = Xoshiro256::seeded(case_seed);
    let value = strat.generate(&mut rng, size);
    catch_unwind(AssertUnwindSafe(|| test(value)))
        .err()
        .map(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_owned())
        })
}

/// Shrinking-lite: regenerate the failing case at smaller sizes (same
/// seed), keeping the smallest size that still fails.
fn shrink<S: Strategy>(
    strat: &S,
    case_seed: u64,
    failed_size: u32,
    failed_message: String,
    test: impl Fn(S::Value),
) -> (u32, String, String) {
    let mut best_size = failed_size;
    let mut best_message = failed_message;
    let mut candidate = failed_size / 2;
    loop {
        match run_once(strat, case_seed, candidate, &test) {
            Some(message) => {
                best_size = candidate;
                best_message = message;
                if candidate == 0 {
                    break;
                }
                candidate /= 2;
            }
            None => {
                // Halving overshot; probe linearly just below the best.
                if candidate + 1 >= best_size {
                    break;
                }
                candidate = best_size - 1;
            }
        }
    }
    let mut rng = Xoshiro256::seeded(case_seed);
    let value = strat.generate(&mut rng, best_size);
    (best_size, format!("{value:?}"), best_message)
}

/// Defines property tests.
///
/// ```ignore
/// px_util::px_prop! {
///     fn addition_commutes(a in any_i32(), b in any_i32()) {
///         assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
///     }
/// }
/// ```
///
/// An optional leading `cases = N;` sets the case count for every property
/// in the block in place of [`DEFAULT_CASES`]; `PX_PROP_CASES`, when set,
/// wins over both.
#[macro_export]
macro_rules! px_prop {
    (cases = $n:expr; $($rest:tt)*) => {
        $crate::__px_prop_items!($n; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__px_prop_items!($crate::prop::DEFAULT_CASES; $($rest)*);
    };
}

/// Implementation detail of [`px_prop!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __px_prop_items {
    ($cases:expr; $(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let __cfg = $crate::prop::PropConfig::from_env($cases);
            $crate::prop::run_prop(
                stringify!($name),
                &__cfg,
                &($($strat,)+),
                |($($arg,)+)| $body,
            );
        }
        $crate::__px_prop_items!($cases; $($rest)*);
    };
    ($cases:expr;) => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::px_prop! {
        fn ranges_respect_bounds(x in 10u32..20, y in -5i32..5) {
            assert!((10..20).contains(&x));
            assert!((-5..5).contains(&y));
        }

        fn vec_lengths_respect_bounds(v in vec_of(any_u8(), 2..6)) {
            assert!((2..6).contains(&v.len()));
        }

        fn one_of_only_yields_alternatives(x in crate::px_oneof![just(1u32), just(7u32)]) {
            assert!(x == 1 || x == 7);
        }

        fn map_applies(x in (0u32..10).prop_map(|v| v * 2)) {
            assert!(x % 2 == 0 && x < 20);
        }
    }

    crate::px_prop! {
        cases = 17;
        fn case_override_applies(_x in any_bool()) {
            // Counted via the seed determinism test below; body just runs.
        }
    }

    #[test]
    fn env_values_override_and_malformed_ones_are_rejected() {
        let cfg = |cases, seed| PropConfig::from_vars(17, cases, seed);
        let unset = cfg(None, None).unwrap();
        assert_eq!((unset.cases, unset.seed), (17, GOLDEN_GAMMA));
        let set = cfg(Some("5000"), Some("0x2a")).unwrap();
        assert_eq!((set.cases, set.seed), (5000, 42));
        assert_eq!(cfg(None, Some("42")).unwrap().seed, 42);
        for bad in ["", "5k", "-1", "0", "0x10"] {
            let e = cfg(Some(bad), None).unwrap_err();
            assert!(
                e.contains("PX_PROP_CASES") && e.contains(&format!("{bad:?}")),
                "{e}"
            );
        }
        for bad in ["", "seed", "0xzz", "-3"] {
            let e = cfg(None, Some(bad)).unwrap_err();
            assert!(
                e.contains("PX_PROP_SEED") && e.contains(&format!("{bad:?}")),
                "{e}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let strat = (any_i32(), vec_of(0u8..9, 1..8));
        let gen_at = |seed: u64| {
            let mut rng = Xoshiro256::seeded(seed);
            format!("{:?}", strat.generate(&mut rng, 60))
        };
        assert_eq!(gen_at(5), gen_at(5));
        assert_ne!(gen_at(5), gen_at(6));
    }

    #[test]
    fn failures_shrink_and_report() {
        let cfg = PropConfig { cases: 64, seed: 1 };
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_prop("demo", &cfg, &(0u32..1000,), |(x,)| {
                assert!(x < 50, "too big: {x}");
            });
        }));
        let message = match result {
            Ok(()) => panic!("property should have failed"),
            Err(p) => *p.downcast::<String>().expect("string payload"),
        };
        assert!(message.contains("property `demo` failed"), "{message}");
        assert!(message.contains("PX_PROP_SEED"), "{message}");
        assert!(message.contains("too big"), "{message}");
    }

    #[test]
    fn size_zero_generates_simplest_values() {
        let mut rng = Xoshiro256::seeded(3);
        assert_eq!(any_i32().generate(&mut rng, 0), 0);
        assert_eq!(
            vec_of(any_u8(), 0..10).generate(&mut rng, 0),
            Vec::<u8>::new()
        );
        assert_eq!((5u32..100).generate(&mut rng, 0), 5);
    }
}
