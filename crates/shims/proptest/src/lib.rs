//! A minimal, offline stand-in for the crates.io `proptest` crate.
//!
//! The workspace must build and test without network access, so this shim
//! implements exactly the subset of the proptest 1.x API its property
//! tests use: the [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] /
//! [`prop_assume!`] / [`prop_oneof!`] macros, [`strategy::Strategy`] with `prop_map`,
//! integer-range, string-pattern and tuple strategies, [`arbitrary::any`],
//! [`collection::vec`], and a deterministic case runner configured by
//! [`test_runner::ProptestConfig`].
//!
//! Differences from the real crate, deliberately accepted:
//! * no shrinking — a failing case reports its inputs but is not
//!   minimized;
//! * no persistence of failing seeds (`.proptest-regressions` files are
//!   ignored);
//! * string "regex" strategies support only the `[class]{m,n}` shape the
//!   workspace actually uses, falling back to short alphanumerics;
//! * generation is seeded deterministically per test and case index, so
//!   runs are reproducible by construction.

/// Strategy trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values of type `Self::Value`.
    ///
    /// Unlike the real proptest `Strategy` (which produces shrinkable
    /// value *trees*), this shim generates plain values directly.
    pub trait Strategy {
        /// The type of values this strategy produces.
        type Value;

        /// Produces one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(move |rng| self.generate(rng)))
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A type-erased strategy, produced by [`Strategy::boxed`].
    pub struct BoxedStrategy<V>(Box<dyn Fn(&mut TestRng) -> V>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (self.0)(rng)
        }
    }

    /// Uniform choice among several strategies with a common value type;
    /// the expansion target of [`prop_oneof!`](crate::prop_oneof).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Builds a union over `options` (must be non-empty).
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    /// A tuple of strategies generates a tuple of their values, left to
    /// right, as in real proptest.
    macro_rules! impl_tuple_strategy {
        ($($s:ident $i:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A 0, B 1);
    impl_tuple_strategy!(A 0, B 1, C 2);

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u64;
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u64, usize, i64);

    /// String-pattern strategy: `&'static str` generates strings matching
    /// the pattern, as in real proptest. Only the `[class]{m,n}` shape is
    /// parsed; anything else falls back to short alphanumeric strings.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (alphabet, min, max) = parse_pattern(self).unwrap_or_else(|| {
                (
                    ('a'..='z').chain('A'..='Z').chain('0'..='9').collect(),
                    0,
                    16,
                )
            });
            let len = min + rng.below((max - min + 1) as u64) as usize;
            (0..len)
                .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                .collect()
        }
    }

    /// Parses `[chars]{m,n}` into (alphabet, m, n); `None` if the pattern
    /// has any other shape.
    fn parse_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let close = rest.find(']')?;
        let (class, counts) = rest.split_at(close);
        let counts = counts.strip_prefix(']')?;
        let counts = counts.strip_prefix('{')?.strip_suffix('}')?;
        let (m, n) = counts.split_once(',')?;
        let (min, max) = (m.trim().parse().ok()?, n.trim().parse().ok()?);
        if min > max {
            return None;
        }

        let mut alphabet = Vec::new();
        let mut chars = class.chars().peekable();
        while let Some(c) = chars.next() {
            let c = if c == '\\' { chars.next()? } else { c };
            if chars.peek() == Some(&'-') && {
                let mut ahead = chars.clone();
                ahead.next();
                ahead.peek().is_some()
            } {
                chars.next(); // the '-'
                let hi = chars.next()?;
                let hi = if hi == '\\' { chars.next()? } else { hi };
                alphabet.extend(c..=hi);
            } else {
                alphabet.push(c);
            }
        }
        if alphabet.is_empty() {
            return None;
        }
        Some((alphabet, min, max))
    }
}

/// `any::<T>()` and the [`Arbitrary`](arbitrary::Arbitrary) trait.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical strategy.
    pub trait Arbitrary: Sized {
        /// The canonical strategy for this type.
        type Strategy: Strategy<Value = Self>;
        /// Returns the canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }

    /// Strategy backing `any::<T>()` for primitives; generation is
    /// per-type below.
    pub struct AnyPrimitive<T>(std::marker::PhantomData<T>);

    macro_rules! impl_arbitrary {
        ($($t:ty => |$rng:ident| $gen:expr),* $(,)?) => {$(
            impl Arbitrary for $t {
                type Strategy = AnyPrimitive<$t>;
                fn arbitrary() -> Self::Strategy {
                    AnyPrimitive(std::marker::PhantomData)
                }
            }
            impl Strategy for AnyPrimitive<$t> {
                type Value = $t;
                fn generate(&self, $rng: &mut TestRng) -> $t {
                    $gen
                }
            }
        )*};
    }

    impl_arbitrary! {
        bool => |rng| rng.next_u64() & 1 == 1,
        u8 => |rng| rng.next_u64() as u8,
        u32 => |rng| rng.next_u64() as u32,
        u64 => |rng| rng.next_u64(),
        // Bias toward boundary values, as the real crate's edge-case
        // machinery does.
        i64 => |rng| match rng.below(16) {
            0 => 0,
            1 => i64::MAX,
            2 => i64::MIN,
            3 => -1,
            _ => rng.next_u64() as i64,
        },
        // Finite doubles plus signed infinities; never NaN (round-trip
        // properties compare generated values with `==`).
        f64 => |rng| match rng.below(16) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::MAX,
            5 => f64::MIN_POSITIVE,
            _ => loop {
                let v = f64::from_bits(rng.next_u64());
                if v.is_finite() {
                    break v;
                }
            },
        },
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A strategy for `Vec`s with lengths drawn from `len` and elements
    /// from `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generates vectors of `element` values with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration, the deterministic RNG, and the case loop.
pub mod test_runner {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful (non-rejected) cases to run per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed — the property is falsified.
        Fail(String),
        /// `prop_assume!` filtered the inputs — try another case.
        Reject(String),
    }

    impl TestCaseError {
        /// A falsified-property error.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
        /// An input-rejected error.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// SplitMix64 — deterministic, seeded per (test, case index).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator whose stream is fully determined by `seed`.
        pub fn from_seed(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }

    /// Runs `case` until `config.cases` non-rejected executions complete,
    /// panicking on the first failure. Called by the [`proptest!`]
    /// expansion; not part of the real crate's API.
    ///
    /// [`proptest!`]: crate::proptest
    pub fn run_cases<F>(config: &ProptestConfig, test_name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let mut hasher = DefaultHasher::new();
        test_name.hash(&mut hasher);
        let base_seed = hasher.finish();

        let mut accepted: u32 = 0;
        let mut rejected: u64 = 0;
        // Same global-reject budget as the real crate's default (1024),
        // scaled by case count so sparse assumptions still converge.
        let max_rejects = 1024 + config.cases as u64 * 8;
        let mut attempt: u64 = 0;
        while accepted < config.cases {
            let mut rng =
                TestRng::from_seed(base_seed ^ attempt.wrapping_mul(0xA24B_AED4_963E_E407));
            attempt += 1;
            match case(&mut rng) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    if rejected > max_rejects {
                        panic!(
                            "proptest '{test_name}': too many inputs rejected \
                             ({rejected} rejects for {accepted} accepted cases)"
                        );
                    }
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "proptest '{test_name}' falsified on case #{accepted} \
                         (attempt {attempt}, shim seed {base_seed:#x}): {msg}"
                    );
                }
            }
        }
    }
}

/// The glob import every proptest-based test starts with.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(pat in strategy, ...) { .. }`
/// becomes a `#[test]` that loops over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (@run ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                $crate::test_runner::run_cases(
                    &config,
                    concat!(module_path!(), "::", stringify!($name)),
                    |rng| {
                        $(let $pat = $crate::strategy::Strategy::generate(&($strat), rng);)+
                        let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                            (|| {
                                $body
                                Ok(())
                            })();
                        outcome
                    },
                );
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside `proptest!`, failing the case (not the
/// process) so the runner can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        // Not routed through `format!`: stringified conditions may contain
        // braces, which a format literal would reject.
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts two expressions are equal inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: `{:?}` == `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Rejects the current inputs (they don't satisfy a precondition); the
/// runner draws a fresh case instead of failing.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::{TestCaseError, TestRng};

    #[test]
    fn string_pattern_respects_class_and_length() {
        let strat = "[a-zA-Z0-9 '\\-]{0,24}";
        let mut rng = TestRng::from_seed(3);
        let mut max_len = 0;
        for _ in 0..500 {
            let s = Strategy::generate(&strat, &mut rng);
            assert!(s.chars().count() <= 24);
            max_len = max_len.max(s.chars().count());
            for c in s.chars() {
                assert!(
                    c.is_ascii_alphanumeric() || c == ' ' || c == '\'' || c == '-',
                    "unexpected char {c:?} in {s:?}"
                );
            }
        }
        assert!(max_len > 10, "length range under-sampled (max {max_len})");
    }

    #[test]
    fn oneof_hits_every_arm() {
        let strat = prop_oneof![(0u8..1), (10u8..11), (20u8..21)];
        let mut rng = TestRng::from_seed(9);
        let mut seen = [false; 3];
        for _ in 0..200 {
            match Strategy::generate(&strat, &mut rng) {
                0 => seen[0] = true,
                10 => seen[1] = true,
                20 => seen[2] = true,
                other => panic!("impossible value {other}"),
            }
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn vec_strategy_respects_length_range() {
        let strat = crate::collection::vec(any::<u8>(), 2..5);
        let mut rng = TestRng::from_seed(11);
        for _ in 0..200 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn any_f64_never_yields_nan() {
        let strat = any::<f64>();
        let mut rng = TestRng::from_seed(17);
        for _ in 0..2000 {
            assert!(!Strategy::generate(&strat, &mut rng).is_nan());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32 })]

        #[test]
        fn macro_binds_multiple_args(a in 0u64..100, b in 5usize..9) {
            prop_assert!(a < 100);
            prop_assert!((5..9).contains(&b), "b={b}");
            prop_assert_eq!(a, a);
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u64..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    proptest! {
        #[test]
        fn default_config_macro_form(x in 0i64..3) {
            prop_assert!(x >= 0);
        }
    }

    #[test]
    #[should_panic(expected = "falsified")]
    fn failures_panic_with_context() {
        let cfg = ProptestConfig { cases: 4 };
        crate::test_runner::run_cases(&cfg, "doomed", |_| Err(TestCaseError::fail("always fails")));
    }
}
