//! The workspace's property-test harness (dev-dependency only).
//!
//! A deterministic subset of the `proptest` crate's surface, which is what
//! the property files were written against: `proptest! { #[test] fn
//! name(x in strategy, ...) { ... } }` with an optional
//! `#![proptest_config(...)]` header, range strategies over integers,
//! `prop::collection::vec`, `prop_map`, `Just`, `prop_oneof!`, and
//! `prop_assert!`/`prop_assert_eq!`. Cases are generated from a seed fixed
//! per property, so every run tests the same cases. There is no shrinking:
//! a failing case (a failed `prop_assert!` or a panic in the body) reports
//! the property's seed, the case number and the generated inputs.

use std::fmt;
use std::ops::Range;

/// Deterministic case-generation RNG (splitmix64).
#[derive(Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A fresh RNG from a fixed seed.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next uniform 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A failed property assertion.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Build a failure from a message.
    pub fn fail(msg: &str) -> Self {
        TestCaseError(msg.to_string())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Turn one case's outcome into the test's: return on success, otherwise
/// panic with everything needed to replay the case. `inputs` re-renders
/// the generated arguments (the body consumed the originals).
#[doc(hidden)]
pub fn check_case(
    property: &str,
    seed: u64,
    case: u32,
    outcome: std::thread::Result<Result<(), TestCaseError>>,
    inputs: impl FnOnce() -> String,
) {
    let why = match outcome {
        Ok(Ok(())) => return,
        Ok(Err(e)) => e.0,
        Err(payload) => match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => match payload.downcast::<&str>() {
                Ok(msg) => msg.to_string(),
                Err(_) => "panicked".to_string(),
            },
        },
    };
    panic!(
        "property {property} failed at case {case} (seed {seed:#x}): {why}\n  inputs: {}",
        inputs()
    );
}

/// Per-property settings.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Enough to cover the small input spaces used here while keeping
        // the whole suite brisk.
        ProptestConfig { cases: 64 }
    }
}

/// Value-generation strategy (object-safe subset of proptest's).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn gen_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Constant strategy.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn gen_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn gen_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.gen_value(rng))
    }
}

/// Uniform choice among boxed strategies (built by `prop_oneof!`).
pub struct Union<T>(pub Vec<Box<dyn Strategy<Value = T>>>);

impl<T> Strategy for Union<T> {
    type Value = T;

    fn gen_value(&self, rng: &mut TestRng) -> T {
        assert!(!self.0.is_empty(), "empty prop_oneof!");
        let idx = (rng.next_u64() as usize) % self.0.len();
        self.0[idx].gen_value(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// The result of [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// A `Vec` whose length is uniform in `size` and whose elements come
    /// from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1);
            let len = self.size.start + (rng.next_u64() as usize) % span;
            (0..len).map(|_| self.elem.gen_value(rng)).collect()
        }
    }
}

/// The common imports.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig, Strategy,
    };

    /// Namespace for `prop::collection::vec`.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Define `#[test]` functions that run their body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

/// Internal recursion for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __seed = 0x5eed ^ stringify!($name).len() as u64;
            let mut __rng = $crate::TestRng::new(__seed);
            for __case in 0..__cfg.cases {
                let mut __replay = __rng.clone();
                $(let $arg = $crate::Strategy::gen_value(&($strat), &mut __rng);)+
                let __outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    },
                ));
                $crate::check_case(stringify!($name), __seed, __case, __outcome, || {
                    $(let $arg = $crate::Strategy::gen_value(&($strat), &mut __replay);)+
                    [$(format!("{} = {:?}", stringify!($arg), $arg)),+].join(", ")
                });
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        let __v: ::std::vec::Vec<::std::boxed::Box<dyn $crate::Strategy<Value = _>>> =
            ::std::vec![$(::std::boxed::Box::new($strat)),+];
        $crate::Union(__v)
    }};
}

/// Assert inside a property, failing the case (not the process) on error.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(&format!($($fmt)+)));
        }
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(&format!(
                "assertion failed: {:?} != {:?}",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(&format!(
                "assertion failed: {:?} != {:?}: {}",
                l, r, format!($($fmt)+)
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn strategies_respect_their_bounds(
            x in 3u64..9,
            v in prop::collection::vec(0usize..4, 1..5),
            pick in prop_oneof![Just(10u8), (20u8..22).prop_map(|b| b + 1)],
        ) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(!v.is_empty() && v.len() < 5 && v.iter().all(|&e| e < 4));
            prop_assert!([10, 21, 22].contains(&pick), "pick = {}", pick);
            prop_assert_eq!(x, x);
        }

        #[test]
        #[should_panic(expected = "failed at case 0 (seed 0x5ec2): x < 3\n  inputs: x = 7, v = [")]
        fn a_failed_assertion_reports_seed_case_and_inputs(
            x in 7u64..8,
            v in prop::collection::vec(0u8..2, 1..3),
        ) {
            let _moved = v;
            prop_assert!(x < 3);
        }

        #[test]
        #[should_panic(expected = "boom 7\n  inputs: x = 7")]
        fn a_panicking_body_reports_its_inputs_too(x in 7u64..8) {
            assert!(x < 3, "boom {x}");
        }
    }
}
