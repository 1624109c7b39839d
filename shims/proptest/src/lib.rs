//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the subset of proptest it uses: the `proptest!` /
//! `prop_assert*` / `prop_oneof!` macros, `Strategy` with `prop_map`,
//! `Just`, `any::<T>()`, ranges-as-strategies, and `collection::vec`.
//!
//! Semantics: each test runs `ProptestConfig::cases` random cases drawn
//! from a deterministic per-test seed (override with the `PROPTEST_SEED`
//! environment variable), so failures reproduce exactly. There is **no
//! shrinking** — a failing case reports the generated inputs verbatim.

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Runner configuration (field subset of the real `ProptestConfig`;
    /// construct with struct-update syntax: `ProptestConfig { cases: 48,
    /// ..ProptestConfig::default() }`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
        /// Accepted for compatibility; shrinking is not implemented.
        pub max_shrink_iters: u32,
        /// Accepted for compatibility; ignored.
        pub fork: bool,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self {
                cases: 256,
                max_shrink_iters: 0,
                fork: false,
            }
        }
    }

    /// A property-test failure (carried by `prop_assert!`'s early return).
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        pub fn fail(message: String) -> Self {
            Self { message }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Deterministic per-test random source.
    #[derive(Debug)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// Seed from the test's full path so every property gets its own
        /// stream, mixed with `PROPTEST_SEED` when set.
        pub fn for_test(test_path: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
            for b in test_path.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            if let Ok(s) = std::env::var("PROPTEST_SEED") {
                if let Ok(extra) = s.trim().parse::<u64>() {
                    h ^= extra.rotate_left(17);
                }
            }
            Self(StdRng::seed_from_u64(h))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use rand::Rng;
    use std::fmt::Debug;

    /// A recipe for generating random values (no shrinking).
    pub trait Strategy {
        type Value: Debug;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `Strategy::prop_map` adapter.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Weighted choice between boxed alternatives (`prop_oneof!` backing).
    pub struct Union<V: Debug> {
        arms: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
    }

    impl<V: Debug> Union<V> {
        pub fn new<S: Strategy<Value = V> + 'static>(weight: u32, strategy: S) -> Self {
            Self {
                arms: vec![(weight, Box::new(strategy))],
            }
        }

        #[allow(clippy::should_implement_trait)]
        pub fn or<S: Strategy<Value = V> + 'static>(mut self, weight: u32, strategy: S) -> Self {
            self.arms.push((weight, Box::new(strategy)));
            self
        }
    }

    impl<V: Debug> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof: all weights zero");
            let mut pick = rng.gen_range(0..total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized + Debug {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_std {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> Self {
                    rng.gen::<$t>()
                }
            }
        )*};
    }
    impl_arbitrary_std!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f32, f64);

    /// Strategy returned by [`any`].
    #[derive(Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The canonical strategy for `T` (uniform over the whole type).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;

    /// Length bounds for [`vec()`] (from `usize` or `Range`/`RangeInclusive`).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "collection::vec: empty size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with random length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Random-length vectors of `element`-generated values.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Run each contained `fn name(arg in strategy, ...) { body }` as a
/// property over `cases` random inputs. Optional leading
/// `#![proptest_config(expr)]` sets the config for every fn in the block.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for case in 0..cfg.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let formatted_inputs = || {
                    let mut s = ::std::string::String::new();
                    $(s.push_str(&format!(
                        "\n  {} = {:?}", stringify!($arg), $arg
                    ));)+
                    s
                };
                let inputs = formatted_inputs();
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(e) = outcome {
                    ::core::panic!(
                        "proptest {} failed at case {}/{}: {}\ninputs:{}",
                        stringify!($name), case + 1, cfg.cases, e, inputs,
                    );
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Weighted (`w => strategy`) or uniform choice among strategies with a
/// common `Value` type.
#[macro_export]
macro_rules! prop_oneof {
    ($w0:expr => $s0:expr $(, $w:expr => $s:expr)* $(,)?) => {
        $crate::strategy::Union::new($w0 as u32, $s0)$(.or($w as u32, $s))*
    };
    ($s0:expr $(, $s:expr)* $(,)?) => {
        $crate::strategy::Union::new(1u32, $s0)$(.or(1u32, $s))*
    };
}

/// Assert inside a `proptest!` body; failure aborts only the current case
/// with a message (mirrors the real macro's early-return contract).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__left, __right) = ($left, $right);
        $crate::prop_assert!(
            __left == __right,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
            __left, __right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__left, __right) = ($left, $right);
        $crate::prop_assert!(
            __left == __right,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}\n {}",
            __left, __right, format!($($fmt)+)
        );
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__left, __right) = ($left, $right);
        $crate::prop_assert!(
            __left != __right,
            "assertion failed: `left != right`\n  both: {:?}",
            __left
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__left, __right) = ($left, $right);
        $crate::prop_assert!(
            __left != __right,
            "assertion failed: `left != right`\n  both: {:?}\n {}",
            __left, format!($($fmt)+)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_per_test_stream() {
        use crate::strategy::Strategy;
        let s = crate::collection::vec(0u64..100, 3..8);
        let mut a = TestRng::for_test("x::y");
        let mut b = TestRng::for_test("x::y");
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    #[test]
    fn union_respects_weights_roughly() {
        use crate::strategy::Strategy;
        let s = prop_oneof![9 => Just(1u8), 1 => Just(2u8)];
        let mut rng = TestRng::for_test("weights");
        let ones = (0..1000).filter(|_| s.generate(&mut rng) == 1).count();
        assert!(ones > 800, "ones = {ones}");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_stay_in_bounds(x in 10u32..20, f in 0.0f64..=1.0) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn tuples_and_maps_compose(
            v in crate::collection::vec((0u8..4, any::<bool>()), 1..10),
            y in (0u64..5).prop_map(|n| n * 2),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert!(v.iter().all(|&(k, _)| k < 4));
            prop_assert_eq!(y % 2, 0);
        }
    }
}
