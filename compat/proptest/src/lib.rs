//! Shim for the `proptest` API subset used in this workspace. The build
//! environment has no network access and an empty cargo registry, so
//! external crates are vendored as minimal API-compatible shims under
//! `compat/` (see the workspace README).
//!
//! Supported: the [`proptest!`] macro (with `#![proptest_config(..)]`),
//! numeric-range / tuple / `prop::collection::vec` / regex-literal
//! string strategies, [`strategy::Strategy::prop_map`], and the
//! `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//! `prop_assume!` macros. Unlike upstream there is **no shrinking**: a
//! failing case panics with the generated inputs' `Debug` rendering so
//! it can be reproduced by hand. Case generation is deterministic per
//! test function (seeded from the test's module path + name).

pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub mod bool {
    //! Boolean strategies (`proptest::bool` subset).

    /// Uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The canonical boolean strategy.
    pub const ANY: Any = Any;

    impl crate::strategy::Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut crate::test_runner::TestRng) -> bool {
            rand::Rng::gen::<bool>(rng)
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    pub mod prop {
        //! Mirrors the `prop::` module alias from upstream's prelude.
        pub use crate::collection;
    }
}

/// Bundle property tests: each `fn name(pat in strategy, ..) { body }`
/// becomes a `#[test]` that runs `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            config = $crate::test_runner::ProptestConfig::default(); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            let mut __rng = $crate::test_runner::rng_for(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let mut __accepted: u32 = 0;
            let mut __attempts: u32 = 0;
            while __accepted < __config.cases {
                __attempts += 1;
                if __attempts > __config.cases.saturating_mul(16).max(64) {
                    panic!(
                        "proptest {}: too many rejected cases ({} accepted of {} wanted)",
                        stringify!($name), __accepted, __config.cases
                    );
                }
                let __vals = ( $($crate::strategy::Strategy::generate(&($strat), &mut __rng),)+ );
                let __rendered = format!("{:#?}", __vals);
                let ( $($arg,)+ ) = __vals;
                let __outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match __outcome {
                    ::std::result::Result::Ok(()) => __accepted += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                        panic!(
                            "proptest {} failed at case {}: {}\ninputs: {}",
                            stringify!($name), __accepted, __msg, __rendered
                        );
                    }
                }
            }
        }
    )*};
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` == `{:?}`", __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l == *__r, $($fmt)+);
    }};
}

/// Fail the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?}` != `{:?}`", __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l != *__r, $($fmt)+);
    }};
}

/// Discard the current case (does not count toward `cases`).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).into(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_vecs(
            x in 1u64..100,
            v in prop::collection::vec(0.0f64..1.0, 2..8),
            s in "[a-z]{1,5}",
        ) {
            prop_assert!((1..100).contains(&x));
            prop_assert!(v.len() >= 2 && v.len() < 8);
            prop_assert!(v.iter().all(|f| (0.0..1.0).contains(f)));
            prop_assert!(!s.is_empty() && s.len() <= 5);
            prop_assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
        }

        #[test]
        fn prop_map_and_assume(n in 0u32..50) {
            prop_assume!(n % 2 == 0);
            let doubled = (0u32..10).prop_map(move |k| k + n);
            let mut rng = crate::test_runner::rng_for("inner");
            let v = Strategy::generate(&doubled, &mut rng);
            prop_assert!(v >= n && v < n + 10);
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n % 2, 1);
        }
    }

    #[test]
    #[should_panic(expected = "proptest always_fails failed")]
    fn failing_case_panics_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unused, reason = "checks that the macro forwards attributes to the fn")]
            fn always_fails(x in 0u8..10) {
                prop_assert!(x > 200, "x was {}", x);
            }
        }
        always_fails();
    }
}
