//! A minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment for this workspace has no access to crates.io,
//! so this crate provides the subset of the proptest API that the
//! workspace's property tests actually use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`Strategy`] with `prop_map` and `boxed`,
//! * range, tuple, `any::<T>()`, collection-`vec`, and string-pattern
//!   strategies,
//! * [`prop_oneof!`], [`prop_assert!`], [`prop_assert_eq!`].
//!
//! Semantics differ from real proptest in one deliberate way: failing
//! cases are *not* shrunk — the failing input is printed as-is. Case
//! generation is deterministic per test name, so failures reproduce.

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// The items property tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{any, Any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirror of proptest's `prelude::prop` module.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines property tests.
///
/// Each `fn name(arg in strategy, ...) { body }` item becomes a zero-arg
/// `#[test]` that generates `config.cases` random inputs and runs the
/// body against each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut runner =
                $crate::test_runner::TestRunner::new(&config, stringify!($name));
            for case in 0..runner.cases() {
                runner.begin_case(case);
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), runner.rng());
                )*
                $body
            }
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Picks uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
