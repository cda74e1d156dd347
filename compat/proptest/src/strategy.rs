//! The [`Strategy`] trait and core combinators (no shrinking).

use std::ops::{Range, RangeInclusive};

use rand::Rng;

use crate::test_runner::TestRng;

/// A generator of values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategies compose behind references too (the `proptest!` macro
/// generates through `&strategy`).
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! numeric_range_strategy {
    ($($t:ty),+ $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )+};
}

numeric_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// String literals are regex-subset strategies (see [`crate::string`]).
impl Strategy for str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        crate::string::generate_matching(self, rng)
    }
}

impl Strategy for bool {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.gen::<bool>()
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6, H/7)
}
