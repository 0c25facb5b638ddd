//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this workspace vendors
//! the slice of proptest it uses: the [`proptest!`] macro, `ProptestConfig`,
//! `prop_assert!`/`prop_assert_eq!`, `any::<T>()`, numeric-range and tuple
//! strategies, `collection::vec`, and a minimal `.{m,n}` string pattern.
//! Failing cases are reported with their case number but are **not shrunk**;
//! runs are seeded deterministically per test for reproducibility.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Per-test configuration (`cases` is the only knob this shim honors).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
    /// Accepted for source compatibility; unused.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// A value generator. Proptest's real `Strategy` also carries a shrinking
/// value tree; this shim only generates.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Generate one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
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

/// `&str` strategies are regex patterns in proptest. This shim understands
/// the one shape the workspace uses — `.{m,n}`: a string of `m..=n` chars
/// drawn from printable ASCII plus a few multibyte characters (to exercise
/// UTF-8 handling). Any other pattern falls back to 0..=32 of the same.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        let (lo, hi) = parse_repeat_bounds(self).unwrap_or((0, 32));
        let n = rng.random_range(lo..=hi);
        const EXTRA: [char; 6] = ['é', 'Σ', '‖', '×', '∞', '\t'];
        (0..n)
            .map(|_| {
                if rng.random_bool(0.9) {
                    rng.random_range(0x20u32..0x7f) as u8 as char
                } else {
                    EXTRA[rng.random_range(0..EXTRA.len())]
                }
            })
            .collect()
    }
}

fn parse_repeat_bounds(pattern: &str) -> Option<(usize, usize)> {
    let rest = pattern.strip_prefix(".{")?.strip_suffix('}')?;
    let (lo, hi) = rest.split_once(',')?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

/// `any::<T>()` — the canonical strategy for a type.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types with a canonical full-range generator.
pub trait Arbitrary {
    /// Generate an arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                use rand::RngCore;
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.random_bool(0.5)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// Strategy for `Vec<S::Value>` with length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = rng.random_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Error type test bodies may `return Err(...)` with (API compatibility;
/// this shim's `prop_assert!` panics instead of constructing one).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

/// Seed a deterministic RNG for a named test (FNV-1a over the name).
pub fn rng_for_test(name: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Assert inside a property (plain `assert!` — no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Define property tests: each case draws its arguments from the given
/// strategies and runs the body; a panic reports the failing case number.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::rng_for_test(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&$strategy, &mut rng);)+
                // Proptest runs bodies in a Result-returning closure so they
                // may `return Ok(())` to skip a case; mirror that here.
                let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> ::std::result::Result<(), $crate::TestCaseError> { $body Ok(()) },
                ));
                match result {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => panic!("proptest case {} of {} rejected: {}",
                        case + 1, stringify!($name), e.0),
                    Err(payload) => {
                        eprintln!(
                            "proptest case {}/{} of {} failed",
                            case + 1, config.cases, stringify!($name),
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
}

/// `use proptest::prelude::*` — the conventional import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, Arbitrary, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn vec_lengths_in_range(bytes in collection::vec(any::<u8>(), 3..7)) {
            prop_assert!(bytes.len() >= 3 && bytes.len() < 7);
        }

        #[test]
        fn tuples_and_ranges(pair in (0usize..5, 10u64..20), x in 0i64..3) {
            prop_assert!(pair.0 < 5);
            prop_assert!((10..20).contains(&pair.1));
            prop_assert!((0..3).contains(&x));
        }

        #[test]
        fn string_pattern_bounds(s in ".{0,20}") {
            prop_assert!(s.chars().count() <= 20);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a: Vec<u64> = {
            let mut rng = crate::rng_for_test("t");
            (0..10).map(|_| (0u64..100).generate(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = crate::rng_for_test("t");
            (0..10).map(|_| (0u64..100).generate(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
