//! Offline stand-in for the `proptest` crate.
//!
//! Implements the strategy combinators and macros this workspace's property
//! tests use, driven by a deterministic SplitMix64 generator seeded from the
//! test name — every run explores the same cases, so failures reproduce
//! exactly. There is no shrinking: a failing case panics with the case number
//! and the assertion message.

use std::rc::Rc;

// ---------------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------------

/// SplitMix64 — tiny, fast, and deterministic. Seeded per test from the test
/// name so runs are reproducible without any external state.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for a named test; the same name always yields the same stream.
    pub fn for_test(name: &str) -> Self {
        // FNV-1a over the test name, mixed with a fixed golden offset.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self {
            state: h ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // sizes property tests use.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------------
// Test-case plumbing
// ---------------------------------------------------------------------------

/// A failed (or rejected) property-test case.
#[derive(Debug)]
pub enum TestCaseError {
    /// Assertion failure with a message.
    Fail(String),
    /// Case rejected (e.g. a filter could not be satisfied).
    Reject(String),
}

impl TestCaseError {
    /// Build a failure from any message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Build a rejection from any message.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Runner configuration; only `cases` matters to this shim.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// How many random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 48 keeps the offline suite quick
        // while still exercising each property broadly.
        Self { cases: 48 }
    }
}

// ---------------------------------------------------------------------------
// Strategy trait + combinators
// ---------------------------------------------------------------------------

/// A generator of values of type `Self::Value` (the shim's `Strategy`).
pub trait Strategy {
    /// Type of value this strategy produces.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }

    /// Keep only values passing `f`, retrying generation as needed.
    fn prop_filter<R, F>(self, _whence: R, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { base: self, f }
    }

    /// Generate an intermediate value, then generate from a strategy built
    /// from it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { base: self, f }
    }

    /// Recursive strategies: `self` is the leaf; `recurse` builds a branch
    /// from a strategy for the nested level. `depth` bounds nesting;
    /// `_desired_size`/`_expected_branch` are accepted for API compatibility.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let leaf = self.boxed();
        let mut level = leaf.clone();
        for _ in 0..depth {
            let branch = recurse(level).boxed();
            // Each level is an even mix of stopping at a leaf or recursing,
            // which keeps expected tree size finite.
            level = Union::new(vec![leaf.clone(), branch]).boxed();
        }
        level
    }

    /// Type-erase into a cloneable boxed strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// Cloneable type-erased strategy.
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Mapping adapter (see [`Strategy::prop_map`]).
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, O, F> Strategy for Map<B, F>
where
    B: Strategy,
    F: Fn(B::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.generate(rng))
    }
}

/// Filtering adapter (see [`Strategy::prop_filter`]).
pub struct Filter<B, F> {
    base: B,
    f: F,
}

impl<B, F> Strategy for Filter<B, F>
where
    B: Strategy,
    F: Fn(&B::Value) -> bool,
{
    type Value = B::Value;
    fn generate(&self, rng: &mut TestRng) -> B::Value {
        for _ in 0..1000 {
            let v = self.base.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 consecutive candidates");
    }
}

/// Dependent-generation adapter (see [`Strategy::prop_flat_map`]).
pub struct FlatMap<B, F> {
    base: B,
    f: F,
}

impl<B, S2, F> Strategy for FlatMap<B, F>
where
    B: Strategy,
    S2: Strategy,
    F: Fn(B::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

/// Choice between alternatives (what `prop_oneof!` builds). Uniform unless
/// built with [`Union::new_weighted`].
pub struct Union<T> {
    /// The alternatives, each with a relative weight.
    pub arms: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Union<T> {
    /// Uniform union over the given alternatives.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        Self::new_weighted(arms.into_iter().map(|a| (1, a)).collect())
    }

    /// Union with per-arm relative weights (real proptest's
    /// `prop_oneof![w => strat, ..]` form).
    pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        assert!(
            arms.iter().any(|(w, _)| *w > 0),
            "prop_oneof! weights must not all be zero"
        );
        Self { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.arms.iter().map(|(w, _)| u64::from(*w)).sum();
        let mut pick = rng.below(total);
        for (w, arm) in &self.arms {
            let w = u64::from(*w);
            if pick < w {
                return arm.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weighted pick below total weight")
    }
}

/// Always produces a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies: any::<T>(), ranges, tuples, &str regexes
// ---------------------------------------------------------------------------

/// Types with a canonical full-range strategy (the shim's `Arbitrary`).
pub trait ArbitraryValue {
    /// Produce an arbitrary value of this type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// Full-range strategy for `T`.
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl ArbitraryValue for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f32::from_bits(rng.next_u32())
    }
}

impl ArbitraryValue for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.next_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}
impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (0 A);
    (0 A, 1 B);
    (0 A, 1 B, 2 C);
    (0 A, 1 B, 2 C, 3 D);
    (0 A, 1 B, 2 C, 3 D, 4 E);
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F);
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G);
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H);
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H, 8 I);
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H, 8 I, 9 J);
}

// --- &str regex-lite strategies --------------------------------------------

/// One atom of a pattern: a set of allowed chars plus a repetition count.
struct PatternAtom {
    /// Inclusive char ranges the atom draws from; empty means "printable".
    ranges: Vec<(char, char)>,
    /// `\PC` atom: any printable (non-control) char, incl. some non-ASCII.
    printable: bool,
    min: usize,
    max: usize,
}

fn parse_pattern(pat: &str) -> Vec<PatternAtom> {
    let mut atoms = Vec::new();
    let chars: Vec<char> = pat.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let mut atom = PatternAtom {
            ranges: Vec::new(),
            printable: false,
            min: 1,
            max: 1,
        };
        match chars[i] {
            '[' => {
                i += 1;
                while i < chars.len() && chars[i] != ']' {
                    let lo = chars[i];
                    if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                        atom.ranges.push((lo, chars[i + 2]));
                        i += 3;
                    } else {
                        atom.ranges.push((lo, lo));
                        i += 1;
                    }
                }
                assert!(i < chars.len(), "unterminated char class in {pat:?}");
                i += 1; // past ']'
            }
            '\\' => {
                assert!(
                    chars.get(i + 1) == Some(&'P') && chars.get(i + 2) == Some(&'C'),
                    "unsupported escape in pattern {pat:?}"
                );
                atom.printable = true;
                i += 3;
            }
            c => {
                atom.ranges.push((c, c));
                i += 1;
            }
        }
        if i < chars.len() && chars[i] == '{' {
            i += 1;
            let mut lo = 0usize;
            while chars[i].is_ascii_digit() {
                lo = lo * 10 + chars[i].to_digit(10).unwrap() as usize;
                i += 1;
            }
            let hi = if chars[i] == ',' {
                i += 1;
                let mut hi = 0usize;
                while chars[i].is_ascii_digit() {
                    hi = hi * 10 + chars[i].to_digit(10).unwrap() as usize;
                    i += 1;
                }
                hi
            } else {
                lo
            };
            assert_eq!(chars[i], '}', "malformed quantifier in {pat:?}");
            i += 1;
            atom.min = lo;
            atom.max = hi;
        }
        atoms.push(atom);
    }
    atoms
}

fn gen_printable(rng: &mut TestRng) -> char {
    // Mostly ASCII printable; occasionally multi-byte so UTF-8 length !=
    // char count gets exercised.
    match rng.below(10) {
        0 => {
            let tables: [(u32, u32); 3] = [(0x00C0, 0x00FF), (0x0391, 0x03C9), (0x4E00, 0x4E40)];
            let (lo, hi) = tables[rng.below(3) as usize];
            char::from_u32(lo + rng.below((hi - lo + 1) as u64) as u32).unwrap()
        }
        _ => (b' ' + rng.below(95) as u8) as char,
    }
}

impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for atom in parse_pattern(self) {
            let n = atom.min + rng.below((atom.max - atom.min + 1) as u64) as usize;
            for _ in 0..n {
                if atom.printable {
                    out.push(gen_printable(rng));
                } else {
                    // Weight ranges by size so e.g. [a-z0-9_] is uniform.
                    let total: u64 = atom
                        .ranges
                        .iter()
                        .map(|(l, h)| (*h as u64) - (*l as u64) + 1)
                        .sum();
                    let mut pick = rng.below(total);
                    for (l, h) in &atom.ranges {
                        let size = (*h as u64) - (*l as u64) + 1;
                        if pick < size {
                            out.push(char::from_u32(*l as u32 + pick as u32).unwrap());
                            break;
                        }
                        pick -= size;
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Collections and samples
// ---------------------------------------------------------------------------

/// Element-count specification for [`collection::vec`].
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { min: n, max: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        Self {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};

    /// Strategy for `Vec`s whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.min + rng.below((self.size.max - self.size.min + 1) as u64) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling helpers (`prop::sample`).
pub mod sample {
    use super::{ArbitraryValue, TestRng};

    /// An abstract index resolved against a concrete length at use time.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Resolve against a collection of length `len` (must be non-zero).
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl ArbitraryValue for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }

    /// Uniform choice from a fixed list of values (real proptest's
    /// `sample::select`).
    pub fn select<T: Clone + std::fmt::Debug>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select from empty list");
        Select(values)
    }

    /// See [`select`].
    pub struct Select<T>(Vec<T>);

    impl<T: Clone + std::fmt::Debug> super::Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }
}

/// `Option` strategies (real proptest's `option` module).
pub mod option {
    use super::{Strategy, TestRng};

    /// `None` about a quarter of the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    /// See [`of`].
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Define property tests: `proptest! { #[test] fn name(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$attr:meta])*
      fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::for_test(stringify!($name));
            for __case in 0..__cfg.cases {
                $( let $arg = $crate::Strategy::generate(&($strat), &mut __rng); )+
                let __result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match __result {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "property `{}` failed at case {}/{}: {}",
                            stringify!($name), __case + 1, __cfg.cases, msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

/// Assert inside a property; failure reports the case instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__pa_l, __pa_r) = (&$left, &$right);
        if !(*__pa_l == *__pa_r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({:?} vs {:?})",
                stringify!($left), stringify!($right), __pa_l, __pa_r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__pa_l, __pa_r) = (&$left, &$right);
        if !(*__pa_l == *__pa_r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{} ({:?} vs {:?})", format!($($fmt)+), __pa_l, __pa_r
            )));
        }
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![ $( ($weight as u32, $crate::Strategy::boxed($strat)) ),+ ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( $crate::Strategy::boxed($strat) ),+ ])
    };
}

/// Everything the tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, ArbitraryValue, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };

    /// Namespaced re-exports matching real proptest's `prop::` path.
    pub mod prop {
        pub use crate::{collection, option, sample};
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u8..=9, y in -5i64..5, f in 0.5f64..2.0) {
            prop_assert!((3..=9).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.5..2.0).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_size(v in crate::collection::vec(0usize..10, 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn regex_classes_match(s in "[a-z][a-z0-9_]{0,15}") {
            prop_assert!(!s.is_empty() && s.len() <= 16);
            prop_assert!(s.chars().next().unwrap().is_ascii_lowercase());
            prop_assert!(s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }

        #[test]
        fn printable_has_no_controls(s in "\\PC{0,40}") {
            prop_assert!(s.chars().all(|c| !c.is_control()));
        }

        #[test]
        fn oneof_and_filter(v in prop_oneof![Just(1u32), 10u32..20]
            .prop_filter("nonzero", |x| *x != 0))
        {
            prop_assert!(v == 1 || (10..20).contains(&v));
        }

        #[test]
        fn sample_index_in_range(pos in any::<prop::sample::Index>()) {
            prop_assert!(pos.index(7) < 7);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Clone, Debug)]
        #[allow(dead_code)]
        enum Tree {
            Leaf(i64),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(l, r) => 1 + depth(l).max(depth(r)),
            }
        }
        let strat = (1i64..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 24, 2, |inner| {
                (inner.clone(), inner).prop_map(|(l, r)| Tree::Node(Box::new(l), Box::new(r)))
            });
        let mut rng = TestRng::for_test("recursive");
        for _ in 0..64 {
            let t = strat.generate(&mut rng);
            assert!(depth(&t) <= 4, "tree too deep: {t:?}");
        }
    }
}
