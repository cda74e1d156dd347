//! Collection strategies (`prop::collection` subset).

use std::ops::{Range, RangeInclusive};

use rand::Rng;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Inclusive length bounds for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty vec size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// A strategy generating `Vec`s of `element` with length in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.size.lo..=self.size.hi);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A strategy generating `HashSet`s with `size.into()` *attempted*
/// insertions (duplicates collapse, as in upstream proptest).
pub fn hash_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
where
    S::Value: std::hash::Hash + Eq,
{
    HashSetStrategy {
        element,
        size: size.into(),
    }
}

/// See [`hash_set`].
#[derive(Debug, Clone)]
pub struct HashSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for HashSetStrategy<S>
where
    S::Value: std::hash::Hash + Eq,
{
    type Value = std::collections::HashSet<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = rng.gen_range(self.size.lo..=self.size.hi);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A strategy generating `BTreeMap`s with `size.into()` *attempted*
/// insertions (duplicate keys collapse, as in upstream proptest).
pub fn btree_map<K: Strategy, V: Strategy>(
    key: K,
    value: V,
    size: impl Into<SizeRange>,
) -> BTreeMapStrategy<K, V>
where
    K::Value: Ord,
{
    BTreeMapStrategy {
        key,
        value,
        size: size.into(),
    }
}

/// See [`btree_map`].
#[derive(Debug, Clone)]
pub struct BTreeMapStrategy<K, V> {
    key: K,
    value: V,
    size: SizeRange,
}

impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
where
    K::Value: Ord,
{
    type Value = std::collections::BTreeMap<K::Value, V::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = rng.gen_range(self.size.lo..=self.size.hi);
        (0..len)
            .map(|_| (self.key.generate(rng), self.value.generate(rng)))
            .collect()
    }
}
