//! Content sketches: MinHash signatures and HyperLogLog counters.
//!
//! The metadata engine computes "signatures of its contents" per data item
//! (§5.1), and the index builder "identifies candidate functions to map
//! attributes to each other" using those signatures (§5.2). MinHash gives
//! an unbiased estimate of Jaccard similarity between column value-sets —
//! and, combined with distinct-count estimates, of *containment*, the
//! right score for join-candidate detection (a key column contains the
//! foreign column's values).

use std::hash::{Hash, Hasher};

/// Multiply-shift style 64-bit mixer (splitmix64 finalizer). Deterministic
/// across runs and platforms, which keeps indexes reproducible.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash any `Hash` value to a stable u64 using a seeded FNV-1a basis.
fn hash_value<T: Hash>(v: &T, seed: u64) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325 ^ mix64(seed));
    v.hash(&mut h);
    mix64(h.finish())
}

/// A MinHash signature with `K` 64-bit components.
///
/// Uses the standard one-hash + K permutations construction: each
/// permutation is `mix64(h ^ seed_i)`, and the signature stores the
/// minimum per permutation. `estimate_jaccard` is the fraction of matching
/// components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHash {
    mins: Vec<u64>,
    /// Number of items inserted (for containment estimation).
    items: u64,
}

impl MinHash {
    /// Default signature width used across the platform.
    pub const DEFAULT_K: usize = 64;

    /// Create an empty signature with `k` components.
    pub fn new(k: usize) -> Self {
        MinHash {
            mins: vec![u64::MAX; k.max(1)],
            items: 0,
        }
    }

    /// Create with the platform default width.
    pub fn default_width() -> Self {
        Self::new(Self::DEFAULT_K)
    }

    /// Insert one item.
    pub fn insert<T: Hash>(&mut self, item: &T) {
        let base = hash_value(item, 0);
        for (i, m) in self.mins.iter_mut().enumerate() {
            let h = mix64(base ^ (i as u64).wrapping_mul(0xa076_1d64_78bd_642f));
            if h < *m {
                *m = h;
            }
        }
        self.items += 1;
    }

    /// Build from an iterator of items.
    pub fn from_items<T: Hash>(k: usize, items: impl IntoIterator<Item = T>) -> Self {
        let mut mh = MinHash::new(k);
        for it in items {
            mh.insert(&it);
        }
        mh
    }

    /// Signature width.
    pub fn k(&self) -> usize {
        self.mins.len()
    }

    /// True iff nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Unbiased Jaccard similarity estimate between two signatures of the
    /// same width. Returns 0 for width mismatches or empty signatures.
    pub fn estimate_jaccard(&self, other: &MinHash) -> f64 {
        if self.k() != other.k() || self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let matches = self
            .mins
            .iter()
            .zip(&other.mins)
            .filter(|(a, b)| a == b)
            .count();
        matches as f64 / self.k() as f64
    }

    /// Containment estimate `|A ∩ B| / |A|` given distinct-count estimates
    /// `na = |A|`, `nb = |B|`, derived from the Jaccard estimate via
    /// `|A∩B| = J·(na+nb)/(1+J)`.
    pub fn estimate_containment(&self, other: &MinHash, na: f64, nb: f64) -> f64 {
        if na <= 0.0 {
            return 0.0;
        }
        let j = self.estimate_jaccard(other);
        let inter = j * (na + nb) / (1.0 + j);
        (inter / na).clamp(0.0, 1.0)
    }
}

/// HyperLogLog distinct-count estimator with 2^p registers.
///
/// Standard HLL with the small-range (linear counting) correction; p=12
/// (4096 registers, ~1.6 % relative error) is the platform default.
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    registers: Vec<u8>,
    p: u8,
}

impl HyperLogLog {
    /// Platform default precision.
    pub const DEFAULT_P: u8 = 12;

    /// Create with `p` index bits (4 ≤ p ≤ 18).
    pub fn new(p: u8) -> Self {
        let p = p.clamp(4, 18);
        HyperLogLog {
            registers: vec![0; 1 << p],
            p,
        }
    }

    /// Create with the platform default precision.
    pub fn default_precision() -> Self {
        Self::new(Self::DEFAULT_P)
    }

    /// Insert one item.
    pub fn insert<T: Hash>(&mut self, item: &T) {
        let h = hash_value(item, 0x5bd1_e995);
        let idx = (h >> (64 - self.p)) as usize;
        let rest = h << self.p;
        // rank = leading zeros of the remaining bits + 1, capped.
        let rank = (rest.leading_zeros() as u8 + 1).min(64 - self.p + 1);
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimated number of distinct items inserted.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                // Linear counting for the small range.
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// Merge another sketch into this one (union semantics).
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.p, other.p, "HLL precision mismatch");
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            if *b > *a {
                *a = *b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minhash_identical_sets_estimate_one() {
        let a = MinHash::from_items(128, 0..1000);
        let b = MinHash::from_items(128, 0..1000);
        assert!((a.estimate_jaccard(&b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn minhash_disjoint_sets_estimate_near_zero() {
        let a = MinHash::from_items(128, 0..1000);
        let b = MinHash::from_items(128, 10_000..11_000);
        assert!(a.estimate_jaccard(&b) < 0.1);
    }

    #[test]
    fn minhash_estimates_half_overlap() {
        // |A∩B| = 500, |A∪B| = 1500 -> J = 1/3
        let a = MinHash::from_items(256, 0..1000);
        let b = MinHash::from_items(256, 500..1500);
        let j = a.estimate_jaccard(&b);
        assert!(
            (j - 1.0 / 3.0).abs() < 0.12,
            "estimate {j} too far from 1/3"
        );
    }

    #[test]
    fn minhash_containment_detects_subset() {
        // A ⊂ B: containment of A in B should be ~1.
        let a = MinHash::from_items(256, 0..200);
        let b = MinHash::from_items(256, 0..2000);
        let c = a.estimate_containment(&b, 200.0, 2000.0);
        assert!(c > 0.7, "containment {c} should be high for a subset");
    }

    #[test]
    fn minhash_width_mismatch_is_zero() {
        let a = MinHash::from_items(64, 0..10);
        let b = MinHash::from_items(32, 0..10);
        assert_eq!(a.estimate_jaccard(&b), 0.0);
    }

    #[test]
    fn minhash_empty_is_zero_similarity() {
        let a = MinHash::new(64);
        let b = MinHash::from_items(64, 0..10);
        assert_eq!(a.estimate_jaccard(&b), 0.0);
    }

    #[test]
    fn hll_accuracy_within_five_percent_at_10k() {
        let mut hll = HyperLogLog::default_precision();
        for i in 0..10_000u64 {
            hll.insert(&i);
        }
        let est = hll.estimate();
        assert!(
            (est - 10_000.0).abs() / 10_000.0 < 0.05,
            "estimate {est} off by more than 5%"
        );
    }

    #[test]
    fn hll_small_range_is_exactish() {
        let mut hll = HyperLogLog::default_precision();
        for i in 0..50u64 {
            hll.insert(&i);
        }
        let est = hll.estimate();
        assert!((est - 50.0).abs() < 5.0, "small-range estimate {est}");
    }

    #[test]
    fn hll_duplicates_do_not_inflate() {
        let mut hll = HyperLogLog::default_precision();
        for _ in 0..100 {
            for i in 0..100u64 {
                hll.insert(&i);
            }
        }
        let est = hll.estimate();
        assert!((est - 100.0).abs() < 10.0);
    }

    #[test]
    fn hll_merge_is_union() {
        let mut a = HyperLogLog::new(10);
        let mut b = HyperLogLog::new(10);
        for i in 0..500u64 {
            a.insert(&i);
        }
        for i in 250..750u64 {
            b.insert(&i);
        }
        a.merge(&b);
        let est = a.estimate();
        assert!((est - 750.0).abs() / 750.0 < 0.1, "union estimate {est}");
    }

    #[test]
    fn deterministic_across_instances() {
        let a = MinHash::from_items(64, ["x", "y", "z"]);
        let b = MinHash::from_items(64, ["x", "y", "z"]);
        assert_eq!(a, b);
    }
}
