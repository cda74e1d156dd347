//! Property tests for sketches and the metadata engine: estimator error
//! bounds and lifecycle invariants over random inputs.

use std::collections::HashSet;

use proptest::prelude::*;

use dmp_discovery::sketch::{HyperLogLog, MinHash};
use dmp_discovery::MetadataEngine;
use dmp_relation::builder::keyed_rel;

fn true_jaccard(a: &HashSet<u64>, b: &HashSet<u64>) -> f64 {
    let inter = a.intersection(b).count() as f64;
    let union = a.union(b).count() as f64;
    if union == 0.0 {
        0.0
    } else {
        inter / union
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MinHash Jaccard estimate stays within ±0.2 of truth at width 256
    /// for sets of ≥ 50 elements (3σ ≈ 3·√(J(1−J)/256) ≤ 0.1; we allow
    /// slack for small sets).
    #[test]
    fn minhash_estimate_tracks_true_jaccard(
        xs in prop::collection::hash_set(0u64..500, 50..200),
        ys in prop::collection::hash_set(0u64..500, 50..200),
    ) {
        let ma = MinHash::from_items(256, xs.iter().copied());
        let mb = MinHash::from_items(256, ys.iter().copied());
        let est = ma.estimate_jaccard(&mb);
        let truth = true_jaccard(&xs, &ys);
        prop_assert!((est - truth).abs() < 0.2, "est {est} vs truth {truth}");
    }

    /// MinHash is order- and duplicate-insensitive (set semantics).
    #[test]
    fn minhash_is_set_semantics(mut xs in prop::collection::vec(0u64..100, 1..50)) {
        let a = MinHash::from_items(64, xs.iter().copied());
        xs.reverse();
        let doubled: Vec<u64> = xs.iter().chain(xs.iter()).copied().collect();
        let b = MinHash::from_items(64, doubled);
        prop_assert!((a.estimate_jaccard(&b) - 1.0).abs() < 1e-9);
    }

    /// HLL relative error stays under 10 % for cardinalities 100..5000.
    #[test]
    fn hll_relative_error_bounded(n in 100usize..5000) {
        let mut hll = HyperLogLog::default_precision();
        for i in 0..n as u64 {
            hll.insert(&i);
        }
        let est = hll.estimate();
        let rel_err = (est - n as f64).abs() / n as f64;
        prop_assert!(rel_err < 0.10, "n={n} est={est} err={rel_err}");
    }

    /// HLL merge equals inserting the union.
    #[test]
    fn hll_merge_is_union(
        xs in prop::collection::hash_set(0u64..2000, 1..500),
        ys in prop::collection::hash_set(0u64..2000, 1..500),
    ) {
        let mut a = HyperLogLog::new(12);
        let mut b = HyperLogLog::new(12);
        let mut u = HyperLogLog::new(12);
        for x in &xs { a.insert(x); u.insert(x); }
        for y in &ys { b.insert(y); u.insert(y); }
        a.merge(&b);
        prop_assert!((a.estimate() - u.estimate()).abs() < 1e-9);
    }

    /// The metadata engine's versions are monotone and snapshots align.
    #[test]
    fn metadata_versions_monotone(updates in prop::collection::vec(0i64..50, 1..8)) {
        let eng = MetadataEngine::new();
        let id = eng.register("t", "owner", keyed_rel("t", &[(0, "seed")]));
        let mut last_version = 1;
        for (i, u) in updates.iter().enumerate() {
            let rows: Vec<(i64, &str)> = (0..=*u).map(|k| (k + i as i64 * 100, "v")).collect();
            let v = eng.update(id, keyed_rel("t", &rows)).unwrap();
            prop_assert!(v >= last_version);
            last_version = v;
        }
        let entry = eng.get(id).unwrap();
        prop_assert_eq!(entry.version, last_version);
        prop_assert_eq!(entry.snapshots.len() as u32, last_version);
        // snapshot times strictly increase
        for w in entry.snapshots.windows(2) {
            prop_assert!(w[0].at < w[1].at);
        }
    }
}
