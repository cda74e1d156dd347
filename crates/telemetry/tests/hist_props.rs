//! Property tests for the log-bucketed histogram: bucket geometry, and
//! a snapshot that accounts for every recorded value.

use dmp_telemetry::hist::{bucket_bound, bucket_index, BUCKET_COUNT, SUB_COUNT};
use dmp_telemetry::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// Mixed-magnitude values: uniform small ints, wide log-scale ints,
/// and the extremes.
fn arb_value() -> impl Strategy<Value = u64> {
    (0u32..4, 0u64..u64::MAX).prop_map(|(kind, raw)| match kind {
        0 => raw % 32,          // exact range
        1 => raw % 100_000,     // typical latency range
        2 => raw >> (raw % 60), // log-scale spread
        _ => [0, 1, u64::MAX - 1, u64::MAX][(raw % 4) as usize],
    })
}

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bounds_are_monotone_and_values_fit(v in arb_value()) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKET_COUNT);
        prop_assert!(v <= bucket_bound(i), "value above its bucket bound");
        if i > 0 {
            prop_assert!(v > bucket_bound(i - 1), "value also fits the previous bucket");
            prop_assert!(bucket_bound(i) > bucket_bound(i - 1), "bounds must be strictly monotone");
        }
        // Relative overestimate bounded by the sub-bucket resolution.
        if v > 0 && v < u64::MAX / 2 {
            let bound = bucket_bound(i);
            prop_assert!(
                (bound - v) as f64 <= v as f64 / SUB_COUNT as f64 + 1.0,
                "bucket bound {bound} too far above value {v}"
            );
        }
    }

    #[test]
    fn snapshot_counts_every_record(values in prop::collection::vec(arb_value(), 0..300)) {
        let s = snapshot_of(&values);
        prop_assert_eq!(s.count(), values.len() as u64);
        let mut counts = vec![0u64; BUCKET_COUNT];
        for &v in &values {
            counts[bucket_index(v)] += 1;
        }
        prop_assert_eq!(&s.counts, &counts);
        // The live sum wraps mod 2^64 (fetch_add).
        prop_assert_eq!(s.sum, values.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        prop_assert_eq!(s.min, values.iter().copied().min().unwrap_or(u64::MAX));
        prop_assert_eq!(s.max, values.iter().copied().max().unwrap_or(0));
    }
}
