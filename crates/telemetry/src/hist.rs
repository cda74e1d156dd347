//! Log-bucketed latency histograms (HDR-style).
//!
//! Values (typically microseconds) land in one of [`BUCKET_COUNT`]
//! buckets: the first two groups are exact (one bucket per value for
//! `0..32`), and every later power-of-two range is split into
//! [`SUB_COUNT`] linear sub-buckets, so a bucket's upper bound (what a
//! quantile read off the exposition reports) overstates any value in it
//! by at most `1/SUB_COUNT` (6.25%) across the entire `u64` range.
//!
//! [`Histogram::record`] is lock-free — one `fetch_add` on the bucket,
//! plus `fetch_add`/`fetch_min`/`fetch_max` for the sum/min/max — and
//! safe to call from any number of threads. [`Histogram::snapshot`]
//! copies the counters without stopping writers (a snapshot taken mid
//! record may be off by the records in flight; monitoring, not
//! accounting).

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket precision: each power-of-two range splits into
/// `2^SUB_BITS` linear buckets.
pub const SUB_BITS: u32 = 4;
/// Sub-buckets per power-of-two group.
pub const SUB_COUNT: usize = 1 << SUB_BITS;
/// Power-of-two groups past the exact range (`msb` in `SUB_BITS..64`).
const GROUPS: usize = 64 - SUB_BITS as usize;
/// Total buckets.
pub const BUCKET_COUNT: usize = SUB_COUNT + GROUPS * SUB_COUNT;

/// The bucket a value lands in.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let group = (msb - SUB_BITS + 1) as usize;
    let offset = ((v >> (msb - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
    group * SUB_COUNT + offset
}

/// Inclusive upper bound of bucket `i` (strictly monotone in `i`; the
/// last bucket absorbs everything up to `u64::MAX`).
pub fn bucket_bound(i: usize) -> u64 {
    assert!(i < BUCKET_COUNT, "bucket index out of range");
    if i < 2 * SUB_COUNT {
        return i as u64; // exact range: one value per bucket
    }
    if i == BUCKET_COUNT - 1 {
        return u64::MAX;
    }
    let group = i / SUB_COUNT;
    let offset = (i % SUB_COUNT) as u64;
    let shift = group as u32 - 1; // msb - SUB_BITS for this group
    ((SUB_COUNT as u64 + offset + 1) << shift) - 1
}

/// A concurrent log-bucketed histogram.
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Lock-free: four relaxed atomic RMWs.
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in whole microseconds (the convention every
    /// `*_us` histogram in the platform uses).
    pub fn record_duration_us(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Copy the current counters into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts ([`BUCKET_COUNT`] entries).
    pub counts: Vec<u64>,
    /// Sum of every recorded value.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with nothing recorded.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: vec![0; BUCKET_COUNT],
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Total records.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bound(v as usize), v);
        }
    }

    #[test]
    fn bounds_are_strictly_monotone() {
        for i in 1..BUCKET_COUNT {
            assert!(
                bucket_bound(i) > bucket_bound(i - 1),
                "bound({i}) = {} !> bound({}) = {}",
                bucket_bound(i),
                i - 1,
                bucket_bound(i - 1)
            );
        }
    }

    #[test]
    fn every_value_lands_at_or_below_its_bound() {
        for v in [
            0u64,
            1,
            15,
            16,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            65_535,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(v <= bucket_bound(i), "v={v} above bound of its bucket {i}");
            if i > 0 {
                assert!(v > bucket_bound(i - 1), "v={v} also fits bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // The bucket bound overestimates a value by at most 1/SUB_COUNT.
        for v in [100u64, 999, 12_345, 1 << 25, (1 << 50) + 7] {
            let bound = bucket_bound(bucket_index(v));
            assert!((bound - v) as f64 / v as f64 <= 1.0 / SUB_COUNT as f64 + 1e-12);
        }
    }

    #[test]
    fn record_tracks_count_sum_and_extrema() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 80_000);
    }
}
