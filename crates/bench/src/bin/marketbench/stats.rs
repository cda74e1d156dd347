//! Order statistics for latency samples and per-repetition values.

/// The percentiles a tail may be reported at, highest first, in
/// per-mille (integers, so the sample-count rule has no rounding).
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];
/// A tail percentile needs at least this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// Fewest samples any tail percentile can be reported from.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// The highest per-mille of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it; `None` when even p75 does not (n < 40).
pub fn tail_per_mille(n: usize) -> Option<usize> {
    TAIL_LADDER
        .into_iter()
        .find(|pm| n * (1000 - pm) / 1000 >= MIN_BEYOND)
}

/// The `pm`/1000 quantile (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[u64], per_mille: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * per_mille).div_ceil(1000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list of per-repetition values (mean of the middle two
/// for an even count); 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median and tail of pooled latency samples, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// p50 in µs.
    pub p50_us: f64,
    /// The tail value in µs.
    pub tail_us: f64,
    /// Which percentile `tail_us` is.
    pub tail_percentile: f64,
    /// Samples pooled.
    pub samples: usize,
}

/// Summarise nanosecond samples (sorted in place). `None` when there are
/// too few samples for any tail percentile.
pub fn latency(samples_ns: &mut [u64]) -> Option<Latency> {
    let tail = tail_per_mille(samples_ns.len())?;
    samples_ns.sort_unstable();
    Some(Latency {
        p50_us: percentile(samples_ns, 500) as f64 / 1e3,
        tail_us: percentile(samples_ns, tail) as f64 / 1e3,
        tail_percentile: tail as f64 / 10.0,
        samples: samples_ns.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_per_mille(39), None);
        assert_eq!(tail_per_mille(40), Some(750));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(199), Some(900));
        assert_eq!(tail_per_mille(200), Some(950));
        assert_eq!(tail_per_mille(999), Some(950));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
        for n in (40..3000).chain([10_000, 10_001, 123_457]) {
            let p = tail_per_mille(n).unwrap();
            let sorted: Vec<u64> = (1..=n as u64).collect();
            let beyond = sorted
                .iter()
                .filter(|&&v| v > percentile(&sorted, p))
                .count();
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond} beyond");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(percentile(&v, 1000), 100);
        assert_eq!(percentile(&[7], 500), 7);
        assert_eq!(percentile(&[], 500), 0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
