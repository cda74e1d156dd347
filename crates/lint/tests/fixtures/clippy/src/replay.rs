#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::HashMap;
use std::time::{Instant, SystemTime};

use rand::SeedableRng;

/// Iteration order of the map is per-process: replay sees a different
/// order than the run that wrote the WAL.
pub fn tally(xs: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut m: HashMap<u64, u64> = HashMap::new();
    for &(k, v) in xs {
        *m.entry(k).or_insert(0) += v;
    }
    m.into_iter().collect()
}

pub fn seen(xs: &[u64]) -> usize {
    xs.iter().collect::<std::collections::HashSet<_>>().len()
}

pub fn stamp() -> (Instant, SystemTime) {
    let mono = Instant::now();
    let wall = SystemTime::now();
    (mono, wall)
}

pub fn jitter() -> u64 {
    let ambient = rand::thread_rng();
    let implicit = rand::random();
    let seeded = rand::StdRng::from_entropy();
    ambient ^ implicit ^ seeded
}

/// Another class's rule: silent here.
pub fn first(xs: &[u64]) -> u64 {
    xs.first().copied().unwrap()
}
