//! The real rand crate's entropy draws, by the same paths, and no
//! randomness at all.

pub fn thread_rng() -> u64 {
    0
}

pub fn random() -> u64 {
    0
}

pub trait SeedableRng {
    fn from_entropy() -> u64 {
        0
    }
}

pub struct StdRng;

impl SeedableRng for StdRng {}
