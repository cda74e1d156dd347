#![deny(clippy::indexing_slicing)]

pub struct Shard {
    pub id: u8,
}

pub fn frame_parts(bytes: &[u8], shards: &[Shard], home: usize) -> u8 {
    let first = bytes[0];
    let window = &bytes[4..8];
    let shard = &shards[home];
    first ^ window[0] ^ shard.id
}

/// Another class's rule: silent here.
pub fn ratio(a: u32, b: u32) -> f64 {
    f64::from(a) / f64::from(b)
}
