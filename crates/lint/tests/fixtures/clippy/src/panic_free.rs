#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub fn read_header(bytes: &[u8]) -> u32 {
    let arr: [u8; 4] = bytes
        .get(..4)
        .map(|s| s.try_into().unwrap())
        .expect("short buffer");
    u32::from_le_bytes(arr)
}

pub enum State {
    Held(u64),
    Closed,
    Poisoned,
    Pending,
    Disputed,
}

pub fn settle(state: State) -> u64 {
    match state {
        State::Held(p) => p,
        State::Closed => panic!("escrow already closed"),
        State::Poisoned => unreachable!(),
        State::Pending => todo!(),
        State::Disputed => unimplemented!(),
    }
}

/// Another class's rule: silent here.
pub fn last(xs: &[u64]) -> u64 {
    xs[xs.len() - 1]
}
