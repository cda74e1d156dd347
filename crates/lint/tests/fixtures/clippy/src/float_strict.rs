#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

pub fn payout(balance: i64, share: i64) -> f64 {
    let fraction = share as f64 / balance as f64;
    fraction * 0.95
}

/// Another class's rule: silent here.
pub fn elapsed_us() -> u128 {
    std::time::Instant::now().elapsed().as_micros()
}
