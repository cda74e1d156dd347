//! Banzhaf and leave-one-out values — the "computationally efficient
//! alternatives" direction of §3.2.3.

use rand::Rng;

use crate::shapley::CharacteristicFn;

/// Exact (raw) Banzhaf value: the average marginal contribution over all
/// coalitions of the other players, uniformly weighted (unlike Shapley's
/// size-dependent weights). Enumerates `2^(n-1)` coalitions per player.
pub fn exact_banzhaf(game: &CharacteristicFn) -> Vec<f64> {
    let n = game.n();
    assert!(
        n <= CharacteristicFn::EXACT_LIMIT,
        "exact Banzhaf limited to small games"
    );
    if n == 0 {
        return Vec::new();
    }
    let size = 1u64 << n;
    let mut beta = vec![0.0f64; n];
    let mut counts = vec![0u64; n];
    for mask in 0..size {
        for (i, (b, c)) in beta.iter_mut().zip(counts.iter_mut()).enumerate() {
            if mask & (1 << i) == 0 {
                *b += game.value(mask | (1 << i)) - game.value(mask);
                *c += 1;
            }
        }
    }
    for (b, c) in beta.iter_mut().zip(counts) {
        *b /= c as f64;
    }
    beta
}

/// Monte-Carlo Banzhaf: sample random coalitions (each other player
/// included with probability 1/2).
pub fn monte_carlo_banzhaf(
    game: &CharacteristicFn,
    samples: usize,
    rng: &mut impl Rng,
) -> Vec<f64> {
    let n = game.n();
    if n == 0 || samples == 0 {
        return vec![0.0; n];
    }
    let mut beta = vec![0.0f64; n];
    #[allow(
        clippy::needless_range_loop,
        reason = "i is both the slot of beta and the player bit in the sampled mask"
    )]
    for i in 0..n {
        for _ in 0..samples {
            let mut mask: u64 = rng.gen::<u64>() & (((1u128 << n) - 1) as u64);
            mask &= !(1 << i);
            beta[i] += game.value(mask | (1 << i)) - game.value(mask);
        }
        beta[i] /= samples as f64;
    }
    beta
}

/// Leave-one-out values: `v(N) − v(N∖{i})`. The cheapest marginal-
/// contribution notion (n+1 evaluations total); ignores sub-coalition
/// structure, so complementary datasets are under-credited — E4 contrasts
/// it against Shapley.
pub fn leave_one_out(game: &CharacteristicFn) -> Vec<f64> {
    let n = game.n();
    let grand = ((1u128 << n) - 1) as u64;
    let vn = game.value(grand);
    (0..n).map(|i| vn - game.value(grand & !(1 << i))).collect()
}

/// Normalize an allocation to sum to `total` (e.g. rescale leave-one-out
/// to be budget-balanced). All-zero allocations split uniformly.
pub fn normalize_to(alloc: &[f64], total: f64) -> Vec<f64> {
    let clamped: Vec<f64> = alloc.iter().map(|a| a.max(0.0)).collect();
    let sum: f64 = clamped.iter().sum();
    if sum <= 0.0 {
        let n = alloc.len().max(1);
        return vec![total / n as f64; alloc.len()];
    }
    clamped.iter().map(|a| a / sum * total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn glove() -> CharacteristicFn {
        CharacteristicFn::new(3, |mask| {
            let left = (mask & 1 != 0) as u32;
            let right = (mask >> 1).count_ones();
            left.min(right) as f64
        })
    }

    #[test]
    fn banzhaf_on_glove_game() {
        // Marginals of player 0 (left glove) over coalitions of {1,2}:
        // {}: 0, {1}: 1, {2}: 1, {1,2}: 1 -> 3/4.
        let beta = exact_banzhaf(&glove());
        assert!((beta[0] - 0.75).abs() < 1e-9);
        assert!((beta[1] - 0.25).abs() < 1e-9);
        assert!((beta[2] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn banzhaf_additive_equals_weights() {
        let game = CharacteristicFn::new(4, |mask| mask.count_ones() as f64 * 2.0);
        let beta = exact_banzhaf(&game);
        for b in beta {
            assert!((b - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn monte_carlo_banzhaf_converges() {
        let game = glove();
        let exact = exact_banzhaf(&game);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mc = monte_carlo_banzhaf(&game, 20_000, &mut rng);
        for (e, m) in exact.iter().zip(&mc) {
            assert!((e - m).abs() < 0.02, "{exact:?} vs {mc:?}");
        }
    }

    #[test]
    fn leave_one_out_undercounts_substitutes() {
        // Two identical datasets: each is individually redundant, so LOO
        // gives both zero — while Shapley splits the value evenly. This
        // is the credit-assignment failure E4 demonstrates.
        let game = CharacteristicFn::new(2, |mask| if mask != 0 { 10.0 } else { 0.0 });
        let loo = leave_one_out(&game);
        assert_eq!(loo, vec![0.0, 0.0]);
        let phi = crate::shapley::exact_shapley(&game);
        assert!((phi[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn normalize_rescales_to_total() {
        let n = normalize_to(&[1.0, 3.0], 100.0);
        assert!((n[0] - 25.0).abs() < 1e-9);
        assert!((n[1] - 75.0).abs() < 1e-9);
    }

    #[test]
    fn normalize_all_zero_splits_uniformly() {
        let n = normalize_to(&[0.0, 0.0, 0.0, 0.0], 8.0);
        assert_eq!(n, vec![2.0; 4]);
    }

    #[test]
    fn normalize_clamps_negatives() {
        let n = normalize_to(&[-5.0, 5.0], 10.0);
        assert_eq!(n, vec![0.0, 10.0]);
    }
}
