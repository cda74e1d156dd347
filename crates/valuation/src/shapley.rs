//! Shapley-value revenue allocation (§3.2.3, [84, 44]).
//!
//! The characteristic function `v(S)` gives the value a coalition of
//! datasets/rows would generate together (e.g. the WTP price achieved by
//! the mashup built from exactly those inputs). The Shapley value
//! distributes `v(N)` according to average marginal contributions over
//! all orderings — the unique allocation satisfying efficiency, symmetry,
//! dummy and additivity.
//!
//! Exact computation enumerates `2^n` coalitions (feasible to n ≈ 22);
//! above that, permutation-sampling Monte Carlo gives an unbiased
//! estimate with error `O(1/√samples)` — the cost/accuracy trade-off the
//! paper calls out and experiment E4 measures.

use rand::seq::SliceRandom;
use rand::Rng;

/// A coalitional game over players `0..n`, with coalitions encoded as
/// bitmasks for cheap enumeration.
pub struct CharacteristicFn {
    n: usize,
    f: Box<dyn Fn(u64) -> f64 + Send + Sync>,
}

impl CharacteristicFn {
    /// Maximum players for exact enumeration.
    pub const EXACT_LIMIT: usize = 22;

    /// Wrap a closure `v(mask)`.
    pub fn new(n: usize, f: impl Fn(u64) -> f64 + Send + Sync + 'static) -> Self {
        assert!(n <= 63, "bitmask games support at most 63 players");
        CharacteristicFn { n, f: Box::new(f) }
    }

    /// Number of players.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Value of a coalition.
    pub fn value(&self, mask: u64) -> f64 {
        (self.f)(mask)
    }

    /// Value of the grand coalition.
    pub fn grand_value(&self) -> f64 {
        self.value(((1u128 << self.n) - 1) as u64)
    }
}

/// Exact Shapley values by full subset enumeration. Memoizes all `2^n`
/// coalition values first, then accumulates weighted marginals.
/// Panics if `n > EXACT_LIMIT` (use the Monte-Carlo estimators instead).
pub fn exact_shapley(game: &CharacteristicFn) -> Vec<f64> {
    let n = game.n();
    assert!(
        n <= CharacteristicFn::EXACT_LIMIT,
        "exact Shapley limited to {} players",
        CharacteristicFn::EXACT_LIMIT
    );
    if n == 0 {
        return Vec::new();
    }
    let size = 1usize << n;
    // Memoize v over all masks (one pass).
    let mut v = vec![0.0f64; size];
    for (mask, slot) in v.iter_mut().enumerate() {
        *slot = game.value(mask as u64);
    }

    // w[s] = s!(n-s-1)!/n! computed in log-space for stability.
    let ln_fact: Vec<f64> = {
        let mut lf = vec![0.0f64; n + 1];
        for i in 1..=n {
            lf[i] = lf[i - 1] + (i as f64).ln();
        }
        lf
    };
    let weight = |s: usize| -> f64 { (ln_fact[s] + ln_fact[n - s - 1] - ln_fact[n]).exp() };
    let weights: Vec<f64> = (0..n).map(weight).collect();

    let mut phi = vec![0.0f64; n];
    for mask in 0..size {
        let s = (mask as u64).count_ones() as usize;
        for (i, p) in phi.iter_mut().enumerate() {
            if mask & (1 << i) == 0 {
                let with = mask | (1 << i);
                *p += weights[s] * (v[with] - v[mask]);
            }
        }
    }
    phi
}

/// Unbiased Monte-Carlo Shapley via random permutations: sample orderings,
/// average each player's marginal contribution.
pub fn monte_carlo_shapley(
    game: &CharacteristicFn,
    permutations: usize,
    rng: &mut impl Rng,
) -> Vec<f64> {
    let n = game.n();
    if n == 0 || permutations == 0 {
        return vec![0.0; n];
    }
    let mut phi = vec![0.0f64; n];
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..permutations {
        order.shuffle(rng);
        let mut mask = 0u64;
        let mut prev = game.value(0);
        for &i in &order {
            mask |= 1 << i;
            let cur = game.value(mask);
            phi[i] += cur - prev;
            prev = cur;
        }
    }
    for p in &mut phi {
        *p /= permutations as f64;
    }
    phi
}

/// Max absolute error between two allocations (for E4's error-vs-samples
/// sweeps).
pub fn max_abs_error(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Additive game: v(S) = Σ_{i∈S} w_i. Shapley = w exactly.
    fn additive(weights: Vec<f64>) -> CharacteristicFn {
        let n = weights.len();
        CharacteristicFn::new(n, move |mask| {
            weights
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, w)| w)
                .sum()
        })
    }

    /// Glove game: players {0} hold left gloves, {1,2} right gloves;
    /// v(S) = #matched pairs. Known Shapley: (2/3, 1/6, 1/6).
    fn glove() -> CharacteristicFn {
        CharacteristicFn::new(3, |mask| {
            let left = (mask & 1 != 0) as u32;
            let right = (mask >> 1).count_ones();
            left.min(right) as f64
        })
    }

    #[test]
    fn exact_on_additive_game_returns_weights() {
        let phi = exact_shapley(&additive(vec![3.0, 1.0, 2.0]));
        assert!((phi[0] - 3.0).abs() < 1e-9);
        assert!((phi[1] - 1.0).abs() < 1e-9);
        assert!((phi[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn exact_on_glove_game_matches_theory() {
        let phi = exact_shapley(&glove());
        assert!((phi[0] - 2.0 / 3.0).abs() < 1e-9, "{phi:?}");
        assert!((phi[1] - 1.0 / 6.0).abs() < 1e-9);
        assert!((phi[2] - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_axiom_holds() {
        let game = CharacteristicFn::new(6, |mask| {
            // superadditive-ish synthetic game
            let s = mask.count_ones() as f64;
            s * s + if mask & 1 != 0 { 3.0 } else { 0.0 }
        });
        let phi = exact_shapley(&game);
        let total: f64 = phi.iter().sum();
        assert!((total - (game.grand_value() - game.value(0))).abs() < 1e-6);
    }

    #[test]
    fn symmetry_axiom_holds() {
        let phi = exact_shapley(&glove());
        assert!((phi[1] - phi[2]).abs() < 1e-12, "symmetric players equal");
    }

    #[test]
    fn dummy_player_gets_zero() {
        // player 2 contributes nothing
        let game = CharacteristicFn::new(3, |mask| ((mask & 0b011).count_ones()) as f64);
        let phi = exact_shapley(&game);
        assert!(phi[2].abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_converges_to_exact() {
        let game = glove();
        let exact = exact_shapley(&game);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mc = monte_carlo_shapley(&game, 20_000, &mut rng);
        assert!(max_abs_error(&exact, &mc) < 0.02, "mc {mc:?} vs {exact:?}");
    }

    #[test]
    fn monte_carlo_error_shrinks_with_samples() {
        let game = glove();
        let exact = exact_shapley(&game);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let coarse = monte_carlo_shapley(&game, 50, &mut rng);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let fine = monte_carlo_shapley(&game, 50_000, &mut rng);
        assert!(max_abs_error(&exact, &fine) <= max_abs_error(&exact, &coarse));
    }

    #[test]
    fn monte_carlo_preserves_efficiency_exactly() {
        // Permutation sampling telescopes: every sampled permutation
        // contributes exactly v(N) - v(∅), so the sum is exact.
        let game = glove();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mc = monte_carlo_shapley(&game, 13, &mut rng);
        let total: f64 = mc.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_player_game() {
        let game = CharacteristicFn::new(0, |_| 0.0);
        assert!(exact_shapley(&game).is_empty());
    }

    #[test]
    #[should_panic(expected = "exact Shapley limited")]
    fn exact_rejects_large_games() {
        let game = CharacteristicFn::new(30, |_| 0.0);
        let _ = exact_shapley(&game);
    }
}
