//! Property tests for revenue allocation: the Shapley axioms and
//! conservation laws over random coalitional games and random mashups.

use proptest::prelude::*;
use rand::SeedableRng;

use dmp_relation::ops::JoinKind;
use dmp_relation::{DataType, DatasetId, RelationBuilder, Value};
use dmp_valuation::banzhaf::{exact_banzhaf, leave_one_out, normalize_to};
use dmp_valuation::shapley::{exact_shapley, monte_carlo_shapley, CharacteristicFn};
use dmp_valuation::sharing::{share_revenue, total_shared, SharingRule};
use dmp_valuation::RowAllocation;

/// A random monotone game over n players from random per-subset bonuses.
fn random_monotone_game(n: usize, seed: Vec<f64>) -> CharacteristicFn {
    CharacteristicFn::new(n, move |mask| {
        // monotone: sum of per-player weights + pairwise synergies
        let mut v = 0.0;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                v += seed[i % seed.len()].abs();
                for j in (i + 1)..n {
                    if mask & (1 << j) != 0 {
                        v += 0.1 * seed[(i * n + j) % seed.len()].abs();
                    }
                }
            }
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Efficiency: Σφ = v(N) − v(∅) for any game.
    #[test]
    fn shapley_efficiency(n in 1usize..8, seed in prop::collection::vec(0.1f64..5.0, 4..10)) {
        let game = random_monotone_game(n, seed);
        let phi = exact_shapley(&game);
        let total: f64 = phi.iter().sum();
        prop_assert!((total - (game.grand_value() - game.value(0))).abs() < 1e-6);
    }

    /// Monotone games give non-negative Shapley values; Banzhaf too.
    #[test]
    fn monotone_games_nonnegative_values(n in 1usize..7, seed in prop::collection::vec(0.1f64..5.0, 4..10)) {
        let game = random_monotone_game(n, seed);
        for phi in exact_shapley(&game) {
            prop_assert!(phi >= -1e-9);
        }
        for beta in exact_banzhaf(&game) {
            prop_assert!(beta >= -1e-9);
        }
    }

    /// Monte-Carlo preserves efficiency exactly (telescoping sums).
    #[test]
    fn monte_carlo_efficiency_exact(n in 2usize..7, perms in 1usize..50, rng_seed in 0u64..500) {
        let game = random_monotone_game(n, vec![1.0, 2.0, 0.5]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
        let mc = monte_carlo_shapley(&game, perms, &mut rng);
        let total: f64 = mc.iter().sum();
        prop_assert!((total - (game.grand_value() - game.value(0))).abs() < 1e-6);
    }

    /// Additive games: Shapley = LOO = the weights themselves.
    #[test]
    fn additive_game_all_methods_agree(weights in prop::collection::vec(0.0f64..10.0, 1..8)) {
        let w = weights.clone();
        let n = w.len();
        let game = CharacteristicFn::new(n, move |mask| {
            w.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, x)| x).sum()
        });
        let phi = exact_shapley(&game);
        let loo = leave_one_out(&game);
        for i in 0..n {
            prop_assert!((phi[i] - weights[i]).abs() < 1e-6);
            prop_assert!((loo[i] - weights[i]).abs() < 1e-6);
        }
    }

    /// normalize_to is budget-balanced for any input.
    #[test]
    fn normalization_budget_balanced(alloc in prop::collection::vec(-5.0f64..10.0, 1..10), total in 0.0f64..100.0) {
        let n = normalize_to(&alloc, total);
        let sum: f64 = n.iter().sum();
        prop_assert!((sum - total).abs() < 1e-6);
        for x in n {
            prop_assert!(x >= -1e-12);
        }
    }

    /// Provenance revenue sharing conserves the price for any join shape
    /// and any row weights.
    #[test]
    fn sharing_conserves_price(
        keys_l in prop::collection::vec(0i64..10, 1..20),
        keys_r in prop::collection::vec(0i64..10, 1..20),
        price in 0.1f64..500.0,
    ) {
        let mut lb = RelationBuilder::new("l").column("k", DataType::Int);
        for k in &keys_l {
            lb = lb.row(vec![Value::Int(*k)]);
        }
        let l = lb.source(DatasetId(1)).build().unwrap();
        let mut rb = RelationBuilder::new("r").column("k", DataType::Int);
        for k in &keys_r {
            rb = rb.row(vec![Value::Int(*k)]);
        }
        let r = rb.source(DatasetId(2)).build().unwrap();
        let m = l.join(&r, &[("k", "k")], JoinKind::Inner).unwrap();
        prop_assume!(!m.is_empty());
        for rule in [SharingRule::ProportionalToAtoms, SharingRule::EqualPerDataset] {
            let rows = RowAllocation::by_provenance_size(&m, price);
            let shares = share_revenue(&m, &rows, rule);
            prop_assert!((total_shared(&shares) - price).abs() < 1e-6);
        }
    }
}
