//! The Revenue Allocation Engine (Fig. 2): "allocates wtpᵢ among the
//! sellers that contributed datasets used to build mᵢ and the arbiter."
//!
//! Combines the market design's component-4 choice (how much credit each
//! row/dataset deserves) with component 5 (propagating through
//! provenance). The Shapley option plays the *coverage game*: a
//! coalition of datasets is worth the fraction of mashup rows it can
//! fully derive — so redundant datasets split credit and pivotal ones
//! collect it, with Monte-Carlo sampling above the exact limit.

use rand::SeedableRng;

use dmp_mechanism::design::{MarketDesign, RevenueAllocationMethod, RevenueSharingMethod};
use dmp_relation::{DatasetId, Relation};
use dmp_valuation::banzhaf::{leave_one_out, normalize_to};
use dmp_valuation::shapley::{exact_shapley, monte_carlo_shapley, CharacteristicFn};
use dmp_valuation::sharing::{share_revenue, DatasetShare, SharingRule};
use dmp_valuation::RowAllocation;

/// Compute each contributing dataset's share of `price` for a sold
/// mashup, per the design's revenue allocation + sharing components.
/// The returned shares sum to `price` (budget balance); datasets absent
/// from provenance receive nothing.
pub fn dataset_shares(design: &MarketDesign, mashup: &Relation, price: f64) -> Vec<DatasetShare> {
    let datasets = mashup.full_provenance().datasets();
    if datasets.is_empty() || price <= 0.0 {
        return Vec::new();
    }

    match design.revenue_allocation {
        RevenueAllocationMethod::UniformPerRow => {
            let rows = RowAllocation::uniform(mashup, price);
            let rule = match design.revenue_sharing {
                RevenueSharingMethod::ByProvenance => SharingRule::ProportionalToAtoms,
                RevenueSharingMethod::EqualPerDataset => SharingRule::EqualPerDataset,
            };
            share_revenue(mashup, &rows, rule)
        }
        RevenueAllocationMethod::Shapley { samples } => {
            let weights = coverage_shapley(mashup, &datasets, samples);
            weights_to_shares(&datasets, &weights, price)
        }
        RevenueAllocationMethod::LeaveOneOut => {
            let game = coverage_game(mashup, &datasets);
            let weights = leave_one_out(&game);
            weights_to_shares(&datasets, &weights, price)
        }
    }
}

fn weights_to_shares(datasets: &[DatasetId], weights: &[f64], price: f64) -> Vec<DatasetShare> {
    let normalized = normalize_to(weights, price);
    datasets
        .iter()
        .zip(normalized)
        .map(|(&dataset, amount)| DatasetShare { dataset, amount })
        .collect()
}

/// The coverage game: `v(S)` = fraction of mashup rows whose provenance
/// datasets are all within coalition `S`.
fn coverage_game(mashup: &Relation, datasets: &[DatasetId]) -> CharacteristicFn {
    let index_of = |d: DatasetId| datasets.iter().position(|&x| x == d);
    // Precompute each row's dataset mask.
    let row_masks: Vec<u64> = mashup
        .rows()
        .iter()
        .map(|r| {
            let mut m = 0u64;
            for d in r.provenance().datasets() {
                if let Some(i) = index_of(d) {
                    m |= 1 << i;
                }
            }
            m
        })
        .collect();
    let total = row_masks.len().max(1) as f64;
    CharacteristicFn::new(datasets.len(), move |mask| {
        row_masks
            .iter()
            .filter(|&&rm| rm != 0 && rm & mask == rm)
            .count() as f64
            / total
    })
}

/// Shapley weights of the coverage game, exact when feasible.
fn coverage_shapley(mashup: &Relation, datasets: &[DatasetId], samples: usize) -> Vec<f64> {
    let game = coverage_game(mashup, datasets);
    if datasets.len() <= 16 {
        exact_shapley(&game)
    } else {
        // Seed derived from the mashup shape keeps settlements replayable.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9e37 ^ (mashup.len() as u64) << 8);
        monte_carlo_shapley(&game, samples.max(32), &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_mechanism::design::MarketDesign;
    use dmp_relation::ops::JoinKind;
    use dmp_relation::{DataType, RelationBuilder, Value};
    use dmp_valuation::sharing::total_shared;

    fn two_source_mashup() -> Relation {
        let l = RelationBuilder::new("l")
            .column("k", DataType::Int)
            .row(vec![Value::Int(1)])
            .row(vec![Value::Int(2)])
            .source(DatasetId(1))
            .build()
            .unwrap();
        let r = RelationBuilder::new("r")
            .column("k", DataType::Int)
            .row(vec![Value::Int(1)])
            .row(vec![Value::Int(2)])
            .source(DatasetId(2))
            .build()
            .unwrap();
        l.join(&r, &[("k", "k")], JoinKind::Inner).unwrap()
    }

    #[test]
    fn uniform_provenance_splits_evenly() {
        let design = MarketDesign::internal_welfare(); // UniformPerRow + ByProvenance
        let shares = dataset_shares(&design, &two_source_mashup(), 100.0);
        assert_eq!(shares.len(), 2);
        assert!((shares[0].amount - 50.0).abs() < 1e-9);
        assert!((total_shared(&shares) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn shapley_split_on_complementary_join() {
        // Both datasets are essential for every row: symmetric Shapley.
        let design = MarketDesign::external_revenue(1); // Shapley
        let shares = dataset_shares(&design, &two_source_mashup(), 80.0);
        assert_eq!(shares.len(), 2);
        assert!((shares[0].amount - 40.0).abs() < 1e-6, "{shares:?}");
        assert!((total_shared(&shares) - 80.0).abs() < 1e-6);
    }

    #[test]
    fn leave_one_out_on_complementary_join_falls_back_evenly() {
        // LOO of a pure join: removing either dataset kills all rows, so
        // both get equal (full) marginals -> even split after normalizing.
        let mut design = MarketDesign::external_revenue(1);
        design.revenue_allocation = RevenueAllocationMethod::LeaveOneOut;
        let shares = dataset_shares(&design, &two_source_mashup(), 60.0);
        assert!((shares[0].amount - 30.0).abs() < 1e-9);
    }

    #[test]
    fn union_mashup_rewards_proportionally() {
        // dataset 1 contributes 3 rows, dataset 2 contributes 1.
        let a = RelationBuilder::new("a")
            .column("x", DataType::Int)
            .rows((0..3).map(|i| vec![Value::Int(i)]))
            .source(DatasetId(1))
            .build()
            .unwrap();
        let b = RelationBuilder::new("b")
            .column("x", DataType::Int)
            .row(vec![Value::Int(10)])
            .source(DatasetId(2))
            .build()
            .unwrap();
        let mut m = a;
        for row in b.rows() {
            m.push(row.clone()).unwrap();
        }
        let design = MarketDesign::internal_welfare();
        let shares = dataset_shares(&design, &m, 40.0);
        let d1 = shares.iter().find(|s| s.dataset == DatasetId(1)).unwrap();
        assert!((d1.amount - 30.0).abs() < 1e-9);

        // Shapley on the union coverage game gives the same 3:1 (additive
        // game).
        let design = MarketDesign::external_revenue(2);
        let shares = dataset_shares(&design, &m, 40.0);
        let d1 = shares.iter().find(|s| s.dataset == DatasetId(1)).unwrap();
        assert!((d1.amount - 30.0).abs() < 1e-6, "{shares:?}");
    }

    #[test]
    fn empty_or_free_mashups_share_nothing() {
        let design = MarketDesign::internal_welfare();
        assert!(dataset_shares(&design, &two_source_mashup(), 0.0).is_empty());
        let bare = RelationBuilder::new("bare")
            .column("x", DataType::Int)
            .row(vec![Value::Int(1)])
            .build()
            .unwrap(); // no provenance
        assert!(dataset_shares(&design, &bare, 10.0).is_empty());
    }

    #[test]
    fn budget_balance_across_methods() {
        let m = two_source_mashup();
        for design in [
            MarketDesign::internal_welfare(),
            MarketDesign::external_revenue(3),
            MarketDesign::posted_price_baseline(1.0),
        ] {
            let shares = dataset_shares(&design, &m, 33.0);
            assert!(
                (total_shared(&shares) - 33.0).abs() < 1e-6,
                "{}: {shares:?}",
                design.name
            );
        }
    }
}
