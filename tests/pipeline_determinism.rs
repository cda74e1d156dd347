//! Whole-market determinism tests for the staged arbiter pipeline:
//! for a fixed market seed, the rayon-parallel candidate stage must
//! produce byte-identical rounds to the sequential reference path, and
//! repeated runs must pick identical tie-break winners.

use data_market_platform::core::arbiter::pipeline::CandidateStage;
use data_market_platform::core::market::{DataMarket, MarketConfig, RoundReport};
use data_market_platform::mechanism::design::MarketDesign;
use data_market_platform::mechanism::wtp::{PriceCurve, WtpFunction};
use data_market_platform::relation::{DataType, RelationBuilder, Value};

/// A market with several interchangeable suppliers per product (tied
/// bids force tie-break draws) and several buyers.
fn populated_market(seed: u64) -> DataMarket {
    let market = DataMarket::new(
        MarketConfig::external(seed).with_design(MarketDesign::posted_price_baseline(12.0)),
    );
    for s in 0..4u64 {
        let seller = market.seller(&format!("s{s}"));
        let mut b = RelationBuilder::new(format!("t{s}"))
            .column("k", DataType::Int)
            .column("v", DataType::Float);
        for r in 0..6 {
            // Distinct content per seller so the DoD anchor dedup keeps
            // every supplier as its own candidate.
            b = b.row(vec![
                Value::Int((s * 100 + r) as i64),
                Value::Float(s as f64 + r as f64 * 0.25),
            ]);
        }
        seller.share(b.build().unwrap()).unwrap();
    }
    for i in 0..5u64 {
        let buyer = market.buyer(&format!("b{i}"));
        buyer.deposit(200.0);
        market
            .submit_wtp(WtpFunction::simple(
                format!("b{i}"),
                ["k", "v"],
                PriceCurve::Constant(20.0 + i as f64),
            ))
            .unwrap();
    }
    market
}

fn sequential_pipeline() -> CandidateStage {
    CandidateStage::sequential()
}

fn assert_same_report(a: &RoundReport, b: &RoundReport) {
    assert_eq!(a.round, b.round);
    assert_eq!(a.considered, b.considered);
    assert_eq!(a.sales, b.sales);
    assert_eq!(a.revenue, b.revenue);
    assert_eq!(a.fees, b.fees);
    assert_eq!(a.expired, b.expired);
    assert_eq!(a.deliveries, b.deliveries);
}

#[test]
fn parallel_rounds_match_sequential_reference() {
    for seed in [1, 7, 23, 91] {
        let par = populated_market(seed);
        let seq = populated_market(seed);
        let seq_stages = sequential_pipeline();
        for _ in 0..3 {
            let ra = par.run_round(); // default pipeline: rayon candidates
            let rb = seq.run_round_with(&seq_stages);
            assert_same_report(&ra, &rb);
        }
        // Every downstream artifact matches too.
        assert_eq!(par.transactions().len(), seq.transactions().len());
        for (ta, tb) in par.transactions().iter().zip(seq.transactions()) {
            assert_eq!(ta.datasets, tb.datasets, "seed {seed}: different winners");
            assert_eq!(ta.price, tb.price);
            assert_eq!(ta.buyer, tb.buyer);
        }
        for s in 0..4 {
            let acct = format!("s{s}");
            assert_eq!(
                par.balance(&acct),
                seq.balance(&acct),
                "seed {seed}: {acct}"
            );
        }
        assert!(par.audit_log().verify_chain());
        assert!(seq.audit_log().verify_chain());
    }
}

#[test]
fn same_seed_same_winners_across_runs() {
    let reference: Vec<_> = {
        let m = populated_market(42);
        m.run_round();
        m.transactions()
            .iter()
            .map(|t| t.datasets.clone())
            .collect()
    };
    assert!(!reference.is_empty(), "fixture must trade");
    for _ in 0..5 {
        let m = populated_market(42);
        m.run_round();
        let winners: Vec<_> = m
            .transactions()
            .iter()
            .map(|t| t.datasets.clone())
            .collect();
        assert_eq!(
            winners, reference,
            "same seed must reproduce the same winners"
        );
    }
}

#[test]
fn different_seeds_spread_demand_across_tied_suppliers() {
    let mut winner_sets = std::collections::HashSet::new();
    for seed in 0..12 {
        let m = populated_market(seed);
        m.run_round();
        for t in m.transactions() {
            winner_sets.insert(t.datasets.clone());
        }
    }
    assert!(
        winner_sets.len() > 1,
        "tie-breaking should rotate winners across seeds, got {winner_sets:?}"
    );
}
