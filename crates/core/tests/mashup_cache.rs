//! The candidate stage's mashup cache against the uncached builder.
//! Random catalogue edits (share, update, annotate, withdraw, restore)
//! run between trading rounds; after every round each request the round
//! asked for is cached at the current catalogue generation and equals a
//! fresh `build_mashups` on the same metadata, a request carrying owned
//! data never enters the cache, and the cached rows stay under the
//! bound. Sequential and parallel candidate stages clear the same
//! rounds on a cold cache and on a warm one, and a market restored from
//! an image (cold) clears like the live one (warm). A round's winner is
//! the cached build itself, and the delivery a sale files equals it.

use std::sync::Arc;

use dmp_core::arbiter::mashup_builder::{build_mashups, MASHUP_CACHE_MAX_ROWS};
use dmp_core::arbiter::pipeline::{clear, settle, CandidateStage};
use dmp_core::market::{DataMarket, MarketConfig, RoundReport};
use dmp_mechanism::design::MarketDesign;
use dmp_mechanism::wtp::{PriceCurve, WtpFunction};
use dmp_relation::{DataType, DatasetId, Relation, RelationBuilder, Value};
use proptest::prelude::*;

const SELLERS: [&str; 3] = ["s0", "s1", "s2"];
const VALUE_COLUMNS: [&str; 3] = ["v", "w", "x"];

/// `name(k, cols…)` with six rows whose values shift with `salt`.
fn table(name: &str, cols: &[&str], salt: i64) -> Relation {
    let mut b = RelationBuilder::new(name).column("k", DataType::Int);
    for c in cols {
        b = b.column(*c, DataType::Float);
    }
    for r in 0..6i64 {
        let mut row = vec![Value::Int(r)];
        for (i, _) in cols.iter().enumerate() {
            row.push(Value::Float((salt * 10 + r) as f64 + i as f64 * 0.25));
        }
        b = b.row(row);
    }
    b.build().unwrap()
}

/// Three sellers' tables over a shared key, and a funded buyer.
fn market(seed: u64) -> DataMarket {
    let market = DataMarket::new(
        MarketConfig::external(seed).with_design(MarketDesign::posted_price_baseline(12.0)),
    );
    for (i, cols) in [&["v"][..], &["w"], &["v", "x"]].into_iter().enumerate() {
        market
            .seller(SELLERS[i])
            .share(table(&format!("t{i}"), cols, i as i64))
            .unwrap();
    }
    market.buyer("b").deposit(100_000.0);
    market
}

/// The plain requests every round submits: attribute order matters to
/// the DoD, so `[k, v]` and `[v, k]` are different requests.
fn plain_requests() -> Vec<WtpFunction> {
    let mut tagged = WtpFunction::simple("b", ["k", "v"], PriceCurve::Constant(20.0));
    tagged.keywords = vec!["tagged".into()];
    vec![
        WtpFunction::simple("b", ["k", "v"], PriceCurve::Constant(20.0)),
        WtpFunction::simple("b", ["v", "k"], PriceCurve::Constant(20.0)),
        WtpFunction::simple("b", ["k", "w"], PriceCurve::Constant(20.0)),
        WtpFunction::simple("b", ["k", "v", "w"], PriceCurve::Constant(20.0)),
        tagged,
    ]
}

/// A request joining the buyer's own labels; no plain request shares
/// its attributes.
fn owned_request() -> WtpFunction {
    let mut owned = RelationBuilder::new("own")
        .column("k", DataType::Int)
        .column("label", DataType::Int);
    for r in 0..6i64 {
        owned = owned.row(vec![Value::Int(r), Value::Int(r % 2)]);
    }
    let mut wtp = WtpFunction::simple("b", ["k", "x"], PriceCurve::Constant(20.0));
    wtp.owned_data = Some(owned.build().unwrap());
    wtp
}

fn submit_requests(market: &DataMarket) {
    for wtp in plain_requests().into_iter().chain([owned_request()]) {
        market.submit_wtp(wtp).unwrap();
    }
}

/// One catalogue edit, drawn from `(kind, pick)`.
fn edit(
    market: &DataMarket,
    live: &mut Vec<(usize, DatasetId)>,
    step: usize,
    kind: u8,
    pick: usize,
) {
    let target = live.get(pick % live.len().max(1)).copied();
    match (kind % 5, target) {
        (0, _) | (_, None) => {
            let seller = pick % SELLERS.len();
            let cols = &VALUE_COLUMNS[..1 + pick % VALUE_COLUMNS.len()];
            let id = market
                .seller(SELLERS[seller])
                .share(table(&format!("n{step}"), cols, step as i64 + 7))
                .unwrap();
            live.push((seller, id));
        }
        (1, Some((seller, id))) => {
            let cols = &VALUE_COLUMNS[..1 + pick % VALUE_COLUMNS.len()];
            market
                .seller(SELLERS[seller])
                .update(id, table("u", cols, step as i64 + 3))
                .unwrap();
        }
        (2, Some((seller, id))) => {
            market
                .seller(SELLERS[seller])
                .annotate(id, "tagged")
                .unwrap();
        }
        (3, Some((seller, id))) => {
            market.seller(SELLERS[seller]).withdraw(id).unwrap();
            live.retain(|&(_, d)| d != id);
        }
        _ => {
            let substrate = market.substrate();
            substrate.restore_state(substrate.export_state());
        }
    }
}

/// What the cache must hold after a round that asked for every request.
fn check_cache(market: &DataMarket) -> Result<(), TestCaseError> {
    let cache = market.mashup_cache();
    let metadata = market.metadata();
    let max = market.config().max_candidates;
    for wtp in plain_requests() {
        let cached = cache.cached(metadata, &wtp, max);
        prop_assert!(
            cached.is_some(),
            "{:?} was asked for this round but is not cached at the current generation",
            wtp.attributes
        );
        prop_assert_eq!(&*cached.unwrap(), &build_mashups(metadata, &wtp, max));
    }
    prop_assert!(cache.cached(metadata, &owned_request(), max).is_none());
    prop_assert!(cache.rows() <= MASHUP_CACHE_MAX_ROWS);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_mashups_equal_fresh_builds_across_catalogue_edits(
        seed in 0u64..1_000,
        edits in proptest::collection::vec((0u8..5, 0usize..16), 1..6),
    ) {
        let market = market(seed);
        let mut live: Vec<(usize, DatasetId)> = market
            .metadata()
            .ids()
            .into_iter()
            .enumerate()
            .collect();
        submit_requests(&market);
        market.run_round();
        check_cache(&market)?;
        for (step, (kind, pick)) in edits.into_iter().enumerate() {
            edit(&market, &mut live, step, kind, pick);
            submit_requests(&market);
            market.run_round();
            check_cache(&market)?;
        }
    }
}

fn assert_same_round(a: &RoundReport, b: &RoundReport, what: &str) {
    assert_eq!(a.round, b.round, "{what}");
    assert_eq!(a.considered, b.considered, "{what}");
    assert_eq!(a.sales, b.sales, "{what}");
    assert_eq!(a.revenue, b.revenue, "{what}");
    assert_eq!(a.fees, b.fees, "{what}");
    assert_eq!(a.deliveries, b.deliveries, "{what}");
}

/// Offers, transactions, deliveries, audit events and the ledger agree.
fn assert_same_market(a: &DataMarket, b: &DataMarket, what: &str) {
    let (sa, sb) = (a.export_shard_state(), b.export_shard_state());
    let states = |s: &dmp_core::market::MarketShardState| {
        let offers: Vec<_> = s.offers.iter().map(|o| (o.id, o.state.clone())).collect();
        format!(
            "{offers:?} {:?} {:?} {:?}",
            s.transactions, s.deliveries, s.audit_events
        )
    };
    assert_eq!(states(&sa), states(&sb), "{what}");
    assert_eq!(
        format!("{:?}", a.substrate().export_state().ledger),
        format!("{:?}", b.substrate().export_state().ledger),
        "{what}"
    );
}

#[test]
fn sequential_equals_parallel_on_a_cold_and_a_warm_cache() {
    for seed in 0..6 {
        let seq = market(seed);
        let par = market(seed);
        // Round 1 runs cold; round 2 asks the same requests warm; the
        // share before round 3 moves the generation, so it runs cold.
        // Every request goes in twice, so two workers can miss one key
        // at once.
        for round in 1..=3 {
            if round == 3 {
                for m in [&seq, &par] {
                    m.seller("s1").share(table("late", &["v", "w"], 9)).unwrap();
                }
            }
            for m in [&seq, &par, &seq, &par] {
                submit_requests(m);
            }
            let a = seq.run_round_with(&CandidateStage::sequential());
            let b = par.run_round_with(&CandidateStage::default());
            let what = format!("seed {seed}, round {round}");
            assert_same_round(&a, &b, &what);
            assert_same_market(&seq, &par, &what);
        }
    }
}

#[test]
fn a_restored_market_with_a_cold_cache_clears_like_the_live_warm_one() {
    for seed in 0..6 {
        let live = market(seed);
        submit_requests(&live);
        live.run_round();
        submit_requests(&live);

        let restored = DataMarket::new(live.config().clone());
        restored
            .substrate()
            .restore_state(live.substrate().export_state());
        restored.restore_shard_state(live.export_shard_state());
        let max = live.config().max_candidates;
        for wtp in plain_requests() {
            assert!(live
                .mashup_cache()
                .cached(live.metadata(), &wtp, max)
                .is_some());
            assert!(restored
                .mashup_cache()
                .cached(restored.metadata(), &wtp, max)
                .is_none());
        }

        let a = live.run_round();
        let b = restored.run_round();
        let what = format!("seed {seed}");
        assert_same_round(&a, &b, &what);
        assert_same_market(&live, &restored, &what);
    }
}

#[test]
fn each_winner_is_the_cached_build_and_its_delivery_equals_it() {
    for seed in 0..6 {
        let market = market(seed);
        submit_requests(&market);
        let offers = market.offers();
        let max = market.config().max_candidates;
        let mut ctx = market.begin_round_seeded(seed);
        let mut shared = 0;
        for bid in &ctx.bids {
            let won = &ctx.best_mashups[&bid.offer_id];
            let wtp = &offers.iter().find(|o| o.id == bid.offer_id).unwrap().wtp;
            if wtp.owned_data.is_some() {
                continue; // built past the cache
            }
            let cached = market
                .mashup_cache()
                .cached(market.metadata(), wtp, max)
                .expect("the round cached every plain request");
            assert!(
                cached
                    .iter()
                    .any(|m| Arc::ptr_eq(&m.relation, &won.relation)),
                "seed {seed}, offer {}: the winner copied the cached rows",
                bid.offer_id
            );
            shared += 1;
        }
        assert!(shared >= 3, "seed {seed}: only {shared} plain requests won");

        let won: Vec<(u64, Arc<Relation>)> = ctx
            .best_mashups
            .iter()
            .map(|(&id, m)| (id, Arc::clone(&m.relation)))
            .collect();
        let sales = clear(&market.config().design, std::slice::from_mut(&mut ctx));
        settle(
            std::slice::from_ref(&market),
            std::slice::from_mut(&mut ctx),
            sales,
            |_| 0,
        );
        market.close_round(ctx);
        let deliveries = market.deliveries();
        assert_eq!(
            deliveries.len(),
            won.len(),
            "seed {seed}: every winner sold"
        );
        for d in &deliveries {
            let (_, relation) = won.iter().find(|(id, _)| *id == d.offer_id).unwrap();
            assert_eq!(
                &*d.relation, &**relation,
                "seed {seed}, offer {}",
                d.offer_id
            );
        }
    }
}
