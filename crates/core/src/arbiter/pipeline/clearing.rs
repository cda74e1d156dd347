//! Phase 2: the pricing engine clears the round's bids.

use dmp_mechanism::design::MarketDesign;

use crate::arbiter::pricing::{self, RoundBid, Sale};

use super::RoundContext;

/// Clear one round over every market's candidate phase: move each
/// context's bids out, merge them in global offer-id order (the order a
/// single offer book would list them) and run the pricing engine once,
/// so bids from different markets compete for the same products. Bids
/// are grouped by product (dataset combination) and cleared under the
/// design's allocation + payment rules (§3.2); license multipliers and
/// reserve floors apply inside [`pricing::clear`]. This is the round's
/// only cross-offer barrier. Returned sales are sorted by offer id,
/// which is the order [`super::settle`] commits them in.
pub fn clear(design: &MarketDesign, ctxs: &mut [RoundContext]) -> Vec<Sale> {
    super::timed("clearing", || pricing::clear(design, &merge_bids(ctxs)))
}

/// Every context's bids, moved out and sorted by offer id. Offer ids
/// are globally unique, so the order does not depend on how offers
/// were spread over markets.
fn merge_bids(ctxs: &mut [RoundContext]) -> Vec<RoundBid> {
    let mut bids: Vec<RoundBid> = ctxs
        .iter_mut()
        .flat_map(|ctx| std::mem::take(&mut ctx.bids))
        .collect();
    bids.sort_by_key(|b| b.offer_id);
    bids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::pipeline::{expire, CandidateStage};
    use crate::market::{DataMarket, MarketConfig};
    use dmp_mechanism::wtp::{PriceCurve, WtpFunction};
    use dmp_relation::builder::keyed_rel;
    use dmp_relation::DatasetId;

    #[test]
    fn clearing_prices_at_the_posted_price() {
        let market = DataMarket::new(
            MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(10.0)),
        );
        market
            .seller("s")
            .share(keyed_rel("t", &[(1, "x")]))
            .unwrap();
        let b = market.buyer("b");
        b.deposit(100.0);
        market
            .submit_wtp(WtpFunction::simple(
                "b",
                ["k", "v"],
                PriceCurve::Constant(30.0),
            ))
            .unwrap();

        let mut ctx = RoundContext::open(&market);
        expire(&market, &mut ctx);
        CandidateStage::default().run(&market, &mut ctx);
        let sales = clear(&market.config.design, std::slice::from_mut(&mut ctx));

        assert_eq!(sales.len(), 1);
        assert_eq!(sales[0].price, 10.0, "posted-price design sets the price");
        assert!(ctx.completed_sales.is_empty(), "settlement has not run yet");
    }

    #[test]
    fn clearing_drops_bids_below_the_reserve_floor() {
        let market = DataMarket::new(
            MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(10.0)),
        );
        let s = market.seller("s");
        let id = s.share(keyed_rel("t", &[(1, "x")])).unwrap();
        s.set_reserve(id, 15.0).unwrap(); // floor above the posted price
        let b = market.buyer("b");
        b.deposit(100.0);
        market
            .submit_wtp(WtpFunction::simple(
                "b",
                ["k", "v"],
                PriceCurve::Constant(30.0),
            ))
            .unwrap();

        let mut ctx = RoundContext::open(&market);
        expire(&market, &mut ctx);
        CandidateStage::default().run(&market, &mut ctx);
        assert!(!ctx.bids.is_empty(), "a bid was made");
        let sales = clear(&market.config.design, std::slice::from_mut(&mut ctx));

        assert!(sales.is_empty(), "posted 10 cannot cover reserve 15");
    }

    #[test]
    fn merged_bids_follow_global_offer_id_order() {
        let market = DataMarket::new(MarketConfig::external(3));
        let bid = |offer_id: u64| RoundBid {
            offer_id,
            buyer: format!("b{offer_id}"),
            bid: 5.0,
            satisfaction: 1.0,
            datasets: vec![DatasetId(0)],
            reserve_floor: 0.0,
            license_multiplier: 1.0,
        };
        let mut ctxs = [RoundContext::open(&market), RoundContext::open(&market)];
        ctxs[0].bids = vec![bid(3), bid(7)];
        ctxs[1].bids = vec![bid(1), bid(5)];
        let merged = merge_bids(&mut ctxs);
        let ids: Vec<u64> = merged.iter().map(|b| b.offer_id).collect();
        assert_eq!(
            ids,
            [1, 3, 5, 7],
            "merged order = 1-market offer-book order"
        );
        assert!(
            ctxs.iter().all(|ctx| ctx.bids.is_empty()),
            "the bids move out of the contexts"
        );
    }
}
