//! Phase 1, first half: snapshot pending offers and expire stale ones.

use crate::market::DataMarket;

use super::RoundContext;

/// Collect the round's pending offers (in offer-id order) and mark
/// offers whose intrinsic constraints are no longer live (§3.2.2.1,
/// `expires_at`) as
/// [`OfferState::Expired`](crate::market::OfferState::Expired). Live
/// offers flow on to the [`super::CandidateStage`] via
/// [`RoundContext::pending`]. Only pending offers are visited, through
/// the book's pending-offer index.
pub(crate) fn expire(market: &DataMarket, ctx: &mut RoundContext) {
    super::timed("expiry", || {
        let (considered, expired, live) = market.book.lock().expire(ctx.now);
        ctx.considered += considered;
        ctx.expired += expired;
        ctx.pending.extend(live);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::{MarketConfig, OfferState};
    use dmp_mechanism::design::MarketDesign;
    use dmp_mechanism::wtp::{PriceCurve, WtpFunction};
    use dmp_relation::builder::keyed_rel;

    #[test]
    fn expired_offers_are_marked_and_not_forwarded() {
        let market = DataMarket::new(
            MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(10.0)),
        );
        market
            .seller("s")
            .share(keyed_rel("t", &[(1, "x")]))
            .unwrap();
        let b = market.buyer("b");
        b.deposit(50.0);
        let mut dead = WtpFunction::simple("b", ["k"], PriceCurve::Constant(20.0));
        dead.constraints.expires_at = Some(0); // expires immediately
        let dead_id = market.submit_wtp(dead).unwrap();
        let live_id = market
            .submit_wtp(WtpFunction::simple("b", ["k"], PriceCurve::Constant(20.0)))
            .unwrap();

        let mut ctx = RoundContext::open(&market);
        expire(&market, &mut ctx);

        assert_eq!(ctx.considered, 2);
        assert_eq!(ctx.expired, 1);
        assert_eq!(ctx.pending.len(), 1);
        assert_eq!(ctx.pending[0].id, live_id);
        assert_eq!(market.offer(dead_id).unwrap().state, OfferState::Expired);
    }

    #[test]
    fn full_round_reports_expiry() {
        let market = DataMarket::new(
            MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(10.0)),
        );
        market
            .seller("s")
            .share(keyed_rel("t", &[(1, "x")]))
            .unwrap();
        let b = market.buyer("b");
        b.deposit(50.0);
        let mut wtp = WtpFunction::simple("b", ["k"], PriceCurve::Constant(20.0));
        wtp.constraints.expires_at = Some(0);
        let id = market.submit_wtp(wtp).unwrap();
        let report = market.run_round();
        assert_eq!(report.expired, 1);
        assert_eq!(market.offer(id).unwrap().state, OfferState::Expired);
    }
}
