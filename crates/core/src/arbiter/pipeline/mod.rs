//! The arbiter's **round** (paper Fig. 2, §3) — pending WTP offers →
//! mashup builder → WTP-evaluator → pricing/clearing → transaction
//! support → revenue allocation — as one sequence of phases, and the
//! only implementation of it. `DataMarket::run_round` runs it over one
//! market and the service's shard router over M markets sharing one
//! ledger, so a round means the same thing, to the bit, in either:
//!
//! 1. **Open** (`DataMarket::begin_round_seeded`): open the round under
//!    a seed, expire stale offers (§3.2.2.1), then the
//!    [`CandidateStage`] — per offer: build candidate mashups (DoD,
//!    §5.3), evaluate WTP, filter on licensing / contextual integrity /
//!    exclusivity / viability, pick the best bid with a seeded
//!    tie-break. Offers run on rayon workers; each draws from its own
//!    [`RoundContext::offer_rng`] stream and results merge in offer
//!    order, so parallel and sequential runs are byte-identical.
//! 2. **[`clear`]**: merge every context's bids in global offer-id
//!    order and run the pricing engine once (§3.2).
//! 3. **[`settle`]**: plan every cleared sale concurrently, commit
//!    every sale in offer-id order on its buyer's market — ex
//!    ante through the escrow ledger, ex post (§3.2.2.2) by delivery
//!    awaiting the buyer's report.
//! 4. **Close** (`DataMarket::close_round`): publish negotiation and
//!    demand state, produce the [`RoundReport`].
//!
//! A [`RoundContext`] carries what one round has produced so far;
//! ledger, audit chain, metadata and lineage are reached through the
//! market. `DataMarket::run_round_with` takes the candidate stage as
//! its one parameter: `CandidateStage::sequential()` is the reference
//! the parallel default is tested against. Each phase records its wall
//! time into `dmp_round_stage_us{stage=...}`.

mod candidates;
mod clearing;
mod context;
mod expiry;
mod settlement;

pub use candidates::CandidateStage;
pub use clearing::clear;
pub use context::RoundContext;
pub(crate) use expiry::expire;
pub use settlement::settle;

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dmp_telemetry::{global, Histogram};

use crate::arbiter::pricing::{RoundBid, Sale};
use crate::arbiter::services::DemandReport;

/// The round's phases, as named in `dmp_round_stage_us{stage=...}`.
const STAGES: [&str; 4] = ["expiry", "candidates", "clearing", "settlement"];

/// Histogram handles for [`STAGES`], resolved once so the per-round
/// path never touches the registry mutex after the first round.
fn stage_histograms() -> &'static [(&'static str, Arc<Histogram>)] {
    static CACHE: OnceLock<Vec<(&'static str, Arc<Histogram>)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        STAGES
            .into_iter()
            .map(|stage| {
                let hist = global().histogram(
                    &format!("dmp_round_stage_us{{stage=\"{stage}\"}}"),
                    "Wall time of one arbiter round phase, microseconds.",
                );
                (stage, hist)
            })
            .collect()
    })
}

fn candidates_histogram() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        global().histogram(
            "dmp_round_candidates",
            "Candidate bids produced by the candidate stage, per round.",
        )
    })
}

/// Run one phase, recording its wall time into
/// `dmp_round_stage_us{stage="<stage>"}`.
fn timed<T>(stage: &str, phase: impl FnOnce() -> T) -> T {
    #[expect(
        clippy::disallowed_methods,
        reason = "phase latency telemetry; never read by the phase"
    )]
    let started = Instant::now();
    let out = phase();
    if let Some((_, hist)) = stage_histograms().iter().find(|(name, _)| *name == stage) {
        hist.record_duration_us(started.elapsed());
    }
    out
}

/// The complete candidate-phase outcome of one market (shard) for one
/// seeded round — everything a *remote* settlement authority needs to
/// finish the round on this shard's behalf, and everything a replica
/// needs to adopt the phase without recomputing it: the bids, the
/// winning mashups (their materialized relations included, because
/// revenue allocation splits by provenance over the relation), the
/// negotiation / demand side channel and the audit events the candidate
/// stage recorded. Expiry is *not* exported: it is a pure function of
/// the local offer book and logical clock, so an importing replica
/// re-runs it locally.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePhaseExport {
    /// The round this phase belongs to.
    pub round: u64,
    /// One bid per offer that found a sellable mashup.
    pub bids: Vec<RoundBid>,
    /// Winning mashup per offer id (ascending offer id).
    pub best_mashups: Vec<(u64, crate::arbiter::mashup_builder::BuiltMashup)>,
    /// Missing-attribute lists (feeds the demand report).
    pub missing: Vec<Vec<String>>,
    /// Negotiation requests for under-served offers (§4.1).
    pub negotiations: Vec<NegotiationRequest>,
    /// Audit events the candidate stage recorded, in chain order.
    pub audit_events: Vec<crate::trust::AuditEvent>,
}

/// What one `run_round` did.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Round number.
    pub round: u64,
    /// Offers considered.
    pub considered: usize,
    /// Sales cleared (ex ante settled; ex post delivered).
    pub sales: Vec<Sale>,
    /// Revenue collected this round (ex ante only).
    pub revenue: f64,
    /// Arbiter fees collected.
    pub fees: f64,
    /// Offers expired this round.
    pub expired: usize,
    /// Deliveries created (ex post).
    pub deliveries: Vec<u64>,
    /// Unmet attribute demand (for opportunistic sellers).
    pub unmet: DemandReport,
}

/// A negotiation round request (§4.1): "if the AMS cannot find mashups
/// that fulfill the buyer's needs, it can describe the information it
/// lacks and ask the sellers to complete it."
#[derive(Debug, Clone, PartialEq)]
pub struct NegotiationRequest {
    /// The under-served offer.
    pub offer_id: u64,
    /// Its buyer.
    pub buyer: String,
    /// Attributes the mashup builder could not source.
    pub missing: Vec<String>,
    /// Sellers whose datasets already participate in the best partial
    /// mashup — the ones best placed to annotate or publish mappings.
    pub candidate_sellers: Vec<String>,
}

#[cfg(test)]
mod tests {
    use crate::market::{DataMarket, MarketConfig, OfferState};
    use dmp_mechanism::design::MarketDesign;
    use dmp_mechanism::wtp::{PriceCurve, WtpFunction};
    use dmp_relation::builder::keyed_rel;

    fn simple_market() -> DataMarket {
        let config =
            MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(10.0));
        DataMarket::new(config)
    }

    #[test]
    fn end_to_end_posted_price_sale() {
        let market = simple_market();
        let seller = market.seller("s1");
        let id = seller
            .share(keyed_rel("inventory", &[(1, "widget"), (2, "gadget")]))
            .unwrap();
        let buyer = market.buyer("b1");
        buyer.deposit(100.0);
        let wtp = WtpFunction::simple("b1", ["k", "v"], PriceCurve::Constant(25.0));
        market.submit_wtp(wtp).unwrap();

        let report = market.run_round();
        assert_eq!(report.sales.len(), 1);
        assert_eq!(report.revenue, 10.0); // posted price
        assert!(market.balance("b1") < 100.0);
        assert!(market.balance("s1") > 0.0);
        // conservation: all money accounted for
        assert!((market.ledger.total_supply() - 100.0).abs() < 1e-9);
        // lineage recorded
        assert!(market.lineage.total_revenue(id) > 0.0);
        // audit chain intact
        assert!(market.audit_log().verify_chain());
    }

    #[test]
    fn internal_market_trades_for_free() {
        let market = DataMarket::new(MarketConfig::internal());
        market
            .seller("teamA")
            .share(keyed_rel("t", &[(1, "x")]))
            .unwrap();
        let _buyer = market.buyer("teamB"); // bonus-point grant
        let wtp = WtpFunction::simple("teamB", ["k", "v"], PriceCurve::Constant(5.0));
        market.submit_wtp(wtp).unwrap();
        let report = market.run_round();
        assert_eq!(report.sales.len(), 1);
        assert_eq!(
            report.revenue, 0.0,
            "internal welfare design charges nothing"
        );
    }

    #[test]
    fn unfunded_buyer_cannot_settle() {
        let market = simple_market();
        market
            .seller("s1")
            .share(keyed_rel("t", &[(1, "x")]))
            .unwrap();
        let _buyer = market.buyer("broke");
        let wtp = WtpFunction::simple("broke", ["k"], PriceCurve::Constant(50.0));
        market.submit_wtp(wtp).unwrap();
        let report = market.run_round();
        assert!(report.sales.is_empty());
        // offer remains pending for when funds arrive
        assert_eq!(market.offer(0).unwrap().state, OfferState::Pending);
    }

    #[test]
    fn demand_report_lists_unmet_attributes() {
        let market = simple_market();
        market
            .seller("s")
            .share(keyed_rel("t", &[(1, "x")]))
            .unwrap();
        let b = market.buyer("b");
        b.deposit(50.0);
        let wtp = WtpFunction::simple("b", ["nonexistent_attr"], PriceCurve::Constant(20.0));
        market.submit_wtp(wtp).unwrap();
        let report = market.run_round();
        assert!(report
            .unmet
            .missing_attributes
            .iter()
            .any(|(a, _)| a == "nonexistent_attr"));
    }

    #[test]
    fn reserve_price_blocks_underpriced_sale() {
        let market = simple_market(); // posted price 10
        let seller = market.seller("s1");
        let id = seller.share(keyed_rel("t", &[(1, "x")])).unwrap();
        seller.set_reserve(id, 15.0).unwrap();
        let b = market.buyer("b");
        b.deposit(100.0);
        market
            .submit_wtp(WtpFunction::simple(
                "b",
                ["k", "v"],
                PriceCurve::Constant(30.0),
            ))
            .unwrap();
        let report = market.run_round();
        assert!(report.sales.is_empty(), "posted 10 < reserve 15");
    }

    #[test]
    fn rounds_advance() {
        let market = simple_market();
        assert_eq!(market.round(), 0);
        market.run_round();
        market.run_round();
        assert_eq!(market.round(), 2);
    }
}
