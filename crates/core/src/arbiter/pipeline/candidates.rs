//! Phase 1, second half: build + evaluate candidate mashups per pending
//! offer.

use rayon::prelude::*;

use dmp_relation::DatasetId;

use crate::arbiter::mashup_builder::BuiltMashup;
use crate::arbiter::pricing::RoundBid;
use crate::arbiter::wtp_evaluator::evaluate;
use crate::license::License;
use crate::market::{DataMarket, Offer, Terms};
use crate::trust::AuditEvent;

use super::{NegotiationRequest, RoundContext};

/// Per-offer candidate evaluation: the mashup builder + WTP-evaluator +
/// admissibility / viability filter + seeded tie-breaking of the paper's
/// arbiter (Fig. 2).
///
/// Offers are independent of one another, so with `parallel` set (the
/// default) the per-offer work fans out across rayon workers. Every
/// offer draws tie-breaks from its own [`RoundContext::offer_rng`]
/// stream and results merge back in offer order, so the parallel and
/// sequential paths are byte-identical for a fixed market seed (audit
/// chain included — events are recorded during the ordered merge, never
/// from workers).
#[derive(Debug, Clone, Copy)]
pub struct CandidateStage {
    /// Evaluate offers on rayon workers (true) or inline (false).
    pub parallel: bool,
}

impl Default for CandidateStage {
    fn default() -> Self {
        CandidateStage { parallel: true }
    }
}

/// An admissible candidate's evaluation: the WTP-evaluator's verdict
/// and the price terms its viability check read.
#[derive(Clone, Copy)]
struct Scored {
    satisfaction: f64,
    bid: f64,
    license_multiplier: f64,
    reserve_floor: f64,
}

/// Outcome of evaluating one offer's candidates.
struct OfferOutcome {
    offer_id: u64,
    buyer: String,
    /// Winning candidate, if any.
    best: Option<(BuiltMashup, Scored)>,
    /// Attributes unserved when no candidate exists at all.
    all_attributes: Vec<String>,
}

impl CandidateStage {
    /// The sequential reference path (differential tests, debugging).
    pub fn sequential() -> Self {
        CandidateStage { parallel: false }
    }

    /// Evaluate every pending offer and record one bid per offer that
    /// found a sellable mashup (plus the round's unmet demand).
    pub(crate) fn run(&self, market: &DataMarket, ctx: &mut RoundContext) {
        super::timed("candidates", || self.evaluate_all(market, ctx));
        super::candidates_histogram().record(ctx.bids.len() as u64);
    }

    fn evaluate_all(&self, market: &DataMarket, ctx: &mut RoundContext) {
        let pending = std::mem::take(&mut ctx.pending);

        let outcomes: Vec<OfferOutcome> = if self.parallel {
            pending
                .par_iter()
                .map(|offer| evaluate_offer(market, ctx, offer))
                .collect()
        } else {
            pending
                .iter()
                .map(|offer| evaluate_offer(market, ctx, offer))
                .collect()
        };

        // Ordered merge: audit events, bids, and negotiation requests are
        // appended in offer order regardless of worker scheduling.
        for outcome in outcomes {
            match outcome.best {
                Some((m, scored)) => {
                    market.audit.record(AuditEvent::MashupBuilt {
                        offer: outcome.offer_id,
                        datasets: m.datasets.clone(),
                    });
                    if !m.missing.is_empty() {
                        ctx.missing.push(m.missing.clone());
                        let mut owners: Vec<String> = m
                            .datasets
                            .iter()
                            .filter_map(|&d| market.metadata.with_entry(d, |e| e.owner.clone()))
                            .collect();
                        owners.sort();
                        owners.dedup();
                        ctx.negotiations.push(NegotiationRequest {
                            offer_id: outcome.offer_id,
                            buyer: outcome.buyer.clone(),
                            missing: m.missing.clone(),
                            candidate_sellers: owners,
                        });
                    }
                    ctx.bids.push(RoundBid {
                        offer_id: outcome.offer_id,
                        buyer: outcome.buyer,
                        bid: scored.bid,
                        satisfaction: scored.satisfaction,
                        datasets: m.datasets.clone(),
                        reserve_floor: scored.reserve_floor,
                        license_multiplier: scored.license_multiplier,
                    });
                    ctx.best_mashups.insert(outcome.offer_id, m);
                }
                None => {
                    // Nothing sellable: record the full attribute list as
                    // unmet when no mashup exists at all.
                    ctx.missing.push(outcome.all_attributes.clone());
                    ctx.negotiations.push(NegotiationRequest {
                        offer_id: outcome.offer_id,
                        buyer: outcome.buyer,
                        missing: outcome.all_attributes,
                        candidate_sellers: Vec::new(),
                    });
                }
            }
        }

        ctx.pending = pending;
    }
}

/// Evaluate one offer: candidates in, best admissible-viable bid out.
/// The candidates come from the substrate's mashup cache and are
/// evaluated by reference; the winner shares its rows with the cache
/// entry, so cloning it copies no row.
fn evaluate_offer(market: &DataMarket, ctx: &RoundContext, offer: &Offer) -> OfferOutcome {
    let max = market.config.max_candidates;
    let mashups = market
        .mashups
        .get_or_build(&market.metadata, &offer.wtp, max);
    let role = market.participant(&offer.wtp.buyer).map(|p| p.role);
    // Prefer *viable* candidates: ones whose seller reserve floor the
    // buyer's bid can possibly cover — otherwise a single overpriced
    // dataset would block an offer that an equivalent cheaper mashup
    // could serve. Ties between equally-priced candidates break
    // randomly, so equivalent suppliers share demand instead of the
    // first-registered seller capturing it.
    let mut evaluated: Vec<(&BuiltMashup, Scored, bool)> = Vec::new();
    for m in mashups.iter() {
        let Some((license_multiplier, reserve_floor)) =
            market.admissible_terms(m, offer, role.as_deref().unwrap_or(""), ctx.now, ctx.round)
        else {
            continue;
        };
        let ev = evaluate(&offer.wtp, &m.relation);
        if ev.bid <= 0.0 {
            continue;
        }
        let viable = ev.bid * license_multiplier + 1e-9 >= reserve_floor;
        let scored = Scored {
            satisfaction: ev.satisfaction,
            bid: ev.bid,
            license_multiplier,
            reserve_floor,
        };
        evaluated.push((m, scored, viable));
    }
    let any_viable = evaluated.iter().any(|(_, _, v)| *v);
    if any_viable {
        evaluated.retain(|(_, _, v)| *v);
    }
    let best_bid = evaluated
        .iter()
        .map(|(_, s, _)| s.bid)
        .fold(f64::NEG_INFINITY, f64::max);
    let tied: Vec<usize> = evaluated
        .iter()
        .enumerate()
        .filter(|(_, (_, s, _))| (s.bid - best_bid).abs() < 1e-9)
        .map(|(i, _)| i)
        .collect();
    let best = if tied.is_empty() {
        None
    } else {
        use rand::Rng;
        let pick = tied[ctx.offer_rng(offer.id).gen_range(0..tied.len())];
        let (m, scored, _) = evaluated[pick];
        Some((m.clone(), scored))
    };
    OfferOutcome {
        offer_id: offer.id,
        buyer: offer.wtp.buyer.clone(),
        best,
        all_attributes: offer.wtp.attributes.clone(),
    }
}

impl DataMarket {
    /// The price terms (see [`Terms::price_terms`]) of a mashup whose
    /// dataset set is admissible for this buyer/offer, `None` when it
    /// is not. Checks intrinsic constraints against the catalog, then
    /// exclusivity holds and contextual-integrity policies (§4.4) and
    /// reads the price terms, all under one `terms` guard, so the
    /// floor a bid carries is the floor its viability check used.
    fn admissible_terms(
        &self,
        mashup: &BuiltMashup,
        offer: &Offer,
        buyer_role: &str,
        now: u64,
        round: u64,
    ) -> Option<(f64, f64)> {
        let wtp = &offer.wtp;
        // An unknown dataset, or one the buyer's constraints refuse.
        let refused = mashup.datasets.iter().any(|&d| {
            let admits = self.metadata.with_entry(d, |e| {
                wtp.constraints
                    .admits_dataset(e.registered_at, &e.owner, now)
            });
            admits != Some(true)
        });
        if refused {
            return None;
        }
        let terms = self.terms.lock();
        let permitted = mashup.datasets.iter().all(|d| {
            let held_by_other = terms
                .exclusive_holds
                .get(d)
                .is_some_and(|(holder, until)| *until >= round && *holder != wtp.buyer);
            let refused = terms
                .ci_policies
                .get(d)
                .is_some_and(|policy| !policy.permits(buyer_role, &offer.purpose));
            !held_by_other && !refused
        });
        permitted.then(|| terms.price_terms(&mashup.datasets))
    }
}

impl Terms {
    /// `(license multiplier, reserve floor)` of a dataset set: the max
    /// of the individual multipliers (one exclusive dataset taxes the
    /// whole mashup) and the sum of the seller reserves.
    fn price_terms(&self, datasets: &[DatasetId]) -> (f64, f64) {
        let multiplier = datasets
            .iter()
            .map(|d| self.licenses.get(d).map_or(1.0, License::price_multiplier))
            .fold(1.0, f64::max);
        let floor = datasets
            .iter()
            .map(|d| self.reserves.get(d).copied().unwrap_or(0.0))
            .sum();
        (multiplier, floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketConfig;
    use dmp_mechanism::design::MarketDesign;
    use dmp_mechanism::wtp::{PriceCurve, WtpFunction};
    use dmp_relation::builder::keyed_rel;

    fn market_with_twin_sellers(seed: u64) -> DataMarket {
        let market = DataMarket::new(
            MarketConfig::external(seed).with_design(MarketDesign::posted_price_baseline(10.0)),
        );
        // Two sellers with interchangeable (same-schema, but not
        // near-duplicate — those the DoD anchor dedup would collapse)
        // products ⇒ tied best bids.
        market
            .seller("alice")
            .share(keyed_rel("t_a", &[(1, "x"), (2, "y")]))
            .unwrap();
        market
            .seller("bob")
            .share(keyed_rel("t_b", &[(10, "p"), (20, "q")]))
            .unwrap();
        let b = market.buyer("buyer");
        b.deposit(500.0);
        market
            .submit_wtp(WtpFunction::simple(
                "buyer",
                ["k", "v"],
                PriceCurve::Constant(30.0),
            ))
            .unwrap();
        market
    }

    fn winner_of(market: &DataMarket, stage: CandidateStage) -> Vec<DatasetId> {
        let mut ctx = RoundContext::open(market);
        super::super::expire(market, &mut ctx);
        stage.run(market, &mut ctx);
        assert_eq!(ctx.bids.len(), 1);
        ctx.bids[0].datasets.clone()
    }

    #[test]
    fn tie_breaking_is_deterministic_for_a_fixed_seed() {
        let first = winner_of(&market_with_twin_sellers(7), CandidateStage::default());
        for _ in 0..5 {
            let again = winner_of(&market_with_twin_sellers(7), CandidateStage::default());
            assert_eq!(first, again, "same seed must pick the same tied winner");
        }
    }

    #[test]
    fn parallel_and_sequential_pick_identical_winners() {
        for seed in 0..20 {
            let par = winner_of(&market_with_twin_sellers(seed), CandidateStage::default());
            let seq = winner_of(
                &market_with_twin_sellers(seed),
                CandidateStage::sequential(),
            );
            assert_eq!(par, seq, "seed {seed}: rayon path diverged from sequential");
        }
    }

    #[test]
    fn tie_breaking_varies_across_seeds() {
        // Not a fixed winner: across seeds, both sellers get picked.
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..30 {
            seen.insert(winner_of(
                &market_with_twin_sellers(seed),
                CandidateStage::default(),
            ));
        }
        assert_eq!(
            seen.len(),
            2,
            "tied suppliers should share demand across seeds"
        );
    }

    #[test]
    fn viability_filter_prefers_coverable_candidate() {
        let market = DataMarket::new(
            MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(10.0)),
        );
        let pricey = market.seller("pricey");
        let id = pricey
            .share(keyed_rel("gold", &[(1, "x"), (2, "y")]))
            .unwrap();
        pricey.set_reserve(id, 500.0).unwrap(); // bid can never cover this
        market
            .seller("cheap")
            .share(keyed_rel("base", &[(10, "p"), (20, "q")]))
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
        super::super::expire(&market, &mut ctx);
        CandidateStage::default().run(&market, &mut ctx);
        assert_eq!(ctx.bids.len(), 1);
        let floor = ctx.bids[0].reserve_floor;
        assert!(
            ctx.bids[0].bid + 1e-9 >= floor,
            "viability filter must drop the uncoverable candidate (floor {floor})"
        );
    }

    #[test]
    fn any_viable_branch_keeps_unviable_best_when_nothing_viable() {
        // Only one product and its reserve exceeds any possible bid:
        // no candidate is viable, so the unviable best is retained
        // (the offer stays pending rather than reported unserved).
        let market = DataMarket::new(
            MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(10.0)),
        );
        let s = market.seller("s");
        let id = s.share(keyed_rel("t", &[(1, "x")])).unwrap();
        s.set_reserve(id, 1_000.0).unwrap();
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
        super::super::expire(&market, &mut ctx);
        CandidateStage::default().run(&market, &mut ctx);
        assert_eq!(
            ctx.bids.len(),
            1,
            "unviable best still bids (clearing drops it)"
        );
        assert!(ctx.bids[0].reserve_floor > ctx.bids[0].bid);
    }
}
