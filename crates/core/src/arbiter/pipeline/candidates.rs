//! Phase 1, second half: build + evaluate candidate mashups per pending
//! offer.

use rayon::prelude::*;

use dmp_relation::DatasetId;

use crate::arbiter::mashup_builder::{build_mashups, BuiltMashup};
use crate::arbiter::pricing::RoundBid;
use crate::arbiter::wtp_evaluator::evaluate;
use crate::market::{DataMarket, Offer};
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

/// Outcome of evaluating one offer's candidates.
struct OfferOutcome {
    offer_id: u64,
    buyer: String,
    /// Winning candidate, if any: (mashup, satisfaction, bid).
    best: Option<(BuiltMashup, f64, f64)>,
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
                Some((m, satisfaction, bid)) => {
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
                        bid,
                        satisfaction,
                        datasets: m.datasets.clone(),
                        reserve_floor: market.reserve_floor(&m.datasets),
                        license_multiplier: market.license_multiplier(&m.datasets),
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
fn evaluate_offer(market: &DataMarket, ctx: &RoundContext, offer: &Offer) -> OfferOutcome {
    let mashups = build_mashups(&market.metadata, &offer.wtp, market.config.max_candidates);
    // Prefer *viable* candidates: ones whose seller reserve floor the
    // buyer's bid can possibly cover — otherwise a single overpriced
    // dataset would block an offer that an equivalent cheaper mashup
    // could serve. Ties between equally-priced candidates break
    // randomly, so equivalent suppliers share demand instead of the
    // first-registered seller capturing it.
    let mut evaluated: Vec<(BuiltMashup, f64, f64, bool)> = Vec::new();
    for m in mashups {
        if !market.admissible(&m, offer, ctx.now, ctx.round) {
            continue;
        }
        let ev = evaluate(&offer.wtp, &m.relation);
        if ev.bid <= 0.0 {
            continue;
        }
        let mult = market.license_multiplier(&m.datasets).max(1.0);
        let viable = ev.bid * mult + 1e-9 >= market.reserve_floor(&m.datasets);
        evaluated.push((m, ev.satisfaction, ev.bid, viable));
    }
    let any_viable = evaluated.iter().any(|(_, _, _, v)| *v);
    if any_viable {
        evaluated.retain(|(_, _, _, v)| *v);
    }
    let best_bid = evaluated
        .iter()
        .map(|(_, _, b, _)| *b)
        .fold(f64::NEG_INFINITY, f64::max);
    let tied: Vec<usize> = evaluated
        .iter()
        .enumerate()
        .filter(|(_, (_, _, b, _))| (*b - best_bid).abs() < 1e-9)
        .map(|(i, _)| i)
        .collect();
    let best = if tied.is_empty() {
        None
    } else {
        use rand::Rng;
        let pick = tied[ctx.offer_rng(offer.id).gen_range(0..tied.len())];
        let (m, s, b, _) = evaluated.swap_remove(pick);
        Some((m, s, b))
    };
    OfferOutcome {
        offer_id: offer.id,
        buyer: offer.wtp.buyer.clone(),
        best,
        all_attributes: offer.wtp.attributes.clone(),
    }
}

impl DataMarket {
    /// Is a mashup's dataset set admissible for this buyer/offer?
    /// Checks intrinsic constraints, exclusivity holds, and
    /// contextual-integrity policies (§4.4).
    pub(crate) fn admissible(
        &self,
        mashup: &BuiltMashup,
        offer: &Offer,
        now: u64,
        round: u64,
    ) -> bool {
        let buyer_role = self
            .participants
            .lock()
            .get(&offer.wtp.buyer)
            .map(|p| p.role.clone())
            .unwrap_or_default();
        let holds = self.exclusive_holds.lock();
        let policies = self.ci_policies.lock();
        for &d in &mashup.datasets {
            let admitted = self.metadata.with_entry(d, |e| {
                offer
                    .wtp
                    .constraints
                    .admits_dataset(e.registered_at, &e.owner, now)
            });
            if admitted != Some(true) {
                return false; // unknown dataset, or the buyer's constraints refuse it
            }
            if let Some((holder, until)) = holds.get(&d) {
                if *until >= round && holder != &offer.wtp.buyer {
                    return false; // exclusively held by someone else
                }
            }
            if let Some(policy) = policies.get(&d) {
                if !policy.permits(&buyer_role, &offer.purpose) {
                    return false;
                }
            }
        }
        true
    }

    /// License multiplier for a dataset set: the max of individual
    /// multipliers (one exclusive dataset taxes the whole mashup).
    pub(crate) fn license_multiplier(&self, datasets: &[DatasetId]) -> f64 {
        let licenses = self.licenses.lock();
        datasets
            .iter()
            .map(|d| {
                licenses
                    .get(d)
                    .cloned()
                    .unwrap_or_default()
                    .price_multiplier()
            })
            .fold(1.0, f64::max)
    }

    /// Sum of seller reserve prices over a dataset set.
    pub(crate) fn reserve_floor(&self, datasets: &[DatasetId]) -> f64 {
        let reserves = self.reserves.lock();
        datasets
            .iter()
            .map(|d| reserves.get(d).copied().unwrap_or(0.0))
            .sum()
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
        let floor = market.reserve_floor(&ctx.bids[0].datasets);
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
