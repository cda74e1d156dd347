//! Phase 3: transaction support + revenue allocation, by conflict graph
//! — and the ex post reporting path that settles deliveries outside the
//! round.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(clippy::indexing_slicing)]

use std::sync::atomic::Ordering;

use rand::Rng;
use rayon::prelude::*;

use dmp_mechanism::elicitation::ElicitationProtocol;

use crate::arbiter::mashup_builder::BuiltMashup;
use crate::arbiter::pricing::Sale;
use crate::arbiter::revenue::dataset_shares;
use crate::arbiter::services::Purchase;
use crate::error::{MarketError, MarketResult};
use crate::market::{
    DataMarket, DatasetShare, Delivery, OfferState, Settlement, TransactionRecord, ARBITER_ACCOUNT,
};
use crate::trust::AuditEvent;

use super::conflict::connected_components;
use super::RoundContext;

/// The commit-independent arithmetic of one ex ante settlement.
///
/// Everything here is a pure function of the market design, the sale,
/// and the winning mashup's relation — never of ledger state mutated by
/// earlier settlements — so plans for *any* set of sales can be
/// computed concurrently and then committed sequentially in global
/// offer-id order with results bit-identical to planning each sale just
/// before its commit: the commit consumes the plan verbatim, it never
/// recomputes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SettlementPlan {
    /// Arbiter fee carved out of the sale price.
    pub fee: f64,
    /// Provenance-based revenue shares over `price − fee`.
    pub shares: Vec<DatasetShare>,
    /// Platform-minted contribution rewards (empty when the config
    /// mints none).
    pub reward_shares: Vec<DatasetShare>,
}

/// Settle a round's cleared sales; returns how many conflict components
/// they partitioned into.
///
/// `markets[i]` and `ctxs[i]` are one market and its round; `home`
/// names the market a sale's buyer lives on (`|_| 0` for one market);
/// `sales` come sorted by offer id, as [`super::clear`] returns them.
/// Ex ante, the buyer pays now (escrow, fee, provenance shares,
/// lineage, licence holds); ex post (§3.2.2.2), the declared cap is
/// escrowed and the mashup delivered until [`DataMarket::report_value`].
/// An unfunded sale leaves its offer pending and no partial state; a
/// sale without a winning mashup on its home market is skipped.
///
/// Sales sharing an account or hold (`DataMarket::settlement_conflict_keys`)
/// form connected components whose plans are computed concurrently —
/// plans read nothing a commit writes. Commits then run strictly in
/// sale order: ids, the audit chain and hold success depend on it, and
/// an earlier sale's proceeds may fund a later purchase.
pub fn settle(
    markets: &[DataMarket],
    ctxs: &mut [RoundContext],
    sales: Vec<Sale>,
    home: impl Fn(&str) -> usize,
) -> usize {
    super::timed("settlement", || {
        let homed: Vec<(usize, Sale)> = sales
            .into_iter()
            .map(|sale| (home(&sale.buyer), sale))
            .collect();
        let rounds: &[RoundContext] = ctxs;
        // A sale's home market and its winning mashup there.
        let mashup = |at: usize, sale: &Sale| {
            let market = markets.get(at)?;
            let mashup = rounds.get(at)?.best_mashups.get(&sale.offer_id)?;
            Some((market, mashup))
        };
        let keys: Vec<Vec<String>> = homed
            .iter()
            .map(|(at, sale)| match mashup(*at, sale) {
                Some((market, mashup)) => market.settlement_conflict_keys(sale, mashup),
                None => Vec::new(),
            })
            .collect();
        let components = connected_components(&keys);
        // Ex post sales move no money until the report: nothing to plan.
        let plan = |at: usize, sale: &Sale| {
            let (market, mashup) = mashup(at, sale)?;
            (!market.is_ex_post()).then(|| market.plan_settlement(sale, mashup))
        };
        let mut plans: Vec<(usize, Option<SettlementPlan>)> = components
            .par_iter()
            .map(|component| {
                component
                    .iter()
                    .map(|&i| (i, homed.get(i).and_then(|(at, sale)| plan(*at, sale))))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();
        // Back to sale order, whichever component finished first.
        plans.sort_by_key(|(i, _)| *i);
        for ((at, sale), (_, plan)) in homed.into_iter().zip(plans) {
            if let (Some(market), Some(ctx)) = (markets.get(at), ctxs.get_mut(at)) {
                commit(market, ctx, sale, plan);
            }
        }
        components.len()
    })
}

/// Commit one sale on its home market: ex ante from its plan, ex post
/// by delivery.
fn commit(market: &DataMarket, ctx: &mut RoundContext, sale: Sale, plan: Option<SettlementPlan>) {
    let Some(mashup) = ctx.best_mashups.get(&sale.offer_id) else {
        return;
    };
    if market.is_ex_post() {
        // A buyer who cannot fund the deposit keeps the offer pending.
        if let Ok(delivery_id) = market.deliver_ex_post(&sale, mashup) {
            ctx.deliveries.push(delivery_id);
            ctx.completed_sales.push(sale);
        }
    } else if let Some(plan) = plan {
        // Insufficient funds likewise leave the offer pending.
        if let Ok(record) = market.settle_planned(&sale, mashup, ctx.round, &plan) {
            ctx.revenue += record.price;
            ctx.fees += record.fee;
            ctx.completed_sales.push(sale);
        }
    }
}

impl DataMarket {
    /// Does this market's design defer payment to the buyer's report?
    fn is_ex_post(&self) -> bool {
        matches!(
            self.config.design.elicitation,
            ElicitationProtocol::ExPost(_)
        )
    }

    /// Compute the commit-independent arithmetic of one ex ante
    /// settlement — see [`SettlementPlan`] for why this is safe to run
    /// concurrently for sales that have not committed yet.
    pub(crate) fn plan_settlement(&self, sale: &Sale, mashup: &BuiltMashup) -> SettlementPlan {
        let fee = sale.price * self.config.design.arbiter_fee.clamp(0.0, 1.0);
        let to_sellers = sale.price - fee;
        let shares = dataset_shares(&self.config.design, &mashup.relation, to_sellers);
        let reward_shares = if self.config.contribution_reward > 0.0 {
            dataset_shares(
                &self.config.design,
                &mashup.relation,
                self.config.contribution_reward,
            )
        } else {
            Vec::new()
        };
        SettlementPlan {
            fee,
            shares,
            reward_shares,
        }
    }

    /// The conflict keys of one cleared sale: the ledger accounts and
    /// exclusivity-hold slots its settlement writes. Two sales with
    /// disjoint key sets commute semantically; sharing any key makes
    /// them neighbors in the round's conflict graph. [`ARBITER_ACCOUNT`]
    /// is excluded — every sale credits the arbiter's fee account, and
    /// integer micro-credit deposits commute exactly, so including it
    /// would collapse every round into one component. A dataset with no
    /// metadata entry pays its residual to the arbiter and is likewise
    /// account-free (its `d:` hold key still counts).
    pub(crate) fn settlement_conflict_keys(
        &self,
        sale: &Sale,
        mashup: &BuiltMashup,
    ) -> Vec<String> {
        let mut keys = vec![format!("a:{}", sale.buyer)];
        for &d in &mashup.datasets {
            let owner = self.metadata.with_entry(d, |e| e.owner.clone());
            if let Some(owner) = owner.filter(|o| o != ARBITER_ACCOUNT) {
                keys.push(format!("a:{owner}"));
            }
            keys.push(format!("d:{}", d.0));
        }
        keys.sort();
        keys.dedup();
        keys
    }

    /// Commit one ex ante settlement from its precomputed plan. Order
    /// matters here — escrow/tx/delivery id allocation, the audit
    /// chain, and hold success all depend on every prior commit — so
    /// callers drive commits sequentially in global offer-id order.
    pub(crate) fn settle_planned(
        &self,
        sale: &Sale,
        mashup: &BuiltMashup,
        round: u64,
        plan: &SettlementPlan,
    ) -> MarketResult<TransactionRecord> {
        let fee = plan.fee;
        let shares = &plan.shares;

        // Atomic-ish: verify funds, then transfer piecewise.
        let escrow = self.ledger.hold(&sale.buyer, sale.price)?;
        // Payouts go through `release_up_to`: fee and shares are each
        // micro-rounded independently, so the last payout may exceed
        // the (also rounded) hold by sub-micro dust.
        if fee > 0.0 {
            self.ledger.release_up_to(escrow, ARBITER_ACCOUNT, fee)?;
        }
        for share in shares {
            let owner = self
                .metadata
                .with_entry(share.dataset, |e| e.owner.clone())
                .unwrap_or_else(|| ARBITER_ACCOUNT.to_string()); // provenance-free residual
            self.ledger.release_up_to(escrow, &owner, share.amount)?;
        }
        self.ledger.close(escrow)?; // refund rounding residue, if any

        let tx = self.next_tx.fetch_add(1, Ordering::Relaxed);
        let record = TransactionRecord {
            id: tx,
            offer_id: sale.offer_id,
            buyer: sale.buyer.clone(),
            price: sale.price,
            fee,
            satisfaction: sale.satisfaction,
            datasets: mashup.datasets.clone(),
            shares: shares.clone(),
            round,
        };
        self.finish_transaction(&record, mashup, round, &plan.reward_shares);

        // Deliver the data as a settled delivery record.
        let delivery_id = self.next_delivery.fetch_add(1, Ordering::Relaxed);
        self.deliveries.lock().push(Delivery {
            id: delivery_id,
            offer_id: sale.offer_id,
            buyer: sale.buyer.clone(),
            relation: mashup.relation.clone(),
            satisfaction: sale.satisfaction,
            escrow: u64::MAX,
            datasets: mashup.datasets.clone(),
            settlement: Some(Settlement {
                paid: sale.price,
                penalty: 0.0,
                audited: false,
            }),
        });
        self.set_offer_state(sale.offer_id, OfferState::Fulfilled { tx });
        self.transactions.lock().push(record.clone());
        Ok(record)
    }

    /// Shared bookkeeping after money moved. `reward_shares` are the
    /// platform-minted contribution rewards (bonus points / credits):
    /// sellers are compensated even when the design charges buyers
    /// nothing, split like the revenue shares would be. They arrive
    /// precomputed (from the sale's [`SettlementPlan`] or by the ex post
    /// report path) so both settlement paths share one body.
    fn finish_transaction(
        &self,
        record: &TransactionRecord,
        mashup: &BuiltMashup,
        round: u64,
        reward_shares: &[DatasetShare],
    ) {
        for share in reward_shares {
            if let Some(owner) = self.metadata.with_entry(share.dataset, |e| e.owner.clone()) {
                self.ledger.deposit(&owner, share.amount);
            }
        }
        self.audit.record(AuditEvent::TransactionSettled {
            tx: record.id,
            buyer: record.buyer.clone(),
            price: record.price,
        });
        for share in &record.shares {
            self.lineage.record(
                share.dataset,
                dmp_discovery::LineageEvent::SoldInMashup {
                    mashup: format!("offer{}", record.offer_id),
                    revenue: share.amount,
                },
            );
        }
        for &d in &mashup.datasets {
            self.lineage.record(
                d,
                dmp_discovery::LineageEvent::UsedInMashup {
                    mashup: format!("offer{}", record.offer_id),
                    rows_contributed: mashup.relation.len(),
                },
            );
        }
        self.purchases.lock().push(Purchase {
            buyer: record.buyer.clone(),
            datasets: mashup.datasets.clone(),
        });
        // Start exclusivity holds.
        let licenses = self.licenses.lock();
        let mut holds = self.exclusive_holds.lock();
        for &d in &mashup.datasets {
            if let Some(l) = licenses.get(&d) {
                if l.is_exclusive() {
                    holds.insert(d, (record.buyer.clone(), round + l.hold_rounds() as u64));
                }
            }
        }
    }

    /// Ex post delivery: escrow the buyer's declared cap, hand over data.
    pub(crate) fn deliver_ex_post(&self, sale: &Sale, mashup: &BuiltMashup) -> MarketResult<u64> {
        let offer = self
            .offer(sale.offer_id)
            .ok_or(MarketError::UnknownId(sale.offer_id))?;
        let deposit = offer.wtp.max_price().max(sale.price);
        let escrow = self.ledger.hold(&sale.buyer, deposit)?;
        let delivery_id = self.next_delivery.fetch_add(1, Ordering::Relaxed);
        self.deliveries.lock().push(Delivery {
            id: delivery_id,
            offer_id: sale.offer_id,
            buyer: sale.buyer.clone(),
            relation: mashup.relation.clone(),
            satisfaction: sale.satisfaction,
            escrow,
            datasets: mashup.datasets.clone(),
            settlement: None,
        });
        self.set_offer_state(
            sale.offer_id,
            OfferState::AwaitingReport {
                delivery: delivery_id,
            },
        );
        Ok(delivery_id)
    }

    /// Buyer reports the value realized from an ex post delivery; the
    /// market settles, possibly audits, penalizes detected
    /// under-reporting, and distributes revenue.
    pub fn report_value(&self, delivery_id: u64, reported: f64) -> MarketResult<Settlement> {
        let mech = match &self.config.design.elicitation {
            ElicitationProtocol::ExPost(m) => m.clone(),
            ElicitationProtocol::ExAnte => {
                return Err(MarketError::Invalid(
                    "market uses ex ante elicitation; nothing to report".into(),
                ))
            }
        };
        let (offer_id, buyer, satisfaction, escrow, mashup_rel, datasets) = {
            let deliveries = self.deliveries.lock();
            let d = deliveries
                .iter()
                .find(|d| d.id == delivery_id)
                .ok_or(MarketError::UnknownId(delivery_id))?;
            if d.settlement.is_some() {
                return Err(MarketError::Invalid("delivery already settled".into()));
            }
            (
                d.offer_id,
                d.buyer.clone(),
                d.satisfaction,
                d.escrow,
                d.relation.clone(),
                d.datasets.clone(),
            )
        };
        let offer = self
            .offer(offer_id)
            .ok_or(MarketError::UnknownId(offer_id))?;
        let deposit = self
            .ledger
            .escrow_remaining(escrow)
            .ok_or(MarketError::UnknownId(escrow))?;
        // Reports are capped by the escrowed deposit (the declared cap).
        let reported = reported.max(0.0).min(deposit);

        // Audit: the arbiter re-runs the packaged task (it already knows
        // the measured satisfaction) and compares the implied value.
        let audited = self.rng.lock().gen::<f64>() < mech.audit_prob;
        let true_value = offer.wtp.curve.price(satisfaction);
        let mut penalty = 0.0;
        // Differences below the ledger's micro-credit granularity are
        // not payable, so they cannot count as under-reporting (the
        // escrowed cap itself is rounded to micro-credits).
        if audited && reported + 1e-6 < true_value {
            penalty = mech.penalty_mult * (true_value - reported);
            let round = self.round();
            if let Some(p) = self.participants.lock().get_mut(&buyer) {
                p.reputation = (p.reputation * 0.5).max(0.0);
                p.excluded_until = round + mech.exclusion_rounds as u64;
            }
        }
        self.audit.record(AuditEvent::ExPostAudit {
            delivery: delivery_id,
            underreported: penalty > 0.0,
        });

        // Pay from escrow: sellers first, then fee + penalty (capped by
        // what the deposit can still cover).
        let fee_rate = self.config.design.arbiter_fee.clamp(0.0, 1.0);
        let base = reported;
        let to_sellers = base * (1.0 - fee_rate);
        let fee = (base * fee_rate + penalty).min(deposit - to_sellers);
        let shares = dataset_shares(&self.config.design, &mashup_rel, to_sellers);
        for share in &shares {
            let owner = self
                .metadata
                .with_entry(share.dataset, |e| e.owner.clone())
                .unwrap_or_else(|| ARBITER_ACCOUNT.to_string());
            self.ledger.release_up_to(escrow, &owner, share.amount)?;
        }
        if fee > 0.0 {
            self.ledger.release_up_to(escrow, ARBITER_ACCOUNT, fee)?;
        }
        self.ledger.close(escrow)?;

        let settlement = Settlement {
            paid: base,
            penalty,
            audited,
        };
        let tx = self.next_tx.fetch_add(1, Ordering::Relaxed);
        let record = TransactionRecord {
            id: tx,
            offer_id,
            buyer: buyer.clone(),
            price: base,
            fee,
            satisfaction,
            datasets: datasets.clone(),
            shares,
            round: self.round(),
        };
        let built = BuiltMashup {
            relation: mashup_rel,
            datasets,
            coverage: 1.0,
            confidence: 1.0,
            missing: Vec::new(),
        };
        let reward_shares = if self.config.contribution_reward > 0.0 {
            dataset_shares(
                &self.config.design,
                &built.relation,
                self.config.contribution_reward,
            )
        } else {
            Vec::new()
        };
        self.finish_transaction(&record, &built, self.round(), &reward_shares);
        self.transactions.lock().push(record);
        self.set_offer_state(offer_id, OfferState::Fulfilled { tx });
        if let Some(d) = self
            .deliveries
            .lock()
            .iter_mut()
            .find(|d| d.id == delivery_id)
        {
            d.settlement = Some(settlement);
        }
        Ok(settlement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::pipeline::{clear, expire, CandidateStage};
    use crate::market::MarketConfig;
    use dmp_mechanism::design::MarketDesign;
    use dmp_mechanism::elicitation::ExPostMechanism;
    use dmp_mechanism::wtp::{PriceCurve, WtpFunction};
    use dmp_relation::builder::keyed_rel;

    /// A round of `market` opened and cleared, with its cleared sales.
    fn staged_ctx(market: &DataMarket) -> (RoundContext, Vec<Sale>) {
        let mut ctx = RoundContext::open(market);
        expire(market, &mut ctx);
        CandidateStage::default().run(market, &mut ctx);
        let sales = clear(&market.config.design, std::slice::from_mut(&mut ctx));
        (ctx, sales)
    }

    fn settle_one_market(market: &DataMarket, ctx: &mut RoundContext, sales: Vec<Sale>) {
        settle(
            std::slice::from_ref(market),
            std::slice::from_mut(ctx),
            sales,
            |_| 0,
        );
    }

    #[test]
    fn ex_ante_settlement_moves_money_and_fulfills_the_offer() {
        let market = DataMarket::new(
            MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(10.0)),
        );
        market
            .seller("s")
            .share(keyed_rel("t", &[(1, "x")]))
            .unwrap();
        let b = market.buyer("b");
        b.deposit(100.0);
        let offer = market
            .submit_wtp(WtpFunction::simple(
                "b",
                ["k", "v"],
                PriceCurve::Constant(30.0),
            ))
            .unwrap();

        let (mut ctx, sales) = staged_ctx(&market);
        settle_one_market(&market, &mut ctx, sales);

        assert_eq!(ctx.completed_sales.len(), 1);
        assert!((ctx.revenue - 10.0).abs() < 1e-9);
        assert!(market.balance("s") > 0.0);
        assert!((market.balance("b") - 90.0).abs() < 1e-9);
        assert!(matches!(
            market.offer(offer).unwrap().state,
            OfferState::Fulfilled { .. }
        ));
    }

    #[test]
    fn ex_post_settlement_escrows_and_awaits_the_report() {
        let mut design = MarketDesign::posted_price_baseline(10.0);
        design.elicitation = ElicitationProtocol::ExPost(ExPostMechanism {
            audit_prob: 1.0,
            penalty_mult: 2.0,
            exclusion_rounds: 1,
            round_value: 0.0,
        });
        let market = DataMarket::new(MarketConfig::external(3).with_design(design));
        market
            .seller("s")
            .share(keyed_rel("t", &[(1, "x")]))
            .unwrap();
        let b = market.buyer("b");
        b.deposit(100.0);
        let offer = market
            .submit_wtp(WtpFunction::simple(
                "b",
                ["k", "v"],
                PriceCurve::Constant(30.0),
            ))
            .unwrap();

        let (mut ctx, sales) = staged_ctx(&market);
        settle_one_market(&market, &mut ctx, sales);

        assert_eq!(ctx.deliveries.len(), 1);
        assert_eq!(ctx.revenue, 0.0, "no money moves before the report");
        assert!(matches!(
            market.offer(offer).unwrap().state,
            OfferState::AwaitingReport { .. }
        ));
        // The declared cap (30) is escrowed out of the buyer's balance.
        assert!((market.balance("b") - 70.0).abs() < 1e-9);

        // Reporting settles the delivery through the escrow.
        let settlement = market.report_value(ctx.deliveries[0], 30.0).unwrap();
        assert!((settlement.paid - 30.0).abs() < 1e-9);
        assert_eq!(settlement.penalty, 0.0);
        assert!(market.balance("s") > 0.0);
    }

    #[test]
    fn unfunded_ex_ante_sale_leaves_no_partial_state() {
        let market = DataMarket::new(
            MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(10.0)),
        );
        market
            .seller("s")
            .share(keyed_rel("t", &[(1, "x")]))
            .unwrap();
        let _ = market.buyer("broke"); // no deposit
        let offer = market
            .submit_wtp(WtpFunction::simple(
                "broke",
                ["k", "v"],
                PriceCurve::Constant(30.0),
            ))
            .unwrap();

        let (mut ctx, sales) = staged_ctx(&market);
        assert_eq!(sales.len(), 1, "the bid clears");
        settle_one_market(&market, &mut ctx, sales);

        assert!(ctx.completed_sales.is_empty());
        assert_eq!(ctx.revenue, 0.0);
        assert_eq!(market.offer(offer).unwrap().state, OfferState::Pending);
        assert!(market.transactions().is_empty());
    }
}
