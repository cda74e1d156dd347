//! Phase 3: transaction support + revenue allocation — every cleared
//! sale planned in parallel, then committed in sale order — and the ex
//! post reporting path that settles deliveries outside the round.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(clippy::indexing_slicing)]

use std::sync::Arc;

use rand::Rng;
use rayon::prelude::*;

use dmp_mechanism::elicitation::ElicitationProtocol;
use dmp_relation::Relation;

use crate::arbiter::mashup_builder::BuiltMashup;
use crate::arbiter::pricing::Sale;
use crate::arbiter::revenue::dataset_shares;
use crate::arbiter::services::Purchase;
use crate::error::{MarketError, MarketResult};
use crate::market::{
    DataMarket, DatasetShare, Delivery, OfferState, Settlement, TransactionRecord, ARBITER_ACCOUNT,
};
use crate::trust::AuditEvent;

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

/// Settle a round's cleared sales.
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
/// Every sale's plan is its own parallel task — plans read nothing a
/// commit writes. Commits then run strictly in sale order: ids, the
/// audit chain and hold success depend on it, and an earlier sale's
/// proceeds may fund a later purchase.
pub fn settle(
    markets: &[DataMarket],
    ctxs: &mut [RoundContext],
    sales: Vec<Sale>,
    home: impl Fn(&str) -> usize,
) {
    super::timed("settlement", || {
        let homed: Vec<(usize, Sale)> = sales
            .into_iter()
            .map(|sale| (home(&sale.buyer), sale))
            .collect();
        let rounds: &[RoundContext] = ctxs;
        // Ex post sales move no money until the report: nothing to plan.
        let plans: Vec<Option<SettlementPlan>> = homed
            .par_iter()
            .map(|(at, sale)| {
                let market = markets.get(*at)?;
                let mashup = rounds.get(*at)?.best_mashups.get(&sale.offer_id)?;
                (!market.is_ex_post()).then(|| market.plan_settlement(sale, mashup))
            })
            .collect();
        for ((at, sale), plan) in homed.into_iter().zip(plans) {
            if let (Some(market), Some(ctx)) = (markets.get(at), ctxs.get_mut(at)) {
                commit(market, ctx, sale, plan);
            }
        }
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

impl BuiltMashup {
    /// The rows a delivery files: the winning build's own, shared, so a
    /// sale copies no row. (Sharing once cost the distributed path its
    /// throughput, while its messages were still decoded through `Json`
    /// trees; on the streamed codec it does not.)
    fn delivered_rows(&self) -> Arc<Relation> {
        Arc::clone(&self.relation)
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
        SettlementPlan {
            fee,
            shares: dataset_shares(&self.config.design, &mashup.relation, to_sellers),
            reward_shares: self.reward_shares(mashup),
        }
    }

    /// Platform-minted contribution rewards for `mashup`, split like its
    /// revenue (empty when the config mints none).
    fn reward_shares(&self, mashup: &BuiltMashup) -> Vec<DatasetShare> {
        let reward = self.config.contribution_reward;
        if reward > 0.0 {
            dataset_shares(&self.config.design, &mashup.relation, reward)
        } else {
            Vec::new()
        }
    }

    /// The account a revenue share pays: the dataset's owner, or the
    /// arbiter for a provenance-free residual.
    fn payee(&self, share: &DatasetShare) -> String {
        self.metadata
            .with_entry(share.dataset, |e| e.owner.clone())
            .unwrap_or_else(|| ARBITER_ACCOUNT.to_string())
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
            self.ledger
                .release_up_to(escrow, &self.payee(share), share.amount)?;
        }
        self.ledger.close(escrow)?; // refund rounding residue, if any

        let tx = self.book.lock().next_tx();
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
        let mut book = self.book.lock();
        book.deliver(|id| Delivery {
            id,
            offer_id: sale.offer_id,
            buyer: sale.buyer.clone(),
            relation: mashup.delivered_rows(),
            satisfaction: sale.satisfaction,
            escrow: u64::MAX,
            datasets: mashup.datasets.clone(),
            settlement: Some(Settlement {
                paid: sale.price,
                penalty: 0.0,
                audited: false,
            }),
        });
        book.set_offer_state(sale.offer_id, OfferState::Fulfilled { tx });
        book.transactions.push(record.clone());
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
        self.book.lock().purchases.push(Purchase {
            buyer: record.buyer.clone(),
            datasets: mashup.datasets.clone(),
        });
        // Start exclusivity holds.
        let mut terms = self.terms.lock();
        for &d in &mashup.datasets {
            if let Some(l) = terms.licenses.get(&d).filter(|l| l.is_exclusive()) {
                let until = round + l.hold_rounds() as u64;
                terms
                    .exclusive_holds
                    .insert(d, (record.buyer.clone(), until));
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
        let mut book = self.book.lock();
        let delivery_id = book.deliver(|id| Delivery {
            id,
            offer_id: sale.offer_id,
            buyer: sale.buyer.clone(),
            relation: mashup.delivered_rows(),
            satisfaction: sale.satisfaction,
            escrow,
            datasets: mashup.datasets.clone(),
            settlement: None,
        });
        book.set_offer_state(
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
        let (delivery, offer) = {
            let book = self.book.lock();
            let d = book
                .deliveries
                .get(&delivery_id)
                .ok_or(MarketError::UnknownId(delivery_id))?;
            if d.settlement.is_some() {
                return Err(MarketError::Invalid("delivery already settled".into()));
            }
            let offer = book
                .offers
                .get(&d.offer_id)
                .cloned()
                .ok_or(MarketError::UnknownId(d.offer_id))?;
            (d.clone(), offer)
        };
        let escrow = delivery.escrow;
        let deposit = self
            .ledger
            .escrow_remaining(escrow)
            .ok_or(MarketError::UnknownId(escrow))?;
        // Reports are capped by the escrowed deposit (the declared cap).
        let reported = reported.max(0.0).min(deposit);

        // Audit: the arbiter re-runs the packaged task (it already knows
        // the measured satisfaction) and compares the implied value.
        let true_value = offer.wtp.curve.price(delivery.satisfaction);
        let mut penalty = 0.0;
        let (audited, round) = {
            let mut book = self.book.lock();
            let audited = book.rng.gen::<f64>() < mech.audit_prob;
            // Differences below the ledger's micro-credit granularity
            // are not payable, so they cannot count as under-reporting
            // (the escrowed cap itself is rounded to micro-credits).
            if audited && reported + 1e-6 < true_value {
                penalty = mech.penalty_mult * (true_value - reported);
                let excluded_until = book.round + mech.exclusion_rounds as u64;
                if let Some(p) = book.participants.get_mut(&delivery.buyer) {
                    p.reputation = (p.reputation * 0.5).max(0.0);
                    p.excluded_until = excluded_until;
                }
            }
            (audited, book.round)
        };
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
        let shares = dataset_shares(&self.config.design, &delivery.relation, to_sellers);
        for share in &shares {
            self.ledger
                .release_up_to(escrow, &self.payee(share), share.amount)?;
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
        let tx = self.book.lock().next_tx();
        let record = TransactionRecord {
            id: tx,
            offer_id: offer.id,
            buyer: delivery.buyer,
            price: base,
            fee,
            satisfaction: delivery.satisfaction,
            datasets: delivery.datasets.clone(),
            shares,
            round,
        };
        let built = BuiltMashup {
            relation: delivery.relation,
            datasets: delivery.datasets,
            coverage: 1.0,
            confidence: 1.0,
            missing: Vec::new(),
        };
        self.finish_transaction(&record, &built, round, &self.reward_shares(&built));
        let mut book = self.book.lock();
        book.transactions.push(record);
        book.set_offer_state(offer.id, OfferState::Fulfilled { tx });
        if let Some(d) = book.deliveries.get_mut(&delivery_id) {
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
    use dmp_relation::builder::{keyed_rel, RelationBuilder};
    use dmp_relation::{DataType, Value};

    /// A market under `design` where seller `s` shares one table and
    /// `buyer`, funded with `funds`, offers 30 for it; and the offer id.
    fn one_offer(design: MarketDesign, buyer: &str, funds: f64) -> (DataMarket, u64) {
        let market = DataMarket::new(MarketConfig::external(3).with_design(design));
        let table = keyed_rel("t", &[(1, "x")]);
        market.seller("s").share(table).unwrap();
        market.buyer(buyer).deposit(funds);
        let wtp = WtpFunction::simple(buyer, ["k", "v"], PriceCurve::Constant(30.0));
        let offer = market.submit_wtp(wtp).unwrap();
        (market, offer)
    }

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
        let (market, offer) = one_offer(MarketDesign::posted_price_baseline(10.0), "b", 100.0);

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
        let (market, offer) = one_offer(design, "b", 100.0);

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
    fn a_filed_delivery_shares_the_winners_rows() {
        let mut ex_post = MarketDesign::posted_price_baseline(10.0);
        ex_post.elicitation = ElicitationProtocol::ExPost(ExPostMechanism {
            audit_prob: 0.0,
            penalty_mult: 2.0,
            exclusion_rounds: 1,
            round_value: 0.0,
        });
        for design in [MarketDesign::posted_price_baseline(10.0), ex_post] {
            let (market, offer) = one_offer(design, "b", 100.0);
            let (mut ctx, sales) = staged_ctx(&market);
            let won = Arc::clone(&ctx.best_mashups[&offer].relation);
            settle_one_market(&market, &mut ctx, sales);
            let deliveries = market.deliveries();
            assert_eq!(deliveries.len(), 1);
            assert!(Arc::ptr_eq(&deliveries[0].relation, &won));
        }
    }

    #[test]
    fn unfunded_ex_ante_sale_leaves_no_partial_state() {
        let (market, offer) = one_offer(MarketDesign::posted_price_baseline(10.0), "broke", 0.0);

        let (mut ctx, sales) = staged_ctx(&market);
        assert_eq!(sales.len(), 1, "the bid clears");
        settle_one_market(&market, &mut ctx, sales);

        assert!(ctx.completed_sales.is_empty());
        assert_eq!(ctx.revenue, 0.0);
        assert_eq!(market.offer(offer).unwrap().state, OfferState::Pending);
        assert!(market.transactions().is_empty());
    }

    /// Ten offers over six tables of five sellers (`s0` owns two), a 10 %
    /// fee: `b0` buys twice, `b0` and `b6` buy the same table, `b7` buys a
    /// two-table mashup, `b4` cannot pay and `b5` pays only for its first.
    fn crowded_round() -> (DataMarket, RoundContext, Vec<Sale>) {
        let mut design = MarketDesign::posted_price_baseline(10.0);
        design.arbiter_fee = 0.1;
        let market = DataMarket::new(MarketConfig::external(3).with_design(design));
        for (d, seller) in ["s0", "s0", "s1", "s2", "s3", "s4"].into_iter().enumerate() {
            let table = RelationBuilder::new(format!("d{d}"))
                .column("k", DataType::Int)
                .column(format!("x{d}"), DataType::Str)
                .rows((1..=3).map(|k| vec![Value::Int(k), Value::str(format!("v{k}"))]))
                .build()
                .unwrap();
            market.seller(seller).share(table).unwrap();
        }
        let funds = [100.0, 100.0, 100.0, 100.0, 0.0, 15.0, 100.0, 100.0];
        for (b, funds) in funds.into_iter().enumerate() {
            market.buyer(&format!("b{b}")).deposit(funds);
        }
        let buyers = [0, 0, 1, 2, 3, 4, 5, 5, 6, 7];
        let wants = "x0 x2 x1 x3 x4 x5 x2 x3 x0 x3+x4".split(' ');
        for (b, want) in buyers.into_iter().zip(wants) {
            let wtp =
                WtpFunction::simple(format!("b{b}"), want.split('+'), PriceCurve::Constant(30.0));
            market.submit_wtp(wtp).unwrap();
        }
        let (ctx, sales) = staged_ctx(&market);
        (market, ctx, sales)
    }

    /// Balances (as bits), transactions, offer states and audit chain.
    fn settled_state(market: &DataMarket) -> String {
        let balances: Vec<_> = market
            .ledger
            .balances()
            .into_iter()
            .map(|(account, balance)| (account, balance.to_bits()))
            .collect();
        let states: Vec<_> = market.offers().into_iter().map(|o| o.state).collect();
        let (txs, audit) = (market.transactions(), market.audit_log().entries());
        format!("{balances:?}\n{txs:?}\n{states:?}\n{audit:?}")
    }

    #[test]
    fn parallel_plans_settle_like_sale_by_sale_planning() {
        let (market, mut ctx, sales) = crowded_round();
        assert!(sales.len() >= 8, "only {} sales cleared", sales.len());
        settle_one_market(&market, &mut ctx, sales);

        let (reference, mut ref_ctx, ref_sales) = crowded_round();
        for sale in ref_sales {
            let mashup = ref_ctx.best_mashups.get(&sale.offer_id);
            let plan = mashup.map(|m| reference.plan_settlement(&sale, m));
            commit(&reference, &mut ref_ctx, sale, plan);
        }

        assert_eq!(settled_state(&market), settled_state(&reference));
        assert_eq!(ctx.completed_sales, ref_ctx.completed_sales);
        assert_eq!(ctx.revenue.to_bits(), ref_ctx.revenue.to_bits());
        assert_eq!(ctx.fees.to_bits(), ref_ctx.fees.to_bits());
        let pending = market
            .offers()
            .into_iter()
            .filter(|o| o.state == OfferState::Pending);
        assert_eq!(pending.count(), 2, "b4's offer and b5's second");
    }
}
