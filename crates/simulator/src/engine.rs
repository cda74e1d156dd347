//! The round-based simulation engine (Fig. 1 (3)): drives a *real*
//! [`DataMarket`] with strategic agents, so a market design is tested on
//! exactly the software that will deploy it (the explicit interplay
//! between market design and DMMS the paper calls for).

use std::collections::HashMap;

use rand::Rng;
use rand::SeedableRng;

use dmp_core::market::{DataMarket, MarketConfig};
use dmp_mechanism::elicitation::ElicitationProtocol;
use dmp_mechanism::wtp::{PriceCurve, WtpFunction};
use dmp_relation::{DataType, Relation, RelationBuilder, Value};

use crate::agents::{BuyerStrategy, SellerStrategy};
use crate::metrics::MarketMetrics;
use crate::workload::{Demand, Workload};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Market configuration (kind, design, currency).
    pub market: MarketConfig,
    /// Rounds to run.
    pub rounds: u64,
    /// Funds deposited per buyer at enrollment (money markets).
    pub buyer_funds: f64,
    /// Engine RNG seed (strategy noise).
    pub seed: u64,
    /// Attach `OwnershipTransfer` licenses to every seller dataset so
    /// arbitrageurs may legally resell (§7.1 scenarios).
    pub resale_allowed: bool,
}

impl SimConfig {
    /// Default simulation over a market config.
    pub fn new(market: MarketConfig, rounds: u64) -> Self {
        SimConfig {
            market,
            rounds,
            buyer_funds: 10_000.0,
            seed: 99,
            resale_allowed: false,
        }
    }

    /// Allow resale (arbitrageur scenarios).
    pub fn with_resale(mut self) -> Self {
        self.resale_allowed = true;
        self
    }
}

/// Per-round summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundSummary {
    /// Revenue settled this round.
    pub revenue: f64,
    /// Transactions settled this round.
    pub transactions: usize,
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Aggregated metrics.
    pub metrics: MarketMetrics,
    /// Per-round series (for trajectory plots).
    pub per_round: Vec<RoundSummary>,
}

/// The simulation itself.
pub struct Simulation {
    market: DataMarket,
    demands: Vec<Demand>,
    buyer_strategies: Vec<BuyerStrategy>,
    sellers: Vec<(String, SellerStrategy)>,
    rng: rand::rngs::StdRng,
    submitted: Vec<bool>,
    filled: Vec<bool>,
    offer_to_demand: HashMap<u64, usize>,
    utilities: HashMap<String, f64>,
    satisfaction_sum: f64,
    welfare: f64,
    opportunist_counter: usize,
    /// Arbitrageur deliveries already transformed + relisted.
    arbitraged: std::collections::HashSet<u64>,
    /// Offers submitted by arbitrageurs (excluded from demand metrics).
    arbitrageur_offers: std::collections::HashSet<u64>,
}

impl Simulation {
    /// Set up: deploy the market, register seller inventories per
    /// strategy, fund buyers. `buyer_strategies` aligns with
    /// `workload.demands`, `seller_strategies` with
    /// `workload.inventories` (both cycle if shorter).
    pub fn new(
        cfg: SimConfig,
        workload: Workload,
        buyer_strategies: Vec<BuyerStrategy>,
        seller_strategies: Vec<SellerStrategy>,
    ) -> Self {
        let resale_allowed = cfg.resale_allowed;
        let market = DataMarket::new(cfg.market);
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);

        let set_license = |handle: &dmp_core::seller::SellerHandle<'_>, id| {
            if resale_allowed {
                let _ = handle.set_license(id, dmp_core::license::License::OwnershipTransfer);
            }
        };
        let mut sellers = Vec::new();
        for (i, (name, tables)) in workload.inventories.iter().enumerate() {
            let strategy = seller_strategies
                .get(i % seller_strategies.len().max(1))
                .cloned()
                .unwrap_or(SellerStrategy::Honest);
            let handle = market.seller(name);
            match &strategy {
                SellerStrategy::Honest => {
                    for t in tables {
                        if let Ok(id) = handle.share(t.clone()) {
                            set_license(&handle, id);
                        }
                    }
                }
                SellerStrategy::Spammer { copies } => {
                    for t in tables {
                        if let Ok(id) = handle.share(t.clone()) {
                            set_license(&handle, id);
                        }
                        for c in 0..*copies {
                            let dup = t.clone().named(format!("{}_dup{c}", t.name()));
                            if let Ok(id) = handle.share(dup) {
                                set_license(&handle, id);
                            }
                        }
                    }
                }
                SellerStrategy::Overpricer { reserve } => {
                    for t in tables {
                        if let Ok(id) = handle.share(t.clone()) {
                            let _ = handle.set_reserve(id, *reserve);
                            set_license(&handle, id);
                        }
                    }
                }
                SellerStrategy::Faulty { fail_prob } => {
                    for t in tables {
                        if rng.gen::<f64>() >= *fail_prob {
                            if let Ok(id) = handle.share(t.clone()) {
                                set_license(&handle, id);
                            }
                        }
                    }
                }
                SellerStrategy::Opportunist | SellerStrategy::Arbitrageur { .. } => {
                    // Starts with nothing.
                }
            }
            sellers.push((name.clone(), strategy));
        }

        let n = workload.demands.len();
        let buyer_strategies: Vec<BuyerStrategy> = (0..n)
            .map(|i| {
                buyer_strategies
                    .get(i % buyer_strategies.len().max(1))
                    .cloned()
                    .unwrap_or(BuyerStrategy::Truthful)
            })
            .collect();
        for d in &workload.demands {
            let b = market.buyer(&d.buyer);
            if cfg.buyer_funds > 0.0 {
                b.deposit(cfg.buyer_funds);
            }
        }

        Simulation {
            market,
            demands: workload.demands,
            buyer_strategies,
            sellers,
            rng,
            submitted: vec![false; n],
            filled: vec![false; n],
            offer_to_demand: HashMap::new(),
            utilities: HashMap::new(),
            satisfaction_sum: 0.0,
            welfare: 0.0,
            opportunist_counter: 0,
            arbitraged: std::collections::HashSet::new(),
            arbitrageur_offers: std::collections::HashSet::new(),
        }
    }

    /// Access the underlying market (inspection in tests/benches).
    pub fn market(&self) -> &DataMarket {
        &self.market
    }

    /// Run the configured number of rounds.
    pub fn run(&mut self, rounds: u64) -> SimResult {
        let mut per_round = Vec::with_capacity(rounds as usize);
        for r in 0..rounds {
            self.seller_phase();
            self.buyer_phase(r);
            let report = self.market.run_round();
            let mut revenue = report.revenue;
            let mut transactions = report.sales.len();
            self.account_sales(&report.sales);
            // Ex post deliveries need reports before money moves.
            let (rev2, tx2) = self.ex_post_phase();
            revenue += rev2;
            transactions += tx2;
            self.arbitrage_phase();
            per_round.push(RoundSummary {
                revenue,
                transactions,
            });
        }
        self.finalize(per_round)
    }

    /// Opportunists inspect the demand report and fabricate supply;
    /// arbitrageurs place standing buy offers (§7.1: "buy certain
    /// datasets, transform them, [...] and sell them again").
    fn seller_phase(&mut self) {
        let names_all: Vec<(String, SellerStrategy)> = self.sellers.clone();
        for (name, strategy) in &names_all {
            if let SellerStrategy::Arbitrageur { budget } = strategy {
                // One standing acquisition offer per arbitrageur: buy the
                // most popular topic's attributes cheaply.
                let already = self.market.offers().iter().any(|o| {
                    o.wtp.buyer == *name && o.state == dmp_core::market::OfferState::Pending
                });
                if !already {
                    let buyer = self.market.buyer(name);
                    buyer.deposit(*budget);
                    let attrs = crate::workload::topic_attributes(0);
                    let wtp = WtpFunction::simple(
                        name.clone(),
                        attrs,
                        PriceCurve::Linear {
                            min_satisfaction: 0.2,
                            max_price: *budget,
                        },
                    );
                    if let Ok(offer) = self.market.submit_wtp(wtp) {
                        self.arbitrageur_offers.insert(offer);
                    }
                }
            }
        }
        let report = self.market.demand_report();
        if report.missing_attributes.is_empty() {
            return;
        }
        let names: Vec<(String, SellerStrategy)> = self.sellers.clone();
        for (name, strategy) in names {
            if matches!(strategy, SellerStrategy::Opportunist) {
                // Build one table carrying every missing attribute.
                let mut b = RelationBuilder::new(format!(
                    "opportunist_{}_{}",
                    name, self.opportunist_counter
                ));
                self.opportunist_counter += 1;
                for (attr, _) in &report.missing_attributes {
                    b = b.column(attr.clone(), DataType::Int);
                }
                let width = report.missing_attributes.len();
                let mut rows = Vec::new();
                for r in 0..50i64 {
                    rows.push(vec![Value::Int(r); width]);
                }
                if let Ok(rel) = b.rows(rows).build() {
                    let _ = self.market.seller(&name).share(rel);
                }
            }
        }
    }

    /// Buyers submit offers per strategy.
    fn buyer_phase(&mut self, round: u64) {
        for i in 0..self.demands.len() {
            if self.submitted[i] {
                continue;
            }
            let d = &self.demands[i];
            let strategy = &self.buyer_strategies[i];
            let bid = match strategy.bid(d.valuation, round, &mut self.rng) {
                Some(b) => b,
                None => continue, // snipers wait
            };
            // Under use-then-pay (ex post) elicitation the declared WTP is
            // only the escrowed cap; the strategic action happens at report
            // time (`ex_post_phase`). Declaring a shaded cap as well would
            // make under-reporting self-consistent and undetectable by the
            // arbiter's audit, so strategies declare their true cap here.
            let bid = if matches!(
                self.market.config().design.elicitation,
                ElicitationProtocol::ExPost(_)
            ) {
                d.valuation.max(bid)
            } else {
                bid
            };
            let wtp = WtpFunction::simple(
                d.buyer.clone(),
                d.attributes.iter().cloned(),
                PriceCurve::Linear {
                    min_satisfaction: 0.2,
                    max_price: bid,
                },
            );
            if let Ok(offer) = self.market.submit_wtp(wtp) {
                self.offer_to_demand.insert(offer, i);
                self.submitted[i] = true;
            }
        }
    }

    /// Book utilities/welfare for settled ex ante sales.
    fn account_sales(&mut self, sales: &[dmp_core::arbiter::Sale]) {
        for sale in sales {
            if self.arbitrageur_offers.contains(&sale.offer_id) {
                continue; // acquisitions, not consumer surplus
            }
            if let Some(&idx) = self.offer_to_demand.get(&sale.offer_id) {
                let d = &self.demands[idx];
                let realized = d.valuation * sale.satisfaction;
                *self.utilities.entry(d.buyer.clone()).or_insert(0.0) += realized - sale.price;
                self.welfare += realized;
                self.satisfaction_sum += sale.satisfaction;
                self.filled[idx] = true;
            }
        }
    }

    /// Report values for ex post deliveries per buyer strategy; returns
    /// (revenue, transactions) settled.
    fn ex_post_phase(&mut self) -> (f64, usize) {
        if !matches!(
            self.market.config().design.elicitation,
            ElicitationProtocol::ExPost(_)
        ) {
            return (0.0, 0);
        }
        let mut revenue = 0.0;
        let mut transactions = 0;
        let awaiting = self.market.awaiting_reports();
        for (offer_id, delivery_id, buyer) in awaiting {
            let Some(&idx) = self.offer_to_demand.get(&offer_id) else {
                continue;
            };
            let d = &self.demands[idx];
            let strategy = &self.buyer_strategies[idx];
            // The buyer learns its realized value after using the data.
            let satisfaction = self
                .market
                .deliveries()
                .iter()
                .find(|dl| dl.id == delivery_id)
                .map(|dl| dl.satisfaction)
                .unwrap_or(0.0);
            let true_value = d.valuation * satisfaction;
            let report = match strategy {
                BuyerStrategy::Shade(f) | BuyerStrategy::Colluder { shade: f, .. } => {
                    true_value * f
                }
                _ => true_value,
            };
            if let Ok(settlement) = self.market.report_value(delivery_id, report) {
                *self.utilities.entry(buyer.clone()).or_insert(0.0) +=
                    true_value - settlement.paid - settlement.penalty;
                self.welfare += true_value;
                self.satisfaction_sum += satisfaction;
                self.filled[idx] = true;
                revenue += settlement.paid + settlement.penalty;
                transactions += 1;
            }
        }
        (revenue, transactions)
    }

    /// Arbitrageurs transform delivered mashups and relist them when the
    /// sources' licenses allow resale.
    fn arbitrage_phase(&mut self) {
        let arbitrageurs: Vec<String> = self
            .sellers
            .iter()
            .filter(|(_, s)| matches!(s, SellerStrategy::Arbitrageur { .. }))
            .map(|(n, _)| n.clone())
            .collect();
        if arbitrageurs.is_empty() {
            return;
        }
        for delivery in self.market.deliveries() {
            if self.arbitraged.contains(&delivery.id) || !arbitrageurs.contains(&delivery.buyer) {
                continue;
            }
            self.arbitraged.insert(delivery.id);
            let resale_ok = delivery
                .datasets
                .iter()
                .all(|&d| self.market.license_of(d).allows_resale());
            if !resale_ok {
                continue; // NonTransferable/Standard sources: no resale
            }
            // "Transform" the acquisition (here: curate/rename) and
            // relist it under the arbitrageur's name.
            let relisted = Relation::clone(&delivery.relation)
                .named(format!("{}_curated_{}", delivery.buyer, delivery.id));
            let _ = self.market.seller(&delivery.buyer).share(relisted);
        }
    }

    fn finalize(&mut self, per_round: Vec<RoundSummary>) -> SimResult {
        let mut metrics = MarketMetrics {
            revenue: per_round.iter().map(|r| r.revenue).sum(),
            welfare: self.welfare,
            transactions: per_round.iter().map(|r| r.transactions).sum(),
            fill_rate: if self.demands.is_empty() {
                0.0
            } else {
                self.filled.iter().filter(|f| **f).count() as f64 / self.demands.len() as f64
            },
            avg_satisfaction: 0.0,
            honest_seller_revenue: 0.0,
            adversarial_seller_revenue: 0.0,
            seller_gini: 0.0,
            buyer_utility: self.utilities.clone(),
        };
        let tx_count = metrics.transactions.max(1);
        metrics.avg_satisfaction = self.satisfaction_sum / tx_count as f64;

        // Seller revenue from transaction shares via dataset ownership.
        let mut revenue_by_seller: HashMap<String, f64> = HashMap::new();
        for tx in self.market.transactions() {
            for share in &tx.shares {
                if let Some(owner) = self
                    .market
                    .metadata()
                    .with_entry(share.dataset, |e| e.owner.clone())
                {
                    *revenue_by_seller.entry(owner).or_insert(0.0) += share.amount;
                }
            }
        }
        for (name, strategy) in &self.sellers {
            let rev = revenue_by_seller.get(name).copied().unwrap_or(0.0);
            if strategy.is_adversarial() {
                metrics.adversarial_seller_revenue += rev;
            } else {
                metrics.honest_seller_revenue += rev;
            }
        }
        metrics.set_seller_gini(&revenue_by_seller);
        SimResult { metrics, per_round }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadConfig};
    use dmp_mechanism::design::MarketDesign;

    fn small_workload() -> Workload {
        generate(&WorkloadConfig {
            n_sellers: 4,
            n_buyers: 8,
            n_topics: 2,
            rows: 40,
            valuation_mean: 50.0,
            zipf_s: 0.8,
            seed: 11,
        })
    }

    #[test]
    fn truthful_posted_price_market_trades() {
        let cfg = SimConfig::new(
            MarketConfig::external(1).with_design(MarketDesign::posted_price_baseline(10.0)),
            5,
        );
        let mut sim = Simulation::new(
            cfg,
            small_workload(),
            vec![BuyerStrategy::Truthful],
            vec![SellerStrategy::Honest],
        );
        let result = sim.run(5);
        assert!(result.metrics.transactions > 0, "{:?}", result.metrics);
        assert!(result.metrics.revenue > 0.0);
        assert!(
            result.metrics.fill_rate > 0.5,
            "fill {}",
            result.metrics.fill_rate
        );
        assert!(result.metrics.welfare > result.metrics.revenue);
    }

    #[test]
    fn internal_market_fills_without_revenue() {
        let cfg = SimConfig::new(MarketConfig::internal(), 4);
        let mut sim = Simulation::new(
            cfg,
            small_workload(),
            vec![BuyerStrategy::Truthful],
            vec![SellerStrategy::Honest],
        );
        let result = sim.run(4);
        assert!(result.metrics.transactions > 0);
        assert_eq!(result.metrics.revenue, 0.0);
    }

    #[test]
    fn overpricers_suppress_trade() {
        let base = SimConfig::new(
            MarketConfig::external(1).with_design(MarketDesign::posted_price_baseline(10.0)),
            4,
        );
        let honest = Simulation::new(
            base.clone(),
            small_workload(),
            vec![BuyerStrategy::Truthful],
            vec![SellerStrategy::Honest],
        )
        .run(4);
        let greedy = Simulation::new(
            base,
            small_workload(),
            vec![BuyerStrategy::Truthful],
            vec![SellerStrategy::Overpricer { reserve: 1_000.0 }],
        )
        .run(4);
        assert!(
            greedy.metrics.transactions < honest.metrics.transactions,
            "greedy {} vs honest {}",
            greedy.metrics.transactions,
            honest.metrics.transactions
        );
    }

    #[test]
    fn opportunists_fill_unmet_demand() {
        // Buyers want attributes nobody sells; opportunists fabricate them.
        let mut w = small_workload();
        for d in &mut w.demands {
            d.attributes = vec!["exotic_signal".to_string()];
        }
        let cfg = SimConfig::new(
            MarketConfig::external(1).with_design(MarketDesign::posted_price_baseline(5.0)),
            5,
        );
        let mut sim = Simulation::new(
            cfg,
            w,
            vec![BuyerStrategy::Truthful],
            vec![SellerStrategy::Opportunist, SellerStrategy::Honest],
        );
        let result = sim.run(5);
        assert!(
            result.metrics.fill_rate > 0.0,
            "opportunist should have filled some demand"
        );
    }

    #[test]
    fn snipers_trade_later() {
        let cfg = SimConfig::new(
            MarketConfig::external(1).with_design(MarketDesign::posted_price_baseline(5.0)),
            4,
        );
        let mut sim = Simulation::new(
            cfg,
            small_workload(),
            vec![BuyerStrategy::Sniper { period: 3 }],
            vec![SellerStrategy::Honest],
        );
        let result = sim.run(4);
        // nothing in round 2 (they bid in rounds 0 and 3)
        assert!(result.per_round[1].transactions <= result.per_round[0].transactions);
    }

    #[test]
    fn ex_post_market_settles_through_reports() {
        use dmp_mechanism::elicitation::{ElicitationProtocol, ExPostMechanism};
        let mut design = MarketDesign::posted_price_baseline(10.0);
        design.elicitation = ElicitationProtocol::ExPost(ExPostMechanism {
            audit_prob: 1.0,
            penalty_mult: 2.5,
            exclusion_rounds: 2,
            round_value: 0.0,
        });
        let cfg = SimConfig::new(MarketConfig::external(1).with_design(design), 4);
        let mut sim = Simulation::new(
            cfg,
            small_workload(),
            vec![BuyerStrategy::Truthful],
            vec![SellerStrategy::Honest],
        );
        let result = sim.run(4);
        assert!(result.metrics.transactions > 0, "reports must settle sales");
        assert!(result.metrics.revenue > 0.0);
        // Truthful reporters are never penalized or excluded.
        for d in sim.market().deliveries() {
            if let Some(s) = d.settlement {
                assert_eq!(s.penalty, 0.0, "truthful buyers unpenalized");
            }
        }
    }

    #[test]
    fn ex_post_shaders_get_caught_when_always_audited() {
        use dmp_mechanism::elicitation::{ElicitationProtocol, ExPostMechanism};
        let mut design = MarketDesign::posted_price_baseline(10.0);
        design.elicitation = ElicitationProtocol::ExPost(ExPostMechanism {
            audit_prob: 1.0,
            penalty_mult: 2.5,
            exclusion_rounds: 2,
            round_value: 0.0,
        });
        let cfg = SimConfig::new(MarketConfig::external(1).with_design(design), 3);
        let mut sim = Simulation::new(
            cfg,
            small_workload(),
            vec![BuyerStrategy::Shade(0.3)],
            vec![SellerStrategy::Honest],
        );
        sim.run(3);
        let penalized = sim
            .market()
            .deliveries()
            .iter()
            .filter(|d| d.settlement.map(|s| s.penalty > 0.0).unwrap_or(false))
            .count();
        assert!(penalized > 0, "under-reporting shaders must be penalized");
    }

    #[test]
    fn arbitrageur_buys_transforms_and_relists() {
        let cfg = SimConfig::new(
            MarketConfig::external(1).with_design(MarketDesign::posted_price_baseline(5.0)),
            4,
        )
        .with_resale();
        let mut sim = Simulation::new(
            cfg,
            small_workload(),
            vec![BuyerStrategy::Truthful],
            vec![
                SellerStrategy::Honest,
                SellerStrategy::Arbitrageur { budget: 200.0 },
            ],
        );
        sim.run(4);
        // The arbitrageur ends up owning relisted datasets.
        let arb_name = sim
            .sellers
            .iter()
            .find(|(_, s)| matches!(s, SellerStrategy::Arbitrageur { .. }))
            .map(|(n, _)| n.clone())
            .unwrap();
        let owned = sim
            .market()
            .metadata()
            .entries()
            .iter()
            .filter(|e| e.owner == arb_name && e.name.contains("curated"))
            .count();
        assert!(owned >= 1, "arbitrageur should relist acquisitions");
    }

    #[test]
    fn arbitrageur_respects_non_transferable_licenses() {
        // Without resale licenses, acquisitions must NOT be relisted.
        let cfg = SimConfig::new(
            MarketConfig::external(1).with_design(MarketDesign::posted_price_baseline(5.0)),
            4,
        ); // resale_allowed = false
        let mut sim = Simulation::new(
            cfg,
            small_workload(),
            vec![BuyerStrategy::Truthful],
            vec![
                SellerStrategy::Honest,
                SellerStrategy::Arbitrageur { budget: 200.0 },
            ],
        );
        sim.run(4);
        let curated = sim
            .market()
            .metadata()
            .entries()
            .iter()
            .filter(|e| e.name.contains("curated"))
            .count();
        assert_eq!(curated, 0, "standard licenses forbid resale");
    }
}
