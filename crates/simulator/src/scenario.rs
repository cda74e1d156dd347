//! Named simulation scenarios: the configurations the experiment suite
//! (DESIGN.md §2) runs. Each scenario pins a workload, a strategy mix,
//! and a market design, so experiments are one-liners.

use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;

use crate::agents::{BuyerStrategy, SellerStrategy};
use crate::engine::{SimConfig, SimResult, Simulation};
use crate::workload::{generate, Workload, WorkloadConfig};

/// A named, reproducible scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name.
    pub name: String,
    /// Workload parameters.
    pub workload: WorkloadConfig,
    /// Buyer strategy mix (cycled over buyers).
    pub buyers: Vec<BuyerStrategy>,
    /// Seller strategy mix (cycled over sellers).
    pub sellers: Vec<SellerStrategy>,
    /// Market configuration.
    pub market: MarketConfig,
    /// Rounds to run.
    pub rounds: u64,
}

impl Scenario {
    /// Adversarial mix (E6): `frac` of buyers shade/collude and `frac`
    /// of sellers spam/overprice/fault.
    pub fn adversarial(seed: u64, frac: f64, design: MarketDesign) -> Self {
        // Build strategy mixes whose adversarial share ≈ frac.
        let slots = 10usize;
        let adv = ((slots as f64) * frac).round() as usize;
        let mut buyers = Vec::with_capacity(slots);
        let mut sellers = Vec::with_capacity(slots);
        for i in 0..slots {
            if i < adv {
                buyers.push(match i % 3 {
                    0 => BuyerStrategy::Shade(0.4),
                    1 => BuyerStrategy::Colluder {
                        coalition: 1,
                        shade: 0.3,
                    },
                    _ => BuyerStrategy::Ignorant(0.6),
                });
                sellers.push(match i % 3 {
                    0 => SellerStrategy::Spammer { copies: 2 },
                    1 => SellerStrategy::Overpricer { reserve: 500.0 },
                    _ => SellerStrategy::Faulty { fail_prob: 0.5 },
                });
            } else {
                buyers.push(BuyerStrategy::Truthful);
                sellers.push(SellerStrategy::Honest);
            }
        }
        Scenario {
            name: format!("adversarial-{:.0}%", frac * 100.0),
            workload: WorkloadConfig {
                n_sellers: 10,
                n_buyers: 30,
                seed,
                ..Default::default()
            },
            buyers,
            sellers,
            market: MarketConfig::external(seed).with_design(design),
            rounds: 8,
        }
    }

    /// Market-kind comparison (E12): the same workload on internal /
    /// external / barter configs.
    pub fn market_kind(seed: u64, market: MarketConfig, name: &str) -> Self {
        Scenario {
            name: name.into(),
            workload: WorkloadConfig {
                seed,
                ..Default::default()
            },
            buyers: vec![BuyerStrategy::Truthful],
            sellers: vec![SellerStrategy::Honest],
            market,
            rounds: 8,
        }
    }

    /// Economic-opportunity scenario (E11): demand nobody supplies at
    /// start + opportunists who fabricate it.
    pub fn opportunist(seed: u64, with_opportunist: bool) -> Self {
        Scenario {
            name: if with_opportunist {
                "with-opportunist".into()
            } else {
                "without-opportunist".into()
            },
            workload: WorkloadConfig {
                n_sellers: 6,
                n_buyers: 12,
                seed,
                ..Default::default()
            },
            buyers: vec![BuyerStrategy::Truthful],
            sellers: if with_opportunist {
                vec![SellerStrategy::Opportunist, SellerStrategy::Honest]
            } else {
                vec![SellerStrategy::Honest]
            },
            market: MarketConfig::external(seed)
                .with_design(MarketDesign::posted_price_baseline(10.0)),
            rounds: 6,
        }
    }

    /// Materialize the workload.
    pub fn workload(&self) -> Workload {
        generate(&self.workload)
    }

    /// Build the simulation.
    pub fn build(&self) -> Simulation {
        let cfg = SimConfig::new(self.market.clone(), self.rounds);
        Simulation::new(
            cfg,
            self.workload(),
            self.buyers.clone(),
            self.sellers.clone(),
        )
    }

    /// Build and run to completion.
    pub fn run(&self) -> SimResult {
        self.build().run(self.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All-honest default workload on a posted-price external market.
    fn baseline(seed: u64) -> Scenario {
        let market =
            MarketConfig::external(seed).with_design(MarketDesign::posted_price_baseline(20.0));
        Scenario::market_kind(seed, market, "baseline")
    }

    #[test]
    fn baseline_trades() {
        let result = baseline(3).run();
        assert!(result.metrics.transactions > 0);
        assert!(result.metrics.fill_rate > 0.3);
    }

    #[test]
    fn adversarial_mix_reduces_welfare() {
        let design = MarketDesign::posted_price_baseline(20.0);
        let clean = Scenario::adversarial(3, 0.0, design.clone()).run();
        let dirty = Scenario::adversarial(3, 0.5, design).run();
        assert!(
            dirty.metrics.welfare <= clean.metrics.welfare,
            "adversaries should not raise welfare: {} vs {}",
            dirty.metrics.welfare,
            clean.metrics.welfare
        );
    }

    #[test]
    fn opportunist_scenario_builds() {
        let with = Scenario::opportunist(5, true);
        let without = Scenario::opportunist(5, false);
        assert_ne!(with.name, without.name);
        assert!(with
            .sellers
            .iter()
            .any(|s| matches!(s, SellerStrategy::Opportunist)));
    }

    #[test]
    fn scenarios_are_reproducible() {
        let a = baseline(9).run();
        let b = baseline(9).run();
        assert_eq!(a.metrics.transactions, b.metrics.transactions);
        assert!((a.metrics.revenue - b.metrics.revenue).abs() < 1e-9);
    }
}
