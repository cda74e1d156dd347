//! Simulation metrics: the outcome measurements §6.1's effectiveness
//! evaluation compares across designs and adversarial mixes.

use std::collections::HashMap;

use dmp_mechanism::goals::gini;

/// Aggregated metrics over a simulation run.
#[derive(Debug, Clone, Default)]
pub struct MarketMetrics {
    /// Total money extracted from buyers.
    pub revenue: f64,
    /// Total true-valuation surplus delivered (Σ valuations of satisfied
    /// demands).
    pub welfare: f64,
    /// Completed transactions.
    pub transactions: usize,
    /// Demands that were eventually satisfied / total demands.
    pub fill_rate: f64,
    /// Mean satisfaction across sales.
    pub avg_satisfaction: f64,
    /// Revenue accrued by honest sellers.
    pub honest_seller_revenue: f64,
    /// Revenue accrued by adversarial sellers.
    pub adversarial_seller_revenue: f64,
    /// Gini coefficient of seller revenue (concentration check, FAQ).
    pub seller_gini: f64,
    /// Net utility per buyer (Σ valuation − price over its wins).
    pub buyer_utility: HashMap<String, f64>,
}

impl MarketMetrics {
    /// Recompute the seller Gini from a revenue-per-seller map.
    pub fn set_seller_gini(&mut self, revenues: &HashMap<String, f64>) {
        let vals: Vec<f64> = revenues.values().copied().collect();
        self.seller_gini = gini(&vals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_setter() {
        let mut m = MarketMetrics::default();
        let mut rev = HashMap::new();
        rev.insert("s1".to_string(), 100.0);
        rev.insert("s2".to_string(), 0.0);
        m.set_seller_gini(&rev);
        assert!(m.seller_gini > 0.4);
    }
}
