//! Market goals (§3.1): "a market design can be engineered to maximize
//! revenue, to optimize social surplus, and others"; §3.3 maps goals to
//! market types (external → revenue, internal → social welfare).

/// What the market design optimizes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketGoal {
    /// Maximize money extracted from buyers (external markets).
    Revenue,
    /// Maximize total surplus = Σ winners' valuations (internal markets:
    /// "it is reasonable that a market design optimizes social welfare,
    /// that is, the allocation of data to buyers").
    Welfare,
    /// Maximize the number of completed transactions (bootstrap phase /
    /// barter markets).
    Transactions,
}

/// Outcome measurements used to score designs against goals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OutcomeMeasure {
    /// Sum of payments collected.
    pub revenue: f64,
    /// Sum of winning buyers' true valuations.
    pub welfare: f64,
    /// Number of completed transactions.
    pub transactions: usize,
}

/// Gini coefficient of a revenue distribution — used to measure whether a
/// design concentrates data value "around a few organizations even more"
/// (FAQ §3.4). 0 = perfectly equal, →1 = concentrated.
pub fn gini(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| *x >= 0.0).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let total: f64 = v.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_equal_distribution_is_zero() {
        assert!(gini(&[5.0, 5.0, 5.0, 5.0]).abs() < 1e-9);
    }

    #[test]
    fn gini_concentrated_distribution_is_high() {
        let g = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!(g > 0.7, "gini {g}");
    }

    #[test]
    fn gini_monotone_in_concentration() {
        let even = gini(&[3.0, 3.0, 3.0]);
        let skew = gini(&[1.0, 2.0, 6.0]);
        assert!(skew > even);
    }

    #[test]
    fn gini_degenerate_inputs() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }
}
