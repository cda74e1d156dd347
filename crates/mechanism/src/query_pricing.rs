//! Arbitrage-free query pricing (§8.2): "The problem is how to price
//! relational queries on that dataset in such a way that arbitrage
//! opportunities (obtaining the same data through a different and cheaper
//! combination of queries) are not possible" (Koutris et al. \[61\]; revenue
//! maximization per Chawla et al. \[20\]).
//!
//! Model: a dataset with `n` attributes; a *view* is an attribute subset
//! (bitmask). View `A` determines view `B` iff `B ⊆ A`. A price function
//! `p` is **arbitrage-free** iff it is
//!
//! * *monotone*: `B ⊆ A ⇒ p(B) ≤ p(A)` (you can't buy a superset for
//!   less), and
//! * *subadditive*: `p(A ∪ B) ≤ p(A) + p(B)` (you can't assemble a view
//!   from cheaper pieces).
//!
//! Weighted-coverage pricing (`p(Q) = Σ_{i∈Q} w_i`, `w ≥ 0`) satisfies
//! both by construction; arbitrary per-view price lists generally do not
//! — which is what experiment E10 demonstrates.

use std::collections::HashMap;

/// A view over an `n`-attribute dataset, as a bitmask of attributes.
pub type View = u32;

/// A detected arbitrage opportunity.
#[derive(Debug, Clone, PartialEq)]
pub enum Arbitrage {
    /// `sub ⊆ sup` but `p(sub) > p(sup)`: buy the superset instead.
    MonotonicityViolation {
        /// The overpriced subset view.
        sub: View,
        /// The cheaper superset view.
        sup: View,
        /// Price difference `p(sub) − p(sup)`.
        saving: f64,
    },
    /// `p(a ∪ b) > p(a) + p(b)`: assemble the union from the parts.
    SubadditivityViolation {
        /// First part.
        a: View,
        /// Second part.
        b: View,
        /// Price difference `p(a∪b) − (p(a)+p(b))`.
        saving: f64,
    },
}

/// A price function over views.
pub trait PriceFunction {
    /// Price of a view. Must be defined (≥ 0) for every view queried.
    fn price(&self, view: View) -> f64;
}

/// Arbitrary per-view price list — how ad-hoc data-market pricing works
/// today. Views not listed price at the cheapest listed superset, or at
/// the sum of listed parts (i.e., what a rational buyer would pay), here
/// simplified to `f64::INFINITY` so arbitrage checks operate on the
/// listed views only.
#[derive(Debug, Clone, Default)]
pub struct NaivePricing {
    prices: HashMap<View, f64>,
}

impl NaivePricing {
    /// Empty price list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the price of a view.
    pub fn set(&mut self, view: View, price: f64) -> &mut Self {
        self.prices.insert(view, price);
        self
    }
}

impl PriceFunction for NaivePricing {
    fn price(&self, view: View) -> f64 {
        self.prices.get(&view).copied().unwrap_or(f64::INFINITY)
    }
}

/// Weighted-coverage pricing: `p(Q) = Σ_{i∈Q} w_i` with `w_i ≥ 0`.
/// Monotone and (sub)additive ⇒ arbitrage-free.
#[derive(Debug, Clone)]
pub struct WeightedCoveragePricing {
    weights: Vec<f64>,
}

impl WeightedCoveragePricing {
    /// Build from per-attribute weights (negatives are clamped to 0).
    pub fn new(weights: Vec<f64>) -> Self {
        WeightedCoveragePricing {
            weights: weights.into_iter().map(|w| w.max(0.0)).collect(),
        }
    }

    /// Uniform weight `w` over `n` attributes.
    pub fn uniform(n: usize, w: f64) -> Self {
        Self::new(vec![w; n])
    }
}

impl PriceFunction for WeightedCoveragePricing {
    fn price(&self, view: View) -> f64 {
        self.weights
            .iter()
            .enumerate()
            .filter(|(i, _)| view & (1 << i) != 0)
            .map(|(_, w)| w)
            .sum()
    }
}

/// Scan a set of views for arbitrage opportunities under a price
/// function. O(V²) pairwise checks — V is the *listed/demanded* view set,
/// not the full 2^n lattice.
pub fn find_arbitrage(p: &dyn PriceFunction, views: &[View]) -> Vec<Arbitrage> {
    let mut out = Vec::new();
    for (i, &a) in views.iter().enumerate() {
        for &b in &views[i + 1..] {
            let (pa, pb) = (p.price(a), p.price(b));
            // Monotonicity between comparable pairs.
            if a & b == a && pa > pb + 1e-9 {
                out.push(Arbitrage::MonotonicityViolation {
                    sub: a,
                    sup: b,
                    saving: pa - pb,
                });
            } else if a & b == b && pb > pa + 1e-9 {
                out.push(Arbitrage::MonotonicityViolation {
                    sub: b,
                    sup: a,
                    saving: pb - pa,
                });
            }
            // Subadditivity when the union is also a listed view.
            let u = a | b;
            if u != a && u != b && views.contains(&u) {
                let pu = p.price(u);
                if pu > pa + pb + 1e-9 {
                    out.push(Arbitrage::SubadditivityViolation {
                        a,
                        b,
                        saving: pu - (pa + pb),
                    });
                }
            }
        }
    }
    out
}

/// A buyer's demand: the view they want and their budget for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Desired view.
    pub view: View,
    /// Maximum willingness to pay.
    pub budget: f64,
}

/// Revenue of a price function against a demand profile: each buyer
/// purchases iff `p(view) ≤ budget`, paying `p(view)`.
pub fn revenue(p: &dyn PriceFunction, demand: &[Demand]) -> f64 {
    demand
        .iter()
        .map(|d| {
            let price = p.price(d.view);
            if price <= d.budget {
                price
            } else {
                0.0
            }
        })
        .sum()
}

/// Find a revenue-maximizing *uniform-weight* arbitrage-free pricing for
/// a demand profile: sweep candidate per-attribute weights derived from
/// each buyer's budget-per-attribute and keep the best. Returns the
/// pricing and its revenue. This is the simple 1-parameter member of the
/// arbitrage-free family — already enough to dominate naive pricing in
/// E10 while provably admitting no arbitrage.
pub fn optimize_uniform_pricing(
    n_attrs: usize,
    demand: &[Demand],
) -> (WeightedCoveragePricing, f64) {
    let mut candidates: Vec<f64> = demand
        .iter()
        .filter(|d| d.view != 0)
        .map(|d| d.budget / d.view.count_ones() as f64)
        .filter(|w| *w > 0.0)
        .collect();
    candidates.sort_by(f64::total_cmp);
    candidates.dedup();

    let mut best = (WeightedCoveragePricing::uniform(n_attrs, 0.0), 0.0);
    for w in candidates {
        let p = WeightedCoveragePricing::uniform(n_attrs, w);
        let r = revenue(&p, demand);
        if r > best.1 {
            best = (p, r);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: View = 0b001;
    const B: View = 0b010;
    const AB: View = 0b011;
    const ABC: View = 0b111;

    #[test]
    fn weighted_coverage_prices_by_attribute() {
        let p = WeightedCoveragePricing::new(vec![1.0, 2.0, 4.0]);
        assert_eq!(p.price(A), 1.0);
        assert_eq!(p.price(AB), 3.0);
        assert_eq!(p.price(ABC), 7.0);
        assert_eq!(p.price(0), 0.0);
    }

    #[test]
    fn weighted_coverage_is_arbitrage_free() {
        let p = WeightedCoveragePricing::new(vec![3.0, 1.0, 2.0, 5.0]);
        let views: Vec<View> = (0..16).collect();
        assert!(find_arbitrage(&p, &views).is_empty());
    }

    #[test]
    fn naive_pricing_monotonicity_violation_detected() {
        let mut p = NaivePricing::new();
        p.set(A, 10.0).set(AB, 5.0); // subset costs more than superset
        let arb = find_arbitrage(&p, &[A, AB]);
        assert!(matches!(
            arb.as_slice(),
            [Arbitrage::MonotonicityViolation { sub: a, sup: ab, saving }]
                if *a == A && *ab == AB && (*saving - 5.0).abs() < 1e-9
        ));
    }

    #[test]
    fn naive_pricing_subadditivity_violation_detected() {
        let mut p = NaivePricing::new();
        p.set(A, 2.0).set(B, 2.0).set(AB, 10.0);
        let arb = find_arbitrage(&p, &[A, B, AB]);
        assert!(arb.iter().any(
            |x| matches!(x, Arbitrage::SubadditivityViolation { saving, .. } if *saving > 5.9)
        ));
    }

    #[test]
    fn consistent_naive_pricing_passes() {
        let mut p = NaivePricing::new();
        p.set(A, 2.0).set(B, 3.0).set(AB, 4.0);
        assert!(find_arbitrage(&p, &[A, B, AB]).is_empty());
    }

    #[test]
    fn revenue_counts_only_affordable_buyers() {
        let p = WeightedCoveragePricing::uniform(3, 2.0);
        let demand = vec![
            Demand {
                view: A,
                budget: 3.0,
            }, // pays 2
            Demand {
                view: AB,
                budget: 3.0,
            }, // price 4 > 3: no sale
            Demand {
                view: ABC,
                budget: 10.0,
            }, // pays 6
        ];
        assert!((revenue(&p, &demand) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn optimizer_beats_zero_and_stays_arbitrage_free() {
        let demand = vec![
            Demand {
                view: A,
                budget: 5.0,
            },
            Demand {
                view: AB,
                budget: 8.0,
            },
            Demand {
                view: ABC,
                budget: 9.0,
            },
            Demand {
                view: B,
                budget: 1.0,
            },
        ];
        let (p, r) = optimize_uniform_pricing(3, &demand);
        assert!(r > 0.0);
        let views: Vec<View> = (0..8).collect();
        assert!(find_arbitrage(&p, &views).is_empty());
        // Revenue must be at least what pricing at the min budget/attr gets.
        assert!(r >= 5.0, "revenue {r}");
    }

    #[test]
    fn optimizer_handles_empty_demand() {
        let (_, r) = optimize_uniform_pricing(4, &[]);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn negative_weights_clamped() {
        let p = WeightedCoveragePricing::new(vec![-1.0, 2.0]);
        assert_eq!(p.price(0b01), 0.0);
        assert_eq!(p.price(0b11), 2.0);
    }
}
