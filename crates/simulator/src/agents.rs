//! Strategic, adversarial, and faulty market participants (§6.1): "the
//! mathematics used to make sound market designs do not account for evil,
//! ignorant, and adversarial behavior [...] some players may be
//! adversarial in practice, forming coalitions with other players to game
//! the market. Or less dramatic, a faulty piece of software may cause
//! erratic behavior." §7.1 adds the economic opportunists: arbitrageurs
//! and opportunistic data sellers.

use rand::Rng;

/// How a buyer translates its true valuation into a bid.
#[derive(Debug, Clone, PartialEq)]
pub enum BuyerStrategy {
    /// Bid the true valuation.
    Truthful,
    /// Bid `factor × v` with `factor < 1` (strategic under-bidding — the
    /// §3.2.1 worry for freely-replicable goods).
    Shade(f64),
    /// Over-bid by `factor > 1` (risk-lover: pays more than value when
    /// it wins against a price-setting rule).
    RiskLover(f64),
    /// Bid `v × exp(σ·N(0,1))` (ignorant: doesn't know its own value).
    Ignorant(f64),
    /// Participate only every `period`-th round, bidding truthfully
    /// (sniper: waits out the market).
    Sniper {
        /// Rounds between bids.
        period: u64,
    },
    /// Member of a coalition that coordinates deep shading to crash
    /// sampled prices (RSOP's adversary).
    Colluder {
        /// Coalition identifier (members shade identically).
        coalition: u32,
        /// Coordinated shade factor.
        shade: f64,
    },
}

impl BuyerStrategy {
    /// The bid this strategy produces for true value `v` at `round`.
    /// Returns `None` when the strategy sits the round out.
    pub fn bid(&self, v: f64, round: u64, rng: &mut impl Rng) -> Option<f64> {
        match self {
            BuyerStrategy::Truthful => Some(v),
            BuyerStrategy::Shade(f) => Some(v * f.clamp(0.0, 1.0)),
            BuyerStrategy::RiskLover(f) => Some(v * f.max(1.0)),
            BuyerStrategy::Ignorant(sigma) => {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen::<f64>();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                Some(v * (sigma * z).exp())
            }
            BuyerStrategy::Sniper { period } => {
                if round.is_multiple_of((*period).max(1)) {
                    Some(v)
                } else {
                    None
                }
            }
            BuyerStrategy::Colluder { shade, .. } => Some(v * shade.clamp(0.0, 1.0)),
        }
    }
}

/// How a seller behaves.
#[derive(Debug, Clone, PartialEq)]
pub enum SellerStrategy {
    /// Registers its data once, sets no reserve.
    Honest,
    /// Registers `copies` near-duplicates of each dataset hoping to farm
    /// extra revenue shares (the duplication attack from FAQ §3.4).
    Spammer {
        /// Duplicate count per dataset.
        copies: usize,
    },
    /// Sets an excessive reserve price.
    Overpricer {
        /// Reserve demanded per dataset.
        reserve: f64,
    },
    /// Randomly fails to register / withdraws data (faulty software).
    Faulty {
        /// Per-dataset failure probability.
        fail_prob: f64,
    },
    /// Owns nothing at start; watches the arbiter's demand report and
    /// fabricates datasets for missing attributes (§7.1 Seller 3).
    Opportunist,
    /// Buys data, transforms it, and resells at a margin (§7.1).
    Arbitrageur {
        /// Budget for acquisitions per round.
        budget: f64,
    },
}

impl SellerStrategy {
    /// Is this strategy adversarial?
    pub fn is_adversarial(&self) -> bool {
        matches!(
            self,
            SellerStrategy::Spammer { .. }
                | SellerStrategy::Overpricer { .. }
                | SellerStrategy::Faulty { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    #[test]
    fn truthful_bids_value() {
        assert_eq!(BuyerStrategy::Truthful.bid(42.0, 0, &mut rng()), Some(42.0));
    }

    #[test]
    fn shading_reduces_bids() {
        let b = BuyerStrategy::Shade(0.6).bid(100.0, 0, &mut rng()).unwrap();
        assert!((b - 60.0).abs() < 1e-12);
        // clamped into [0, 1]
        let b = BuyerStrategy::Shade(1.7).bid(100.0, 0, &mut rng()).unwrap();
        assert_eq!(b, 100.0);
    }

    #[test]
    fn risk_lover_overbids() {
        let b = BuyerStrategy::RiskLover(1.5)
            .bid(10.0, 0, &mut rng())
            .unwrap();
        assert_eq!(b, 15.0);
        // never below truthful
        let b = BuyerStrategy::RiskLover(0.5)
            .bid(10.0, 0, &mut rng())
            .unwrap();
        assert_eq!(b, 10.0);
    }

    #[test]
    fn ignorant_bids_are_noisy_but_positive() {
        let mut r = rng();
        let bids: Vec<f64> = (0..50)
            .filter_map(|_| BuyerStrategy::Ignorant(0.5).bid(10.0, 0, &mut r))
            .collect();
        assert!(bids.iter().all(|b| *b > 0.0));
        let spread = bids.iter().cloned().fold(0.0, f64::max)
            - bids.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 1.0, "noise should spread bids, got {spread}");
    }

    #[test]
    fn sniper_sits_out_most_rounds() {
        let s = BuyerStrategy::Sniper { period: 3 };
        assert!(s.bid(5.0, 0, &mut rng()).is_some());
        assert!(s.bid(5.0, 1, &mut rng()).is_none());
        assert!(s.bid(5.0, 3, &mut rng()).is_some());
    }

    #[test]
    fn colluders_shade_coordinated() {
        let a = BuyerStrategy::Colluder {
            coalition: 1,
            shade: 0.3,
        };
        let b = BuyerStrategy::Colluder {
            coalition: 1,
            shade: 0.3,
        };
        assert_eq!(a.bid(100.0, 0, &mut rng()), b.bid(100.0, 0, &mut rng()));
    }

    #[test]
    fn adversarial_classification() {
        assert!(SellerStrategy::Spammer { copies: 3 }.is_adversarial());
        assert!(!SellerStrategy::Honest.is_adversarial());
        assert!(!SellerStrategy::Opportunist.is_adversarial());
    }
}
