//! Payment functions (§3.1): "how much money buyers need to pay to obtain
//! the mashup".
//!
//! Includes the mechanisms the paper builds on for freely-replicable
//! goods: Vickrey/second-price with a Myerson reserve \[67\] for scarce
//! licenses, and the Goldberg–Hartline random-sampling optimal price
//! auction (RSOP) [45, 46] for digital goods — truthful even with
//! infinite supply, which posted-price-with-known-demand is not.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::allocation::Bid;

/// What winners pay.
#[derive(Debug, Clone, PartialEq)]
pub enum PaymentRule {
    /// Winners pay their own bid.
    FirstPrice,
    /// Winners pay the highest losing bid (uniform (k+1)-price for k
    /// winners); truthful for scarce goods.
    Vickrey,
    /// Everyone pays the posted price.
    PostedPrice(f64),
    /// Second-price with a reserve; with a Myerson-optimal reserve this
    /// maximizes expected revenue for one unit.
    VickreyReserve {
        /// Minimum acceptable price.
        reserve: f64,
    },
    /// Random Sampling Optimal Price (digital goods, infinite supply):
    /// bidders are split in two halves; each half is offered the other
    /// half's empirically optimal fixed price. Truthful because no
    /// bidder's report influences the price they face.
    Rsop {
        /// RNG seed for the split (determinism in tests/benches).
        seed: u64,
    },
    /// Generalized second price (the ad-auction rule of §3.2.1 \[67,48\]):
    /// winners are ranked by bid and the k-th ranked winner pays the
    /// (k+1)-th ranked bid — positional pricing for ranked slots (e.g.
    /// placement in the arbiter's recommendation list).
    GeneralizedSecondPrice,
}

/// A priced winner: `(bid index, price to pay)`.
pub type Payment = (usize, f64);

/// The revenue-optimal single fixed price against a set of bids:
/// maximizes `price × |{b ≥ price}|` over candidate prices (all bids).
/// Returns `(price, revenue)`; `(0, 0)` for no bids.
pub fn optimal_fixed_price(bids: &[f64]) -> (f64, f64) {
    let mut sorted: Vec<f64> = bids.iter().copied().filter(|b| *b > 0.0).collect();
    sorted.sort_by(|a, b| b.total_cmp(a)); // descending
    let mut best = (0.0, 0.0);
    for (i, &p) in sorted.iter().enumerate() {
        let revenue = p * (i + 1) as f64;
        if revenue > best.1 {
            best = (p, revenue);
        }
    }
    best
}

impl PaymentRule {
    /// Compute payments for the winner set chosen by the allocation rule.
    ///
    /// For `Rsop`, `winners` is ignored (the rule determines its own
    /// winners among all bids); for the others, `winners` are indices
    /// into `bids`.
    pub fn payments(&self, bids: &[Bid], winners: &[usize]) -> Vec<Payment> {
        match self {
            PaymentRule::FirstPrice => winners.iter().map(|&i| (i, bids[i].amount)).collect(),
            PaymentRule::PostedPrice(p) => winners
                .iter()
                .filter(|&&i| bids[i].amount >= *p)
                .map(|&i| (i, *p))
                .collect(),
            PaymentRule::Vickrey => {
                let price = highest_losing_bid(bids, winners).unwrap_or(0.0);
                winners
                    .iter()
                    .map(|&i| (i, price.min(bids[i].amount)))
                    .collect()
            }
            PaymentRule::VickreyReserve { reserve } => {
                let floor = highest_losing_bid(bids, winners)
                    .unwrap_or(0.0)
                    .max(*reserve);
                winners
                    .iter()
                    .filter(|&&i| bids[i].amount >= floor)
                    .map(|&i| (i, floor))
                    .collect()
            }
            PaymentRule::Rsop { seed } => rsop(bids, *seed),
            PaymentRule::GeneralizedSecondPrice => gsp(bids, winners),
        }
    }
}

/// GSP: rank winners by bid descending; winner at rank k pays the bid of
/// the next-ranked bidder (winner or not), 0 for the last slot when no
/// lower bid exists.
fn gsp(bids: &[Bid], winners: &[usize]) -> Vec<Payment> {
    // Global ranking of all bids, descending (ties by index).
    let mut order: Vec<usize> = (0..bids.len()).collect();
    order.sort_by(|&a, &b| {
        bids[b]
            .amount
            .total_cmp(&bids[a].amount)
            .then_with(|| a.cmp(&b))
    });
    let mut out: Vec<Payment> = Vec::new();
    for &w in winners {
        let rank = order
            .iter()
            .position(|&i| i == w)
            .expect("winner indexes bids");
        let price = order
            .get(rank + 1)
            .map(|&next| bids[next].amount)
            .unwrap_or(0.0)
            .min(bids[w].amount);
        out.push((w, price));
    }
    out.sort_unstable_by_key(|p| p.0);
    out
}

/// The highest bid not in the winner set.
fn highest_losing_bid(bids: &[Bid], winners: &[usize]) -> Option<f64> {
    bids.iter()
        .enumerate()
        .filter(|(i, _)| !winners.contains(i))
        .map(|(_, b)| b.amount)
        .max_by(f64::total_cmp)
}

/// Goldberg–Hartline RSOP: random split A/B; offer B the optimal fixed
/// price computed on A, and vice versa.
fn rsop(bids: &[Bid], seed: u64) -> Vec<Payment> {
    if bids.is_empty() {
        return Vec::new();
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..bids.len()).collect();
    idx.shuffle(&mut rng);
    let half = idx.len() / 2;
    let (a_idx, b_idx) = idx.split_at(half);

    let a_bids: Vec<f64> = a_idx.iter().map(|&i| bids[i].amount).collect();
    let b_bids: Vec<f64> = b_idx.iter().map(|&i| bids[i].amount).collect();
    let (price_for_b, _) = optimal_fixed_price(&a_bids);
    let (price_for_a, _) = optimal_fixed_price(&b_bids);

    let mut out: Vec<Payment> = Vec::new();
    for &i in a_idx {
        if price_for_a > 0.0 && bids[i].amount >= price_for_a {
            out.push((i, price_for_a));
        }
    }
    for &i in b_idx {
        if price_for_b > 0.0 && bids[i].amount >= price_for_b {
            out.push((i, price_for_b));
        }
    }
    out.sort_unstable_by_key(|p| p.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bids() -> Vec<Bid> {
        vec![
            Bid::new("a", 10.0),
            Bid::new("b", 30.0),
            Bid::new("c", 20.0),
            Bid::new("d", 5.0),
        ]
    }

    #[test]
    fn first_price_pays_own_bid() {
        let p = PaymentRule::FirstPrice.payments(&bids(), &[1, 2]);
        assert_eq!(p, vec![(1, 30.0), (2, 20.0)]);
    }

    #[test]
    fn vickrey_pays_highest_loser() {
        // winners = {b, c}; highest loser = a at 10.
        let p = PaymentRule::Vickrey.payments(&bids(), &[1, 2]);
        assert_eq!(p, vec![(1, 10.0), (2, 10.0)]);
    }

    #[test]
    fn vickrey_single_winner_classic_second_price() {
        let p = PaymentRule::Vickrey.payments(&bids(), &[1]);
        assert_eq!(p, vec![(1, 20.0)]); // pays c's bid
    }

    #[test]
    fn vickrey_all_winners_pay_zero() {
        let p = PaymentRule::Vickrey.payments(&bids(), &[0, 1, 2, 3]);
        assert!(p.iter().all(|&(_, x)| x == 0.0));
    }

    #[test]
    fn reserve_floors_the_price() {
        let p = PaymentRule::VickreyReserve { reserve: 25.0 }.payments(&bids(), &[1]);
        assert_eq!(p, vec![(1, 25.0)]);
        // bidders below the reserve drop out even if allocated
        let p = PaymentRule::VickreyReserve { reserve: 25.0 }.payments(&bids(), &[1, 2]);
        assert_eq!(p, vec![(1, 25.0)]);
    }

    #[test]
    fn posted_price_drops_low_bids() {
        let p = PaymentRule::PostedPrice(15.0).payments(&bids(), &[0, 1, 2, 3]);
        assert_eq!(p, vec![(1, 15.0), (2, 15.0)]);
    }

    #[test]
    fn optimal_fixed_price_maximizes_revenue() {
        // bids 10,30,20,5: price 10 -> 30; price 20 -> 40; price 30 -> 30.
        let (p, r) = optimal_fixed_price(&[10.0, 30.0, 20.0, 5.0]);
        assert_eq!(p, 20.0);
        assert_eq!(r, 40.0);
    }

    #[test]
    fn optimal_fixed_price_empty() {
        assert_eq!(optimal_fixed_price(&[]), (0.0, 0.0));
    }

    #[test]
    fn gsp_positions_pay_next_bid() {
        // bids 10, 30, 20, 5; winners = top 2 = {b(30), c(20)}.
        let p = PaymentRule::GeneralizedSecondPrice.payments(&bids(), &[1, 2]);
        // b (rank 1) pays c's 20; c (rank 2) pays a's 10.
        assert_eq!(p, vec![(1, 20.0), (2, 10.0)]);
    }

    #[test]
    fn gsp_last_slot_pays_zero_when_alone() {
        let solo = vec![Bid::new("only", 9.0)];
        let p = PaymentRule::GeneralizedSecondPrice.payments(&solo, &[0]);
        assert_eq!(p, vec![(0, 0.0)]);
    }

    #[test]
    fn gsp_never_charges_above_bid() {
        let tied = vec![
            Bid::new("a", 10.0),
            Bid::new("b", 10.0),
            Bid::new("c", 10.0),
        ];
        let p = PaymentRule::GeneralizedSecondPrice.payments(&tied, &[0, 1]);
        for (i, price) in p {
            assert!(price <= tied[i].amount + 1e-12);
        }
    }

    #[test]
    fn rsop_winners_pay_at_most_their_bid() {
        let many: Vec<Bid> = (0..50)
            .map(|i| Bid::new(format!("b{i}"), (i % 10 + 1) as f64 * 10.0))
            .collect();
        let p = PaymentRule::Rsop { seed: 42 }.payments(&many, &[]);
        assert!(!p.is_empty());
        for (i, price) in &p {
            assert!(many[*i].amount >= *price);
            assert!(*price > 0.0);
        }
    }

    #[test]
    fn rsop_price_is_uniform_within_each_half() {
        let many: Vec<Bid> = (0..40)
            .map(|i| Bid::new(format!("b{i}"), 1.0 + i as f64))
            .collect();
        let p = PaymentRule::Rsop { seed: 1 }.payments(&many, &[]);
        let mut distinct: Vec<u64> = p.iter().map(|(_, x)| x.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() <= 2,
            "at most two price levels, got {distinct:?}"
        );
    }

    #[test]
    fn rsop_empty_is_empty() {
        assert!(PaymentRule::Rsop { seed: 0 }.payments(&[], &[]).is_empty());
    }

    #[test]
    fn rsop_deterministic_per_seed() {
        let many: Vec<Bid> = (0..30)
            .map(|i| Bid::new(format!("b{i}"), (i * 7 % 13) as f64))
            .collect();
        let p1 = PaymentRule::Rsop { seed: 9 }.payments(&many, &[]);
        let p2 = PaymentRule::Rsop { seed: 9 }.payments(&many, &[]);
        assert_eq!(p1, p2);
    }
}
