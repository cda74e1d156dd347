//! Per-round state threaded through the round's phases.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::arbiter::mashup_builder::BuiltMashup;
use crate::arbiter::pricing::{RoundBid, Sale};
use crate::arbiter::services::demand_report;
use crate::market::{DataMarket, Offer};

use super::{NegotiationRequest, RoundReport};

/// Mutable state one round accumulates while flowing through its
/// phases. Persistent market state (ledger, audit chain, metadata,
/// lineage, offer book) stays on the [`DataMarket`]; the context only
/// carries what this round has produced so far.
#[derive(Debug)]
pub struct RoundContext {
    /// Round number (1-based; assigned when the context opens).
    pub round: u64,
    /// Logical time at round start.
    pub now: u64,
    /// Round-scoped seed all per-offer RNG streams derive from.
    pub round_seed: u64,
    /// Offers still live after expiry.
    pub pending: Vec<Offer>,
    /// Offers considered this round (live + expired).
    pub considered: usize,
    /// Offers expired this round.
    pub expired: usize,
    /// One bid per offer that found a sellable mashup ([`super::clear`]
    /// moves them out).
    pub bids: Vec<RoundBid>,
    /// The winning candidate mashup per offer id.
    pub best_mashups: BTreeMap<u64, BuiltMashup>,
    /// Missing-attribute lists (feeds the demand report).
    pub missing: Vec<Vec<String>>,
    /// Negotiation requests for under-served offers (§4.1).
    pub negotiations: Vec<NegotiationRequest>,
    /// Sales that actually settled / delivered.
    pub completed_sales: Vec<Sale>,
    /// Ex ante revenue collected.
    pub revenue: f64,
    /// Arbiter fees collected.
    pub fees: f64,
    /// Ex post delivery ids created.
    pub deliveries: Vec<u64>,
}

impl RoundContext {
    /// Open a new round: bump the round counter, advance logical time,
    /// and draw the round seed from the market's seeded RNG.
    pub(crate) fn open(market: &DataMarket) -> Self {
        let round_seed = market.book.lock().rng.gen::<u64>();
        Self::open_seeded(market, round_seed)
    }

    /// Open a new round under an externally-coordinated seed (two-phase
    /// cross-shard rounds: every shard of a deployment must derive its
    /// per-offer tie-break streams from the *same* seed, or an M-shard
    /// market would clear differently from the 1-shard market).
    pub(crate) fn open_seeded(market: &DataMarket, round_seed: u64) -> Self {
        let (round, now) = {
            let mut book = market.book.lock();
            book.round += 1;
            (book.round, book.tick())
        };
        RoundContext {
            round,
            now,
            round_seed,
            pending: Vec::new(),
            considered: 0,
            expired: 0,
            bids: Vec::new(),
            best_mashups: BTreeMap::new(),
            missing: Vec::new(),
            negotiations: Vec::new(),
            completed_sales: Vec::new(),
            revenue: 0.0,
            fees: 0.0,
            deliveries: Vec::new(),
        }
    }

    /// A deterministic RNG stream for one offer, independent of every
    /// other offer's stream. Derived from `(round_seed, offer_id)` via a
    /// SplitMix64-style mix, so the [`super::CandidateStage`] draws
    /// identical tie-breaks whether offers are evaluated sequentially or
    /// on rayon workers in any schedule.
    pub fn offer_rng(&self, offer_id: u64) -> StdRng {
        let mixed = self
            .round_seed
            .wrapping_add(offer_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .rotate_left(17)
            ^ 0xD1B5_4A32_D192_ED03;
        StdRng::seed_from_u64(mixed)
    }

    /// Close the round: publish negotiation/demand state on the market
    /// and produce the round report.
    pub(crate) fn finish(self, market: &DataMarket) -> RoundReport {
        let mut book = market.book.lock();
        book.last_missing = self.missing.clone();
        book.last_negotiations = self.negotiations;
        drop(book);
        RoundReport {
            round: self.round,
            considered: self.considered,
            sales: self.completed_sales,
            revenue: self.revenue,
            fees: self.fees,
            expired: self.expired,
            deliveries: self.deliveries,
            unmet: demand_report(self.missing.iter().map(|v| v.as_slice())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketConfig;

    #[test]
    fn offer_rng_streams_are_deterministic_and_independent() {
        let market = DataMarket::new(MarketConfig::external(5));
        let ctx = RoundContext::open(&market);
        let a1: u64 = ctx.offer_rng(1).gen();
        let a2: u64 = ctx.offer_rng(1).gen();
        let b: u64 = ctx.offer_rng(2).gen();
        assert_eq!(a1, a2, "same offer, same stream");
        assert_ne!(a1, b, "different offers, different streams");
    }

    #[test]
    fn same_market_seed_gives_same_round_seed() {
        let m1 = DataMarket::new(MarketConfig::external(5));
        let m2 = DataMarket::new(MarketConfig::external(5));
        assert_eq!(
            RoundContext::open(&m1).round_seed,
            RoundContext::open(&m2).round_seed
        );
    }

    #[test]
    fn open_advances_the_round_counter() {
        let market = DataMarket::new(MarketConfig::external(5));
        assert_eq!(RoundContext::open(&market).round, 1);
        assert_eq!(RoundContext::open(&market).round, 2);
    }
}
