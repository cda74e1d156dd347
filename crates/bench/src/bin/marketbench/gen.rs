//! The shared, seeded market generator. The program under test only
//! ever sees the [`Command`]s produced here.
//!
//! The *shape* of a market (how many datasets carry each attribute, how
//! many offers a round holds) is fixed by its [`MarketSize`]; the seed
//! decides which attribute lands on which seller, every cell value,
//! which attribute pair each offer asks for and every amount. Work per
//! round therefore varies little between seeds, so a metric's spread
//! across seeds measures the machine, not the draw.

use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, OfferSpec, TableSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Attribute vocabulary size (`a0..a23`).
pub const VOCABULARY: usize = 24;
/// Shards every workload deploys.
pub const SHARDS: usize = 4;
/// Offers submitted before each `RunRound`.
pub const OFFERS_PER_ROUND: usize = 16;

/// The two market sizes the workloads use.
#[derive(Debug, Clone, Copy)]
pub struct MarketSize {
    /// Sellers; each shares one dataset.
    pub sellers: usize,
    /// Rows per dataset.
    pub rows: usize,
    /// Funded buyer accounts.
    pub buyers: usize,
}

/// 32 sellers × 64 rows, 32 buyers: every offer needs a join.
pub const MID: MarketSize = MarketSize {
    sellers: 32,
    rows: 64,
    buyers: 32,
};
/// 8 sellers × 16 rows, 64 buyer accounts: the gateway mix's market.
pub const SMALL: MarketSize = MarketSize {
    sellers: 8,
    rows: 16,
    buyers: 64,
};
/// `--smoke`: just enough for one joined sale per round.
pub const TINY: MarketSize = MarketSize {
    sellers: 4,
    rows: 8,
    buyers: 8,
};

/// The market configuration every workload (and every worker) deploys.
pub fn market_config() -> MarketConfig {
    MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(10.0))
}

/// What each buyer is funded with during set-up: far more than the
/// rounds of one run can spend, so no offer ever fails for funds.
pub const BUYER_FUNDS: f64 = 1_000_000.0;

/// A seeded command source for one market.
pub struct Market {
    size: MarketSize,
    rng: StdRng,
    /// `layout[s]` = the two attribute indices seller `s` shares.
    layout: Vec<[usize; 2]>,
    /// Attribute indices at least one dataset carries.
    available: Vec<usize>,
    next_buyer: usize,
    /// Credits minted so far, in quarter-credits (exact in `f64`).
    minted_quarters: u64,
}

impl Market {
    /// Lay the market out for `seed`.
    pub fn new(size: MarketSize, seed: u64) -> Market {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d61_726b_6574_6265);
        let mut names: Vec<usize> = (0..VOCABULARY).collect();
        names.shuffle(&mut rng);
        // Balanced: slot j carries names[j % VOCABULARY], seller s owns
        // slots s and s + sellers — two different attributes whenever
        // sellers is not a multiple of the vocabulary size.
        let layout: Vec<[usize; 2]> = (0..size.sellers)
            .map(|s| {
                [
                    names[s % VOCABULARY],
                    names[(s + size.sellers) % VOCABULARY],
                ]
            })
            .collect();
        let mut available: Vec<usize> = layout.iter().flatten().copied().collect();
        available.sort_unstable();
        available.dedup();
        Market {
            size,
            rng,
            layout,
            available,
            next_buyer: 0,
            minted_quarters: 0,
        }
    }

    /// A second command source over the same market layout with its
    /// own random stream (one per gateway connection). Its `minted`
    /// starts at zero.
    pub fn fork(&mut self) -> Market {
        Market {
            size: self.size,
            rng: StdRng::seed_from_u64(self.rng.gen()),
            layout: self.layout.clone(),
            available: self.available.clone(),
            next_buyer: self.rng.gen_range(0..self.size.buyers),
            minted_quarters: 0,
        }
    }

    /// Buyer account names, in enrolment order.
    pub fn buyer(&self, i: usize) -> String {
        format!("b{}", i % self.size.buyers)
    }

    /// Number of buyer accounts.
    pub fn buyers(&self) -> usize {
        self.size.buyers
    }

    /// Credits minted by every command generated so far.
    pub fn minted(&self) -> f64 {
        self.minted_quarters as f64 / 4.0
    }

    /// Enrol and fund every participant (no datasets yet).
    pub fn enrolment(&mut self) -> Vec<Command> {
        let mut out = Vec::new();
        for s in 0..self.size.sellers {
            out.push(Command::Enroll {
                name: format!("s{s}"),
                role: "seller".into(),
            });
        }
        for b in 0..self.size.buyers {
            out.push(Command::Enroll {
                name: format!("b{b}"),
                role: "buyer".into(),
            });
            out.push(Command::Deposit {
                account: format!("b{b}"),
                amount: BUYER_FUNDS,
            });
            self.minted_quarters += (BUYER_FUNDS * 4.0) as u64;
        }
        out
    }

    /// One ask per seller: `k:int` plus the seller's two float columns.
    pub fn asks(&mut self) -> Vec<AskSpec> {
        (0..self.size.sellers)
            .map(|s| {
                let [x, y] = self.layout[s];
                AskSpec {
                    seller: format!("s{s}"),
                    table: TableSpec {
                        name: format!("t{s}"),
                        columns: vec![
                            ("k".into(), ColType::Int),
                            (format!("a{x}"), ColType::Float),
                            (format!("a{y}"), ColType::Float),
                        ],
                        rows: (0..self.size.rows)
                            .map(|k| {
                                vec![
                                    CellSpec::Int(k as i64),
                                    CellSpec::Float(self.rng.gen_range(0.0..1000.0)),
                                    CellSpec::Float(self.rng.gen_range(0.0..1000.0)),
                                ]
                            })
                            .collect(),
                    },
                    reserve: None,
                    license: None,
                }
            })
            .collect()
    }

    /// Everything before the first trading round, in journal order.
    pub fn setup(&mut self) -> Vec<Command> {
        let mut out = self.enrolment();
        out.extend(self.asks().into_iter().map(Command::SubmitAsk));
        out
    }

    /// One offer from the next buyer in rotation, asking for two
    /// attributes no single dataset carries together — the DoD engine
    /// has to join at least two datasets on `k` to serve it.
    pub fn offer(&mut self) -> OfferSpec {
        let buyer = self.buyer(self.next_buyer);
        self.next_buyer += 1;
        let (x, y) = loop {
            let x = self.available[self.rng.gen_range(0..self.available.len())];
            let y = self.available[self.rng.gen_range(0..self.available.len())];
            let together = self
                .layout
                .iter()
                .any(|pair| pair.contains(&x) && pair.contains(&y));
            if x != y && !together {
                break (x, y);
            }
        };
        // Above the posted price of 10, so every served offer sells.
        let price = 12.0 + self.rng.gen_range(0..32u32) as f64 * 0.25;
        OfferSpec::simple(buyer, [format!("a{x}"), format!("a{y}")], price)
    }

    /// A trading round: [`OFFERS_PER_ROUND`] offers, then the round.
    pub fn trading_round(&mut self) -> Vec<Command> {
        let mut out: Vec<Command> = (0..OFFERS_PER_ROUND)
            .map(|_| Command::SubmitOffer(self.offer()))
            .collect();
        out.push(Command::RunRound { rounds: 1 });
        out
    }

    /// A deposit of a whole number of quarter-credits into a random
    /// buyer account; returns `(account index, amount)`.
    pub fn deposit_parts(&mut self) -> (usize, f64) {
        let account = self.rng.gen_range(0..self.size.buyers);
        let quarters = self.rng.gen_range(1..400u64);
        self.minted_quarters += quarters;
        (account, quarters as f64 / 4.0)
    }

    /// [`Market::deposit_parts`] as a command.
    pub fn deposit(&mut self) -> Command {
        let (account, amount) = self.deposit_parts();
        Command::Deposit {
            account: self.buyer(account),
            amount,
        }
    }

    /// A uniform draw in `0..n` from the market's stream (the gateway
    /// mix picks request kinds and read targets with it).
    pub fn pick(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> String {
        let mut m = Market::new(MID, seed);
        let mut cmds = m.setup();
        for _ in 0..3 {
            cmds.extend(m.trading_round());
            cmds.push(m.deposit());
        }
        cmds.iter().map(|c| c.encode().dump()).collect()
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn layout_is_balanced_and_offers_need_a_join() {
        for size in [MID, SMALL, TINY] {
            let mut m = Market::new(size, 1);
            let mut count = [0usize; VOCABULARY];
            for pair in &m.layout {
                assert_ne!(pair[0], pair[1]);
                count[pair[0]] += 1;
                count[pair[1]] += 1;
            }
            let used: Vec<usize> = count.iter().copied().filter(|&c| c > 0).collect();
            let (lo, hi) = (used.iter().min().unwrap(), used.iter().max().unwrap());
            assert!(
                hi - lo <= 1,
                "attribute multiplicities differ by more than one"
            );
            for _ in 0..64 {
                let offer = m.offer();
                assert_eq!(offer.attributes.len(), 2);
                let together = m.layout.iter().any(|pair| {
                    offer
                        .attributes
                        .iter()
                        .all(|a| pair.iter().any(|i| *a == format!("a{i}")))
                });
                assert!(!together, "one dataset serves the whole offer");
            }
        }
    }

    #[test]
    fn minted_tracks_every_deposit() {
        let mut m = Market::new(TINY, 3);
        m.enrolment();
        let before = m.minted();
        let (_, amount) = m.deposit_parts();
        assert_eq!(m.minted(), before + amount);
    }
}
