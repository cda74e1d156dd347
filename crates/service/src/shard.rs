//! Horizontal partitioning with **cross-shard clearing**: participants
//! hash onto M [`DataMarket`] shards that share one
//! [`dmp_core::market::MarketSubstrate`] (catalog + licensing terms +
//! settlement ledger), and every round runs the arbiter's phases from
//! [`dmp_core::arbiter::pipeline`] — the same ones
//! [`DataMarket::run_round`] runs over one market — across all of them:
//!
//! 1. **Candidate phase** (shard-parallel, rayon, or farmed out to
//!    worker processes): each shard runs expiry + candidate generation
//!    under one coordinator-issued round seed — it does *not* clear
//!    locally;
//! 2. **Clearing** ([`pipeline::clear`]): every shard's bids merge in
//!    global offer-id order and the pricing engine runs **once** over
//!    the unified match graph, so bids from different shards compete
//!    for the same products;
//! 3. **Settlement** ([`pipeline::settle`]): cleared sales are routed
//!    back to the shard owning each buyer and committed in global
//!    offer-id order against the shared ledger, so money flows
//!    (including to sellers whose accounts hash to other shards) land
//!    exactly where a 1-shard market would put them.
//!
//! Routing is by stable FNV-1a hash of the participant name, offer ids
//! are allocated globally by the router, and all shards tie-break from
//! the same round seed — together this makes sharding a **performance
//! detail, not a semantics change**: an M-shard deployment clears the
//! same trades, at the same prices, into the same balances as the
//! 1-shard market for the same command stream (pinned by the
//! `shard_equivalence` test suite).

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(clippy::indexing_slicing)]

use std::sync::{Arc, OnceLock};

use dmp_core::arbiter::pipeline::{self, CandidatePhaseExport, RoundContext};
use dmp_core::arbiter::pricing::Sale;
use dmp_core::market::{
    DataMarket, MarketConfig, MarketShardState, MarketSubstrate, RoundReport, SubstrateImage,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use dmp_relation::DatasetId;

use crate::command::Command;
use crate::error::ServiceError;
use crate::wire::{Json, Sink};

/// The bound on every deposit: a finite, non-negative amount of at
/// most [`MAX_AMOUNT`](dmp_core::arbiter::ledger::MAX_AMOUNT) credits.
/// [`ShardRouter::apply`] enforces it, and `POST /enroll` checks its
/// opening deposit against it before the enroll applies.
pub(crate) fn check_deposit(amount: f64) -> Result<(), ServiceError> {
    let max = dmp_core::arbiter::ledger::MAX_AMOUNT;
    if (0.0..=max).contains(&amount) {
        return Ok(());
    }
    Err(ServiceError::Rejected(format!(
        "deposit amount must be a non-negative finite number <= {max} credits"
    )))
}

/// FNV-1a 64-bit hash (stable across processes and platforms; the
/// routing function must never change under replay).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.update(bytes);
    hash.finish()
}

/// [`fnv1a`] fed a piece at a time. As a [`Sink`] it hashes a document
/// while [`Json::dump_into`] produces it, so the text is never built.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Hash `bytes` after everything fed so far.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Sink for Fnv1a {
    fn push_str(&mut self, text: &str) {
        self.update(text.as_bytes());
    }
}

/// What applying one [`Command`] produced (the gateway serializes this
/// into the HTTP response body).
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Participant enrolled (idempotent).
    Enrolled {
        /// Principal name.
        name: String,
        /// Owning shard.
        shard: usize,
    },
    /// Funds minted.
    Deposited {
        /// Account name.
        account: String,
        /// Balance after the deposit.
        balance: f64,
    },
    /// Offer accepted into a shard's offer book.
    OfferAccepted {
        /// Shard-local offer id.
        offer: u64,
        /// Owning shard.
        shard: usize,
    },
    /// Dataset registered (and reserve/license applied when given).
    AskAccepted {
        /// Shard-local dataset id.
        dataset: u64,
        /// Owning shard.
        shard: usize,
    },
    /// License attached.
    LicenseGranted {
        /// Dataset id.
        dataset: u64,
        /// Owning shard.
        shard: usize,
    },
    /// Rounds executed across all shards.
    RoundsRun(Vec<MergedRoundReport>),
}

impl Outcome {
    /// JSON form for gateway responses.
    pub fn to_json(&self) -> Json {
        match self {
            Outcome::Enrolled { name, shard } => Json::obj([
                ("enrolled", Json::str(name.clone())),
                ("shard", Json::Num(*shard as f64)),
            ]),
            Outcome::Deposited { account, balance } => Json::obj([
                ("account", Json::str(account.clone())),
                ("balance", Json::Num(*balance)),
            ]),
            Outcome::OfferAccepted { offer, shard } => Json::obj([
                ("offer", Json::Num(*offer as f64)),
                ("shard", Json::Num(*shard as f64)),
            ]),
            Outcome::AskAccepted { dataset, shard } => Json::obj([
                ("dataset", Json::Num(*dataset as f64)),
                ("shard", Json::Num(*shard as f64)),
            ]),
            Outcome::LicenseGranted { dataset, shard } => Json::obj([
                ("licensed", Json::Num(*dataset as f64)),
                ("shard", Json::Num(*shard as f64)),
            ]),
            Outcome::RoundsRun(reports) => Json::obj([(
                "rounds",
                Json::Arr(reports.iter().map(MergedRoundReport::to_json).collect()),
            )]),
        }
    }
}

/// Per-shard round reports merged into platform-level totals.
#[derive(Debug, Clone)]
pub struct MergedRoundReport {
    /// Round number (uniform across shards).
    pub round: u64,
    /// Offers considered, summed over shards.
    pub considered: usize,
    /// Sales cleared, summed over shards.
    pub sales: usize,
    /// Cleared sales whose winning mashup contains at least one dataset
    /// owned by a seller on a *different* shard than the buyer — trades
    /// that per-shard clearing could never have produced.
    pub cross_shard: usize,
    /// Revenue collected (ex ante), summed.
    pub revenue: f64,
    /// Arbiter fees collected, summed.
    pub fees: f64,
    /// Offers expired, summed.
    pub expired: usize,
    /// Ex post deliveries created, summed.
    pub deliveries: usize,
    /// Settlement components: the cleared sales handed to settlement.
    /// Plans read no state a commit writes, so the graph that constrains
    /// planning has no edges and each sale is its own component.
    pub components: usize,
    /// The raw per-shard reports (shard index = position).
    pub per_shard: Vec<RoundReport>,
}

impl MergedRoundReport {
    /// Merge one report per shard (position = shard index).
    pub fn merge(per_shard: Vec<RoundReport>) -> Self {
        MergedRoundReport {
            round: per_shard.first().map(|r| r.round).unwrap_or(0),
            considered: per_shard.iter().map(|r| r.considered).sum(),
            sales: per_shard.iter().map(|r| r.sales.len()).sum(),
            cross_shard: 0,
            revenue: per_shard.iter().map(|r| r.revenue).sum(),
            fees: per_shard.iter().map(|r| r.fees).sum(),
            expired: per_shard.iter().map(|r| r.expired).sum(),
            deliveries: per_shard.iter().map(|r| r.deliveries.len()).sum(),
            components: 0,
            per_shard,
        }
    }

    /// JSON form for gateway responses.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("round", Json::Num(self.round as f64)),
            ("considered", Json::Num(self.considered as f64)),
            ("sales", Json::Num(self.sales as f64)),
            ("cross_shard", Json::Num(self.cross_shard as f64)),
            ("revenue", Json::Num(self.revenue)),
            ("fees", Json::Num(self.fees)),
            ("expired", Json::Num(self.expired as f64)),
            ("deliveries", Json::Num(self.deliveries as f64)),
            ("components", Json::Num(self.components as f64)),
        ])
    }
}

/// A round's candidate phase, delegated to remote shard workers.
///
/// The coordinator's [`ShardRouter`] consults its distributor (when one
/// is attached) at the top of every round: `candidates` may farm the
/// expensive candidate phase out to worker processes and return one
/// [`CandidatePhaseExport`] per shard (in shard order), or `None` to
/// fall back to local computation (e.g. every worker is dead — the
/// round must still complete, and journal replay always takes the local
/// path because the distributor is attached only after recovery).
/// After the coordinator settles the round authoritatively,
/// `round_complete` sends every worker the exports it lacks so it can
/// re-execute settlement locally and stay a bit-exact replica.
pub trait RoundDistributor: Send + Sync {
    /// Compute the candidate phase for `round` under `round_seed`,
    /// returning one export per shard (`shards` total, shard order), or
    /// `None` to compute locally.
    fn candidates(
        &self,
        round: u64,
        round_seed: u64,
        shards: usize,
    ) -> Option<Vec<CandidatePhaseExport>>;

    /// The round cleared and settled on the coordinator; `exports`
    /// holds every shard's candidate phase, in shard order, of which a
    /// distributor ships each worker what it needs to replay it.
    fn round_complete(&self, round: u64, round_seed: u64, exports: &[CandidatePhaseExport]);
}

/// Router-global mutable state: the global offer-id allocator and the
/// round-seed coordinator. Both must be shard-count-independent — the
/// per-offer tie-break streams derive from `(round_seed, offer_id)`, so
/// sharing one allocator and one seed stream across shards is what lets
/// an M-shard round replay the 1-shard round bid-for-bid.
struct RouterState {
    next_offer: u64,
    round_rng: StdRng,
}

/// M market shards over one shared substrate, behind one routing
/// function and one two-phase exchange.
pub struct ShardRouter {
    shards: Vec<DataMarket>,
    state: Mutex<RouterState>,
    /// Rounds completed since this router was built (replay included).
    /// Atomic so the gateway's `/health` never takes a shard lock a
    /// running round might hold.
    rounds: std::sync::atomic::AtomicU64,
    /// Candidate-phase delegation (coordinator role), installed once.
    /// Unset — the default, and always the state during journal replay —
    /// computes every round locally.
    distributor: OnceLock<Arc<dyn RoundDistributor>>,
}

impl ShardRouter {
    /// Deploy `shards` markets from one base config onto a **shared
    /// substrate** (catalog, licensing terms, ledger). Shard `i` seeds
    /// its private RNG with `base.seed + i`; round seeds themselves come
    /// from the router's coordinator stream (seeded with `base.seed`,
    /// matching what a standalone 1-shard market would draw).
    pub fn new(base: &MarketConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        let substrate = MarketSubstrate::new();
        let markets: Vec<DataMarket> = (0..shards)
            .map(|i| {
                let mut cfg = base.clone();
                cfg.seed = base.seed.wrapping_add(i as u64);
                DataMarket::with_substrate(cfg, substrate.clone())
            })
            .collect();
        ShardRouter {
            shards: markets,
            state: Mutex::new(RouterState {
                next_offer: 0,
                round_rng: StdRng::seed_from_u64(base.seed),
            }),
            rounds: std::sync::atomic::AtomicU64::new(0),
            distributor: OnceLock::new(),
        }
    }

    /// Attach a [`RoundDistributor`]: subsequent rounds farm the
    /// candidate phase out through it. Call once (a second call is
    /// ignored), and only *after* recovery replay so replayed rounds
    /// recompute locally (the distributed and local paths are pinned
    /// bit-identical, so either replays the same state — but replay
    /// must not depend on worker availability).
    pub fn set_distributor(&self, d: Arc<dyn RoundDistributor>) {
        let _ = self.distributor.set(d);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The round seed the *next* round will draw, without advancing the
    /// coordinator stream. Workers use this to verify that a candidate
    /// request carries the seed their own replica would draw — a
    /// mismatched seed means coordinator and worker have diverged.
    pub fn predict_round_seed(&self) -> u64 {
        let mut probe = self.state.lock().round_rng.clone();
        probe.gen::<u64>()
    }

    /// Draw the next round seed, advancing the coordinator stream.
    pub fn draw_round_seed(&self) -> u64 {
        self.state.lock().round_rng.gen::<u64>()
    }

    /// Rounds completed since construction — lock-free (`/health` reads
    /// this while a round runs on another connection).
    pub fn rounds_completed(&self) -> u64 {
        self.rounds.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The shard owning a participant name.
    pub fn shard_of(&self, name: &str) -> usize {
        (fnv1a(name.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Direct shard access (diagnostics, tests, digests).
    pub fn shard(&self, i: usize) -> &DataMarket {
        self.market_at(i)
    }

    /// The single audited index into the shard vector: `shards` is
    /// non-empty by construction and every internal index is either 0
    /// or comes from [`ShardRouter::shard_of`], which reduces modulo
    /// `shards.len()`.
    #[expect(
        clippy::indexing_slicing,
        reason = "shards is non-empty by construction; indices are 0 or shard_of results, reduced mod shards.len()"
    )]
    fn market_at(&self, shard: usize) -> &DataMarket {
        &self.shards[shard]
    }

    /// All shards.
    pub fn shards(&self) -> &[DataMarket] {
        &self.shards
    }

    /// Apply one command, routing by the participant it names. Errors
    /// from the market (unknown participant, refused registration, ...)
    /// surface as [`ServiceError::Rejected`].
    pub fn apply(&self, cmd: &Command) -> Result<Outcome, ServiceError> {
        match cmd {
            Command::Enroll { name, role } => {
                let shard = self.shard_of(name);
                self.market_at(shard).enroll(name.clone(), role.clone());
                Ok(Outcome::Enrolled {
                    name: name.clone(),
                    shard,
                })
            }
            Command::Deposit { account, amount } => {
                check_deposit(*amount)?;
                let shard = self.shard_of(account);
                let market = self.market_at(shard);
                // Only enrolled principals (and the arbiter) hold
                // accounts: minting into an unknown name would create a
                // balance `GET /ledger/:name` then denies exists.
                if market.participant(account).is_none()
                    && account != dmp_core::market::ARBITER_ACCOUNT
                {
                    return Err(ServiceError::Rejected(format!(
                        "unknown account '{account}': enroll before depositing"
                    )));
                }
                market.deposit(account, *amount);
                Ok(Outcome::Deposited {
                    account: account.clone(),
                    balance: market.balance(account),
                })
            }
            Command::SubmitOffer(spec) => {
                let shard = self.shard_of(&spec.buyer);
                // Global offer ids: allocated by the router (not the
                // shard) so the id — and with it the offer's tie-break
                // RNG stream and its position in the global clearing
                // order — does not depend on the shard count. Allocated
                // on success only, so rejected submissions (which are
                // journaled and replayed as rejections) do not burn ids.
                let mut state = self.state.lock();
                let offer = self
                    .market_at(shard)
                    .submit_wtp_with_id(state.next_offer, spec.to_wtp(), spec.purpose.clone())
                    .map_err(|e| ServiceError::Rejected(format!("{e:?}")))?;
                state.next_offer = offer + 1;
                Ok(Outcome::OfferAccepted { offer, shard })
            }
            Command::SubmitAsk(spec) => {
                let shard = self.shard_of(&spec.seller);
                let market = self.market_at(shard);
                let rel = spec
                    .table
                    .to_relation()
                    .map_err(|e| ServiceError::Rejected(e.to_string()))?;
                let seller = market.seller(&spec.seller);
                let dataset = seller
                    .share(rel)
                    .map_err(|e| ServiceError::Rejected(format!("{e:?}")))?;
                if let Some(reserve) = spec.reserve {
                    seller
                        .set_reserve(dataset, reserve)
                        .map_err(|e| ServiceError::Rejected(format!("{e:?}")))?;
                }
                if let Some(license) = &spec.license {
                    seller
                        .set_license(dataset, license.clone())
                        .map_err(|e| ServiceError::Rejected(format!("{e:?}")))?;
                }
                Ok(Outcome::AskAccepted {
                    dataset: dataset.0,
                    shard,
                })
            }
            Command::GrantLicense {
                seller,
                dataset,
                license,
            } => {
                let shard = self.shard_of(seller);
                self.market_at(shard)
                    .seller(seller)
                    .set_license(DatasetId(*dataset), license.clone())
                    .map_err(|e| ServiceError::Rejected(format!("{e:?}")))?;
                Ok(Outcome::LicenseGranted {
                    dataset: *dataset,
                    shard,
                })
            }
            Command::RunRound { rounds } => {
                let mut reports = Vec::with_capacity(*rounds as usize);
                for _ in 0..*rounds {
                    reports.push(self.run_round());
                }
                Ok(Outcome::RoundsRun(reports))
            }
        }
    }

    /// Run one cross-shard round: the arbiter's phases (module doc) over
    /// every shard. The candidate phase dominates round cost and stays
    /// parallel — shard-parallel in-process, or farmed out to worker
    /// processes when a [`RoundDistributor`] is attached.
    pub fn run_round(&self) -> MergedRoundReport {
        let m = crate::metrics::metrics();
        let round_seed = self.draw_round_seed();
        let round = self.rounds_completed() + 1;
        let distributor = self.distributor.get();
        // Phase 1: candidates — distributed when a distributor is
        // attached and has live workers, shard-parallel locally
        // otherwise. Both paths produce identical contexts: the export
        // carries everything the candidate stage computed, and expiry
        // (a pure function of the local offer book) re-runs on import.
        #[expect(
            clippy::disallowed_methods,
            reason = "per-phase latency telemetry; never read into round state"
        )]
        let phase_started = std::time::Instant::now();
        let remote = distributor
            .and_then(|d| d.candidates(round, round_seed, self.shards.len()))
            .filter(|exports| exports.len() == self.shards.len());
        let mut ctxs: Vec<RoundContext> = match &remote {
            Some(exports) => self
                .shards
                .iter()
                .zip(exports)
                .map(|(market, export)| market.begin_round_imported(round_seed, export))
                .collect(),
            None => self
                .shards
                .par_iter()
                .map(|market| market.begin_round_seeded(round_seed))
                .collect(),
        };
        m.round_phase_us(0)
            .record_duration_us(phase_started.elapsed());
        // Phase 2: one global clearing pass over all shards' bids. The
        // bids move out of the contexts by value — settlement only
        // needs the winning mashups, which stay behind.
        #[expect(
            clippy::disallowed_methods,
            reason = "per-phase latency telemetry; never read into round state"
        )]
        let phase_started = std::time::Instant::now();
        let sales = self.clear_round(&mut ctxs);
        m.round_phase_us(1)
            .record_duration_us(phase_started.elapsed());
        let merged = self.finish_round(ctxs, sales);
        // Broadcast the settled round so every worker replica replays
        // it and stays bit-identical to the coordinator.
        if let (Some(d), Some(exports)) = (distributor, &remote) {
            d.round_complete(round, round_seed, exports);
        }
        merged
    }

    /// Phase 2 of a round: [`pipeline::clear`] over every shard's
    /// context. Returned sales are sorted by global offer id.
    pub fn clear_round(&self, ctxs: &mut [RoundContext]) -> Vec<Sale> {
        pipeline::clear(&self.market_at(0).config().design, ctxs)
    }

    /// Phases 3–4 of a round: [`pipeline::settle`] the cleared sales on
    /// each buyer's shard, count the cross-shard trades and close every
    /// shard's round. Shared between the in-process path
    /// ([`ShardRouter::run_round`]) and worker replicas replaying a
    /// coordinator-settled round — both must execute it bit-identically.
    /// `sales` must be sorted by global offer id, as
    /// [`ShardRouter::clear_round`] returns them.
    pub fn finish_round(&self, mut ctxs: Vec<RoundContext>, sales: Vec<Sale>) -> MergedRoundReport {
        let m = crate::metrics::metrics();
        #[expect(
            clippy::disallowed_methods,
            reason = "per-phase latency telemetry; never read into round state"
        )]
        let phase_started = std::time::Instant::now();
        let components = sales.len();
        pipeline::settle(&self.shards, &mut ctxs, sales, |buyer| self.shard_of(buyer));
        m.settlement_components.record(components as u64);
        // Cross-shard accounting over sales that actually *settled*
        // (cleared-but-unfunded sales leave their offers pending and
        // must not be reported as trades): a settled sale is
        // cross-shard when its mashup uses a dataset whose owner
        // hashes to a different shard than the buyer.
        let mut cross_shard = 0usize;
        for (home, ctx) in ctxs.iter().enumerate() {
            for sale in &ctx.completed_sales {
                if let Some(m) = ctx.best_mashups.get(&sale.offer_id) {
                    let crosses = m.datasets.iter().any(|&d| {
                        self.market_at(home)
                            .metadata()
                            .with_entry(d, |e| self.shard_of(&e.owner) != home)
                            .unwrap_or(false)
                    });
                    if crosses {
                        cross_shard += 1;
                    }
                }
            }
        }
        m.round_phase_us(2)
            .record_duration_us(phase_started.elapsed());
        #[expect(
            clippy::disallowed_methods,
            reason = "per-phase latency telemetry; never read into round state"
        )]
        let phase_started = std::time::Instant::now();
        let reports: Vec<RoundReport> = ctxs
            .into_iter()
            .zip(&self.shards)
            .map(|(ctx, market)| market.close_round(ctx))
            .collect();
        let mut merged = MergedRoundReport::merge(reports);
        merged.cross_shard = cross_shard;
        merged.components = components;
        m.round_phase_us(3)
            .record_duration_us(phase_started.elapsed());
        m.cross_shard_sales.add(cross_shard as u64);
        m.rounds_total.inc();
        self.rounds
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        merged
    }

    /// Balance lookup (the ledger is shared across shards).
    pub fn balance(&self, account: &str) -> f64 {
        self.market_at(0).balance(account)
    }

    /// Whether any shard knows this participant.
    pub fn participant_exists(&self, name: &str) -> bool {
        self.market_at(self.shard_of(name))
            .participant(name)
            .is_some()
    }

    /// All balances as `(account, balance)`, sorted by account name
    /// (one shared ledger — already deduplicated by construction).
    pub fn all_balances(&self) -> Vec<(String, f64)> {
        self.market_at(0).ledger().balances()
    }

    /// Capture the router's complete recoverable state — the shared
    /// substrate once, every shard's private state, and the router's
    /// own offer-id allocator / round-seed stream / round counter — for
    /// a materialized snapshot.
    pub fn export_state(&self) -> RouterImage {
        let state = self.state.lock();
        RouterImage {
            substrate: self.market_at(0).substrate().export_state(),
            shards: self
                .shards
                .iter()
                .map(DataMarket::export_shard_state)
                .collect(),
            next_offer: state.next_offer,
            round_rng: state.round_rng.state(),
            rounds: self.rounds.load(std::sync::atomic::Ordering::SeqCst),
        }
    }

    /// Restore a previously exported image into this router. The router
    /// must be freshly constructed (append-only structures are replayed
    /// into empty logs) with the same shard count the image was taken
    /// from.
    pub fn restore_state(&self, image: RouterImage) -> Result<(), ServiceError> {
        if image.shards.len() != self.shards.len() {
            return Err(ServiceError::Rejected(format!(
                "snapshot captured {} shards but this router has {}",
                image.shards.len(),
                self.shards.len()
            )));
        }
        self.market_at(0).substrate().restore_state(image.substrate);
        for (market, shard_state) in self.shards.iter().zip(image.shards) {
            market.restore_shard_state(shard_state);
        }
        let mut state = self.state.lock();
        state.next_offer = image.next_offer;
        state.round_rng = StdRng::from_state(image.round_rng);
        drop(state);
        self.rounds
            .store(image.rounds, std::sync::atomic::Ordering::SeqCst);
        Ok(())
    }

    /// Build a router from a decoded image, trusting it only once the
    /// restored state reproduces `expected` — the one rule for state
    /// that arrives from a disk or a socket (recovery, compaction,
    /// worker provisioning). A mismatch is [`ServiceError::Rejected`].
    pub fn restore_verified(
        market: &MarketConfig,
        shards: usize,
        image: RouterImage,
        expected: u64,
    ) -> Result<ShardRouter, ServiceError> {
        let router = ShardRouter::new(market, shards);
        router.restore_state(image)?;
        let digest = router.state_digest();
        if digest != expected {
            return Err(ServiceError::Rejected(format!(
                "image restores to digest {digest:016x}, not the expected {expected:016x}"
            )));
        }
        Ok(router)
    }

    /// The state digest: FNV-1a over the canonical encoding of
    /// [`ShardRouter::export_state`] (see [`state::digest`]), streamed
    /// into the hasher as it is encoded: neither a tree nor the text is
    /// built. It covers everything a materialized snapshot carries —
    /// ledger, catalog relations cell by cell, lineage, offer books, id
    /// allocators, RNG stream positions, transactions, deliveries,
    /// audit events, disputes — because it *is* a hash of what the
    /// snapshot carries. Hasher-derived values (content hashes,
    /// audit-chain hashes) are not in the image: they may vary across
    /// toolchain versions, and a digest built on them would refuse a
    /// perfectly good snapshot after an upgrade. Two routers with equal
    /// digests agree bit-for-bit on all recoverable state — snapshots
    /// store this to *prove* a decoded state image equivalent before
    /// the journal tail replays on top.
    ///
    /// [`state::digest`]: crate::state::digest
    pub fn state_digest(&self) -> u64 {
        crate::state::digest(&self.export_state())
    }
}

/// The router's complete recoverable state, captured by
/// [`ShardRouter::export_state`] and serialized by the snapshot codec.
#[derive(Clone)]
pub struct RouterImage {
    /// Shared substrate (catalog, lineage, ledger, licensing terms).
    pub substrate: SubstrateImage,
    /// One private-state image per shard, in shard order.
    pub shards: Vec<MarketShardState>,
    /// The router-global offer-id allocator.
    pub next_offer: u64,
    /// The round-seed coordinator stream's xoshiro256++ state words.
    pub round_rng: [u64; 4],
    /// Rounds completed.
    pub rounds: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_mechanism::design::MarketDesign;

    fn router(shards: usize) -> ShardRouter {
        let cfg = MarketConfig::external(11).with_design(MarketDesign::posted_price_baseline(10.0));
        ShardRouter::new(&cfg, shards)
    }

    #[test]
    fn routing_is_stable_and_total() {
        let r = router(4);
        for name in ["alice", "bob", "carol", "dave", "eve"] {
            let s = r.shard_of(name);
            assert!(s < 4);
            assert_eq!(s, r.shard_of(name), "routing must be deterministic");
        }
    }

    #[test]
    fn enroll_and_deposit_land_on_one_shard() {
        let r = router(4);
        r.apply(&Command::Enroll {
            name: "alice".into(),
            role: "buyer".into(),
        })
        .unwrap();
        let out = r
            .apply(&Command::Deposit {
                account: "alice".into(),
                amount: 50.0,
            })
            .unwrap();
        match out {
            Outcome::Deposited { balance, .. } => assert!(balance >= 50.0),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(r.balance("alice") >= 50.0);
        let populated: usize = r
            .shards()
            .iter()
            .filter(|m| m.participant("alice").is_some())
            .count();
        assert_eq!(populated, 1, "participant lives on exactly one shard");
    }

    #[test]
    fn digest_tracks_state_changes() {
        let r = router(2);
        let d0 = r.state_digest();
        r.apply(&Command::Enroll {
            name: "alice".into(),
            role: "buyer".into(),
        })
        .unwrap();
        let d1 = r.state_digest();
        assert_ne!(d0, d1, "digest must change when state changes");
        // An identical router replaying identical commands agrees.
        let r2 = router(2);
        r2.apply(&Command::Enroll {
            name: "alice".into(),
            role: "buyer".into(),
        })
        .unwrap();
        assert_eq!(r2.state_digest(), d1);
    }

    #[test]
    fn rounds_merge_across_shards() {
        let r = router(3);
        let merged = r.run_round();
        assert_eq!(merged.per_shard.len(), 3);
        assert_eq!(merged.considered, 0);
        assert_eq!(merged.cross_shard, 0);
    }

    #[test]
    fn shards_share_one_substrate() {
        let r = router(4);
        // A deposit routed through any shard is visible on every shard:
        // the ledger is shared, not partitioned.
        r.apply(&Command::Enroll {
            name: "alice".into(),
            role: "buyer".into(),
        })
        .unwrap();
        r.apply(&Command::Deposit {
            account: "alice".into(),
            amount: 50.0,
        })
        .unwrap();
        for market in r.shards() {
            assert_eq!(market.balance("alice"), 50.0);
        }
        // One entry in the merged view, not one per shard.
        let alices = r
            .all_balances()
            .iter()
            .filter(|(name, _)| name == "alice")
            .count();
        assert_eq!(alices, 1);
    }

    #[test]
    fn distributed_candidate_import_matches_local_compute() {
        // A round whose candidate phase is exported on one router and
        // imported on an identical replica must leave both routers with
        // equal digests — the invariant the coordinator/worker split
        // rests on.
        let seed_commands = |r: &ShardRouter| {
            r.apply(&Command::Enroll {
                name: "alice".into(),
                role: "buyer".into(),
            })
            .unwrap();
            r.apply(&Command::Deposit {
                account: "alice".into(),
                amount: 50.0,
            })
            .unwrap();
        };
        let local = router(2);
        let replica = router(2);
        seed_commands(&local);
        seed_commands(&replica);
        // Local path on `local`.
        let report_local = local.run_round();
        // Exported/imported path on `replica`.
        let seed = replica.draw_round_seed();
        let mut exports = Vec::new();
        let mut pending = Vec::new();
        for market in replica.shards() {
            let (ctx, export) = market.begin_round_exported(seed);
            pending.push(ctx);
            exports.push(export);
        }
        // A third replica imports what the second exported.
        let importer = router(2);
        seed_commands(&importer);
        let iseed = importer.draw_round_seed();
        assert_eq!(iseed, seed, "replicas draw the same round seed");
        let mut ictxs: Vec<RoundContext> = importer
            .shards()
            .iter()
            .zip(&exports)
            .map(|(market, export)| market.begin_round_imported(iseed, export))
            .collect();
        let isales = importer.clear_round(&mut ictxs);
        let report_import = importer.finish_round(ictxs, isales);
        // Finish the exporting replica too so all three digests align.
        let psales = replica.clear_round(&mut pending);
        replica.finish_round(pending, psales);
        assert_eq!(report_local.round, report_import.round);
        assert_eq!(local.state_digest(), importer.state_digest());
        assert_eq!(local.state_digest(), replica.state_digest());
    }

    #[test]
    fn predicted_seed_matches_drawn_seed() {
        let r = router(2);
        let predicted = r.predict_round_seed();
        assert_eq!(predicted, r.predict_round_seed(), "prediction is pure");
        assert_eq!(predicted, r.draw_round_seed(), "prediction matches draw");
        assert_ne!(
            predicted,
            r.predict_round_seed(),
            "draw advances the stream"
        );
    }

    #[test]
    fn deposit_to_unknown_account_rejected() {
        let r = router(2);
        assert!(matches!(
            r.apply(&Command::Deposit {
                account: "ghost".into(),
                amount: 5.0
            }),
            Err(ServiceError::Rejected(_))
        ));
        // The arbiter account is implicit — no enrollment required.
        assert!(r
            .apply(&Command::Deposit {
                account: dmp_core::market::ARBITER_ACCOUNT.into(),
                amount: 5.0
            })
            .is_ok());
    }

    #[test]
    fn negative_deposit_rejected() {
        let r = router(2);
        assert!(matches!(
            r.apply(&Command::Deposit {
                account: "x".into(),
                amount: -1.0
            }),
            Err(ServiceError::Rejected(_))
        ));
    }
}
