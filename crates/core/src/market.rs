//! The [`DataMarket`]: one deployable DMMS instance (Fig. 1 (4), Fig. 2)
//! wired to a plug'n'play
//! [`MarketDesign`](dmp_mechanism::design::MarketDesign). Internal,
//! external and barter markets are the same platform with different
//! configs (§3.3).
//!
//! A market round ([`DataMarket::run_round`]) runs the arbiter's phases
//! in [`crate::arbiter::pipeline`]: expiry → candidate
//! building/evaluation → clearing → settlement, with licensing,
//! reserves, contextual integrity, privacy accounting, lineage and the
//! audit chain enforced along the way. This module owns the market's
//! *state* (offer book, ledger, participants, licenses) and its public
//! API; the round *logic* lives phase by phase in the pipeline module.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dmp_discovery::{LineageLog, MetadataEngine};
use dmp_mechanism::wtp::WtpFunction;
use dmp_relation::{DatasetId, Relation};
pub use dmp_valuation::sharing::DatasetShare;

use crate::arbiter::ledger::Ledger;
use crate::arbiter::mashup_builder::MashupCache;
use crate::arbiter::pipeline::{self, CandidateStage, RoundContext};
use crate::arbiter::services::{demand_report, DemandReport, Purchase};
use crate::buyer::BuyerHandle;
use crate::error::{MarketError, MarketResult};
use crate::license::{ContextualIntegrityPolicy, License};
use crate::seller::SellerHandle;
use crate::trust::{AuditEvent, AuditLog, DisputeManager};

pub use crate::arbiter::pipeline::{NegotiationRequest, RoundReport};
pub use crate::config::{MarketConfig, MarketKind};

/// Offer lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum OfferState {
    /// Awaiting a satisfying mashup / clearing.
    Pending,
    /// Fulfilled by a transaction.
    Fulfilled {
        /// Settling transaction id.
        tx: u64,
    },
    /// Delivered, awaiting the buyer's ex post report.
    AwaitingReport {
        /// Delivery id.
        delivery: u64,
    },
    /// Expired unserved.
    Expired,
}

/// A submitted WTP offer.
#[derive(Debug, Clone)]
pub struct Offer {
    /// Offer id.
    pub id: u64,
    /// The WTP-function, shared with every round that reads the offer.
    pub wtp: Arc<WtpFunction>,
    /// Declared purpose (checked against contextual-integrity policies).
    pub purpose: String,
    /// Logical submission time.
    pub submitted_at: u64,
    /// Lifecycle state.
    pub state: OfferState,
}

/// A settled transaction.
#[derive(Debug, Clone)]
pub struct TransactionRecord {
    /// Transaction id.
    pub id: u64,
    /// The fulfilled offer.
    pub offer_id: u64,
    /// Buyer principal.
    pub buyer: String,
    /// Price paid (including license uplift).
    pub price: f64,
    /// Arbiter fee retained.
    pub fee: f64,
    /// Satisfaction delivered.
    pub satisfaction: f64,
    /// Contributing datasets.
    pub datasets: Vec<DatasetId>,
    /// Revenue shares distributed to datasets.
    pub shares: Vec<DatasetShare>,
    /// Round in which the sale cleared.
    pub round: u64,
}

/// An ex post delivery awaiting (or past) the buyer's value report.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Delivery id.
    pub id: u64,
    /// The offer it serves.
    pub offer_id: u64,
    /// Buyer principal.
    pub buyer: String,
    /// The delivered mashup: the winning build's rows, shared.
    pub relation: Arc<Relation>,
    /// Arbiter-measured satisfaction (used for audits).
    pub satisfaction: f64,
    /// Escrowed deposit id.
    pub escrow: u64,
    /// Contributing datasets.
    pub datasets: Vec<DatasetId>,
    /// Settlement, once reported.
    pub settlement: Option<Settlement>,
}

/// Outcome of an ex post report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settlement {
    /// Amount paid for the data (the report, capped by the deposit).
    pub paid: f64,
    /// Penalty charged on detected under-reporting.
    pub penalty: f64,
    /// Whether the report was audited.
    pub audited: bool,
}

/// Per-participant state.
#[derive(Debug, Clone)]
pub struct Participant {
    /// Principal name.
    pub name: String,
    /// Role (matched against contextual-integrity policies).
    pub role: String,
    /// Reputation in [0, 1]; drops on detected misreports.
    pub reputation: f64,
    /// Excluded from submitting offers until this round.
    pub excluded_until: u64,
}

/// The account name the arbiter accrues fees into.
pub const ARBITER_ACCOUNT: &str = "__arbiter__";

/// State every shard of one deployment **shares**: the dataset catalog
/// (metadata + lineage), the licensing terms attached to it
/// (reserves, licenses, contextual-integrity policies, exclusivity
/// holds) and the settlement ledger.
///
/// Sharding the market (service layer) partitions *participants* —
/// their offer books, round execution, audit chains — purely as a
/// throughput measure; it must not thin the match graph or fork the
/// currency supply. Putting the catalog and the ledger behind shared
/// handles is what makes an M-shard deployment clear the same trades
/// and hold the same balances as the 1-shard market for the same
/// command stream. A standalone [`DataMarket`] owns a private substrate
/// (`DataMarket::new`), so library users see no difference.
///
/// The licensing terms sit behind one guard, `terms`, shared by every
/// shard; the ledger keeps its own. No code path holds both. The
/// substrate also carries the [`MashupCache`] over its catalogue, so
/// every shard builds a mashup once per catalogue version; it is
/// derived state, never exported or restored.
#[derive(Clone, Default)]
pub struct MarketSubstrate {
    pub(crate) metadata: Arc<MetadataEngine>,
    pub(crate) lineage: Arc<LineageLog>,
    pub(crate) ledger: Arc<Ledger>,
    pub(crate) terms: Arc<Mutex<Terms>>,
    pub(crate) mashups: Arc<MashupCache>,
}

/// The licensing terms attached to the catalog, keyed by dataset:
/// seller reserve prices, licenses (Standard when absent),
/// contextual-integrity policies and exclusivity holds
/// `(holder, until_round)`.
#[derive(Debug, Default)]
pub(crate) struct Terms {
    pub(crate) reserves: BTreeMap<DatasetId, f64>,
    pub(crate) licenses: BTreeMap<DatasetId, License>,
    pub(crate) ci_policies: BTreeMap<DatasetId, ContextualIntegrityPolicy>,
    pub(crate) exclusive_holds: BTreeMap<DatasetId, (String, u64)>,
}

impl MarketSubstrate {
    /// A fresh, empty substrate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capture the shared substrate — catalog, lineage, ledger and the
    /// licensing terms — for a materialized snapshot. Everything here is
    /// shared by all shards of a deployment, so it is captured once, not
    /// per shard.
    pub fn export_state(&self) -> SubstrateImage {
        let (lineage, lineage_seq) = self.lineage.export_state();
        let metadata = self.metadata.export_state();
        let ledger = self.ledger.export_state();
        let terms = self.terms.lock();
        SubstrateImage {
            metadata,
            lineage,
            lineage_seq,
            ledger,
            reserves: terms.reserves.iter().map(|(&d, &p)| (d, p)).collect(),
            licenses: terms
                .licenses
                .iter()
                .map(|(&d, l)| (d, l.clone()))
                .collect(),
            ci_policies: terms
                .ci_policies
                .iter()
                .map(|(&d, p)| (d, p.clone()))
                .collect(),
            exclusive_holds: terms
                .exclusive_holds
                .iter()
                .map(|(&d, (holder, until))| (d, holder.clone(), *until))
                .collect(),
        }
    }

    /// Replace the substrate's contents with a previously exported
    /// image (recovery from a materialized snapshot).
    pub fn restore_state(&self, image: SubstrateImage) {
        self.metadata.restore_state(image.metadata);
        self.lineage.restore_state(image.lineage, image.lineage_seq);
        self.ledger.restore_state(image.ledger);
        *self.terms.lock() = Terms {
            reserves: image.reserves.into_iter().collect(),
            licenses: image.licenses.into_iter().collect(),
            ci_policies: image.ci_policies.into_iter().collect(),
            exclusive_holds: image
                .exclusive_holds
                .into_iter()
                .map(|(d, holder, until)| (d, (holder, until)))
                .collect(),
        };
    }
}

/// Shared-substrate state captured by [`MarketSubstrate::export_state`].
#[derive(Debug, Clone, Default)]
pub struct SubstrateImage {
    /// Dataset catalog (relations, versions, tags, id/clock counters).
    pub metadata: dmp_discovery::metadata::MetadataImage,
    /// Per-dataset lineage events, dataset-sorted.
    pub lineage: Vec<(DatasetId, Vec<(u64, dmp_discovery::LineageEvent)>)>,
    /// The lineage sequence counter.
    pub lineage_seq: u64,
    /// Exact micro-credit ledger state.
    pub ledger: crate::arbiter::ledger::LedgerImage,
    /// Seller reserve prices, dataset-sorted.
    pub reserves: Vec<(DatasetId, f64)>,
    /// Licenses attached to datasets, dataset-sorted.
    pub licenses: Vec<(DatasetId, License)>,
    /// Contextual-integrity policies, dataset-sorted.
    pub ci_policies: Vec<(DatasetId, ContextualIntegrityPolicy)>,
    /// Active exclusivity holds `(dataset, holder, until_round)`.
    pub exclusive_holds: Vec<(DatasetId, String, u64)>,
}

/// Everything one market shard owns *privately*, captured for a
/// materialized snapshot: the offer book and its lifecycle records, the
/// participant roster, the shard clock and id allocators, the audit
/// chain's events, disputes, and the shard's RNG stream position.
#[derive(Debug, Clone, Default)]
pub struct MarketShardState {
    /// Logical clock.
    pub clock: u64,
    /// Completed rounds.
    pub round: u64,
    /// Next offer id the shard-local allocator would hand out.
    pub next_offer: u64,
    /// Next transaction id.
    pub next_tx: u64,
    /// Next delivery id.
    pub next_delivery: u64,
    /// The offer book, id-sorted.
    pub offers: Vec<Offer>,
    /// Settled transactions, in settlement order.
    pub transactions: Vec<TransactionRecord>,
    /// Ex post deliveries, in delivery order.
    pub deliveries: Vec<Delivery>,
    /// Purchase records feeding the recommender.
    pub purchases: Vec<Purchase>,
    /// Participant roster, name-sorted.
    pub participants: Vec<Participant>,
    /// Missing-attribute lists from the most recent round.
    pub last_missing: Vec<Vec<String>>,
    /// Negotiation requests from the most recent round.
    pub last_negotiations: Vec<NegotiationRequest>,
    /// The shard RNG's xoshiro256++ state words.
    pub rng: [u64; 4],
    /// Audit-chain events in append order (the chain's hashes are
    /// recomputed on restore; they are process-local tamper evidence,
    /// not durable state).
    pub audit_events: Vec<AuditEvent>,
    /// Disputes in id order (ids are dense from 0).
    pub disputes: Vec<crate::trust::Dispute>,
}

/// What one market shard owns privately — offer book, lifecycle
/// records, roster, clocks, id allocators and RNG — behind the market's
/// one `book` guard.
pub(crate) struct ShardBook {
    pub(crate) clock: u64,
    /// Completed rounds.
    pub(crate) round: u64,
    pub(crate) next_offer: u64,
    pub(crate) next_tx: u64,
    pub(crate) next_delivery: u64,
    /// Offer book, keyed by offer id (ordered ⇒ deterministic rounds).
    pub(crate) offers: BTreeMap<u64, Offer>,
    /// Ids of the [`OfferState::Pending`] offers, so expiry visits live
    /// offers only, not every offer ever submitted. Derived from
    /// `offers` (built on restore, kept by [`ShardBook::file_offer`],
    /// [`ShardBook::set_offer_state`] and expiry); no image or digest
    /// holds it.
    pending: BTreeSet<u64>,
    pub(crate) transactions: Vec<TransactionRecord>,
    /// Deliveries by id; ids are dense in delivery order.
    pub(crate) deliveries: BTreeMap<u64, Delivery>,
    pub(crate) purchases: Vec<Purchase>,
    pub(crate) participants: BTreeMap<String, Participant>,
    pub(crate) last_missing: Vec<Vec<String>>,
    pub(crate) last_negotiations: Vec<NegotiationRequest>,
    pub(crate) rng: StdRng,
}

impl ShardBook {
    /// The book an image describes; its audit events and disputes
    /// belong to other owners and are ignored here. A fresh shard is
    /// the empty image with a seeded RNG.
    fn restore(state: MarketShardState) -> Self {
        let pending = state
            .offers
            .iter()
            .filter(|o| o.state == OfferState::Pending)
            .map(|o| o.id)
            .collect();
        ShardBook {
            clock: state.clock,
            round: state.round,
            next_offer: state.next_offer,
            next_tx: state.next_tx,
            next_delivery: state.next_delivery,
            offers: state.offers.into_iter().map(|o| (o.id, o)).collect(),
            pending,
            transactions: state.transactions,
            deliveries: state.deliveries.into_iter().map(|d| (d.id, d)).collect(),
            purchases: state.purchases,
            participants: state
                .participants
                .into_iter()
                .map(|p| (p.name.clone(), p))
                .collect(),
            last_missing: state.last_missing,
            last_negotiations: state.last_negotiations,
            rng: StdRng::from_state(state.rng),
        }
    }

    /// Read the logical clock, then advance it.
    pub(crate) fn tick(&mut self) -> u64 {
        let at = self.clock;
        self.clock += 1;
        at
    }

    /// Allocate the next transaction id.
    pub(crate) fn next_tx(&mut self) -> u64 {
        self.next_tx += 1;
        self.next_tx - 1
    }

    /// File a delivery under the next delivery id.
    pub(crate) fn deliver(&mut self, delivery: impl FnOnce(u64) -> Delivery) -> u64 {
        let id = self.next_delivery;
        self.next_delivery += 1;
        self.deliveries.insert(id, delivery(id));
        id
    }

    /// File a new offer; it is pending.
    fn file_offer(&mut self, offer: Offer) {
        debug_assert_eq!(offer.state, OfferState::Pending);
        self.pending.insert(offer.id);
        self.offers.insert(offer.id, offer);
    }

    pub(crate) fn set_offer_state(&mut self, id: u64, state: OfferState) {
        if let Some(o) = self.offers.get_mut(&id) {
            if state == OfferState::Pending {
                self.pending.insert(id);
            } else {
                self.pending.remove(&id);
            }
            o.state = state;
        }
    }

    /// Expire the pending offers that are no longer live at `now`, in id
    /// order: `(considered, expired, the live offers)`. A live offer's
    /// copy shares its WTP-function with the book.
    pub(crate) fn expire(&mut self, now: u64) -> (usize, usize, Vec<Offer>) {
        let considered = self.pending.len();
        let mut live = Vec::with_capacity(considered);
        let offers = &mut self.offers;
        self.pending.retain(|id| {
            let Some(offer) = offers.get_mut(id) else {
                return false;
            };
            if offer.wtp.constraints.is_live(now) {
                live.push(offer.clone());
                true
            } else {
                offer.state = OfferState::Expired;
                false
            }
        });
        (considered, considered - live.len(), live)
    }
}

/// The deployed data market.
///
/// Every owner of market state has exactly one guard, and no code path
/// holds two at once: the shard's private state (offer book,
/// deliveries, roster, clocks, RNG) sits behind `book`, the licensing
/// terms behind `terms` (shared with
/// every shard of the [`MarketSubstrate`]), and the ledger, audit log
/// and dispute log behind one guard each. A method reads what it needs,
/// drops the guard, then takes the next, so no module has to know a
/// lock order. The substrate's mashup cache has a guard of its own; it
/// guards derived state only.
pub struct DataMarket {
    pub(crate) config: MarketConfig,
    pub(crate) metadata: Arc<MetadataEngine>,
    pub(crate) lineage: Arc<LineageLog>,
    pub(crate) ledger: Arc<Ledger>,
    pub(crate) audit: AuditLog,
    pub(crate) disputes: DisputeManager,
    pub(crate) terms: Arc<Mutex<Terms>>,
    pub(crate) mashups: Arc<MashupCache>,
    pub(crate) book: Mutex<ShardBook>,
}

impl DataMarket {
    /// Deploy a market with a configuration and a private substrate.
    pub fn new(config: MarketConfig) -> Self {
        Self::with_substrate(config, MarketSubstrate::new())
    }

    /// Deploy a market *shard* onto an existing substrate: the catalog,
    /// licensing terms and ledger are shared with every other market on
    /// the same substrate, while participants, offer books, clocks and
    /// RNG streams stay private to this shard.
    pub fn with_substrate(config: MarketConfig, substrate: MarketSubstrate) -> Self {
        let book = Mutex::new(ShardBook::restore(MarketShardState {
            rng: StdRng::seed_from_u64(config.seed).state(),
            ..MarketShardState::default()
        }));
        DataMarket {
            config,
            metadata: substrate.metadata,
            lineage: substrate.lineage,
            ledger: substrate.ledger,
            audit: AuditLog::new(),
            disputes: DisputeManager::new(),
            terms: substrate.terms,
            mashups: substrate.mashups,
            book,
        }
    }

    /// A handle to this market's substrate (clone it into
    /// [`DataMarket::with_substrate`] to deploy further shards over the
    /// same catalog and ledger).
    pub fn substrate(&self) -> MarketSubstrate {
        MarketSubstrate {
            metadata: Arc::clone(&self.metadata),
            lineage: Arc::clone(&self.lineage),
            ledger: Arc::clone(&self.ledger),
            terms: Arc::clone(&self.terms),
            mashups: Arc::clone(&self.mashups),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MarketConfig {
        &self.config
    }

    /// Logical time (monotone).
    pub fn now(&self) -> u64 {
        self.book.lock().clock
    }

    /// Completed rounds.
    pub fn round(&self) -> u64 {
        self.book.lock().round
    }

    /// Enroll a participant with a role. A new participant receives the
    /// enrollment grant; enrolling a known name again changes nothing.
    pub fn enroll(&self, name: impl Into<String>, role: impl Into<String>) {
        let name = name.into();
        let inserted = match self.book.lock().participants.entry(name.clone()) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(Participant {
                    name: name.clone(),
                    role: role.into(),
                    reputation: 1.0,
                    excluded_until: 0,
                });
                true
            }
        };
        let grant = self.config.currency.enrollment_grant();
        if inserted && grant > 0.0 {
            self.ledger.deposit(&name, grant);
        }
    }

    /// Participant lookup.
    pub fn participant(&self, name: &str) -> Option<Participant> {
        self.book.lock().participants.get(name).cloned()
    }

    /// Whether `name` is enrolled, without copying its record.
    pub fn is_participant(&self, name: &str) -> bool {
        self.book.lock().participants.contains_key(name)
    }

    /// All participants, sorted by name (enumerable for snapshots and
    /// service-layer digests).
    pub fn participants(&self) -> Vec<Participant> {
        // BTreeMap iteration is already name-ordered.
        self.book.lock().participants.values().cloned().collect()
    }

    /// Credit an account directly (command-application hook for the
    /// service layer's `Deposit` command; buyers normally deposit
    /// through [`crate::buyer::BuyerHandle::deposit`]); returns the
    /// account's balance after it.
    pub fn deposit(&self, account: &str, amount: f64) -> f64 {
        self.ledger.deposit(account, amount)
    }

    /// The ledger (read access for snapshots / durability digests: the
    /// service layer enumerates balances and open escrow holds).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// A seller-facing handle.
    pub fn seller(&self, name: &str) -> SellerHandle<'_> {
        self.enroll(name, "seller");
        SellerHandle::new(self, name)
    }

    /// A buyer-facing handle.
    pub fn buyer(&self, name: &str) -> BuyerHandle<'_> {
        self.enroll(name, "buyer");
        BuyerHandle::new(self, name)
    }

    /// The metadata engine (read access for discovery tooling).
    pub fn metadata(&self) -> &MetadataEngine {
        &self.metadata
    }

    /// The mashup cache the candidate stage reads, shared with every
    /// shard of this market's substrate.
    pub fn mashup_cache(&self) -> &MashupCache {
        &self.mashups
    }

    /// The audit log.
    pub fn audit_log(&self) -> &AuditLog {
        &self.audit
    }

    /// The dispute manager.
    pub fn disputes(&self) -> &DisputeManager {
        &self.disputes
    }

    /// Ledger balance of any account.
    pub fn balance(&self, account: &str) -> f64 {
        self.ledger.balance(account)
    }

    /// All settled transactions.
    pub fn transactions(&self) -> Vec<TransactionRecord> {
        self.book.lock().transactions.clone()
    }

    /// Fetch an offer (O(log n) in the id-keyed offer book).
    pub fn offer(&self, id: u64) -> Option<Offer> {
        self.book.lock().offers.get(&id).cloned()
    }

    /// All offers (cloned snapshot, in id order).
    pub fn offers(&self) -> Vec<Offer> {
        self.book.lock().offers.values().cloned().collect()
    }

    /// All deliveries (cloned snapshot, in delivery order).
    pub fn deliveries(&self) -> Vec<Delivery> {
        self.book.lock().deliveries.values().cloned().collect()
    }

    /// Deliveries awaiting an ex post report: `(offer, delivery, buyer)`.
    pub fn awaiting_reports(&self) -> Vec<(u64, u64, String)> {
        self.book
            .lock()
            .offers
            .values()
            .filter_map(|o| match o.state {
                OfferState::AwaitingReport { delivery } => {
                    Some((o.id, delivery, o.wtp.buyer.clone()))
                }
                _ => None,
            })
            .collect()
    }

    /// Submit a WTP offer for a declared purpose.
    pub fn submit_wtp_for_purpose(
        &self,
        wtp: WtpFunction,
        purpose: impl Into<String>,
    ) -> MarketResult<u64> {
        self.submit(None, wtp, purpose.into())
    }

    /// Submit a WTP offer under a **caller-assigned** offer id. Sharded
    /// deployments use this to hand out *globally unique* ids across
    /// shards: the per-offer RNG stream that breaks candidate ties is
    /// derived from `(round_seed, offer_id)`, so ids must not depend on
    /// which shard an offer landed on if an M-shard market is to clear
    /// exactly like the 1-shard market. The id must be unused; the
    /// market's own id allocator is bumped past it so mixed explicit /
    /// automatic submission stays collision-free.
    pub fn submit_wtp_with_id(
        &self,
        id: u64,
        wtp: WtpFunction,
        purpose: impl Into<String>,
    ) -> MarketResult<u64> {
        self.submit(Some(id), wtp, purpose.into())
    }

    /// File an offer: the buyer must be enrolled and not currently
    /// excluded, and a caller-assigned id must be unused.
    fn submit(&self, id: Option<u64>, wtp: WtpFunction, purpose: String) -> MarketResult<u64> {
        let buyer = wtp.buyer.clone();
        let id = {
            let mut book = self.book.lock();
            let p = book
                .participants
                .get(&buyer)
                .ok_or_else(|| MarketError::UnknownParticipant(buyer.clone()))?;
            if p.excluded_until > book.round {
                return Err(MarketError::Invalid(format!(
                    "{buyer} is excluded until round {}",
                    p.excluded_until
                )));
            }
            let id = match id {
                Some(id) if book.offers.contains_key(&id) => {
                    return Err(MarketError::Invalid(format!("offer id {id} already taken")));
                }
                Some(id) => id,
                None => book.next_offer,
            };
            book.next_offer = book.next_offer.max(id + 1);
            let submitted_at = book.tick();
            book.file_offer(Offer {
                id,
                wtp: Arc::new(wtp),
                purpose,
                submitted_at,
                state: OfferState::Pending,
            });
            id
        };
        self.audit
            .record(AuditEvent::WtpSubmitted { offer: id, buyer });
        Ok(id)
    }

    /// Submit with the default "analytics" purpose.
    pub fn submit_wtp(&self, wtp: WtpFunction) -> MarketResult<u64> {
        self.submit_wtp_for_purpose(wtp, "analytics")
    }

    /// Execute one full market round: the arbiter's phases with the
    /// default (rayon-parallel) candidate stage.
    pub fn run_round(&self) -> RoundReport {
        self.run_round_with(&CandidateStage::default())
    }

    /// Execute one market round with the given candidate stage —
    /// `CandidateStage::sequential()` is the reference the parallel
    /// default is tested against. The round seed is drawn from this
    /// market's RNG; the phases are the ones the service's shard router
    /// runs over M markets, here over one.
    pub fn run_round_with(&self, candidates: &CandidateStage) -> RoundReport {
        let mut ctx = self.candidate_phase(RoundContext::open(self), candidates);
        let round = std::slice::from_mut(&mut ctx);
        let sales = pipeline::clear(&self.config.design, round);
        pipeline::settle(std::slice::from_ref(self), round, sales, |_| 0);
        self.close_round(ctx)
    }

    /// Open a round under an externally-supplied seed and run expiry +
    /// candidate generation, but do **not** clear or settle: hand the
    /// context to [`pipeline::clear`] and [`pipeline::settle`] (with the
    /// contexts of every other market of the deployment), then to
    /// [`DataMarket::close_round`]. The seed replaces the market's own
    /// RNG draw so every shard of a deployment tie-breaks from one
    /// coordinated stream keyed by global offer ids.
    pub fn begin_round_seeded(&self, round_seed: u64) -> RoundContext {
        self.candidate_phase(
            RoundContext::open_seeded(self, round_seed),
            &CandidateStage::default(),
        )
    }

    fn candidate_phase(&self, mut ctx: RoundContext, candidates: &CandidateStage) -> RoundContext {
        pipeline::expire(self, &mut ctx);
        candidates.run(self, &mut ctx);
        ctx
    }

    /// [`DataMarket::begin_round_seeded`], additionally capturing the
    /// complete candidate-phase outcome as a
    /// [`pipeline::CandidatePhaseExport`]: what a shard worker computes
    /// and ships to the settlement coordinator. The export carries the
    /// winning mashups (relations included — revenue allocation needs
    /// them) and the audit events the candidate stage recorded, so a
    /// peer holding the same pre-round state can adopt the phase via
    /// [`DataMarket::begin_round_imported`] and end up bit-identical.
    pub fn begin_round_exported(
        &self,
        round_seed: u64,
    ) -> (RoundContext, pipeline::CandidatePhaseExport) {
        let mut ctx = RoundContext::open_seeded(self, round_seed);
        pipeline::expire(self, &mut ctx);
        let audit_mark = self.audit.len() as u64;
        CandidateStage::default().run(self, &mut ctx);
        let export = pipeline::CandidatePhaseExport {
            round: ctx.round,
            bids: ctx.bids.clone(),
            best_mashups: ctx
                .best_mashups
                .iter()
                .map(|(id, m)| (*id, m.clone()))
                .collect(),
            missing: ctx.missing.clone(),
            negotiations: ctx.negotiations.clone(),
            audit_events: self.audit.events_since(audit_mark),
        };
        (ctx, export)
    }

    /// Adopt a candidate phase computed elsewhere: open the round under
    /// the coordinated seed, run expiry **locally** (it is a pure
    /// function of the local offer book and clock, and both replicas
    /// hold the same pre-round state), replay the exported audit
    /// events, and install the exported bids/mashups/negotiations. The
    /// resulting market state and context are bit-identical to having
    /// run [`DataMarket::begin_round_exported`] locally.
    pub fn begin_round_imported(
        &self,
        round_seed: u64,
        export: &pipeline::CandidatePhaseExport,
    ) -> RoundContext {
        let mut ctx = RoundContext::open_seeded(self, round_seed);
        pipeline::expire(self, &mut ctx);
        for event in &export.audit_events {
            self.audit.record(event.clone());
        }
        ctx.bids = export.bids.clone();
        ctx.best_mashups = export.best_mashups.iter().cloned().collect();
        ctx.missing = export.missing.clone();
        ctx.negotiations = export.negotiations.clone();
        ctx
    }

    /// Close a round — publish negotiation and demand state and produce
    /// the round report.
    pub fn close_round(&self, ctx: RoundContext) -> RoundReport {
        ctx.finish(self)
    }

    /// The license attached to a dataset (Standard when unset).
    pub fn license_of(&self, dataset: DatasetId) -> License {
        self.terms
            .lock()
            .licenses
            .get(&dataset)
            .cloned()
            .unwrap_or_default()
    }

    /// Negotiation requests from the most recent round (§4.1): what the
    /// arbiter would ask sellers to complete. Sellers respond via
    /// `SellerHandle::annotate` / `publish_mapping_table`.
    pub fn negotiation_requests(&self) -> Vec<NegotiationRequest> {
        self.book.lock().last_negotiations.clone()
    }

    /// The demand report from the most recent round (§7.1 opportunities).
    pub fn demand_report(&self) -> DemandReport {
        let book = self.book.lock();
        demand_report(book.last_missing.iter().map(|v| v.as_slice()))
    }

    /// Item-based CF recommendations for a buyer.
    pub fn recommendations(&self, buyer: &str, k: usize) -> Vec<DatasetId> {
        crate::arbiter::services::recommend(&self.book.lock().purchases, buyer, k)
    }

    /// Capture this shard's private state for a materialized snapshot:
    /// the book in one cut, then the audit chain and the disputes.
    /// Shared substrate state is exported separately via
    /// [`MarketSubstrate::export_state`].
    pub fn export_shard_state(&self) -> MarketShardState {
        let audit_events = self.audit.entries().into_iter().map(|e| e.event).collect();
        let disputes = (0..).map_while(|i| self.disputes.get(i)).collect();
        let book = self.book.lock();
        MarketShardState {
            clock: book.clock,
            round: book.round,
            next_offer: book.next_offer,
            next_tx: book.next_tx,
            next_delivery: book.next_delivery,
            offers: book.offers.values().cloned().collect(),
            transactions: book.transactions.clone(),
            deliveries: book.deliveries.values().cloned().collect(),
            purchases: book.purchases.clone(),
            participants: book.participants.values().cloned().collect(),
            last_missing: book.last_missing.clone(),
            last_negotiations: book.last_negotiations.clone(),
            rng: book.rng.state(),
            audit_events,
            disputes,
        }
    }

    /// Restore a shard's private state from a previously exported
    /// image. The market must be freshly constructed: the audit chain
    /// and dispute log are append-only, so this replays their events
    /// into the empty structures rather than overwriting.
    pub fn restore_shard_state(&self, mut state: MarketShardState) {
        let audit_events = std::mem::take(&mut state.audit_events);
        let disputes = std::mem::take(&mut state.disputes);
        *self.book.lock() = ShardBook::restore(state);
        for event in audit_events {
            self.audit.record(event);
        }
        for d in disputes {
            let id = self.disputes.open(d.complainant, d.tx, d.reason);
            debug_assert_eq!(id, d.id, "dispute ids are dense from 0");
            if let crate::trust::DisputeState::Resolved { refund } = d.state {
                self.disputes.resolve(id, refund);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_mechanism::design::MarketDesign;
    use dmp_mechanism::elicitation::{ElicitationProtocol, ExPostMechanism};
    use dmp_mechanism::wtp::PriceCurve;
    use dmp_relation::builder::keyed_rel;
    use proptest::prelude::*;

    fn simple_market() -> DataMarket {
        let config =
            MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(10.0));
        DataMarket::new(config)
    }

    #[test]
    fn unknown_buyer_rejected() {
        let market = simple_market();
        let wtp = WtpFunction::simple("ghost", ["k"], PriceCurve::Constant(1.0));
        assert!(matches!(
            market.submit_wtp(wtp),
            Err(MarketError::UnknownParticipant(_))
        ));
    }

    #[test]
    fn enrollment_grants_once_per_participant() {
        let market = DataMarket::new(MarketConfig::internal());
        // Every handle lookup enrolls; only the first one may grant.
        for _ in 0..3 {
            let _ = market.seller("team");
        }
        let _ = market.buyer("team");
        assert_eq!(market.balance("team"), 100.0);
        assert_eq!(market.ledger().total_supply(), 100.0);
        assert_eq!(market.participant("team").unwrap().role, "seller");
    }

    #[test]
    fn offer_book_is_id_keyed() {
        let market = simple_market();
        let _ = market.buyer("b");
        let ids: Vec<u64> = (0..5)
            .map(|i| {
                market
                    .submit_wtp(WtpFunction::simple(
                        "b",
                        ["k"],
                        PriceCurve::Constant(1.0 + i as f64),
                    ))
                    .unwrap()
            })
            .collect();
        // Point lookups hit the exact offer.
        for &id in &ids {
            assert_eq!(market.offer(id).unwrap().id, id);
        }
        assert!(market.offer(999).is_none());
        // State updates address by id, not by position.
        market
            .book
            .lock()
            .set_offer_state(ids[3], OfferState::Expired);
        assert_eq!(market.offer(ids[3]).unwrap().state, OfferState::Expired);
        assert_eq!(market.offer(ids[2]).unwrap().state, OfferState::Pending);
        // Snapshots come back in id order.
        let snapshot: Vec<u64> = market.offers().iter().map(|o| o.id).collect();
        assert_eq!(snapshot, ids);
    }

    /// A market selling one table, ex ante or ex post, to a rich and a
    /// poor buyer (the poor one cannot fund every sale, so some offers
    /// stay pending after they clear).
    fn trading_market(ex_post: bool) -> DataMarket {
        let mut design = MarketDesign::posted_price_baseline(10.0);
        if ex_post {
            design.elicitation = ElicitationProtocol::ExPost(ExPostMechanism {
                audit_prob: 0.5,
                penalty_mult: 2.0,
                exclusion_rounds: 1,
                round_value: 0.0,
            });
        }
        let market = DataMarket::new(MarketConfig::external(3).with_design(design));
        let table = keyed_rel("t", &[(1, "x"), (2, "y")]);
        market.seller("s").share(table).unwrap();
        market.buyer("rich").deposit(10_000.0);
        market.buyer("poor").deposit(15.0);
        market
    }

    /// Expiry as a scan of every offer ever filed: `(considered,
    /// expired, live ids)`.
    fn full_scan(offers: &BTreeMap<u64, Offer>, now: u64) -> (usize, usize, Vec<u64>) {
        let pending: Vec<&Offer> = offers
            .values()
            .filter(|o| o.state == OfferState::Pending)
            .collect();
        let live: Vec<u64> = pending
            .iter()
            .filter(|o| o.wtp.constraints.is_live(now))
            .map(|o| o.id)
            .collect();
        (pending.len(), pending.len() - live.len(), live)
    }

    fn pending_by_scan(book: &ShardBook) -> BTreeSet<u64> {
        book.offers
            .values()
            .filter(|o| o.state == OfferState::Pending)
            .map(|o| o.id)
            .collect()
    }

    /// One round whose expiry is checked against [`full_scan`].
    fn checked_round(market: &DataMarket) -> Result<(), TestCaseError> {
        let mut ctx = RoundContext::open(market);
        let reference = full_scan(&market.book.lock().offers, ctx.now);
        pipeline::expire(market, &mut ctx);
        let live: Vec<u64> = ctx.pending.iter().map(|o| o.id).collect();
        prop_assert_eq!(&reference, &(ctx.considered, ctx.expired, live.clone()));
        let indexed: Vec<u64> = market.book.lock().pending.iter().copied().collect();
        prop_assert_eq!(
            indexed,
            live,
            "after expiry only the live offers are pending"
        );
        CandidateStage::default().run(market, &mut ctx);
        let round = std::slice::from_mut(&mut ctx);
        let sales = pipeline::clear(&market.config.design, round);
        pipeline::settle(std::slice::from_ref(market), round, sales, |_| 0);
        market.close_round(ctx);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Submits (live, expiring or already expired), rounds, ex post
        /// reports and restores in random order: after every step the
        /// pending-offer index is exactly the offers a scan finds
        /// pending, and every round's expiry equals a full scan's.
        #[test]
        fn the_pending_index_equals_a_full_scan(
            ex_post in proptest::bool::ANY,
            steps in proptest::collection::vec((0u8..5, 0u64..64), 1..32),
        ) {
            let mut market = trading_market(ex_post);
            for (kind, x) in steps {
                match kind {
                    0 | 1 => {
                        let buyer = if x % 2 == 0 { "rich" } else { "poor" };
                        let mut wtp = WtpFunction::simple(buyer, ["k", "v"], PriceCurve::Constant(30.0));
                        let now = market.now();
                        // Kind 1 has expired before the next round opens.
                        wtp.constraints.expires_at = match (kind, x % 3) {
                            (1, _) => Some(now.saturating_sub(x % 4)),
                            (_, 0) => None,
                            _ => Some(now + x % 5),
                        };
                        // An excluded buyer's offer is refused.
                        let _ = market.submit_wtp(wtp);
                    }
                    2 => checked_round(&market)?,
                    3 => {
                        let awaiting = market.awaiting_reports();
                        if let Some((_, delivery, _)) = awaiting.get(x as usize % awaiting.len().max(1)) {
                            market.report_value(*delivery, (x % 40) as f64).unwrap();
                        }
                    }
                    _ => {
                        let restored = DataMarket::new(market.config.clone());
                        restored.substrate().restore_state(market.substrate().export_state());
                        restored.restore_shard_state(market.export_shard_state());
                        market = restored;
                    }
                }
                let book = market.book.lock();
                prop_assert_eq!(&book.pending, &pending_by_scan(&book));
            }
        }
    }
}
