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

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::SeedableRng;

use dmp_discovery::{LineageLog, MetadataEngine};
use dmp_mechanism::wtp::WtpFunction;
use dmp_privacy::PrivacyBudget;
use dmp_relation::{DatasetId, Relation};
pub use dmp_valuation::sharing::DatasetShare;

use crate::arbiter::ledger::Ledger;
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
    /// The WTP-function.
    pub wtp: WtpFunction,
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
    /// The delivered mashup.
    pub relation: Relation,
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
/// (metadata + lineage), the licensing terms attached to it (reserves,
/// licenses, contextual-integrity policies, exclusivity holds) and the
/// settlement ledger.
///
/// Sharding the market (service layer) partitions *participants* —
/// their offer books, round execution, audit chains — purely as a
/// throughput measure; it must not thin the match graph or fork the
/// currency supply. Putting the catalog and the ledger behind shared
/// handles is what makes an M-shard deployment clear the same trades
/// and hold the same balances as the 1-shard market for the same
/// command stream. A standalone [`DataMarket`] owns a private substrate
/// (`DataMarket::new`), so library users see no difference.
#[derive(Clone, Default)]
pub struct MarketSubstrate {
    pub(crate) metadata: Arc<MetadataEngine>,
    pub(crate) lineage: Arc<LineageLog>,
    pub(crate) ledger: Arc<Ledger>,
    pub(crate) reserves: Arc<Mutex<BTreeMap<DatasetId, f64>>>,
    pub(crate) licenses: Arc<Mutex<BTreeMap<DatasetId, License>>>,
    pub(crate) ci_policies: Arc<Mutex<BTreeMap<DatasetId, ContextualIntegrityPolicy>>>,
    pub(crate) exclusive_holds: Arc<Mutex<BTreeMap<DatasetId, (String, u64)>>>,
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
        SubstrateImage {
            metadata: self.metadata.export_state(),
            lineage,
            lineage_seq,
            ledger: self.ledger.export_state(),
            reserves: self.reserves.lock().iter().map(|(&d, &p)| (d, p)).collect(),
            licenses: self
                .licenses
                .lock()
                .iter()
                .map(|(&d, l)| (d, l.clone()))
                .collect(),
            // Lock order matches the candidate pipeline: exclusive
            // holds before CI policies.
            exclusive_holds: self
                .exclusive_holds
                .lock()
                .iter()
                .map(|(&d, (holder, until))| (d, holder.clone(), *until))
                .collect(),
            ci_policies: self
                .ci_policies
                .lock()
                .iter()
                .map(|(&d, p)| (d, p.clone()))
                .collect(),
        }
    }

    /// Replace the substrate's contents with a previously exported
    /// image (recovery from a materialized snapshot).
    pub fn restore_state(&self, image: SubstrateImage) {
        self.metadata.restore_state(image.metadata);
        self.lineage.restore_state(image.lineage, image.lineage_seq);
        self.ledger.restore_state(image.ledger);
        *self.reserves.lock() = image.reserves.into_iter().collect();
        *self.licenses.lock() = image.licenses.into_iter().collect();
        *self.exclusive_holds.lock() = image
            .exclusive_holds
            .into_iter()
            .map(|(d, holder, until)| (d, (holder, until)))
            .collect();
        *self.ci_policies.lock() = image.ci_policies.into_iter().collect();
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
#[derive(Debug, Clone)]
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

/// The deployed data market.
pub struct DataMarket {
    pub(crate) config: MarketConfig,
    pub(crate) metadata: Arc<MetadataEngine>,
    pub(crate) lineage: Arc<LineageLog>,
    pub(crate) privacy: PrivacyBudget,
    pub(crate) ledger: Arc<Ledger>,
    pub(crate) audit: AuditLog,
    pub(crate) disputes: DisputeManager,
    clock: AtomicU64,
    pub(crate) round_counter: AtomicU64,
    next_offer: AtomicU64,
    pub(crate) next_tx: AtomicU64,
    pub(crate) next_delivery: AtomicU64,
    /// Offer book, keyed by offer id (ordered ⇒ deterministic rounds,
    /// O(log n) state updates instead of the former linear scans).
    pub(crate) offers: Mutex<BTreeMap<u64, Offer>>,
    pub(crate) transactions: Mutex<Vec<TransactionRecord>>,
    pub(crate) deliveries: Mutex<Vec<Delivery>>,
    pub(crate) purchases: Mutex<Vec<Purchase>>,
    pub(crate) reserves: Arc<Mutex<BTreeMap<DatasetId, f64>>>,
    pub(crate) licenses: Arc<Mutex<BTreeMap<DatasetId, License>>>,
    pub(crate) ci_policies: Arc<Mutex<BTreeMap<DatasetId, ContextualIntegrityPolicy>>>,
    pub(crate) exclusive_holds: Arc<Mutex<BTreeMap<DatasetId, (String, u64)>>>,
    pub(crate) participants: Mutex<BTreeMap<String, Participant>>,
    pub(crate) last_missing: Mutex<Vec<Vec<String>>>,
    pub(crate) last_negotiations: Mutex<Vec<NegotiationRequest>>,
    pub(crate) rng: Mutex<rand::rngs::StdRng>,
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
        let rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        DataMarket {
            config,
            metadata: substrate.metadata,
            lineage: substrate.lineage,
            privacy: PrivacyBudget::new(),
            ledger: substrate.ledger,
            audit: AuditLog::new(),
            disputes: DisputeManager::new(),
            clock: AtomicU64::new(0),
            round_counter: AtomicU64::new(0),
            next_offer: AtomicU64::new(0),
            next_tx: AtomicU64::new(0),
            next_delivery: AtomicU64::new(0),
            offers: Mutex::new(BTreeMap::new()),
            transactions: Mutex::new(Vec::new()),
            deliveries: Mutex::new(Vec::new()),
            purchases: Mutex::new(Vec::new()),
            reserves: substrate.reserves,
            licenses: substrate.licenses,
            ci_policies: substrate.ci_policies,
            exclusive_holds: substrate.exclusive_holds,
            participants: Mutex::new(BTreeMap::new()),
            last_missing: Mutex::new(Vec::new()),
            last_negotiations: Mutex::new(Vec::new()),
            rng: Mutex::new(rng),
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
            reserves: Arc::clone(&self.reserves),
            licenses: Arc::clone(&self.licenses),
            ci_policies: Arc::clone(&self.ci_policies),
            exclusive_holds: Arc::clone(&self.exclusive_holds),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MarketConfig {
        &self.config
    }

    /// Logical time (monotone).
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    pub(crate) fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Completed rounds.
    pub fn round(&self) -> u64 {
        self.round_counter.load(Ordering::Relaxed)
    }

    /// Enroll a participant with a role; grants enrollment funds.
    pub fn enroll(&self, name: impl Into<String>, role: impl Into<String>) {
        let name = name.into();
        let grant = self.config.currency.enrollment_grant();
        if grant > 0.0 {
            self.ledger.deposit(&name, grant);
        }
        self.participants
            .lock()
            .entry(name.clone())
            .or_insert(Participant {
                name,
                role: role.into(),
                reputation: 1.0,
                excluded_until: 0,
            });
    }

    /// Participant lookup.
    pub fn participant(&self, name: &str) -> Option<Participant> {
        self.participants.lock().get(name).cloned()
    }

    /// All participants, sorted by name (enumerable for snapshots and
    /// service-layer digests).
    pub fn participants(&self) -> Vec<Participant> {
        // BTreeMap iteration is already name-ordered.
        self.participants.lock().values().cloned().collect()
    }

    /// Credit an account directly (command-application hook for the
    /// service layer's `Deposit` command; buyers normally deposit
    /// through [`crate::buyer::BuyerHandle::deposit`]).
    pub fn deposit(&self, account: &str, amount: f64) {
        self.ledger.deposit(account, amount);
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
        self.transactions.lock().clone()
    }

    /// Fetch an offer (O(log n) in the id-keyed offer book).
    pub fn offer(&self, id: u64) -> Option<Offer> {
        self.offers.lock().get(&id).cloned()
    }

    /// All offers (cloned snapshot, in id order).
    pub fn offers(&self) -> Vec<Offer> {
        self.offers.lock().values().cloned().collect()
    }

    /// All deliveries (cloned snapshot).
    pub fn deliveries(&self) -> Vec<Delivery> {
        self.deliveries.lock().clone()
    }

    /// Deliveries awaiting an ex post report: `(offer, delivery, buyer)`.
    pub fn awaiting_reports(&self) -> Vec<(u64, u64, String)> {
        self.offers
            .lock()
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
        self.check_submittable(&wtp.buyer)?;
        let id = self.next_offer.fetch_add(1, Ordering::Relaxed);
        self.insert_offer(id, wtp, purpose.into());
        Ok(id)
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
        self.check_submittable(&wtp.buyer)?;
        if self.offers.lock().contains_key(&id) {
            return Err(MarketError::Invalid(format!("offer id {id} already taken")));
        }
        self.next_offer.fetch_max(id + 1, Ordering::Relaxed);
        self.insert_offer(id, wtp, purpose.into());
        Ok(id)
    }

    /// Shared submission guard: the buyer must be enrolled and not
    /// currently excluded.
    fn check_submittable(&self, buyer: &str) -> MarketResult<()> {
        let current_round = self.round();
        let participants = self.participants.lock();
        let p = participants
            .get(buyer)
            .ok_or_else(|| MarketError::UnknownParticipant(buyer.to_string()))?;
        if p.excluded_until > current_round {
            return Err(MarketError::Invalid(format!(
                "{buyer} is excluded until round {}",
                p.excluded_until
            )));
        }
        Ok(())
    }

    fn insert_offer(&self, id: u64, wtp: WtpFunction, purpose: String) {
        let at = self.tick();
        self.audit.record(AuditEvent::WtpSubmitted {
            offer: id,
            buyer: wtp.buyer.clone(),
        });
        self.offers.lock().insert(
            id,
            Offer {
                id,
                wtp,
                purpose,
                submitted_at: at,
                state: OfferState::Pending,
            },
        );
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

    pub(crate) fn set_offer_state(&self, id: u64, state: OfferState) {
        if let Some(o) = self.offers.lock().get_mut(&id) {
            o.state = state;
        }
    }

    /// The license attached to a dataset (Standard when unset).
    pub fn license_of(&self, dataset: DatasetId) -> License {
        self.licenses
            .lock()
            .get(&dataset)
            .cloned()
            .unwrap_or_default()
    }

    /// Negotiation requests from the most recent round (§4.1): what the
    /// arbiter would ask sellers to complete. Sellers respond via
    /// `SellerHandle::annotate` / `publish_mapping_table`.
    pub fn negotiation_requests(&self) -> Vec<NegotiationRequest> {
        self.last_negotiations.lock().clone()
    }

    /// The demand report from the most recent round (§7.1 opportunities).
    pub fn demand_report(&self) -> DemandReport {
        let missing = self.last_missing.lock();
        demand_report(missing.iter().map(|v| v.as_slice()))
    }

    /// Item-based CF recommendations for a buyer.
    pub fn recommendations(&self, buyer: &str, k: usize) -> Vec<DatasetId> {
        crate::arbiter::services::recommend(&self.purchases.lock(), buyer, k)
    }

    /// Capture this shard's private state for a materialized snapshot.
    /// Shared substrate state is exported separately via
    /// [`MarketSubstrate::export_state`].
    pub fn export_shard_state(&self) -> MarketShardState {
        MarketShardState {
            clock: self.clock.load(Ordering::SeqCst),
            round: self.round_counter.load(Ordering::SeqCst),
            next_offer: self.next_offer.load(Ordering::SeqCst),
            next_tx: self.next_tx.load(Ordering::SeqCst),
            next_delivery: self.next_delivery.load(Ordering::SeqCst),
            offers: self.offers(),
            transactions: self.transactions.lock().clone(),
            deliveries: self.deliveries.lock().clone(),
            purchases: self.purchases.lock().clone(),
            participants: self.participants(),
            last_missing: self.last_missing.lock().clone(),
            last_negotiations: self.last_negotiations.lock().clone(),
            rng: self.rng.lock().state(),
            audit_events: self.audit.entries().into_iter().map(|e| e.event).collect(),
            disputes: (0..).map_while(|i| self.disputes.get(i)).collect(),
        }
    }

    /// Restore a shard's private state from a previously exported
    /// image. The market must be freshly constructed: the audit chain
    /// and dispute log are append-only, so this replays their events
    /// into the empty structures rather than overwriting.
    pub fn restore_shard_state(&self, state: MarketShardState) {
        self.clock.store(state.clock, Ordering::SeqCst);
        self.round_counter.store(state.round, Ordering::SeqCst);
        self.next_offer.store(state.next_offer, Ordering::SeqCst);
        self.next_tx.store(state.next_tx, Ordering::SeqCst);
        self.next_delivery
            .store(state.next_delivery, Ordering::SeqCst);
        *self.offers.lock() = state.offers.into_iter().map(|o| (o.id, o)).collect();
        *self.transactions.lock() = state.transactions;
        *self.deliveries.lock() = state.deliveries;
        *self.purchases.lock() = state.purchases;
        *self.participants.lock() = state
            .participants
            .into_iter()
            .map(|p| (p.name.clone(), p))
            .collect();
        *self.last_missing.lock() = state.last_missing;
        *self.last_negotiations.lock() = state.last_negotiations;
        *self.rng.lock() = rand::rngs::StdRng::from_state(state.rng);
        for event in state.audit_events {
            self.audit.record(event);
        }
        for d in state.disputes {
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
    use dmp_mechanism::wtp::PriceCurve;

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
        market.set_offer_state(ids[3], OfferState::Expired);
        assert_eq!(market.offer(ids[3]).unwrap().state, OfferState::Expired);
        assert_eq!(market.offer(ids[2]).unwrap().state, OfferState::Pending);
        // Snapshots come back in id order.
        let snapshot: Vec<u64> = market.offers().iter().map(|o| o.id).collect();
        assert_eq!(snapshot, ids);
    }
}
