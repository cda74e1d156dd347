//! The [`ServiceNode`]: journal + snapshots + shard router behind one
//! linearized `apply` path.
//!
//! Write path (WAL ordering):
//!
//! ```text
//! request → Command → journal.append (fsync) → router.apply → Outcome
//! ```
//!
//! A command is durable before it is applied, so the externally-visible
//! state is always reconstructible. Recovery runs `restore + tail
//! replay`: load the newest intact snapshot (a *materialized state
//! image*, format v3), restore it into a fresh router, verify the state
//! digest proves the decoded state is equivalent, then replay only the
//! journal tail (`seq >` snapshot) under a strict sequence-continuity
//! check. A digest mismatch or torn snapshot falls back to the previous
//! snapshot, and finally to replaying the whole journal — the journal
//! prefix is only ever dropped *after* a snapshot covering it has been
//! read back from disk and digest-verified (`keep_snapshots > 0`).

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

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use dmp_core::market::MarketConfig;
use dmp_mechanism::elicitation::ElicitationProtocol;
use dmp_telemetry::log;
use parking_lot::Mutex;

use crate::command::Command;
use crate::error::ServiceError;
use crate::journal::{replace_durably, Journal};
use crate::metrics::metrics;
use crate::shard::{fnv1a, Outcome, ShardRouter};
use crate::snapshot;

/// Node deployment configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Durability directory (journal + snapshots).
    pub dir: PathBuf,
    /// Base market configuration (each shard derives its seed from it).
    pub market: MarketConfig,
    /// Shard count (participants hash across these).
    pub shards: usize,
    /// Write a snapshot every N applied commands (0 = only on demand).
    pub snapshot_every: u64,
    /// `fdatasync` the journal on every append.
    pub fsync: bool,
    /// Snapshot retention / journal compaction knob. 0 (the default)
    /// keeps every snapshot and never truncates the journal. N ≥ 1
    /// keeps the newest N snapshots and, after each checkpoint is
    /// *verified durable* (read back from disk, decoded, restored and
    /// digest-checked), prunes older snapshots and truncates the
    /// journal prefix the oldest retained snapshot covers.
    pub keep_snapshots: usize,
}

impl ServiceConfig {
    /// Defaults: 4 shards, snapshot every 256 commands, fsync on,
    /// unbounded retention (no compaction).
    pub fn new(dir: impl Into<PathBuf>, market: MarketConfig) -> Self {
        ServiceConfig {
            dir: dir.into(),
            market,
            shards: 4,
            snapshot_every: 256,
            fsync: true,
            keep_snapshots: 0,
        }
    }

    /// Override the shard count ([`ServiceNode::open`] refuses 0).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Override the snapshot cadence.
    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = every;
        self
    }

    /// Toggle per-append fsync.
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// Set the snapshot retention knob (0 = keep all, never compact).
    pub fn with_keep_snapshots(mut self, keep: usize) -> Self {
        self.keep_snapshots = keep;
        self
    }
}

struct NodeInner {
    journal: Journal,
}

/// The replay-relevant identity of a deployment: the shard count and
/// the whole [`MarketConfig`]. Two processes agree on this string iff a
/// command stream applied to both produces bit-identical state — the
/// distributed layer sends it with every internal RPC so a worker
/// configured differently refuses work instead of silently diverging.
///
/// The config enters as an FNV-1a hash of its `Debug` rendering: every
/// type under `MarketConfig` derives `Debug` and holds no map, so the
/// text is deterministic and a field added to the config cannot be left
/// out. The design's name is spelled out so a refusal is readable; the
/// string stays short because it is written to `node.meta` and sent
/// with every internal RPC.
pub fn config_fingerprint(shards: usize, market: &MarketConfig) -> String {
    // v5: the whole MarketConfig. v4 named five fields and left out
    // the design and the currency, so a directory written at one
    // posted price reopened at another and replayed its journal under
    // the new prices. The version is part of the fingerprint: older
    // directories and skewed workers are refused by name rather than
    // misread. (v4 refused v3's digest rendering; v3 refused v1/v2.)
    format!(
        "v5 shards={shards} design={} market={:016x}",
        market.design.name,
        fnv1a(format!("{market:?}").as_bytes())
    )
}

/// Observer of the node's applied command stream, invoked inside the
/// apply critical section (journal append + router mutation) so
/// followers see commands in exactly the journal's total order. The
/// coordinator uses this to forward every journaled mutation to its
/// worker replicas; [`Command::RunRound`] is *also* delivered (the
/// follower decides what to do — the [`WorkerPool`] skips it because
/// rounds reach workers through the candidates/settle RPC pair that
/// runs inside `router.apply` itself).
///
/// [`WorkerPool`]: crate::coordinator::WorkerPool
pub trait CommandFollower: Send + Sync {
    /// Called after `cmd` was journaled at `seq` and applied.
    fn on_applied(&self, seq: u64, cmd: &Command);
}

/// A durable, sharded market node.
pub struct ServiceNode {
    cfg: ServiceConfig,
    router: ShardRouter,
    inner: Mutex<NodeInner>,
    applied: AtomicU64,
    /// When recovery finished (drives `/health` uptime).
    started: Instant,
    /// Applied-command observer (the coordinator's forwarding hook).
    /// Invoked under the apply lock so followers observe journal order;
    /// installed once, only *after* recovery, so replay never forwards.
    follower: OnceLock<Arc<dyn CommandFollower>>,
}

impl ServiceNode {
    /// The replay-relevant identity of a node deployment. Reopening a
    /// directory with a different fingerprint would silently hash
    /// participants onto different shards and draw different RNG
    /// streams, so recovery would "succeed" with the wrong state —
    /// [`ServiceNode::open`] persists this and refuses a mismatch.
    fn config_fingerprint(cfg: &ServiceConfig) -> String {
        config_fingerprint(cfg.shards, &cfg.market)
    }

    /// This node's config fingerprint (see [`config_fingerprint`]).
    pub fn fingerprint(&self) -> String {
        Self::config_fingerprint(&self.cfg)
    }

    /// Open a node, running crash recovery against `cfg.dir`.
    pub fn open(cfg: ServiceConfig) -> Result<ServiceNode, ServiceError> {
        // Zero shards, from a struct literal or `with_shards(0)`: the
        // router would run one shard while node.meta recorded zero.
        // Refuse before anything is written.
        if cfg.shards == 0 {
            return Err(ServiceError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "ServiceConfig.shards must be at least 1, got 0",
            )));
        }
        // No command reaches `DataMarket::report_value`, so an ex-post
        // design would escrow every sale and never release it.
        if let ElicitationProtocol::ExPost(_) = cfg.market.design.elicitation {
            return Err(ServiceError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "ServiceConfig.market.design '{}' elicits ex post; the service \
                     has no command to report values, so only ex-ante designs are served",
                    cfg.market.design.name
                ),
            )));
        }
        std::fs::create_dir_all(&cfg.dir)?;

        // Guard the durability contract: journal replay only reproduces
        // the pre-crash state under the config that wrote it. Only a
        // genuinely *absent* meta file means "fresh directory" — any
        // other read error (permissions, I/O) must propagate, not
        // silently overwrite the existing fingerprint.
        let fingerprint = Self::config_fingerprint(&cfg);
        let meta_path = cfg.dir.join("node.meta");
        match std::fs::read_to_string(&meta_path) {
            Ok(existing) if existing.trim() != fingerprint => {
                return Err(ServiceError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "service config does not match the journal in {}: \
                         on disk '{}', requested '{}'",
                        cfg.dir.display(),
                        existing.trim(),
                        fingerprint
                    ),
                )));
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Atomically: a bare `fs::write` could be torn by a
                // crash into an empty or partial `node.meta`, which a
                // later open would read as a mismatch and refuse.
                let tmp = meta_path.with_extension("meta.tmp");
                replace_durably(&tmp, &meta_path, fingerprint.as_bytes())?;
            }
            Err(e) => return Err(ServiceError::Io(e)),
        }

        // Sweep the residue a crash mid-checkpoint can leave behind:
        // stale snapshot `.tmp` files and a half-written journal
        // `.compact` (its rename never happened, so the live journal is
        // intact and the partial copy is garbage).
        let swept = snapshot::sweep_tmp(&cfg.dir)?;
        if swept > 0 {
            log!(Info, "swept {swept} stale snapshot tmp file(s)");
        }
        let stale_compact = cfg.dir.join("journal.compact");
        if stale_compact.exists() {
            std::fs::remove_file(&stale_compact)?;
            log!(Info, "removed stale journal.compact left by a crash");
        }

        #[expect(
            clippy::disallowed_methods,
            reason = "recovery-duration telemetry; replay state never reads it"
        )]
        let recovery_started = Instant::now();
        let journal_path = cfg.dir.join("journal.wal");
        let (journal, journal_records) = Journal::open(&journal_path, cfg.fsync)?;

        // The journal itself must be internally gap-free: replaying
        // around a hole would silently drop mutations.
        for pair in journal_records.windows(2) {
            if let [(prev, _), (next, _)] = pair {
                if *next != prev + 1 {
                    return Err(ServiceError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "journal sequence gap: {prev} is followed by {next} in {}",
                            journal_path.display()
                        ),
                    )));
                }
            }
        }

        // Phase 1: restore the newest snapshot whose decoded state
        // digest-verifies; fall back candidate by candidate.
        let mut router = ShardRouter::new(&cfg.market, cfg.shards);
        let mut applied: u64 = 0;
        let mut snapshot_ok = false;
        let candidates = snapshot::list_snapshots(&cfg.dir);
        for (_, path) in candidates.iter().rev() {
            let restored = snapshot::load_image(path)
                .map_err(ServiceError::from)
                .and_then(|file| {
                    let router = ShardRouter::restore_verified(
                        &cfg.market,
                        cfg.shards,
                        file.image,
                        file.digest,
                    )?;
                    Ok((router, file.seq))
                });
            match restored {
                Ok((restored, seq)) => {
                    router = restored;
                    applied = seq;
                    snapshot_ok = true;
                    metrics().recovery_snapshot_verified.inc();
                    break;
                }
                Err(why) => {
                    metrics().recovery_snapshot_rejected.inc();
                    log!(
                        Warn,
                        "snapshot rejected: {} ({why}); trying older",
                        path.display()
                    );
                }
            }
        }

        // Seam check: the journal tail must connect to what we restored.
        // With no usable snapshot the journal must start at seq 1 (a
        // compacted journal cannot be replayed from genesis); with a
        // snapshot at S the first record must be ≤ S+1.
        if let Some((first, _)) = journal_records.first() {
            let resume_at = applied + 1;
            if *first > resume_at {
                return Err(ServiceError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "journal begins at seq {first} but recovery resumes at {resume_at} \
                         (snapshot seq {applied}): the covering prefix is gone from {}",
                        cfg.dir.display()
                    ),
                )));
            }
        }

        // Phase 2: replay the tail. Rejected commands replay as
        // rejections — apply errors are part of the deterministic
        // history.
        for (seq, cmd) in journal_records {
            if seq <= applied {
                continue; // covered by the restored snapshot
            }
            let _ = router.apply(&cmd);
            applied = seq;
        }
        metrics()
            .recovery_replay_us
            .record_duration_us(recovery_started.elapsed());
        log!(
            Info,
            "recovery complete seq={applied} snapshot_ok={snapshot_ok} dir={}",
            cfg.dir.display()
        );

        Ok(ServiceNode {
            cfg,
            router,
            inner: Mutex::new(NodeInner { journal }),
            applied: AtomicU64::new(applied),
            #[expect(
                clippy::disallowed_methods,
                reason = "/health uptime display; presentation, never state"
            )]
            started: Instant::now(),
            follower: OnceLock::new(),
        })
    }

    /// Apply one command: journal first (durable), then mutate the
    /// market, then maybe snapshot. Total order across callers: the
    /// gateway's connection threads call this concurrently, and the
    /// internal mutex serializes them — the journal sequence and the
    /// router mutation for one command are a single critical section,
    /// so the WAL ordering invariant (durable before visible) holds no
    /// matter how many connections the [`gateway`](crate::gateway)
    /// serves.
    pub fn apply(&self, cmd: Command) -> Result<Outcome, ServiceError> {
        let m = metrics();
        let apply_hist = m.apply_us(&cmd);
        #[expect(
            clippy::disallowed_methods,
            reason = "apply latency telemetry; never applied state"
        )]
        let apply_started = Instant::now();
        let mut inner = self.inner.lock();
        let seq = self.applied.load(Ordering::Relaxed) + 1;
        // dmp-lint: allow(lock-across-fsync) -- the WAL ordering invariant: append (durable) and apply (visible) must be one critical section, or a concurrent applier could expose state the journal has not persisted
        inner.journal.append(seq, &cmd)?;
        let result = self.router.apply(&cmd);
        self.applied.store(seq, Ordering::Relaxed);
        // Forward while still inside the critical section: concurrent
        // appliers must not interleave their follower deliveries, or a
        // worker replica would apply commands out of journal order and
        // diverge bit-for-bit even though every command arrived.
        if let Some(follower) = self.follower.get() {
            follower.on_applied(seq, &cmd);
        }
        apply_hist.record_duration_us(apply_started.elapsed());
        if self.cfg.snapshot_every > 0 && seq.is_multiple_of(self.cfg.snapshot_every) {
            // Best-effort: the command is already journaled and applied,
            // so a failed checkpoint must not turn a succeeded mutation
            // into a client-visible error (the journal stays
            // authoritative; recovery just replays more of it).
            if let Err(e) = self.checkpoint(&mut inner, seq) {
                log!(
                    Warn,
                    "checkpoint failed seq={seq} err={e}; continuing on journal alone"
                );
            }
        }
        result
    }

    /// One checkpoint at `seq`, timed whole: it runs under the apply
    /// lock, so its duration is how long every applier stalled.
    fn checkpoint(&self, inner: &mut NodeInner, seq: u64) -> Result<(), ServiceError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "checkpoint-stall telemetry; never applied state"
        )]
        let started = Instant::now();
        let result = self.checkpoint_steps(inner, seq);
        metrics()
            .checkpoint_stall_us
            .record_duration_us(started.elapsed());
        result
    }

    /// Serialize the router's materialized state at `seq`, write it as
    /// a snapshot, and — when retention is bounded — verify the file
    /// on disk restores to a digest-identical state before pruning old
    /// snapshots and truncating the journal prefix it covers.
    ///
    /// Runs under the apply lock: the state must be quiescent while it
    /// serializes, and the journal must not advance between "snapshot
    /// durable" and "prefix truncated". `snapshot_every` bounds how
    /// often appliers pause behind this.
    fn checkpoint_steps(&self, inner: &mut NodeInner, seq: u64) -> Result<(), ServiceError> {
        let m = metrics();
        let image = self.router.export_state();
        #[expect(
            clippy::disallowed_methods,
            reason = "snapshot-write telemetry; never applied state"
        )]
        let write_started = Instant::now();
        // One walk of the state: each section is streamed into its
        // frame, and the digest is a hash of those bytes.
        let path = match snapshot::write_image(&self.cfg.dir, seq, &image) {
            Ok((path, _digest)) => {
                m.snapshot_writes.inc();
                m.snapshot_write_us
                    .record_duration_us(write_started.elapsed());
                if let Ok(meta) = std::fs::metadata(&path) {
                    m.snapshot_bytes.add(meta.len());
                }
                path
            }
            Err(e) => {
                m.snapshot_failures.inc();
                return Err(e.into());
            }
        };
        // Free the export before the verify step restores a second copy.
        drop(image);

        if self.cfg.keep_snapshots == 0 {
            return Ok(()); // unbounded retention: never compact
        }

        // Verified-durable gate: re-read the file we just renamed into
        // place and prove the *on-disk bytes* decode to an equivalent
        // state. Only then is the journal prefix redundant.
        #[expect(
            clippy::disallowed_methods,
            reason = "snapshot-verify telemetry; never applied state"
        )]
        let verify_started = Instant::now();
        let verified = snapshot::load_image(&path)
            .map_err(ServiceError::from)
            .and_then(|on_disk| {
                let cfg = &self.cfg;
                ShardRouter::restore_verified(
                    &cfg.market,
                    cfg.shards,
                    on_disk.image,
                    on_disk.digest,
                )
            })
            .map(drop);
        m.snapshot_verify_us
            .record_duration_us(verify_started.elapsed());
        if let Err(why) = verified {
            m.snapshot_failures.inc();
            return Err(ServiceError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("snapshot verification failed ({why}); journal kept intact"),
            )));
        }

        let pruned = snapshot::prune_snapshots(&self.cfg.dir, self.cfg.keep_snapshots)?;
        if pruned > 0 {
            m.snapshots_pruned.add(pruned as u64);
        }
        // Truncate up to the oldest snapshot still on disk: every
        // retained snapshot must keep a connectable tail behind it.
        if let Some((oldest, _)) = snapshot::list_snapshots(&self.cfg.dir).first() {
            let dropped = inner.journal.truncate_prefix(*oldest)?;
            if dropped > 0 {
                m.journal_compactions.inc();
                m.journal_compacted_bytes.add(dropped);
                log!(
                    Info,
                    "journal compacted: dropped {dropped} bytes up to seq {oldest}"
                );
            }
        }
        Ok(())
    }

    /// Write (and, under bounded retention, verify + compact) a
    /// snapshot right now (admin hook; also used by tests).
    pub fn snapshot_now(&self) -> Result<u64, ServiceError> {
        let mut inner = self.inner.lock();
        let seq = self.applied.load(Ordering::Relaxed);
        self.checkpoint(&mut inner, seq)?;
        Ok(seq)
    }

    /// Time since recovery finished.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The `/health` JSON body, rendered from atomics without the
    /// apply/WAL lock. `uptime_s` has 0.1 s granularity: plenty for
    /// liveness, and it keeps the float's decimal form short.
    pub fn health_body(&self) -> String {
        use crate::wire::Json;
        let rounds = self.router.rounds_completed() as f64;
        let uptime_ds = self.uptime().as_millis() as u64 / 100;
        Json::obj([
            ("status", Json::str("ok")),
            ("shards", Json::Num(self.router.shard_count() as f64)),
            ("applied", Json::Num(self.applied() as f64)),
            ("round", Json::Num(rounds)),
            ("rounds_completed", Json::Num(rounds)),
            ("uptime_s", Json::Num(uptime_ds as f64 / 10.0)),
        ])
        .dump()
    }

    /// Sequence number of the last applied command.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// Install the applied-command observer. Call once, and only after
    /// recovery (i.e. on an already-open node): replay must never
    /// forward. A second call is ignored; the first follower stays.
    pub fn set_follower(&self, follower: Arc<dyn CommandFollower>) {
        let _ = self.follower.set(follower);
    }

    /// Run `f` with the apply path quiesced: no command can journal or
    /// apply while it runs, so the router state and the applied
    /// sequence it observes are one consistent cut. The coordinator
    /// uses this to capture the state image + watermark that provisions
    /// a fresh worker replica.
    pub fn quiesced<R>(&self, f: impl FnOnce(&ShardRouter, u64) -> R) -> R {
        let _inner = self.inner.lock();
        f(&self.router, self.applied.load(Ordering::Relaxed))
    }

    /// The shard router (reads don't go through the journal).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The node configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Digest of the externally-visible market state.
    pub fn state_digest(&self) -> u64 {
        self.router.state_digest()
    }

    /// Current journal size in bytes (admin / bench probe).
    pub fn journal_len(&self) -> Result<u64, ServiceError> {
        Ok(self.inner.lock().journal.len()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::OfferSpec;
    use crate::test_support::ScratchDir;
    use dmp_mechanism::design::MarketDesign;

    fn config(dir: &ScratchDir) -> ServiceConfig {
        let market =
            MarketConfig::external(5).with_design(MarketDesign::posted_price_baseline(10.0));
        ServiceConfig::new(dir.path(), market).with_shards(2)
    }

    fn enroll(i: usize) -> Command {
        Command::Enroll {
            name: format!("p{i}"),
            role: "buyer".into(),
        }
    }

    #[test]
    fn apply_then_reopen_restores_state() {
        let dir = ScratchDir::new("node-reopen");
        let cfg = config(&dir);
        let digest = {
            let node = ServiceNode::open(cfg.clone()).unwrap();
            node.apply(Command::Enroll {
                name: "alice".into(),
                role: "buyer".into(),
            })
            .unwrap();
            node.apply(Command::Deposit {
                account: "alice".into(),
                amount: 42.0,
            })
            .unwrap();
            node.apply(Command::SubmitOffer(OfferSpec::simple("alice", ["k"], 5.0)))
                .unwrap();
            node.state_digest()
        };
        let node = ServiceNode::open(cfg).unwrap();
        assert_eq!(node.applied(), 3);
        assert_eq!(node.state_digest(), digest);
        assert!(node.router().balance("alice") >= 42.0);
    }

    #[test]
    fn rejected_commands_are_journaled_and_replay() {
        let dir = ScratchDir::new("node-rejected");
        let cfg = config(&dir);
        {
            let node = ServiceNode::open(cfg.clone()).unwrap();
            // Offer from a never-enrolled buyer: rejected but journaled.
            assert!(node
                .apply(Command::SubmitOffer(OfferSpec::simple("ghost", ["k"], 1.0)))
                .is_err());
            assert_eq!(node.applied(), 1);
        }
        let node = ServiceNode::open(cfg).unwrap();
        assert_eq!(node.applied(), 1, "rejected command still replays");
    }

    #[test]
    fn mismatched_config_refused_on_reopen() {
        let dir = ScratchDir::new("node-fingerprint");
        let cfg = config(&dir);
        {
            ServiceNode::open(cfg.clone()).unwrap();
        }
        // Same dir, different shard count: replay would route
        // participants differently, so open must refuse.
        let reshaped = cfg.clone().with_shards(8);
        assert!(ServiceNode::open(reshaped).is_err());
        // The original config still opens.
        assert!(ServiceNode::open(cfg).is_ok());
    }

    #[test]
    fn reopen_at_a_different_posted_price_is_refused_naming_both() {
        let dir = ScratchDir::new("node-fingerprint-price");
        let cfg = config(&dir);
        ServiceNode::open(cfg.clone()).unwrap();
        // Same shards, seed and kind: only the design's price moved, and
        // replaying the journal under it would settle different sales.
        let repriced = ServiceConfig {
            market: MarketConfig::external(5)
                .with_design(MarketDesign::posted_price_baseline(20.0)),
            ..cfg.clone()
        };
        let err = match ServiceNode::open(repriced.clone()) {
            Ok(_) => panic!("a directory written at price 10 reopened at price 20"),
            Err(e) => e.to_string(),
        };
        assert!(
            err.contains(&format!("'{}'", ServiceNode::config_fingerprint(&cfg)))
                && err.contains(&format!("'{}'", ServiceNode::config_fingerprint(&repriced))),
            "the refusal must name both fingerprints: {err}"
        );
        assert!(err.contains("design=posted-price(10)") && err.contains("design=posted-price(20)"));
        assert!(ServiceNode::config_fingerprint(&cfg).len() <= 71);
    }

    #[test]
    fn ex_post_designs_are_refused_before_node_meta_is_written() {
        let dir = ScratchDir::new("node-ex-post");
        let mut market = config(&dir).market;
        market.design.elicitation = ElicitationProtocol::ExPost(Default::default());
        let cfg = ServiceConfig {
            market,
            ..config(&dir)
        };
        match ServiceNode::open(cfg).err() {
            Some(ServiceError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
                assert!(e.to_string().contains("ServiceConfig.market.design"), "{e}");
            }
            other => panic!("expected an InvalidInput refusal, got {other:?}"),
        }
        assert!(!dir.path().join("node.meta").exists());
        // The directory stays usable under an ex-ante design.
        assert!(ServiceNode::open(config(&dir)).is_ok());
    }

    #[test]
    fn zero_shards_are_refused_before_node_meta_is_written() {
        let dir = ScratchDir::new("node-zero-shards");
        let literal = ServiceConfig {
            shards: 0,
            ..config(&dir)
        };
        for cfg in [literal, config(&dir).with_shards(0)] {
            match ServiceNode::open(cfg).err() {
                Some(ServiceError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
                    assert!(e.to_string().contains("shards"), "{e}");
                }
                other => panic!("expected an InvalidInput refusal, got {other:?}"),
            }
            assert!(!dir.path().join("node.meta").exists());
        }
        // The directory stays usable under the config it was meant for.
        assert!(ServiceNode::open(config(&dir).with_shards(1)).is_ok());
    }

    #[test]
    fn snapshot_accelerated_recovery_matches_full_replay() {
        let dir = ScratchDir::new("node-snap");
        let cfg = config(&dir).with_snapshot_every(2);
        {
            let node = ServiceNode::open(cfg.clone()).unwrap();
            for i in 0..5 {
                node.apply(enroll(i)).unwrap();
            }
        }
        // Snapshot exists at seq 4; journal tail has seq 5.
        let node = ServiceNode::open(cfg.clone()).unwrap();
        assert_eq!(node.applied(), 5);
        // A journal-only rebuild agrees bit-for-bit.
        let dir2 = ScratchDir::new("node-snap-journal-only");
        std::fs::copy(dir.join("journal.wal"), dir2.join("journal.wal")).unwrap();
        let journal_only = ServiceNode::open(config(&dir2).with_snapshot_every(2)).unwrap();
        assert_eq!(journal_only.state_digest(), node.state_digest());
    }

    #[test]
    fn compaction_shrinks_journal_and_recovery_agrees() {
        let dir = ScratchDir::new("node-compact");
        let cfg = config(&dir).with_snapshot_every(4).with_keep_snapshots(1);
        let digest = {
            let node = ServiceNode::open(cfg.clone()).unwrap();
            for i in 0..10 {
                node.apply(enroll(i)).unwrap();
            }
            // Checkpoints at 4 and 8 each verified + compacted: the
            // journal holds only seq 9..10.
            let len = node.journal_len().unwrap();
            assert!(len > 0);
            let full: u64 = 10 * 50; // ~50 bytes per enroll record lower bound sanity
            assert!(len < full, "journal did not shrink: {len} bytes");
            node.state_digest()
        };
        let node = ServiceNode::open(cfg.clone()).unwrap();
        assert_eq!(node.applied(), 10);
        assert_eq!(node.state_digest(), digest);
        // Retention: only one snapshot file remains.
        assert_eq!(snapshot::list_snapshots(&cfg.dir).len(), 1);
    }

    #[test]
    fn compacted_journal_without_snapshot_fails_loudly() {
        let dir = ScratchDir::new("node-no-genesis");
        let cfg = config(&dir).with_snapshot_every(4).with_keep_snapshots(1);
        {
            let node = ServiceNode::open(cfg.clone()).unwrap();
            for i in 0..6 {
                node.apply(enroll(i)).unwrap();
            }
        }
        // Delete every snapshot: the compacted journal alone cannot
        // reconstruct state, and recovery must say so rather than
        // replay a partial history.
        for (_, path) in snapshot::list_snapshots(&cfg.dir) {
            std::fs::remove_file(path).unwrap();
        }
        let err = match ServiceNode::open(cfg) {
            Ok(_) => panic!("open succeeded on an uncovered compacted journal"),
            Err(e) => e,
        };
        assert!(
            err.to_string().contains("covering prefix"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn journal_gap_fails_loudly() {
        let dir = ScratchDir::new("node-gap");
        let cfg = config(&dir);
        {
            let node = ServiceNode::open(cfg.clone()).unwrap();
            for i in 0..3 {
                node.apply(enroll(i)).unwrap();
            }
        }
        // Splice record 2 out of the journal: 1,3 is a hole, and
        // replaying around it would silently drop a mutation.
        let path = cfg.dir.join("journal.wal");
        let bytes = std::fs::read(&path).unwrap();
        let (payloads, _) = crate::journal::scan_frames(&bytes);
        assert_eq!(payloads.len(), 3);
        let mut spliced = Vec::new();
        crate::journal::frame(payloads[0], &mut spliced);
        crate::journal::frame(payloads[2], &mut spliced);
        std::fs::write(&path, &spliced).unwrap();
        let err = match ServiceNode::open(cfg) {
            Ok(_) => panic!("open succeeded across a journal sequence gap"),
            Err(e) => e,
        };
        assert!(
            err.to_string().contains("sequence gap"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn torn_meta_is_impossible_but_stale_tmp_is_harmless() {
        // A crash between meta tmp-write and rename leaves only the
        // tmp; the next open rewrites the real meta and proceeds.
        let dir = ScratchDir::new("node-meta-tmp");
        let cfg = config(&dir);
        {
            ServiceNode::open(cfg.clone()).unwrap();
        }
        std::fs::write(cfg.dir.join("node.meta.tmp"), b"garbage").unwrap();
        assert!(ServiceNode::open(cfg).is_ok());
    }
}
