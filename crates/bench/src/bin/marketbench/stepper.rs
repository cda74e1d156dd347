//! The traced pass's replacement for `ServiceNode::apply`: the same
//! work — journal append, state mutation, worker mirroring, the round's
//! phases, the verified checkpoint — driven step by step through the
//! layers' public functions, each call one span.
//!
//! The node's router is mutated directly and the commands go to a side
//! journal next to the node's own (same directory, same fsync policy),
//! so a stepped stage costs what an applied one does but cannot be
//! recovered; the traced pass never tries.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dmp_core::arbiter::pipeline::RoundContext;
use dmp_service::command::Command;
use dmp_service::coordinator::WorkerPool;
use dmp_service::error::ServiceError;
use dmp_service::journal::Journal;
use dmp_service::node::{CommandFollower, ServiceNode};
use dmp_service::shard::{MergedRoundReport, Outcome, RoundDistributor, ShardRouter};
use dmp_service::snapshot::{self, Snapshot};
use dmp_service::state;

use crate::trace::Tracer;

/// The span a command's state mutation is recorded under.
pub fn apply_span(cmd: &Command) -> &'static str {
    match cmd {
        Command::Deposit { .. } => "service.shard.apply.deposit",
        Command::SubmitOffer(_) => "service.shard.apply.offer",
        Command::SubmitAsk(_) => "service.shard.apply.ask",
        _ => "service.shard.apply.other",
    }
}

fn io_error(msg: String) -> ServiceError {
    ServiceError::Io(std::io::Error::other(msg))
}

/// Steps commands into one node's router.
pub struct Stepper<'a> {
    node: &'a ServiceNode,
    journal: Journal,
    seq: u64,
    pool: Option<Arc<WorkerPool>>,
    /// Checkpoint after every this many commands (0 = never).
    checkpoint_every: u64,
    snapshots: PathBuf,
}

impl<'a> Stepper<'a> {
    /// A stepper over `node` whose side journal and snapshots live under
    /// `dir`. With a `pool`, commands are mirrored and rounds
    /// distributed exactly as an attached pool would.
    pub fn new(
        node: &'a ServiceNode,
        dir: &Path,
        pool: Option<Arc<WorkerPool>>,
        checkpoint_every: u64,
    ) -> std::io::Result<Stepper<'a>> {
        let (journal, _) = Journal::open(dir.join("stepped.wal"), node.config().fsync)?;
        Ok(Stepper {
            node,
            journal,
            seq: node.applied(),
            pool,
            checkpoint_every,
            snapshots: dir.join("stepped-snapshots"),
        })
    }

    /// Journal, apply, mirror and maybe checkpoint one command.
    pub fn command(&mut self, t: &mut Tracer, cmd: &Command) -> Result<Outcome, ServiceError> {
        self.seq += 1;
        let seq = self.seq;
        t.span("service.journal.append", 1, |_| {
            self.journal.append(seq, cmd)
        })?;
        let router = self.node.router();
        let result = match cmd {
            Command::RunRound { rounds } => Ok(Outcome::RoundsRun(
                (0..*rounds).map(|_| self.round(t)).collect(),
            )),
            _ => t.span(apply_span(cmd), 1, |_| router.apply(cmd)),
        };
        if let (Some(pool), false) = (&self.pool, matches!(cmd, Command::RunRound { .. })) {
            t.span("service.coordinator.mirror", 1, |_| {
                pool.on_applied(seq, cmd)
            });
        }
        if self.checkpoint_every > 0 && seq.is_multiple_of(self.checkpoint_every) {
            t.span("service.node.checkpoint", 1, |t| self.checkpoint(t))?;
        }
        result
    }

    /// One two-phase round, phase by phase (`ShardRouter::run_round`
    /// spelled out).
    pub fn round(&mut self, t: &mut Tracer) -> MergedRoundReport {
        let router = self.node.router();
        let round_seed = router.draw_round_seed();
        let round = router.rounds_completed() + 1;
        let shards = router.shard_count();
        let remote = self.pool.as_ref().and_then(|pool| {
            t.span("service.coordinator.candidates_rpc", 1, |_| {
                pool.candidates(round, round_seed, shards)
            })
        });
        let mut ctxs: Vec<RoundContext> = t.span("core.candidates", 1, |t| match &remote {
            Some(exports) => router
                .shards()
                .iter()
                .zip(exports)
                .map(|(market, export)| {
                    t.span("core.candidates.import", 1, |_| {
                        market.begin_round_imported(round_seed, export)
                    })
                })
                .collect(),
            None => router
                .shards()
                .iter()
                .map(|market| {
                    t.span("core.candidates.shard", 1, |_| {
                        market.begin_round_seeded(round_seed)
                    })
                })
                .collect(),
        });
        let bids: usize = ctxs.iter().map(|c| c.bids.len()).sum();
        let offers: usize = ctxs.iter().map(|c| c.considered).sum();
        t.count("core.candidates.bids_per_offer", bids as f64, offers as f64);
        let sales = t.span("core.clearing", 1, |_| router.clear_round(&mut ctxs));
        let merged = t.span("core.settlement", 1, |_| router.finish_round(ctxs, sales));
        t.count("core.settlement.sales_per_round", merged.sales as f64, 1.0);
        t.count(
            "core.settlement.components_per_round",
            merged.components as f64,
            1.0,
        );
        if let (Some(pool), Some(exports)) = (&self.pool, &remote) {
            t.span("service.coordinator.round_complete", 1, |_| {
                pool.round_complete(round, round_seed, exports)
            });
        }
        merged
    }

    /// The verified-durable checkpoint of `ServiceNode::apply`, spelled
    /// out: digest, export, encode, write, read back, decode, restore,
    /// digest again, prune, truncate the journal prefix.
    fn checkpoint(&mut self, t: &mut Tracer) -> Result<(), ServiceError> {
        let seq = self.seq;
        let image = checkpoint_image(t, self.node.router(), seq);
        verify_on_disk(t, self.node, &self.snapshots, &image)?;
        snapshot::prune_snapshots(&self.snapshots, 1)?;
        t.span("service.journal.truncate_prefix", 1, |_| {
            self.journal.truncate_prefix(seq)
        })?;
        Ok(())
    }
}

/// Digest, export and encode `router`'s state as a snapshot at `seq`.
pub fn checkpoint_image(t: &mut Tracer, router: &ShardRouter, seq: u64) -> Snapshot {
    let digest = t.span("service.state.digest", 1, |_| router.state_digest());
    let exported = t.span("service.state.export", 1, |_| router.export_state());
    let state = t.span("service.state.encode", 1, |_| state::encode(&exported));
    Snapshot { seq, digest, state }
}

/// Write `snap` into `dir`, read the file back, decode it, restore it
/// into a fresh router and require the digest to match.
pub fn verify_on_disk(
    t: &mut Tracer,
    node: &ServiceNode,
    dir: &Path,
    snap: &Snapshot,
) -> Result<(), ServiceError> {
    let path = t.span("service.snapshot.write", 1, |_| {
        snapshot::write_snapshot(dir, snap)
    })?;
    let on_disk = t
        .span("service.snapshot.load", 1, |_| snapshot::load_file(&path))
        .ok_or_else(|| io_error(format!("snapshot {} does not read back", path.display())))?;
    let decoded = t.span("service.state.decode", 1, |_| state::decode(&on_disk.state))?;
    let cfg = node.config();
    let fresh = ShardRouter::new(&cfg.market, cfg.shards);
    t.span("service.state.restore", 1, |_| fresh.restore_state(decoded))?;
    let restored = t.span("service.state.digest", 1, |_| fresh.state_digest());
    if restored != snap.digest {
        return Err(io_error(format!(
            "snapshot at seq {} restores to digest {restored:016x}, expected {:016x}",
            snap.seq, snap.digest
        )));
    }
    Ok(())
}
