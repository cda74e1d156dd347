//! The shard-worker side of the distributed exchange: a disposable,
//! in-memory **full replica** of the coordinator's market behind the
//! same gateway, serving the internal RPC surface.
//!
//! A worker holds all M shards (one [`ShardRouter`] over one shared
//! substrate) built from the same config flags as the coordinator, and
//! stays bit-identical to it by consuming the coordinator's journal
//! order: every non-round mutation arrives as `/internal/apply`, and
//! every round arrives as the `candidates` / `settle` RPC pair — the
//! worker computes the candidate phase for its *assigned* shards,
//! then re-executes clearing + settlement locally for **all** shards
//! once the coordinator sends the exports of the shards it did not
//! compute. Nothing here is durable: a dead worker is replaced by
//! provisioning a fresh one from the coordinator's quiesced state
//! (`/internal/restore`).
//!
//! | RPC                      | Body                              | Reply | Effect |
//! |--------------------------|-----------------------------------|-------|--------|
//! | `POST /internal/apply`   | `{fp, seq, cmd}`                  | `{applied}` | apply one journaled command |
//! | `POST /internal/candidates` | `{fp, round, seed, shards}`    | `{round, exports}` | compute + stash the assigned shards' candidate phase |
//! | `POST /internal/settle`  | `{fp, round, seed, shards, exports}` | `{rounds, sales}` | re-execute clear + settlement locally from the stash and the shipped `shards`' exports |
//! | `GET /internal/digest`   | —                                 | `{digest, rounds, applied}` | state digest + round/seq watermarks |
//! | `POST /internal/restore` | `{fp, applied, digest, state:{substrate, shards, router}}` | `{digest, applied}` | become a fresh replica of the given state, if it restores to `digest` |
//!
//! Every body and reply is a [`codec`] table: written as text without a
//! `Json` tree, and decoded straight from the body bytes (`cmd` keeps
//! the client command grammar and is read as one value). A body that
//! does not decode is a 400, and so is a round RPC's shard list that is
//! out of range, unsorted or repeated.
//!
//! Every RPC carries the deployment's config fingerprint and is
//! **refused** with a 409 on mismatch (wrong fingerprint, wrong round
//! number, a round seed the worker's own RNG lockstep would not draw,
//! or a settle that leaves some shard neither stashed nor shipped)
//! before it changes anything: a diverged replica must fail fast and be
//! re-provisioned, never settle a round from the wrong state.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dmp_core::arbiter::pipeline::{CandidatePhaseExport, RoundContext};
use dmp_core::market::MarketConfig;
use parking_lot::Mutex;
use rayon::prelude::*;

use crate::codec::{
    self, ApplyBody, ApplyReply, CandidatesBody, DigestReply, RestoreBody, RestoreReply,
    SettleBody, SettleReply,
};
use crate::gateway::{err_body, Service};
use crate::http::{Request, Response};
use crate::node::config_fingerprint;
use crate::shard::ShardRouter;
use crate::state::{from_text, to_text, Wire};
use crate::wire::{Json, WireError};

/// Protocol phase at which a worker kills itself — fault injection for
/// the re-dispatch tests (a scripted stand-in for a crash or OOM at
/// the worst possible instant). Never set in production.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPhase {
    /// Die on receiving a candidate request, before computing anything.
    PreCandidate,
    /// Die on receiving the settle broadcast, before touching state.
    PreSettle,
    /// Die after clearing but before settlement finishes.
    MidSettle,
}

impl KillPhase {
    /// Parse the `--kill-phase` flag spelling.
    pub fn parse(s: &str) -> Option<KillPhase> {
        match s {
            "pre-candidate" => Some(KillPhase::PreCandidate),
            "pre-settle" => Some(KillPhase::PreSettle),
            "mid-settle" => Some(KillPhase::MidSettle),
            _ => None,
        }
    }
}

/// Worker deployment configuration — the same replay-relevant knobs as
/// the coordinator's [`ServiceConfig`](crate::node::ServiceConfig),
/// minus durability (workers have none).
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Base market configuration (must match the coordinator's).
    pub market: MarketConfig,
    /// Shard count (must match the coordinator's).
    pub shards: usize,
    /// Fault injection: die at this phase boundary of this round.
    pub kill: Option<(KillPhase, u64)>,
}

impl WorkerConfig {
    /// A worker over `shards` shards of `market`.
    pub fn new(market: MarketConfig, shards: usize) -> Self {
        WorkerConfig {
            market,
            shards: shards.max(1),
            kill: None,
        }
    }

    /// Arm fault injection at a phase boundary of round `round`.
    pub fn with_kill(mut self, phase: KillPhase, round: u64) -> Self {
        self.kill = Some((phase, round));
        self
    }
}

/// Candidate phases computed for a round whose settle broadcast has
/// not arrived yet. Computing the candidate phase advances the shard's
/// clock, round counter, expiry state and audit log, so settle must
/// **reuse** these contexts — re-importing the same shard would
/// double-advance the replica and diverge it. The stashed export makes
/// a repeated candidate request idempotent (served from the stash).
struct PendingRound {
    round: u64,
    seed: u64,
    slots: Vec<Option<(RoundContext, CandidatePhaseExport)>>,
}

/// A worker process's state: one full-replica router plus the pending
/// candidate stash. Implements [`Service`], so `Gateway::serve_service`
/// puts it behind the same gateway as the coordinator.
pub struct WorkerNode {
    cfg: WorkerConfig,
    fingerprint: String,
    /// Swapped wholesale by `/internal/restore`; handlers clone the
    /// `Arc` out and never hold this lock across work.
    router: Mutex<Arc<ShardRouter>>,
    pending: Mutex<Option<PendingRound>>,
    /// Coordinator journal watermark this replica has consumed
    /// (observability; the digest is the authoritative equivalence
    /// check).
    applied: AtomicU64,
}

impl WorkerNode {
    /// Build a fresh (genesis-state) replica from config flags.
    pub fn new(cfg: WorkerConfig) -> WorkerNode {
        let fingerprint = config_fingerprint(cfg.shards, &cfg.market);
        let router = Arc::new(ShardRouter::new(&cfg.market, cfg.shards));
        WorkerNode {
            cfg,
            fingerprint,
            router: Mutex::new(router),
            pending: Mutex::new(None),
            applied: AtomicU64::new(0),
        }
    }

    /// The live router (tests and digests).
    pub fn router(&self) -> Arc<ShardRouter> {
        self.router.lock().clone()
    }

    /// This worker's config fingerprint.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Fault injection: die *right here* if armed for this boundary.
    fn maybe_kill(&self, phase: KillPhase, round: u64) {
        if self.cfg.kill == Some((phase, round)) {
            std::process::exit(3);
        }
    }

    /// Refuse a request carrying another deployment's fingerprint. A
    /// worker configured with different shard hashing or RNG seeds
    /// would accept commands and silently diverge — refuse instead.
    fn check_fingerprint(&self, fp: &str) -> Result<(), Response> {
        if fp != self.fingerprint {
            let msg = format!(
                "config fingerprint mismatch: worker is '{}', request is '{fp}'",
                self.fingerprint
            );
            return Err(Response::json(409, err_body(&msg)));
        }
        Ok(())
    }

    /// Refuse a round RPC for any round but the next one this replica
    /// would run.
    fn check_round(router: &ShardRouter, round: u64) -> Result<(), Response> {
        let expected_round = router.rounds_completed() + 1;
        if round != expected_round {
            let msg = format!("worker expects round {expected_round}, refusing round {round}");
            return Err(Response::json(409, err_body(&msg)));
        }
        Ok(())
    }

    /// `POST /internal/apply {fp, seq, cmd}` — one journaled command,
    /// in journal order (the coordinator forwards from inside its
    /// apply critical section over one connection, so FIFO per worker
    /// is journal order). Rejected commands are applied for their side
    /// effects exactly like journal replay (`router.apply` is total).
    fn rpc_apply(&self, req: &Request) -> Result<String, Response> {
        let ApplyBody { fp, seq, cmd } = decode(req)?;
        self.check_fingerprint(&fp)?;
        let router = self.router();
        // Rejections are part of the deterministic state machine: the
        // coordinator journaled this command whatever its outcome.
        let _ = router.apply(&cmd);
        self.applied.store(seq, Ordering::Relaxed);
        Ok(to_text(&ApplyReply { applied: seq }))
    }

    /// `POST /internal/candidates {fp, round, seed, shards}` — compute
    /// the candidate phase for the assigned shards under the
    /// coordinator's seed, stash the contexts for the settle broadcast,
    /// and return `{round, exports}`. Refuses a round number or seed
    /// this replica would not produce itself: accepting either would
    /// settle the round from diverged state. A shard list that is not
    /// ascending and unique is a 400 before either is checked: a
    /// repeated shard would run its candidate phase twice.
    fn rpc_candidates(&self, req: &Request) -> Result<String, Response> {
        let CandidatesBody {
            fp,
            round,
            seed,
            shards: assigned,
        } = decode(req)?;
        self.check_fingerprint(&fp)?;
        let router = self.router();
        let shard_count = router.shard_count();
        check_shard_list(&assigned, shard_count)?;
        self.maybe_kill(KillPhase::PreCandidate, round);
        Self::check_round(&router, round)?;
        check_seed(seed, router.predict_round_seed(), "would draw")?;

        let mut stash = self.pending.lock();
        let pending = match stash.take() {
            Some(p) if p.round == round && p.seed == seed => stash.insert(p),
            _ => stash.insert(PendingRound {
                round,
                seed,
                slots: (0..shard_count).map(|_| None).collect(),
            }),
        };
        // Shard-parallel candidate phase, exactly like a local round;
        // already-stashed shards (a repeated request after a lost
        // reply) are served from the stash, not recomputed — running
        // the candidate stage twice would double-advance the shard.
        let todo: Vec<usize> = assigned
            .iter()
            .copied()
            .filter(|&i| matches!(pending.slots.get(i), Some(None)))
            .collect();
        let computed: Vec<(usize, (RoundContext, CandidatePhaseExport))> = todo
            .par_iter()
            .map(|&i| (i, router.shard(i).begin_round_exported(seed)))
            .collect();
        for (i, pair) in computed {
            if let Some(slot) = pending.slots.get_mut(i) {
                *slot = Some(pair);
            }
        }
        // The exports go back in the order the shards were asked for.
        let mut reply = Vec::with_capacity(assigned.len());
        for i in assigned {
            match pending.slots.get(i) {
                Some(Some((_, export))) => reply.push(export),
                _ => {
                    let msg = format!("shard {i} did not compute");
                    return Err(Response::json(500, err_body(&msg)));
                }
            }
        }
        Ok(codec::candidates_reply_text(round, reply))
    }

    /// `POST /internal/settle {fp, round, seed, shards, exports}` — the
    /// round cleared and settled on the coordinator; re-execute it here.
    /// Shards this worker computed reuse their stashed contexts; the
    /// coordinator ships the exports of the rest, `shards` naming each
    /// one's index, and they import (local expiry + audit replay). A
    /// shard both stashed and shipped reuses its stash: importing it
    /// too would advance it twice. Clearing and settlement are then the
    /// same code path the coordinator ran, so the replica lands
    /// bit-identical.
    ///
    /// The body is decoded straight from its bytes. A shard list that is
    /// out of range, unsorted, repeated or not one index per export is a
    /// 400; a shard neither stashed for this round and seed nor shipped
    /// is a 409. Both are checked before the round seed is drawn, so a
    /// refused settle leaves the replica untouched.
    fn rpc_settle(&self, req: &Request) -> Result<String, Response> {
        let SettleBody {
            fp,
            round,
            seed,
            shards,
            exports,
        } = decode(req)?;
        self.check_fingerprint(&fp)?;
        let router = self.router();
        let shard_count = router.shard_count();
        if shards.len() != exports.len() {
            let msg = format!(
                "{} shards listed for {} exports",
                shards.len(),
                exports.len()
            );
            return Err(Response::json(400, err_body(&msg)));
        }
        check_shard_list(&shards, shard_count)?;
        self.maybe_kill(KillPhase::PreSettle, round);
        Self::check_round(&router, round)?;
        let mut pending = self.pending.lock();
        let slots = pending
            .as_ref()
            .filter(|p| p.round == round && p.seed == seed)
            .map(|p| p.slots.as_slice())
            .unwrap_or_default();
        let stashed = |i: usize| matches!(slots.get(i), Some(Some(_)));
        let unsupplied =
            (0..shard_count).find(|&i| !stashed(i) && shards.binary_search(&i).is_err());
        if let Some(i) = unsupplied {
            let msg = format!("round {round}: shard {i} is neither stashed here nor shipped");
            return Err(Response::json(409, err_body(&msg)));
        }
        // RNG lockstep: drawing (not predicting) advances this
        // replica's coordinator stream exactly as the coordinator's
        // own draw did. A mismatch means divergence — and the draw is
        // the last mutation before the check, so a refused settle
        // leaves the replica re-provisionable, not half-settled.
        check_seed(seed, router.draw_round_seed(), "drew")?;
        let mut slots = match pending.take() {
            Some(p) if p.round == round && p.seed == seed => p.slots,
            _ => Vec::new(),
        };
        drop(pending);
        let mut shipped = shards.into_iter().zip(exports).peekable();
        let mut ctxs = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let export = shipped.next_if(|(shard, _)| *shard == i);
            match (slots.get_mut(i).and_then(Option::take), export) {
                (Some((ctx, _)), _) => ctxs.push(ctx),
                (None, Some((_, export))) => {
                    ctxs.push(router.shard(i).begin_round_imported(seed, &export));
                }
                (None, None) => {
                    // Ruled out above, before the draw.
                    let msg = format!("shard {i} vanished from the settle");
                    return Err(Response::json(500, err_body(&msg)));
                }
            }
        }
        let sales = router.clear_round(&mut ctxs);
        self.maybe_kill(KillPhase::MidSettle, round);
        let report = router.finish_round(ctxs, sales);
        Ok(to_text(&SettleReply {
            rounds: router.rounds_completed(),
            sales: report.sales,
        }))
    }

    /// `GET /internal/digest` — the replica-equivalence probe.
    fn rpc_digest(&self) -> String {
        let router = self.router();
        to_text(&DigestReply {
            digest: router.state_digest(),
            rounds: router.rounds_completed(),
            applied: self.applied.load(Ordering::Relaxed),
        })
    }

    /// `POST /internal/restore {fp, applied, digest, state}` — become a
    /// fresh replica of the coordinator's quiesced state: decode the
    /// image into a brand-new router (same restore path as crash
    /// recovery), require it to reproduce `digest` exactly as recovery
    /// does, and only then swap it in wholesale. A mismatch is a 409
    /// and this worker keeps the state it had. Any pending round is
    /// stale by definition and dropped. The image is decoded straight
    /// from the body bytes into a router image.
    fn rpc_restore(&self, req: &Request) -> Result<String, Response> {
        let RestoreBody {
            fp,
            applied,
            digest,
            state,
        } = decode(req)?;
        self.check_fingerprint(&fp)?;
        let cfg = &self.cfg;
        let fresh =
            ShardRouter::restore_verified(&cfg.market, cfg.shards, state.into_owned(), digest)
                .map_err(|e| Response::json(409, err_body(&format!("not installed: {e}"))))?;
        *self.pending.lock() = None;
        *self.router.lock() = Arc::new(fresh);
        self.applied.store(applied, Ordering::Relaxed);
        Ok(to_text(&RestoreReply { digest, applied }))
    }

    fn health_body(&self) -> String {
        let rounds = self.router().rounds_completed() as f64;
        let applied = self.applied.load(Ordering::Relaxed) as f64;
        Json::obj([
            ("status", Json::str("ok")),
            ("role", Json::str("worker")),
            ("rounds_completed", Json::Num(rounds)),
            ("applied", Json::Num(applied)),
        ])
        .dump()
    }
}

/// An RPC's answer: its text as a 200, or its refusal.
fn reply(result: Result<String, Response>) -> Response {
    result.map_or_else(|refusal| refusal, |text| Response::json(200, text))
}

/// A request's body, decoded straight from its bytes; one that does not
/// decode is a 400.
fn decode<T: Wire>(req: &Request) -> Result<T, Response> {
    from_text(&req.body).map_err(bad_field)
}

/// The 400 for a body that does not decode.
fn bad_field(e: WireError) -> Response {
    Response::json(400, err_body(&e.to_string()))
}

/// Refuse a round RPC's shard list unless it is ascending, unique and
/// in range for `shard_count` shards.
fn check_shard_list(shards: &[usize], shard_count: usize) -> Result<(), Response> {
    let msg = if let Some(i) = shards.iter().find(|&&i| i >= shard_count) {
        format!("shard {i} out of range for {shard_count} shards")
    } else if shards.windows(2).any(|w| matches!(w, [a, b] if a >= b)) {
        format!("shard list {shards:?} is not ascending and unique")
    } else {
        return Ok(());
    };
    Err(Response::json(400, err_body(&msg)))
}

/// Refuse a round `seed` other than the one this replica drew or
/// would draw (`mine`, which `how` names): the two have diverged.
fn check_seed(seed: u64, mine: u64, how: &str) -> Result<(), Response> {
    if seed != mine {
        let msg = format!(
            "round seed {seed} is not the {mine} this replica {how}: \
             coordinator and worker have diverged"
        );
        return Err(Response::json(409, err_body(&msg)));
    }
    Ok(())
}

impl Service for WorkerNode {
    fn handle(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/internal/apply") => reply(self.rpc_apply(req)),
            ("POST", "/internal/candidates") => reply(self.rpc_candidates(req)),
            ("POST", "/internal/settle") => reply(self.rpc_settle(req)),
            ("GET", "/internal/digest") => reply(Ok(self.rpc_digest())),
            ("POST", "/internal/restore") => reply(self.rpc_restore(req)),
            ("GET", "/health") => Response::json(200, self.health_body()),
            ("GET", "/metrics") => Response::text(
                200,
                dmp_telemetry::global().render_prometheus(),
                "text/plain; version=0.0.4",
            ),
            ("GET", "/trace") => Response::json(200, dmp_telemetry::tracer().to_json()),
            ("GET" | "POST", _) => Response::json(404, err_body("unknown route")),
            _ => Response::json(405, err_body("method not allowed")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Command;
    use crate::shard::RouterImage;
    use dmp_mechanism::design::MarketDesign;
    use std::borrow::Cow;

    fn worker_cfg() -> WorkerConfig {
        let market =
            MarketConfig::external(5).with_design(MarketDesign::posted_price_baseline(10.0));
        WorkerConfig::new(market, 2)
    }

    fn post(path: &str, body: String) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    fn alice() -> Command {
        Command::Enroll {
            name: "alice".into(),
            role: "buyer".into(),
        }
    }

    fn apply_body(fp: &str, cmd: &Command) -> String {
        to_text(&ApplyBody {
            fp: fp.into(),
            seq: 1,
            cmd: Cow::Borrowed(cmd),
        })
    }

    #[test]
    fn apply_rpc_mirrors_a_command() {
        let pin = r#"{"fp":"fp","seq":"1","cmd":{"op":"enroll","name":"alice","role":"buyer"}}"#;
        assert_eq!(apply_body("fp", &alice()), pin);
        let worker = WorkerNode::new(worker_cfg());
        let body = apply_body(worker.fingerprint(), &alice());
        let resp = worker.handle(&post("/internal/apply", body));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, r#"{"applied":"1"}"#);
        assert!(worker.router().participant_exists("alice"));
        assert_eq!(
            worker.rpc_digest(),
            r#"{"digest":"7894926015426366143","rounds":"0","applied":"1"}"#
        );
    }

    #[test]
    fn wrong_fingerprint_is_refused() {
        let worker = WorkerNode::new(worker_cfg());
        let body = apply_body("v4 shards=9 seed=9 ...", &alice());
        let resp = worker.handle(&post("/internal/apply", body));
        assert_eq!(resp.status, 409);
        // A body, or a command in it, that does not decode is a 400.
        let honest = apply_body(worker.fingerprint(), &alice());
        for bad in [
            honest.replace(r#""seq":"1""#, r#""seq":1"#),
            honest.replace(r#""op":"enroll""#, r#""op":"nope""#),
        ] {
            let resp = worker.handle(&post("/internal/apply", bad.clone()));
            assert_eq!(resp.status, 400, "{bad}: {}", resp.body);
        }
        assert!(!worker.router().participant_exists("alice"));
    }

    fn candidates_body(fp: &str, round: u64, seed: u64, shards: &[usize]) -> String {
        to_text(&CandidatesBody {
            fp: fp.into(),
            round,
            seed,
            shards: shards.to_vec(),
        })
    }

    #[test]
    fn candidates_refuse_wrong_seed_and_round() {
        let worker = WorkerNode::new(worker_cfg());
        let pin = r#"{"fp":"fp","round":"3","seed":"99","shards":["0","2"]}"#;
        assert_eq!(candidates_body("fp", 3, 99, &[0, 2]), pin);
        let seed = worker.router().predict_round_seed();
        let wrong_seed = candidates_body(worker.fingerprint(), 1, seed.wrapping_add(1), &[0]);
        let resp = worker.handle(&post("/internal/candidates", wrong_seed));
        assert_eq!(resp.status, 409, "{}", resp.body);

        let wrong_round = candidates_body(worker.fingerprint(), 7, seed, &[0]);
        let resp = worker.handle(&post("/internal/candidates", wrong_round));
        assert_eq!(resp.status, 409);
        // Neither refusal advanced the replica.
        assert_eq!(worker.router().predict_round_seed(), seed);
        assert_eq!(worker.router().rounds_completed(), 0);
    }

    /// A router after the commands every replica in these tests has
    /// applied before its first round.
    fn enrolled(router: &ShardRouter) {
        let _ = router.apply(&alice());
        let _ = router.apply(&Command::Deposit {
            account: "alice".into(),
            amount: 50.0,
        });
    }

    /// A fresh replica's round-1 seed and every shard's export: what the
    /// coordinator ships, computed on a third identical replica.
    fn round_one_exports() -> (u64, Vec<CandidatePhaseExport>) {
        let replica = ShardRouter::new(&worker_cfg().market, 2);
        enrolled(&replica);
        let seed = replica.draw_round_seed();
        let exports = replica
            .shards()
            .iter()
            .map(|m| m.begin_round_exported(seed).1)
            .collect();
        (seed, exports)
    }

    /// The state a replica must reach after round 1.
    fn reference_after_round_one() -> u64 {
        let reference = ShardRouter::new(&worker_cfg().market, 2);
        enrolled(&reference);
        reference.run_round();
        reference.state_digest()
    }

    fn candidates(worker: &WorkerNode, seed: u64, shards: &[usize]) -> Response {
        let body = candidates_body(worker.fingerprint(), 1, seed, shards);
        worker.handle(&post("/internal/candidates", body))
    }

    /// A round-1 settle naming `shards` and carrying `exports`, whether
    /// or not the two agree.
    fn settle(
        worker: &WorkerNode,
        seed: u64,
        shards: Vec<usize>,
        exports: &[CandidatePhaseExport],
    ) -> Response {
        let body = SettleBody {
            fp: worker.fingerprint().into(),
            round: 1,
            seed,
            shards,
            exports: exports.iter().map(Cow::Borrowed).collect(),
        };
        worker.handle(&post("/internal/settle", to_text(&body)))
    }

    /// What a refused settle must leave alone.
    fn watermarks(worker: &WorkerNode) -> (u64, u64, u64) {
        let router = worker.router();
        (
            router.predict_round_seed(),
            router.rounds_completed(),
            router.state_digest(),
        )
    }

    #[test]
    fn candidates_then_settle_tracks_a_local_round() {
        // A worker fed the candidate/settle pair must land on exactly
        // the state of a standalone router running the same round.
        let reference = reference_after_round_one();
        let worker = WorkerNode::new(worker_cfg());
        enrolled(&worker.router());
        let seed = worker.router().predict_round_seed();
        let resp = candidates(&worker, seed, &[0]);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let (_, exports) = round_one_exports();
        let reply = codec::decode_candidates_reply(resp.body.as_bytes(), 1, 1).unwrap();
        assert_eq!(
            reply.first(),
            exports.first(),
            "the worker's export is the replica's"
        );

        // The coordinator ships only the shard the worker lacks: shard
        // 0 reuses its stash, shard 1 imports.
        let resp = settle(&worker, seed, vec![1], &exports[1..]);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.body, r#"{"rounds":"1","sales":"0"}"#);
        assert_eq!(worker.router().rounds_completed(), 1);
        assert_eq!(
            worker.router().state_digest(),
            reference,
            "replica diverged from the coordinator after one distributed round"
        );

        // A worker that computed nothing is shipped every shard.
        let bystander = WorkerNode::new(worker_cfg());
        enrolled(&bystander.router());
        let resp = settle(&bystander, seed, vec![0, 1], &exports);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(bystander.router().state_digest(), reference);
    }

    #[test]
    fn candidates_with_a_repeated_or_unsorted_shard_list_is_a_400() {
        // A repeated shard would run its candidate phase twice and fork
        // the replica from the coordinator.
        let (seed, _) = round_one_exports();
        let worker = WorkerNode::new(worker_cfg());
        enrolled(&worker.router());
        let before = watermarks(&worker);
        for shards in [vec![0, 0, 1, 1], vec![1, 0], vec![1, 1], vec![2]] {
            let resp = candidates(&worker, seed, &shards);
            assert_eq!(resp.status, 400, "{shards:?}: {}", resp.body);
            assert_eq!(watermarks(&worker), before, "{shards:?}");
        }
        // Refused before the round and seed checks.
        let body = candidates_body(worker.fingerprint(), 7, seed.wrapping_add(1), &[0, 0]);
        let resp = worker.handle(&post("/internal/candidates", body));
        assert_eq!(resp.status, 400, "{}", resp.body);
        // An honest round afterwards still settles onto the reference.
        let resp = candidates(&worker, seed, &[0, 1]);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let resp = settle(&worker, seed, Vec::new(), &[]);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(worker.router().state_digest(), reference_after_round_one());
    }

    #[test]
    fn settle_missing_a_shard_is_refused_before_the_draw() {
        let (seed, exports) = round_one_exports();
        // Nothing stashed, and shard 0 not shipped.
        let worker = WorkerNode::new(worker_cfg());
        enrolled(&worker.router());
        let before = watermarks(&worker);
        let resp = settle(&worker, seed, vec![1], &exports[1..]);
        assert_eq!(resp.status, 409, "{}", resp.body);
        assert_eq!(watermarks(&worker), before);

        // Shard 0 stashed (its candidate phase moved the shard), shard
        // 1 neither stashed nor shipped: refused, and the stash survives
        // for the settle that does ship it.
        let resp = candidates(&worker, seed, &[0]);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let before = watermarks(&worker);
        let resp = settle(&worker, seed, Vec::new(), &[]);
        assert_eq!(resp.status, 409, "{}", resp.body);
        assert_eq!(watermarks(&worker), before);
        let resp = settle(&worker, seed, vec![1], &exports[1..]);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(worker.router().state_digest(), reference_after_round_one());
    }

    #[test]
    fn settle_with_a_malformed_shard_list_is_a_400() {
        let (seed, exports) = round_one_exports();
        let worker = WorkerNode::new(worker_cfg());
        enrolled(&worker.router());
        let before = watermarks(&worker);
        let one = &exports[..1];
        let both = [exports[0].clone(), exports[0].clone()];
        for (shards, shipped) in [
            (vec![2], one),         // out of range
            (vec![1, 0], &exports), // unsorted
            (vec![1, 1], &both),    // repeated
            (vec![0, 1], one),      // more indices than exports
            (vec![0], &exports),    // more exports than indices
        ] {
            let resp = settle(&worker, seed, shards.clone(), shipped);
            assert_eq!(resp.status, 400, "{shards:?}: {}", resp.body);
            assert_eq!(watermarks(&worker), before, "{shards:?}");
        }
    }

    fn funded_source() -> ShardRouter {
        let source = ShardRouter::new(&worker_cfg().market, 2);
        let _ = source.apply(&Command::Enroll {
            name: "alice".into(),
            role: "seller".into(),
        });
        let _ = source.apply(&Command::Deposit {
            account: "alice".into(),
            amount: 9.5,
        });
        source
    }

    fn restore_body(worker: &WorkerNode, digest: u64, image: &RouterImage) -> String {
        to_text(&RestoreBody {
            fp: worker.fingerprint().into(),
            applied: 2,
            digest,
            state: Cow::Borrowed(image),
        })
    }

    #[test]
    fn restore_provisions_a_fresh_replica() {
        let source = funded_source();
        let image = source.export_state();
        let worker = WorkerNode::new(worker_cfg());
        let body = restore_body(&worker, crate::state::digest(&image), &image);
        let resp = worker.handle(&post("/internal/restore", body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(worker.router().state_digest(), source.state_digest());
        assert_eq!(
            resp.body,
            r#"{"digest":"8688219693043093365","applied":"2"}"#
        );
        assert_eq!(
            resp.body,
            format!(r#"{{"digest":"{}","applied":"2"}}"#, source.state_digest())
        );
    }

    #[test]
    fn restore_refuses_an_image_that_does_not_match_its_digest() {
        // One leaf of the image changes on the way (alice's balance:
        // 9.5 credits in micro-credits); the digest is the honest one.
        let source = funded_source();
        let image = source.export_state();
        let digest = crate::state::digest(&image);
        let worker = WorkerNode::new(worker_cfg());
        let honest = restore_body(&worker, digest, &image);
        assert!(honest.contains("\"9500000\""), "{honest}");
        let tampered = honest.replace("\"9500000\"", "\"9500001\"");
        let _ = worker.router().apply(&Command::Enroll {
            name: "bob".into(),
            role: "buyer".into(),
        });
        let (router_before, digest_before) = (worker.router(), worker.router().state_digest());

        let resp = worker.handle(&post("/internal/restore", tampered));
        assert_eq!(resp.status, 409, "{}", resp.body);
        assert!(
            Arc::ptr_eq(&router_before, &worker.router()),
            "router swapped"
        );
        assert_eq!(worker.router().state_digest(), digest_before);
        assert!(worker.router().participant_exists("bob"));
        // A body without the digest is malformed, not trusted.
        let no_digest = honest.replace(&format!(r#","digest":"{digest}""#), "");
        assert_ne!(no_digest, honest);
        let resp = worker.handle(&post("/internal/restore", no_digest));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(Arc::ptr_eq(&router_before, &worker.router()));
        // Another deployment's image is refused before it is installed.
        let foreign = honest.replace(worker.fingerprint(), "v5 shards=9");
        let resp = worker.handle(&post("/internal/restore", foreign));
        assert_eq!(resp.status, 409, "{}", resp.body);
        assert!(Arc::ptr_eq(&router_before, &worker.router()));
    }
}
