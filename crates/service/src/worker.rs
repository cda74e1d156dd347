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
//! | RPC                      | Body                              | Effect |
//! |--------------------------|-----------------------------------|--------|
//! | `POST /internal/apply`   | `{fp, seq, cmd}`                  | apply one journaled command |
//! | `POST /internal/candidates` | `{fp, round, seed, shards}`    | compute + stash candidate phase, return `{round, exports}` |
//! | `POST /internal/settle`  | `{fp, round, seed, shards, exports}` | re-execute clear + settlement locally from the stash and the shipped `shards`' exports |
//! | `GET /internal/digest`   | —                                 | state digest + round/seq watermarks |
//! | `POST /internal/restore` | `{fp, applied, digest, state}`    | become a fresh replica of the given state, if it restores to `digest` |
//!
//! The candidates reply and the settle body are streamed text
//! ([`codec`]): written without a `Json` tree and decoded straight
//! from the body bytes.
//!
//! Every RPC carries the deployment's config fingerprint and is
//! **refused** on mismatch (wrong fingerprint, wrong round number, a
//! round seed the worker's own RNG lockstep would not draw, or a settle
//! that leaves some shard neither stashed nor shipped): a diverged
//! replica must fail fast and be re-provisioned, never settle a round
//! from the wrong state.

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

use crate::codec::{self, SettleBody};
use crate::command::Command;
use crate::gateway::{err_body, parse_body, Service};
use crate::http::{Request, Response};
use crate::node::config_fingerprint;
use crate::shard::ShardRouter;
use crate::state::{self, field, Wire};
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

    /// The preamble of every `POST /internal/*` RPC: the body, once it
    /// parses and carries this worker's fingerprint. A worker configured
    /// with different shard hashing or RNG seeds would accept commands
    /// and silently diverge — refuse instead.
    fn checked_body(&self, req: &Request) -> Result<Json, Response> {
        let body = parse_body(req)?;
        self.check_fingerprint(&arg(&body, "fp", String::from_json)?)?;
        Ok(body)
    }

    /// Refuse a request carrying another deployment's fingerprint.
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
    fn rpc_apply(&self, req: &Request) -> Result<Json, Response> {
        let body = self.checked_body(req)?;
        let seq = arg(&body, "seq", u64::from_json)?;
        let cmd = arg(&body, "cmd", Command::decode)?;
        let router = self.router();
        // Rejections are part of the deterministic state machine: the
        // coordinator journaled this command whatever its outcome.
        let _ = router.apply(&cmd);
        self.applied.store(seq, Ordering::Relaxed);
        Ok(Json::obj([("applied", seq.json())]))
    }

    /// `POST /internal/candidates {fp, round, seed, shards}` — compute
    /// the candidate phase for the assigned shards under the
    /// coordinator's seed, stash the contexts for the settle broadcast,
    /// and return `{round, exports}`. Refuses a round number or seed
    /// this replica would not produce itself: accepting either would
    /// settle the round from diverged state.
    fn rpc_candidates(&self, req: &Request) -> Result<String, Response> {
        let body = self.checked_body(req)?;
        let (round, seed) = round_and_seed(&body)?;
        let router = self.router();
        let shard_count = router.shard_count();
        let assigned = arg(&body, "shards", <Vec<usize>>::from_json)?;
        if let Some(i) = assigned.iter().find(|&&i| i >= shard_count) {
            let msg = format!("shard {i} out of range for {shard_count} shards");
            return Err(Response::json(400, err_body(&msg)));
        }
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
    fn rpc_settle(&self, req: &Request) -> Result<Json, Response> {
        let body = codec::decode_settle(&req.body).map_err(bad_field)?;
        self.check_fingerprint(&body.fp)?;
        let SettleBody {
            round,
            seed,
            shards,
            exports,
            ..
        } = body;
        let router = self.router();
        let shard_count = router.shard_count();
        check_shard_list(&shards, exports.len(), shard_count)?;
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
        Ok(Json::obj([
            ("rounds", router.rounds_completed().json()),
            ("sales", report.sales.json()),
        ]))
    }

    /// `GET /internal/digest` — the replica-equivalence probe.
    fn rpc_digest(&self) -> Json {
        let router = self.router();
        Json::obj([
            ("digest", router.state_digest().json()),
            ("rounds", router.rounds_completed().json()),
            ("applied", self.applied.load(Ordering::Relaxed).json()),
        ])
    }

    /// `POST /internal/restore {fp, applied, digest, state}` — become a
    /// fresh replica of the coordinator's quiesced state: decode the
    /// image into a brand-new router (same restore path as crash
    /// recovery), require it to reproduce `digest` exactly as recovery
    /// does, and only then swap it in wholesale. A mismatch is a 409
    /// and this worker keeps the state it had. Any pending round is
    /// stale by definition and dropped.
    fn rpc_restore(&self, req: &Request) -> Result<Json, Response> {
        let body = self.checked_body(req)?;
        let applied = arg(&body, "applied", u64::from_json)?;
        let digest = arg(&body, "digest", u64::from_json)?;
        let image = arg(&body, "state", state::decode_document)?;
        let cfg = &self.cfg;
        let fresh = ShardRouter::restore_verified(&cfg.market, cfg.shards, image, digest)
            .map_err(|e| Response::json(409, err_body(&format!("not installed: {e}"))))?;
        *self.pending.lock() = None;
        *self.router.lock() = Arc::new(fresh);
        self.applied.store(applied, Ordering::Relaxed);
        Ok(Json::obj([
            ("digest", digest.json()),
            ("applied", applied.json()),
        ]))
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

/// An RPC's answer: its JSON as a 200, or its refusal.
fn reply(result: Result<Json, Response>) -> Response {
    result.map_or_else(|refusal| refusal, |json| Response::json(200, json.dump()))
}

/// The 400 for a body field that does not decode.
fn bad_field(e: WireError) -> Response {
    Response::json(400, err_body(&e.to_string()))
}

/// Refuse a settle's shard list unless it is ascending, unique, in
/// range for `shard_count` shards and one index per shipped export.
fn check_shard_list(shards: &[usize], exports: usize, shard_count: usize) -> Result<(), Response> {
    let problem = if shards.len() != exports {
        Some(format!(
            "{} shards listed for {exports} exports",
            shards.len()
        ))
    } else if let Some(i) = shards.iter().find(|&&i| i >= shard_count) {
        Some(format!("shard {i} out of range for {shard_count} shards"))
    } else if shards.windows(2).any(|w| matches!(w, [a, b] if a >= b)) {
        Some(format!("shard list {shards:?} is not ascending and unique"))
    } else {
        None
    };
    problem.map_or(Ok(()), |msg| Err(Response::json(400, err_body(&msg))))
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

/// The `round` and `seed` of a round RPC, `round`'s refusal first.
fn round_and_seed(body: &Json) -> Result<(u64, u64), Response> {
    Ok((
        arg(body, "round", u64::from_json)?,
        arg(body, "seed", u64::from_json)?,
    ))
}

/// Decode the body field `key`; a missing or malformed one is a 400.
fn arg<T>(
    body: &Json,
    key: &str,
    dec: impl FnOnce(&Json) -> Result<T, WireError>,
) -> Result<T, Response> {
    field(body, key).and_then(dec).map_err(bad_field)
}

impl Service for WorkerNode {
    fn handle(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/internal/apply") => reply(self.rpc_apply(req)),
            ("POST", "/internal/candidates") => self
                .rpc_candidates(req)
                .map_or_else(|refusal| refusal, |text| Response::json(200, text)),
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
    use crate::state::StateImage;
    use dmp_mechanism::design::MarketDesign;

    fn worker_cfg() -> WorkerConfig {
        let market =
            MarketConfig::external(5).with_design(MarketDesign::posted_price_baseline(10.0));
        WorkerConfig::new(market, 2)
    }

    fn post(path: &str, body: Json) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.dump().into_bytes(),
        }
    }

    fn parse(resp: &Response) -> Json {
        Json::parse(&resp.body).expect("json body")
    }

    #[test]
    fn apply_rpc_mirrors_a_command() {
        let worker = WorkerNode::new(worker_cfg());
        let cmd = Command::Enroll {
            name: "alice".into(),
            role: "buyer".into(),
        };
        let body = Json::obj([
            ("fp", Json::str(worker.fingerprint())),
            ("seq", 1u64.json()),
            ("cmd", cmd.encode()),
        ]);
        let resp = worker.handle(&post("/internal/apply", body));
        assert_eq!(resp.status, 200);
        assert!(worker.router().participant_exists("alice"));
    }

    #[test]
    fn wrong_fingerprint_is_refused() {
        let worker = WorkerNode::new(worker_cfg());
        let body = Json::obj([
            ("fp", Json::str("v4 shards=9 seed=9 ...")),
            ("seq", 1u64.json()),
            (
                "cmd",
                Command::Enroll {
                    name: "alice".into(),
                    role: "buyer".into(),
                }
                .encode(),
            ),
        ]);
        let resp = worker.handle(&post("/internal/apply", body));
        assert_eq!(resp.status, 409);
        assert!(!worker.router().participant_exists("alice"));
    }

    #[test]
    fn candidates_refuse_wrong_seed_and_round() {
        let worker = WorkerNode::new(worker_cfg());
        let seed = worker.router().predict_round_seed();
        let wrong_seed = Json::obj([
            ("fp", Json::str(worker.fingerprint())),
            ("round", 1u64.json()),
            ("seed", seed.wrapping_add(1).json()),
            ("shards", Json::Arr(vec![0usize.json()])),
        ]);
        let resp = worker.handle(&post("/internal/candidates", wrong_seed));
        assert_eq!(resp.status, 409, "{}", resp.body);

        let wrong_round = Json::obj([
            ("fp", Json::str(worker.fingerprint())),
            ("round", 7u64.json()),
            ("seed", seed.json()),
            ("shards", Json::Arr(vec![0usize.json()])),
        ]);
        let resp = worker.handle(&post("/internal/candidates", wrong_round));
        assert_eq!(resp.status, 409);
        // Neither refusal advanced the replica.
        assert_eq!(worker.router().predict_round_seed(), seed);
        assert_eq!(worker.router().rounds_completed(), 0);
    }

    /// A router after the commands every replica in these tests has
    /// applied before its first round.
    fn enrolled(router: &ShardRouter) {
        let _ = router.apply(&Command::Enroll {
            name: "alice".into(),
            role: "buyer".into(),
        });
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

    fn candidates(worker: &WorkerNode, seed: u64, shards: &[usize]) -> Response {
        let body = Json::obj([
            ("fp", Json::str(worker.fingerprint())),
            ("round", 1u64.json()),
            ("seed", seed.json()),
            ("shards", shards.to_vec().json()),
        ]);
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
            exports: exports.iter().map(std::borrow::Cow::Borrowed).collect(),
        };
        worker.handle(&post("/internal/settle", body.json()))
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
        let reference = ShardRouter::new(&worker_cfg().market, 2);
        enrolled(&reference);
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

        // The coordinator's authoritative run (local compute).
        reference.run_round();

        // The coordinator ships only the shard the worker lacks: shard
        // 0 reuses its stash, shard 1 imports.
        let resp = settle(&worker, seed, vec![1], &exports[1..]);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(worker.router().rounds_completed(), 1);
        assert_eq!(
            worker.router().state_digest(),
            reference.state_digest(),
            "replica diverged from the coordinator after one distributed round"
        );

        // A worker that computed nothing is shipped every shard.
        let bystander = WorkerNode::new(worker_cfg());
        enrolled(&bystander.router());
        let resp = settle(&bystander, seed, vec![0, 1], &exports);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(bystander.router().state_digest(), reference.state_digest());
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
        let reference = ShardRouter::new(&worker_cfg().market, 2);
        enrolled(&reference);
        reference.run_round();
        assert_eq!(worker.router().state_digest(), reference.state_digest());
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

    fn restore_body(worker: &WorkerNode, digest: u64, image: StateImage) -> Json {
        Json::obj([
            ("fp", Json::str(worker.fingerprint())),
            ("applied", 2u64.json()),
            ("digest", digest.json()),
            ("state", image.into_json()),
        ])
    }

    #[test]
    fn restore_provisions_a_fresh_replica() {
        let source = funded_source();
        let image = state::encode(&source.export_state());
        let worker = WorkerNode::new(worker_cfg());
        let body = restore_body(&worker, image.digest(), image);
        let resp = worker.handle(&post("/internal/restore", body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(worker.router().state_digest(), source.state_digest());
        let digest = parse(&resp);
        assert_eq!(
            digest.req_str("digest").ok(),
            Some(source.state_digest().to_string())
        );
    }

    #[test]
    fn restore_refuses_an_image_that_does_not_match_its_digest() {
        // One leaf of the image changes on the way (alice's balance:
        // 9.5 credits in micro-credits); the digest is the honest one.
        let source = funded_source();
        let honest = state::encode(&source.export_state());
        let digest = honest.digest();
        let text = honest.substrate.dump();
        assert!(text.contains("\"9500000\""), "{text}");
        let tampered = StateImage {
            substrate: Json::parse(&text.replace("\"9500000\"", "\"9500001\"")).unwrap(),
            ..honest
        };
        let worker = WorkerNode::new(worker_cfg());
        let _ = worker.router().apply(&Command::Enroll {
            name: "bob".into(),
            role: "buyer".into(),
        });
        let (router_before, digest_before) = (worker.router(), worker.router().state_digest());

        let resp = worker.handle(&post(
            "/internal/restore",
            restore_body(&worker, digest, tampered),
        ));
        assert_eq!(resp.status, 409, "{}", resp.body);
        assert!(
            Arc::ptr_eq(&router_before, &worker.router()),
            "router swapped"
        );
        assert_eq!(worker.router().state_digest(), digest_before);
        assert!(worker.router().participant_exists("bob"));
        // A body without the digest is malformed, not trusted.
        let mut no_digest = restore_body(&worker, digest, state::encode(&source.export_state()));
        if let Json::Obj(pairs) = &mut no_digest {
            pairs.retain(|(k, _)| k != "digest");
        }
        let resp = worker.handle(&post("/internal/restore", no_digest));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(Arc::ptr_eq(&router_before, &worker.router()));
    }
}
