//! The shard-worker side of the distributed exchange: a disposable,
//! in-memory **full replica** of the coordinator's market behind the
//! same evented gateway, serving the internal RPC surface.
//!
//! A worker holds all M shards (one [`ShardRouter`] over one shared
//! substrate) built from the same config flags as the coordinator, and
//! stays bit-identical to it by consuming the coordinator's journal
//! order: every non-round mutation arrives as `/internal/apply`, and
//! every round arrives as the `candidates` / `settle` RPC pair — the
//! worker computes the candidate phase for its *assigned* shards,
//! then re-executes clearing + settlement locally for **all** shards
//! once the coordinator broadcasts the full export set. Nothing here
//! is durable: a dead worker is replaced by provisioning a fresh one
//! from the coordinator's quiesced state (`/internal/restore`).
//!
//! | RPC                      | Body                              | Effect |
//! |--------------------------|-----------------------------------|--------|
//! | `POST /internal/apply`   | `{fp, seq, cmd}`                  | apply one journaled command |
//! | `POST /internal/candidates` | `{fp, round, seed, shards}`    | compute + stash candidate phase, return exports |
//! | `POST /internal/settle`  | `{fp, round, seed, exports}`      | re-execute clear + settlement locally |
//! | `GET /internal/digest`   | —                                 | state digest + round/seq watermarks |
//! | `POST /internal/restore` | `{fp, applied, digest, state}`    | become a fresh replica of the given state, if it restores to `digest` |
//!
//! Every RPC carries the deployment's config fingerprint and is
//! **refused** on mismatch (wrong fingerprint, wrong round number, or
//! a round seed the worker's own RNG lockstep would not draw): a
//! diverged replica must fail fast and be re-provisioned, never settle
//! a round from the wrong state.

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

use crate::codec;
use crate::command::Command;
use crate::error::ServiceError;
use crate::gateway::{err_body, parse_body, Service};
use crate::http::{Request, Response};
use crate::node::config_fingerprint;
use crate::shard::ShardRouter;
use crate::state::{field, StateImage, Wire};
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
/// puts it behind the same reactor + apply pool as the coordinator.
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

    /// Fingerprint gate shared by every RPC: a worker configured with
    /// different shard hashing or RNG seeds would accept commands and
    /// silently diverge — refuse instead.
    fn check_fp(&self, body: &Json) -> Result<(), Response> {
        let fp = field(body, "fp")
            .and_then(String::dec)
            .map_err(|e| Response::json(400, err_body(&e.to_string())))?;
        if fp != self.fingerprint {
            return Err(Response::json(
                409,
                err_body(&format!(
                    "config fingerprint mismatch: worker is '{}', request is '{fp}'",
                    self.fingerprint
                )),
            ));
        }
        Ok(())
    }

    /// `POST /internal/apply {fp, seq, cmd}` — one journaled command,
    /// in journal order (the coordinator forwards from inside its
    /// apply critical section over one connection, so FIFO per worker
    /// is journal order). Rejected commands are applied for their side
    /// effects exactly like journal replay (`router.apply` is total).
    fn rpc_apply(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        if let Err(resp) = self.check_fp(&body) {
            return resp;
        }
        let (seq, cmd) = match (
            field(&body, "seq").and_then(u64::dec),
            field(&body, "cmd").and_then(Command::decode),
        ) {
            (Ok(seq), Ok(cmd)) => (seq, cmd),
            (Err(e), _) | (_, Err(e)) => return Response::json(400, err_body(&e.to_string())),
        };
        let router = self.router();
        // Rejections are part of the deterministic state machine: the
        // coordinator journaled this command whatever its outcome.
        let _ = router.apply(&cmd);
        self.applied.store(seq, Ordering::Relaxed);
        Response::json(200, Json::obj([("applied", seq.enc())]).dump())
    }

    /// `POST /internal/candidates {fp, round, seed, shards}` — compute
    /// the candidate phase for the assigned shards under the
    /// coordinator's seed, stash the contexts for the settle broadcast,
    /// and return the exports. Refuses a round number or seed this
    /// replica would not produce itself: accepting either would settle
    /// the round from diverged state.
    fn rpc_candidates(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        if let Err(resp) = self.check_fp(&body) {
            return resp;
        }
        let (round, seed) = match (
            field(&body, "round").and_then(u64::dec),
            field(&body, "seed").and_then(u64::dec),
        ) {
            (Ok(r), Ok(s)) => (r, s),
            (Err(e), _) | (_, Err(e)) => return Response::json(400, err_body(&e.to_string())),
        };
        let router = self.router();
        let shard_count = router.shard_count();
        let assigned = match field(&body, "shards").and_then(<Vec<usize>>::dec) {
            Ok(assigned) => assigned,
            Err(e) => return Response::json(400, err_body(&e.to_string())),
        };
        if let Some(i) = assigned.iter().find(|&&i| i >= shard_count) {
            return Response::json(
                400,
                err_body(&format!("shard {i} out of range for {shard_count} shards")),
            );
        }
        self.maybe_kill(KillPhase::PreCandidate, round);
        let expected_round = router.rounds_completed() + 1;
        if round != expected_round {
            return Response::json(
                409,
                err_body(&format!(
                    "worker expects round {expected_round}, refusing round {round}"
                )),
            );
        }
        let predicted = router.predict_round_seed();
        if seed != predicted {
            return Response::json(
                409,
                err_body(&format!(
                    "round seed {seed} is not the {predicted} this replica would draw: \
                     coordinator and worker have diverged"
                )),
            );
        }

        let mut pending = self.pending.lock();
        match pending.as_ref() {
            Some(p) if p.round == round && p.seed == seed => {}
            _ => {
                *pending = Some(PendingRound {
                    round,
                    seed,
                    slots: (0..shard_count).map(|_| None).collect(),
                });
            }
        }
        let Some(pending) = pending.as_mut() else {
            return Response::json(500, err_body("pending round vanished"));
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
        let mut reply = Vec::with_capacity(assigned.len());
        for i in assigned {
            match pending.slots.get(i) {
                Some(Some((_, export))) => reply.push((i, export.clone())),
                _ => return Response::json(500, err_body(&format!("shard {i} did not compute"))),
            }
        }
        Response::json(
            200,
            Json::obj([
                ("round", round.enc()),
                ("exports", codec::encode_indexed_exports(&reply)),
            ])
            .dump(),
        )
    }

    /// `POST /internal/settle {fp, round, seed, exports}` — the round
    /// cleared and settled on the coordinator; re-execute it here from
    /// the full export set. Shards this worker computed reuse their
    /// stashed contexts; the rest import their export (local expiry +
    /// audit replay). Clearing and settlement are then the same code
    /// path the coordinator ran, so the replica lands bit-identical.
    fn rpc_settle(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        if let Err(resp) = self.check_fp(&body) {
            return resp;
        }
        let (round, seed) = match (
            field(&body, "round").and_then(u64::dec),
            field(&body, "seed").and_then(u64::dec),
        ) {
            (Ok(r), Ok(s)) => (r, s),
            (Err(e), _) | (_, Err(e)) => return Response::json(400, err_body(&e.to_string())),
        };
        let router = self.router();
        let shard_count = router.shard_count();
        let exports =
            match field(&body, "exports").and_then(|j| codec::decode_exports(j, shard_count)) {
                Ok(exports) => exports,
                Err(e) => return Response::json(400, err_body(&e.to_string())),
            };
        self.maybe_kill(KillPhase::PreSettle, round);
        let expected_round = router.rounds_completed() + 1;
        if round != expected_round {
            return Response::json(
                409,
                err_body(&format!(
                    "worker expects round {expected_round}, refusing round {round}"
                )),
            );
        }
        // RNG lockstep: drawing (not predicting) advances this
        // replica's coordinator stream exactly as the coordinator's
        // own draw did. A mismatch means divergence — and the draw is
        // the last mutation before the check, so a refused settle
        // leaves the replica re-provisionable, not half-settled.
        let drawn = router.draw_round_seed();
        if drawn != seed {
            return Response::json(
                409,
                err_body(&format!(
                    "round seed {seed} is not the {drawn} this replica drew: \
                     coordinator and worker have diverged"
                )),
            );
        }
        let stash = {
            let mut pending = self.pending.lock();
            match pending.take() {
                Some(p) if p.round == round && p.seed == seed => Some(p),
                _ => None,
            }
        };
        let mut slots = match stash {
            Some(p) => p.slots,
            None => (0..shard_count).map(|_| None).collect(),
        };
        let mut ctxs = Vec::with_capacity(shard_count);
        for (i, export) in exports.iter().enumerate() {
            match slots.get_mut(i).and_then(Option::take) {
                Some((ctx, _)) => ctxs.push(ctx),
                None => ctxs.push(router.shard(i).begin_round_imported(seed, export)),
            }
        }
        let sales = router.clear_round(&mut ctxs);
        self.maybe_kill(KillPhase::MidSettle, round);
        let report = router.finish_round(ctxs, sales);
        Response::json(
            200,
            Json::obj([
                ("rounds", router.rounds_completed().enc()),
                ("sales", report.sales.enc()),
            ])
            .dump(),
        )
    }

    /// `GET /internal/digest` — the replica-equivalence probe.
    fn rpc_digest(&self) -> Response {
        let router = self.router();
        Response::json(
            200,
            Json::obj([
                ("digest", router.state_digest().enc()),
                ("rounds", router.rounds_completed().enc()),
                ("applied", self.applied.load(Ordering::Relaxed).enc()),
            ])
            .dump(),
        )
    }

    /// `POST /internal/restore {fp, applied, digest, state}` — become a
    /// fresh replica of the coordinator's quiesced state: decode the
    /// image into a brand-new router (same restore path as crash
    /// recovery), require it to reproduce `digest` exactly as recovery
    /// does, and only then swap it in wholesale. A mismatch is a 409
    /// and this worker keeps the state it had. Any pending round is
    /// stale by definition and dropped.
    fn rpc_restore(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        };
        if let Err(resp) = self.check_fp(&body) {
            return resp;
        }
        let parts = || -> Result<_, WireError> {
            Ok((
                field(&body, "applied").and_then(u64::dec)?,
                field(&body, "digest").and_then(u64::dec)?,
                field(&body, "state").and_then(StateImage::from_json)?,
            ))
        };
        let (applied, digest, image) = match parts() {
            Ok(parts) => parts,
            Err(e) => return Response::json(400, err_body(&e.to_string())),
        };
        let cfg = &self.cfg;
        let fresh = match ShardRouter::restore_verified(&cfg.market, cfg.shards, &image, digest) {
            Ok(fresh) => fresh,
            Err(ServiceError::Wire(e)) => return Response::json(400, err_body(&e.to_string())),
            Err(e) => return Response::json(409, err_body(&format!("not installed: {e}"))),
        };
        *self.pending.lock() = None;
        *self.router.lock() = Arc::new(fresh);
        self.applied.store(applied, Ordering::Relaxed);
        Response::json(
            200,
            Json::obj([("digest", digest.enc()), ("applied", applied.enc())]).dump(),
        )
    }

    fn health_body(&self) -> String {
        let router = self.router();
        Json::obj([
            ("status", Json::str("ok")),
            ("role", Json::str("worker")),
            (
                "rounds_completed",
                Json::Num(router.rounds_completed() as f64),
            ),
            (
                "applied",
                Json::Num(self.applied.load(Ordering::Relaxed) as f64),
            ),
        ])
        .dump()
    }
}

impl Service for WorkerNode {
    fn handle(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/internal/apply") => self.rpc_apply(req),
            ("POST", "/internal/candidates") => self.rpc_candidates(req),
            ("POST", "/internal/settle") => self.rpc_settle(req),
            ("GET", "/internal/digest") => self.rpc_digest(),
            ("POST", "/internal/restore") => self.rpc_restore(req),
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

    fn handle_inline(&self, req: &Request) -> Option<Response> {
        // Same inline contract as the coordinator surface: /metrics
        // and /trace touch only telemetry-internal locks; /health
        // clones the router handle (a momentary uncontended lock — the
        // long-running round work happens on a cloned Arc, never under
        // it) and reads atomics.
        if req.method == "GET" && matches!(req.path.as_str(), "/health" | "/metrics" | "/trace") {
            return Some(self.handle(req));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state;
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
            ("seq", 1u64.enc()),
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
            ("seq", 1u64.enc()),
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
            ("round", 1u64.enc()),
            ("seed", seed.wrapping_add(1).enc()),
            ("shards", Json::Arr(vec![0usize.enc()])),
        ]);
        let resp = worker.handle(&post("/internal/candidates", wrong_seed));
        assert_eq!(resp.status, 409, "{}", resp.body);

        let wrong_round = Json::obj([
            ("fp", Json::str(worker.fingerprint())),
            ("round", 7u64.enc()),
            ("seed", seed.enc()),
            ("shards", Json::Arr(vec![0usize.enc()])),
        ]);
        let resp = worker.handle(&post("/internal/candidates", wrong_round));
        assert_eq!(resp.status, 409);
        // Neither refusal advanced the replica.
        assert_eq!(worker.router().predict_round_seed(), seed);
        assert_eq!(worker.router().rounds_completed(), 0);
    }

    #[test]
    fn candidates_then_settle_tracks_a_local_round() {
        // A worker fed the candidate/settle pair must land on exactly
        // the state of a standalone router running the same round.
        let reference = ShardRouter::new(&worker_cfg().market, 2);
        let worker = WorkerNode::new(worker_cfg());
        for router in [&reference, worker.router().as_ref()] {
            let _ = router.apply(&Command::Enroll {
                name: "alice".into(),
                role: "buyer".into(),
            });
            let _ = router.apply(&Command::Deposit {
                account: "alice".into(),
                amount: 50.0,
            });
        }
        let seed = worker.router().predict_round_seed();
        let candidates = Json::obj([
            ("fp", Json::str(worker.fingerprint())),
            ("round", 1u64.enc()),
            ("seed", seed.enc()),
            ("shards", Json::Arr(vec![0usize.enc()])),
        ]);
        let resp = worker.handle(&post("/internal/candidates", candidates));
        assert_eq!(resp.status, 200, "{}", resp.body);

        // The coordinator's authoritative run (local compute).
        reference.run_round();

        // Broadcast the full export set back; worker shard 0 reuses
        // its stash, shard 1 imports.
        let drawn = reference.state_digest(); // pin before worker settles
        let exports: Vec<_> = {
            // Reconstruct what the coordinator shipped: recompute the
            // same round on a third identical replica.
            let replica = ShardRouter::new(&worker_cfg().market, 2);
            let _ = replica.apply(&Command::Enroll {
                name: "alice".into(),
                role: "buyer".into(),
            });
            let _ = replica.apply(&Command::Deposit {
                account: "alice".into(),
                amount: 50.0,
            });
            let replica_seed = replica.draw_round_seed();
            assert_eq!(replica_seed, seed);
            replica
                .shards()
                .iter()
                .map(|m| m.begin_round_exported(replica_seed).1)
                .collect()
        };
        let settle = Json::obj([
            ("fp", Json::str(worker.fingerprint())),
            ("round", 1u64.enc()),
            ("seed", seed.enc()),
            ("exports", codec::encode_exports(&exports)),
        ]);
        let resp = worker.handle(&post("/internal/settle", settle));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(worker.router().rounds_completed(), 1);
        assert_eq!(
            worker.router().state_digest(),
            drawn,
            "replica diverged from the coordinator after one distributed round"
        );
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
            ("applied", 2u64.enc()),
            ("digest", digest.enc()),
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
