//! The coordinator side of the distributed exchange: a [`WorkerPool`]
//! that farms the candidate phase of every round out to shard-worker
//! processes over the internal RPC surface, keeps the workers
//! bit-exact replicas by forwarding the journaled command stream, and
//! **re-dispatches** a dead worker's shards to the live ones mid-round.
//!
//! The coordinator stays authoritative for everything that matters:
//! it owns the journal (durability), the global clearing pass, and
//! settlement ordering. Workers are disposable accelerators — when
//! every worker is dead, [`RoundDistributor::candidates`] returns
//! `None` and the round computes locally, so worker availability is a
//! throughput concern, never a correctness one.
//!
//! Wiring (see `examples/` and the e2e tests):
//!
//! ```no_run
//! use std::sync::Arc;
//! use dmp_core::market::MarketConfig;
//! use dmp_service::coordinator::WorkerPool;
//! use dmp_service::node::{ServiceConfig, ServiceNode};
//!
//! let node = Arc::new(ServiceNode::open(ServiceConfig::new("./data", MarketConfig::external(7))).unwrap());
//! let pool = Arc::new(WorkerPool::connect(node.fingerprint(), node.config().shards, &[
//!     "127.0.0.1:9001".parse().unwrap(),
//! ]).unwrap());
//! pool.provision_all(&node);        // ship the current state to every worker
//! WorkerPool::attach(&pool, &node); // follow the journal + distribute rounds
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dmp_core::arbiter::pipeline::CandidatePhaseExport;
use dmp_telemetry::log;
use parking_lot::Mutex;

use crate::client::Client;
use crate::codec;
use crate::command::Command;
use crate::metrics::metrics;
use crate::node::{CommandFollower, ServiceNode};
use crate::shard::RoundDistributor;
use crate::state::{self, field, Wire};
use crate::wire::Json;

/// One remote worker: a keep-alive client plus a liveness flag. A
/// worker that fails an RPC (connection error, protocol refusal) is
/// taken out of rotation until [`WorkerPool::provision`] revives it —
/// a refusal means the replica diverged, and a diverged replica must
/// not compute candidate phases.
struct RemoteWorker {
    addr: SocketAddr,
    client: Mutex<Client>,
    alive: AtomicBool,
}

/// Client pool over N shard workers, implementing both coordinator
/// hooks: [`CommandFollower`] (forward the journaled command stream)
/// and [`RoundDistributor`] (farm out candidate phases, broadcast
/// settlement).
pub struct WorkerPool {
    fingerprint: String,
    shards: usize,
    workers: Vec<RemoteWorker>,
}

impl WorkerPool {
    /// Connect to every worker address. Workers must already be
    /// listening; they may still be at genesis state (run
    /// [`WorkerPool::provision_all`] before attaching).
    pub fn connect(
        fingerprint: String,
        shards: usize,
        addrs: &[SocketAddr],
    ) -> std::io::Result<WorkerPool> {
        let mut workers = Vec::with_capacity(addrs.len());
        for &addr in addrs {
            workers.push(RemoteWorker {
                addr,
                client: Mutex::new(Client::connect(addr)?),
                alive: AtomicBool::new(true),
            });
        }
        Ok(WorkerPool {
            fingerprint,
            shards,
            workers,
        })
    }

    /// Install the pool as `node`'s journal follower and round
    /// distributor. Call only on an already-recovered node: replay
    /// must neither forward nor distribute.
    pub fn attach(pool: &Arc<WorkerPool>, node: &ServiceNode) {
        node.set_follower(Arc::clone(pool) as Arc<dyn CommandFollower>);
        node.router()
            .set_distributor(Arc::clone(pool) as Arc<dyn RoundDistributor>);
    }

    /// Workers currently in rotation.
    pub fn live_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.alive.load(Ordering::Relaxed))
            .count()
    }

    /// One RPC to one worker. `None` = the worker failed (see
    /// [`WorkerPool::book_reply`]) or was already out of rotation.
    fn rpc(&self, idx: usize, rpc: &str, path: &str, body: &Json) -> Option<Json> {
        self.fan_out(&[(idx, &body.dump())], rpc, path)
            .pop()
            .and_then(|(_, reply)| reply)
    }

    /// Book one RPC's result: time it into the per-RPC latency series;
    /// any failure — transport error, protocol refusal — takes the
    /// worker out of rotation and yields `None`; the caller decides
    /// whether the work re-dispatches.
    fn book_reply(
        &self,
        worker: &RemoteWorker,
        rpc: &str,
        path: &str,
        started: Instant,
        result: std::io::Result<(u16, Json)>,
    ) -> Option<Json> {
        let m = metrics();
        m.worker_rpc_us(rpc).record_duration_us(started.elapsed());
        match result {
            Ok((200, json)) => Some(json),
            Ok((status, json)) => {
                m.worker_rpc_failures.inc();
                worker.alive.store(false, Ordering::Relaxed);
                log!(
                    Warn,
                    "worker {} refused {path} with {status}: {} — out of rotation",
                    worker.addr,
                    json.dump()
                );
                None
            }
            Err(e) => {
                m.worker_rpc_failures.inc();
                worker.alive.store(false, Ordering::Relaxed);
                log!(
                    Warn,
                    "worker {} failed {path}: {e} — out of rotation",
                    worker.addr
                );
                None
            }
        }
    }

    /// Ship `node`'s current state to worker `idx` (`/internal/restore`)
    /// under a quiesced apply path, reviving it into rotation on
    /// success. This is the journal-backed re-dispatch path for a
    /// *replacement* worker: restore to the coordinator's consistent
    /// cut, then follow the live command stream from there.
    pub fn provision(&self, node: &ServiceNode, idx: usize) -> bool {
        let Some(worker) = self.workers.get(idx) else {
            return false;
        };
        let (image, applied) =
            node.quiesced(|router, applied| (state::encode(&router.export_state()), applied));
        // The worker installs the image only if it restores to this
        // digest: state crosses a process boundary here.
        let body = Json::obj([
            ("fp", Json::str(self.fingerprint.clone())),
            ("applied", applied.enc()),
            ("digest", image.digest().enc()),
            ("state", image.into_json()),
        ]);
        // Mark alive first so `rpc` will talk to a currently-dead
        // worker; a failure flips it right back.
        worker.alive.store(true, Ordering::Relaxed);
        let revived = self
            .rpc(idx, "restore", "/internal/restore", &body)
            .is_some();
        if revived {
            log!(Info, "worker {} provisioned at seq {applied}", worker.addr);
        }
        revived
    }

    /// Provision every worker; returns how many are in rotation after.
    pub fn provision_all(&self, node: &ServiceNode) -> usize {
        (0..self.workers.len())
            .filter(|&idx| self.provision(node, idx))
            .count()
    }

    /// Fan `POST path` out to a set of workers, pairing each worker
    /// index with its reply (`None` = that worker failed or is out of
    /// rotation): write every request, then read every reply. The
    /// workers compute at the same time — the entire point of
    /// distributing the candidate phase — while this thread waits on
    /// the first reply; no thread is spawned, so an RPC costs what the
    /// sockets and the workers cost and not what the scheduler makes
    /// of a spawn and a join per worker. Targets are in ascending
    /// worker order, which is also the order their clients lock in.
    fn fan_out(
        &self,
        targets: &[(usize, &str)],
        rpc: &str,
        path: &str,
    ) -> Vec<(usize, Option<Json>)> {
        // Wall-clock is fine here: RPC latency telemetry, never applied state.
        let started = Instant::now();
        let mut in_flight = Vec::with_capacity(targets.len());
        for (idx, body_text) in targets {
            let live = self
                .workers
                .get(*idx)
                .filter(|w| w.alive.load(Ordering::Relaxed));
            in_flight.push(live.map(|worker| {
                let mut client = worker.client.lock();
                client.send("POST", path, body_text);
                (worker, client)
            }));
        }
        targets
            .iter()
            .zip(in_flight)
            .map(|((idx, _), sent)| {
                let reply = sent.and_then(|(worker, mut client)| {
                    self.book_reply(worker, rpc, path, started, client.receive())
                });
                (*idx, reply)
            })
            .collect()
    }

    /// [`WorkerPool::fan_out`] of one body to every live worker.
    fn broadcast(&self, body: &Json, rpc: &str, path: &str) {
        let body_text = body.dump();
        let targets: Vec<(usize, &str)> = self
            .live_indices()
            .into_iter()
            .map(|i| (i, body_text.as_str()))
            .collect();
        self.fan_out(&targets, rpc, path);
    }

    /// Indices of workers currently in rotation.
    fn live_indices(&self) -> Vec<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.alive.load(Ordering::Relaxed))
            .map(|(i, _)| i)
            .collect()
    }
}

impl CommandFollower for WorkerPool {
    /// Forward one journaled command to every live worker. Runs inside
    /// the coordinator's apply critical section, so deliveries across
    /// workers happen in journal order; per worker, the keep-alive
    /// connection's FIFO preserves it on the wire. `RunRound` is *not*
    /// forwarded — rounds reach workers through the candidates/settle
    /// RPC pair that executes inside `router.apply` itself.
    fn on_applied(&self, seq: u64, cmd: &Command) {
        if matches!(cmd, Command::RunRound { .. }) {
            return;
        }
        let body = Json::obj([
            ("fp", Json::str(self.fingerprint.clone())),
            ("seq", seq.enc()),
            ("cmd", cmd.encode()),
        ]);
        self.broadcast(&body, "apply", "/internal/apply");
    }
}

impl RoundDistributor for WorkerPool {
    /// Farm the candidate phase out: assign shards round-robin over
    /// the live workers, collect exports, and re-dispatch any failed
    /// worker's shards to the survivors. Returns `None` only when no
    /// worker is left — the round then computes locally and the
    /// deployment degrades to a single process instead of stalling.
    fn candidates(
        &self,
        round: u64,
        round_seed: u64,
        shards: usize,
    ) -> Option<Vec<CandidatePhaseExport>> {
        if shards != self.shards {
            return None; // mis-wired pool: fall back to local compute
        }
        let mut collected: Vec<Option<CandidatePhaseExport>> = (0..shards).map(|_| None).collect();
        let mut todo: Vec<usize> = (0..shards).collect();
        let mut dispatched_before = false;
        while !todo.is_empty() {
            let live = self.live_indices();
            if live.is_empty() {
                log!(
                    Warn,
                    "round {round}: every worker is dead; computing candidates locally"
                );
                return None;
            }
            if dispatched_before {
                // These shards already went to a worker that died:
                // this pass is a re-dispatch.
                metrics().worker_redispatch.add(todo.len() as u64);
                log!(
                    Info,
                    "round {round}: re-dispatching {} shard(s) across {} live worker(s)",
                    todo.len(),
                    live.len()
                );
            }
            dispatched_before = true;
            // Round-robin the outstanding shards over the live workers.
            let mut assignment: Vec<(usize, Vec<usize>)> =
                live.iter().map(|&w| (w, Vec::new())).collect();
            for (k, &shard) in todo.iter().enumerate() {
                if let Some((_, list)) = assignment.get_mut(k % live.len()) {
                    list.push(shard);
                }
            }
            let bodies: Vec<(usize, String)> = assignment
                .into_iter()
                .filter(|(_, list)| !list.is_empty())
                .map(|(w, list)| {
                    let body = Json::obj([
                        ("fp", Json::str(self.fingerprint.clone())),
                        ("round", round.enc()),
                        ("seed", round_seed.enc()),
                        ("shards", list.enc()),
                    ]);
                    (w, body.dump())
                })
                .collect();
            let targets: Vec<(usize, &str)> =
                bodies.iter().map(|(w, text)| (*w, text.as_str())).collect();
            for (_, reply) in self.fan_out(&targets, "candidates", "/internal/candidates") {
                let Some(reply) = reply else { continue };
                let pairs = match field(&reply, "exports")
                    .and_then(|j| codec::decode_indexed_exports(j, shards))
                {
                    Ok(pairs) => pairs,
                    Err(e) => {
                        log!(Warn, "round {round}: undecodable candidate reply: {e}");
                        continue;
                    }
                };
                for (shard, export) in pairs {
                    if let Some(slot) = collected.get_mut(shard) {
                        *slot = Some(export);
                    }
                }
            }
            todo = collected
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.is_none())
                .map(|(i, _)| i)
                .collect();
        }
        collected.into_iter().collect()
    }

    /// Broadcast the settled round's full export set so every live
    /// worker re-executes clearing + settlement and stays a replica. A
    /// worker that fails here leaves rotation; its shards re-dispatch
    /// next round.
    fn round_complete(&self, round: u64, round_seed: u64, exports: &[CandidatePhaseExport]) {
        let body = Json::obj([
            ("fp", Json::str(self.fingerprint.clone())),
            ("round", round.enc()),
            ("seed", round_seed.enc()),
            ("exports", codec::encode_exports(exports)),
        ]);
        self.broadcast(&body, "settle", "/internal/settle");
    }
}
