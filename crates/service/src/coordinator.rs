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
//! The replica stream is **posted**: `/internal/apply` (each journaled
//! command) and `/internal/settle` (each distributed round) are
//! written and not waited on. Each worker's connection keeps the queue
//! of replies it owes, oldest first, and they are read — status and
//! the seq or round each ack names — before that worker's next
//! `candidates` reply or `restore`, when the queue reaches a fixed
//! bound (`OWED_BOUND`), before any write once the oldest is
//! `OWED_AGE` old (well inside a worker's idle close), in
//! [`WorkerPool::live_workers`], and at the end of every distributed
//! round. So `apply(RunRound)` returns only after
//! every live replica has settled the round, and a refused mirror
//! retires its worker at the next round rather than at the write.
//! A round posts every worker's settle body as soon as all shards'
//! exports are in, so the workers settle while the coordinator
//! imports, clears and settles.
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

use std::borrow::Cow;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmp_core::arbiter::pipeline::CandidatePhaseExport;
use dmp_telemetry::log;
use parking_lot::Mutex;
use rayon::prelude::*;

use crate::client::Client;
use crate::codec::{
    self, ApplyBody, ApplyReply, CandidatesBody, RestoreBody, RestoreReply, SettleReply,
};
use crate::command::Command;
use crate::metrics::metrics;
use crate::node::{CommandFollower, ServiceNode};
use crate::shard::{RoundDistributor, RouterImage};
use crate::state::{self, from_text, to_text};
use crate::wire::WireError;

/// The most replies one worker may owe: the post that reaches it reads
/// them all. Small enough that the owed acks fit the sockets' buffers,
/// so neither side can block the other's writes.
const OWED_BOUND: usize = 64;

/// How long a reply may stay owed before the next write on its link
/// reads it first. A worker's gateway closes a connection that sends
/// nothing for its read timeout (10 s by default); were an ack still
/// unread on a socket the worker closed, the requests written after it
/// would fail as errors and retire a healthy worker. Read well before
/// that, a closed socket never owes a reply, so the client's idle-close
/// path re-dials and resends only requests the worker never read.
const OWED_AGE: Duration = Duration::from_millis(100);

/// One remote worker: its link and a liveness flag. A worker that fails
/// an RPC (connection error, protocol refusal, a stray ack) is taken
/// out of rotation until [`WorkerPool::provision`] revives it — a
/// refusal means the replica diverged, and a diverged replica must not
/// compute candidate phases.
struct RemoteWorker {
    addr: SocketAddr,
    link: Mutex<Link>,
    alive: AtomicBool,
}

/// A worker's keep-alive client, and the posted requests on it whose
/// replies are unread, oldest first, each with when it was written
/// (see `OWED_AGE`).
/// Whoever writes to the worker holds this, so the wire order is the
/// order requests took the lock in.
struct Link {
    client: Client,
    owed: VecDeque<(Posted, Instant)>,
}

/// A request written without waiting for its reply, and what the reply
/// must name.
#[derive(Debug, Clone, Copy)]
enum Posted {
    /// `/internal/apply` of the command journaled at this seq.
    Apply(u64),
    /// `/internal/settle` of this round.
    Settle(u64),
    /// `/internal/restore` to the state at this seq.
    Restore(u64),
}

impl Posted {
    fn rpc(self) -> &'static str {
        match self {
            Posted::Apply(_) => "apply",
            Posted::Settle(_) => "settle",
            Posted::Restore(_) => "restore",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Posted::Apply(_) => "/internal/apply",
            Posted::Settle(_) => "/internal/settle",
            Posted::Restore(_) => "/internal/restore",
        }
    }

    /// Check that an ack names this request: the seq applied or
    /// restored to, or the rounds completed after the settle. Acks come
    /// back in the order requests were written; one that names another
    /// request means the two sides no longer agree on the stream.
    fn check(self, body: &[u8]) -> Result<(), WireError> {
        let (named, posted) = match self {
            Posted::Apply(seq) => (from_text::<ApplyReply>(body)?.applied, seq),
            Posted::Settle(round) => (from_text::<SettleReply>(body)?.rounds, round),
            Posted::Restore(seq) => (from_text::<RestoreReply>(body)?.applied, seq),
        };
        if named != posted {
            return Err(WireError::new(format!("ack names {named}, not {posted}")));
        }
        Ok(())
    }
}

/// Client pool over N shard workers, implementing both coordinator
/// hooks: [`CommandFollower`] (post the journaled command stream) and
/// [`RoundDistributor`] (farm out candidate phases, post settlement).
pub struct WorkerPool {
    fingerprint: String,
    shards: usize,
    workers: Vec<RemoteWorker>,
    /// `OWED_AGE`, except in tests that script a worker holding acks.
    owed_age: Duration,
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
            let link = Link {
                client: Client::connect(addr)?,
                owed: VecDeque::new(),
            };
            workers.push(RemoteWorker {
                addr,
                link: Mutex::new(link),
                alive: AtomicBool::new(true),
            });
        }
        Ok(WorkerPool {
            fingerprint,
            shards,
            workers,
            owed_age: OWED_AGE,
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

    /// Workers in rotation once every reply they owe is read: each
    /// replica has applied everything posted to it, or left rotation.
    pub fn live_workers(&self) -> usize {
        for worker in &self.workers {
            if worker.alive.load(Ordering::Relaxed) {
                self.read_owed(worker, &mut worker.link.lock());
            }
        }
        self.live_indices().len()
    }

    /// Book one RPC's result: time it into the per-RPC latency series
    /// (from `started` to the read of its reply) and yield the reply's
    /// body bytes; any failure — transport error, protocol refusal —
    /// takes the worker out of rotation and yields `None`; the caller
    /// decides whether the work re-dispatches.
    fn book_reply(
        &self,
        worker: &RemoteWorker,
        rpc: &str,
        path: &str,
        started: Instant,
        result: std::io::Result<(u16, Vec<u8>)>,
    ) -> Option<Vec<u8>> {
        metrics()
            .worker_rpc_us(rpc)
            .record_duration_us(started.elapsed());
        match result {
            Ok((200, body)) => Some(body),
            Ok((status, body)) => {
                let text = String::from_utf8_lossy(&body);
                self.retire(worker, &format!("refused {path} with {status}: {text}"));
                None
            }
            Err(e) => {
                self.retire(worker, &format!("failed {path}: {e}"));
                None
            }
        }
    }

    /// Take `worker` out of rotation after a failed RPC.
    fn retire(&self, worker: &RemoteWorker, failure: &str) {
        metrics().worker_rpc_failures.inc();
        worker.alive.store(false, Ordering::Relaxed);
        log!(Warn, "worker {} {failure} — out of rotation", worker.addr);
    }

    /// Write a `POST` of `body` to `path` on `worker`'s link, first
    /// reading what the link owes if its oldest reply is `OWED_AGE` old.
    /// Returns whether the request was written: not if that read
    /// retired the worker.
    fn write(&self, worker: &RemoteWorker, link: &mut Link, path: &str, body: &str) -> bool {
        // Wall-clock is fine here: connection upkeep, never applied state.
        let stale = link
            .owed
            .front()
            .is_some_and(|(_, at)| at.elapsed() >= self.owed_age);
        if stale {
            self.read_owed(worker, link);
            if !worker.alive.load(Ordering::Relaxed) {
                return false;
            }
        }
        link.client.send("POST", path, body);
        true
    }

    /// Write `body` as a posted request on `worker`'s link and move on:
    /// its reply is owed. The post that brings the queue to
    /// `OWED_BOUND` reads every owed reply.
    fn post(&self, worker: &RemoteWorker, link: &mut Link, posted: Posted, body: &str) {
        if !self.write(worker, link, posted.path(), body) {
            return;
        }
        link.owed.push_back((posted, Instant::now()));
        if link.owed.len() >= OWED_BOUND {
            self.read_owed(worker, link);
        }
    }

    /// Read every reply `link` owes, in the order they were posted, and
    /// book each: a failure, a refusal or an ack naming another request
    /// retires the worker. A transport error drops the client's socket
    /// and every request still unanswered on it, so nothing more is read.
    /// A posted request's latency is the wait for its ack here: the time
    /// the coordinator spent blocked on it.
    fn read_owed(&self, worker: &RemoteWorker, link: &mut Link) {
        while let Some((posted, _)) = link.owed.pop_front() {
            // Wall-clock is fine here: RPC latency telemetry, never applied state.
            let started = Instant::now();
            let reply = link.client.receive_raw();
            if reply.is_err() {
                link.owed.clear();
            }
            let Some(body) = self.book_reply(worker, posted.rpc(), posted.path(), started, reply)
            else {
                continue;
            };
            if let Err(e) = posted.check(&body) {
                self.retire(worker, &format!("sent a stray {} ack: {e}", posted.rpc()));
            }
        }
    }

    /// Ship `node`'s current state to worker `idx` (`/internal/restore`),
    /// reviving it into rotation on success. This is the journal-backed
    /// re-dispatch path for a *replacement* worker: restore to the
    /// coordinator's consistent cut, then follow the live command
    /// stream from there.
    ///
    /// Under the apply lock, the worker's link is taken, its owed
    /// replies read, the worker set live, and the cut exported. The
    /// link is held until the restore is written, so every command
    /// after the cut is mirrored behind the restore on the wire, and no
    /// round can leave the worker out. Only the export is taken under
    /// the apply lock; its digest and the body are streamed from it
    /// after the lock is released.
    pub fn provision(&self, node: &ServiceNode, idx: usize) -> bool {
        let Some(worker) = self.workers.get(idx) else {
            return false;
        };
        let (mut link, export, applied) = node.quiesced(|router, applied| {
            let mut link = worker.link.lock();
            self.read_owed(worker, &mut link);
            worker.alive.store(true, Ordering::Relaxed);
            (link, router.export_state(), applied)
        });
        let body = self.restore_text(&export, applied);
        self.post(worker, &mut link, Posted::Restore(applied), &body);
        drop(link);
        self.read_owed(worker, &mut worker.link.lock());
        let revived = worker.alive.load(Ordering::Relaxed);
        if revived {
            log!(Info, "worker {} provisioned at seq {applied}", worker.addr);
        }
        revived
    }

    /// The `/internal/restore` body for the state `export` at journal
    /// seq `applied`. The worker installs the image only if it restores
    /// to the digest sent with it: state crosses a process boundary
    /// here.
    fn restore_text(&self, export: &RouterImage, applied: u64) -> String {
        to_text(&RestoreBody {
            fp: self.fingerprint.clone(),
            applied,
            digest: state::digest(export),
            state: Cow::Borrowed(export),
        })
    }

    /// Provision every worker; returns how many are in rotation after.
    pub fn provision_all(&self, node: &ServiceNode) -> usize {
        (0..self.workers.len())
            .filter(|&idx| self.provision(node, idx))
            .count()
    }

    /// One candidates exchange: write every `(worker, body)` request,
    /// then read, per worker, the replies it owes from before and the
    /// candidates reply, and return the candidates replies' bodies in
    /// target order (`None` = that worker failed). The workers compute
    /// at the same time while this thread waits on the first reply; no
    /// thread is spawned. A worker retired by an owed reply is read
    /// past, its candidates reply unused: it was computed on a replica
    /// that had refused part of the stream. Targets are in ascending
    /// worker order, which is also the order their links lock in.
    fn exchange(&self, targets: &[(usize, String)]) -> Vec<Option<Vec<u8>>> {
        const PATH: &str = "/internal/candidates";
        // Wall-clock is fine here: RPC latency telemetry, never applied state.
        let started = Instant::now();
        let in_flight: Vec<_> = targets
            .iter()
            .map(|(idx, body)| {
                let worker = self.workers.get(*idx)?;
                let mut link = worker.link.lock();
                self.write(worker, &mut link, PATH, body)
                    .then_some((worker, link))
            })
            .collect();
        in_flight
            .into_iter()
            .map(|sent| {
                let (worker, mut link) = sent?;
                self.read_owed(worker, &mut link);
                let reply = link.client.receive_raw();
                if !worker.alive.load(Ordering::Relaxed) {
                    return None;
                }
                self.book_reply(worker, "candidates", PATH, started, reply)
            })
            .collect()
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
    /// Post one journaled command to every live worker. Runs inside
    /// the coordinator's apply critical section, so posts across
    /// workers happen in journal order; per worker, the link's lock and
    /// the keep-alive connection's FIFO preserve it on the wire.
    /// Liveness is read under the link, which [`WorkerPool::provision`]
    /// holds until a revived worker's restore is written. `RunRound` is
    /// *not* forwarded — rounds reach workers through the
    /// candidates/settle RPC pair that executes inside `router.apply`
    /// itself.
    fn on_applied(&self, seq: u64, cmd: &Command) {
        if matches!(cmd, Command::RunRound { .. }) {
            return;
        }
        let body = to_text(&ApplyBody {
            fp: self.fingerprint.clone(),
            seq,
            cmd: Cow::Borrowed(cmd),
        });
        for worker in &self.workers {
            let mut link = worker.link.lock();
            if worker.alive.load(Ordering::Relaxed) {
                self.post(worker, &mut link, Posted::Apply(seq), &body);
            }
        }
    }
}

impl RoundDistributor for WorkerPool {
    /// Farm the candidate phase out: assign shards round-robin over
    /// the live workers, collect exports (decoded on the pool), and
    /// re-dispatch any failed worker's shards to the survivors. A
    /// worker whose reply does not decode leaves rotation like one that
    /// refused. Returns `None` only when no worker is left — the round
    /// then computes locally and the deployment degrades to a single
    /// process instead of stalling. Once every shard's export is in,
    /// posts each live worker the exports of the shards another worker
    /// supplied, its settle bodies encoded on the pool before the first
    /// is written.
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
        let mut supplier: Vec<Option<usize>> = vec![None; shards];
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
            // Round-robin the outstanding shards over the live workers:
            // each gets its shard list and the request body naming it.
            let lists: Vec<(usize, Vec<usize>)> = live
                .iter()
                .enumerate()
                .map(|(k, &w)| {
                    (
                        w,
                        todo.iter().copied().skip(k).step_by(live.len()).collect(),
                    )
                })
                .filter(|(_, list): &(usize, Vec<usize>)| !list.is_empty())
                .collect();
            let targets: Vec<(usize, String)> = lists
                .iter()
                .map(|(w, list)| {
                    let body = to_text(&CandidatesBody {
                        fp: self.fingerprint.clone(),
                        round,
                        seed: round_seed,
                        shards: list.clone(),
                    });
                    (*w, body)
                })
                .collect();
            let replies: Vec<_> = lists.into_iter().zip(self.exchange(&targets)).collect();
            // A worker replies its exports in the order its shards were asked for.
            let decoded: Vec<_> = replies
                .par_iter()
                .map(|((_, list), reply)| {
                    let reply = reply.as_ref()?;
                    Some(codec::decode_candidates_reply(reply, round, list.len()))
                })
                .collect();
            for (((w, list), _), exports) in replies.iter().zip(decoded) {
                let exports = match exports {
                    Some(Ok(exports)) => exports,
                    Some(Err(e)) => {
                        if let Some(worker) = self.workers.get(*w) {
                            let failure = format!("sent an undecodable candidate reply: {e}");
                            self.retire(worker, &failure);
                        }
                        continue;
                    }
                    None => continue,
                };
                for (&shard, export) in list.iter().zip(exports) {
                    if let (Some(slot), Some(by)) =
                        (collected.get_mut(shard), supplier.get_mut(shard))
                    {
                        *slot = Some(export);
                        *by = Some(*w);
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
        let exports: Vec<CandidatePhaseExport> = collected.into_iter().collect::<Option<_>>()?;
        let live = self.live_indices();
        let bodies: Vec<String> = live
            .par_iter()
            .map(|&w| {
                let lacking = (0..shards)
                    .filter(|&i| supplier.get(i) != Some(&Some(w)))
                    .collect();
                codec::settle_text(&self.fingerprint, round, round_seed, &exports, lacking)
            })
            .collect();
        for (&w, body) in live.iter().zip(&bodies) {
            if let Some(worker) = self.workers.get(w) {
                self.post(worker, &mut worker.link.lock(), Posted::Settle(round), body);
            }
        }
        Some(exports)
    }

    /// The coordinator settled the round `candidates` posted: read
    /// every live worker's owed replies, its settle ack last, so the
    /// round returns only once each replica has settled it too. A
    /// worker that refused or failed leaves rotation; its shards
    /// re-dispatch next round.
    fn round_complete(&self, _round: u64, _round_seed: u64, _exports: &[CandidatePhaseExport]) {
        self.live_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{AskSpec, CellSpec, ColType, OfferSpec, TableSpec};
    use crate::gateway::{Gateway, GatewayConfig, Service};
    use crate::http::{read_request, Request};
    use crate::node::ServiceConfig;
    use crate::shard::{Outcome, ShardRouter};
    use crate::test_support::ScratchDir;
    use crate::worker::{WorkerConfig, WorkerNode};
    use dmp_core::market::MarketConfig;
    use dmp_mechanism::design::MarketDesign;
    use dmp_mechanism::wtp::{PriceCurve, TaskKind};
    use std::io::{BufReader, Write};
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    /// A "worker" on one connection: every request it reads goes to
    /// `answer`, which returns the replies to write now (none, to hold
    /// one back), until the connection closes. It returns the path of
    /// every request it read.
    fn scripted_worker(
        mut answer: impl FnMut(&Request) -> Vec<(u16, String)> + Send + 'static,
    ) -> (SocketAddr, JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut seen = Vec::new();
            while let Ok(req) = read_request(&mut reader, 1 << 24) {
                seen.push(req.path.clone());
                for (status, body) in answer(&req) {
                    let head = format!(
                        "HTTP/1.1 {status} X\r\ncontent-length: {}\r\n\r\n",
                        body.len()
                    );
                    if stream
                        .write_all([head.as_bytes(), body.as_bytes()].concat().as_slice())
                        .is_err()
                    {
                        return seen;
                    }
                }
            }
            seen
        });
        (addr, server)
    }

    fn market() -> MarketConfig {
        MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(10.0))
    }

    fn coordinator(dir: &ScratchDir) -> ServiceNode {
        ServiceNode::open(ServiceConfig::new(dir.path(), market()).with_fsync(false))
            .expect("node opens")
    }

    /// A real replica answering as its gateway would, except where
    /// `refuse` names the path: that gets a 409.
    fn replica_refusing(
        node: &ServiceNode,
        refuse: &'static str,
    ) -> (SocketAddr, JoinHandle<Vec<String>>) {
        let replica = WorkerNode::new(WorkerConfig::new(market(), node.config().shards));
        scripted_worker(move |req| {
            if req.path == refuse {
                return vec![(409, r#"{"error":"refused"}"#.into())];
            }
            let resp = replica.handle(req);
            vec![(resp.status, resp.body)]
        })
    }

    /// A seller's table and a buyer who wants it: a round over these
    /// commands sells.
    fn trading_commands() -> Vec<Command> {
        let enroll = |name: &str, role: &str| Command::Enroll {
            name: name.into(),
            role: role.into(),
        };
        let rows = (0..4)
            .map(|i| vec![CellSpec::Int(i), CellSpec::Float(i as f64 * 1.5)])
            .collect();
        vec![
            enroll("sam", "seller"),
            enroll("bea", "buyer"),
            Command::Deposit {
                account: "bea".into(),
                amount: 100.0,
            },
            Command::SubmitAsk(AskSpec {
                seller: "sam".into(),
                table: TableSpec {
                    name: "t".into(),
                    columns: vec![("a".into(), ColType::Int), ("b".into(), ColType::Float)],
                    rows,
                },
                reserve: None,
                license: None,
            }),
            Command::SubmitOffer(OfferSpec {
                buyer: "bea".into(),
                attributes: vec!["a".into(), "b".into()],
                keywords: Vec::new(),
                task: TaskKind::AttributeCoverage,
                curve: PriceCurve::Constant(30.0),
                min_rows: 1,
                purpose: "analytics".into(),
            }),
        ]
    }

    /// The state `cmds` then one round leave on an in-process router,
    /// and that round's sales.
    fn local_round(node: &ServiceNode, cmds: &[Command]) -> (u64, usize) {
        let router = ShardRouter::new(&market(), node.config().shards);
        for cmd in cmds {
            let _ = router.apply(cmd);
        }
        let sales = router.run_round().sales;
        (router.state_digest(), sales)
    }

    fn run_round(node: &ServiceNode) -> usize {
        match node.apply(Command::RunRound { rounds: 1 }) {
            Ok(Outcome::RoundsRun(reports)) => reports.iter().map(|r| r.sales).sum(),
            other => panic!("a round runs: {other:?}"),
        }
    }

    fn digest_of(addr: SocketAddr) -> u64 {
        let mut client = Client::connect(addr).unwrap();
        let reply = client.get("/internal/digest").unwrap();
        reply.req_str("digest").unwrap().parse().unwrap()
    }

    #[test]
    fn a_worker_whose_candidates_reply_does_not_decode_leaves_rotation() {
        // Were it kept in rotation, its shards would re-dispatch to it
        // for ever.
        let (addr, server) = scripted_worker(|_| vec![(200, "{}".into())]);
        let pool = WorkerPool::connect("fp".into(), 2, &[addr]).expect("pool connects");
        assert_eq!(pool.candidates(1, 7, 2), None);
        assert_eq!(pool.live_workers(), 0);
        drop(pool);
        server
            .join()
            .expect("the server thread ends with its connection");
    }

    #[test]
    fn a_refused_mirror_retires_the_worker_at_the_next_round_and_its_candidates_go_unused() {
        let dir = ScratchDir::new("coordinator-refused-apply");
        let node = coordinator(&dir);
        let cmds = trading_commands();
        let (before_offer, offer) = cmds.split_at(cmds.len() - 1);
        for cmd in before_offer {
            node.apply(cmd.clone()).expect("applies");
        }
        let (addr, server) = replica_refusing(&node, "/internal/apply");
        let pool = Arc::new(
            WorkerPool::connect(node.fingerprint(), node.config().shards, &[addr]).unwrap(),
        );
        assert_eq!(pool.provision_all(&node), 1);
        WorkerPool::attach(&pool, &node);
        // The offer is posted and refused; nothing reads the refusal yet.
        node.apply(offer[0].clone()).expect("applies");
        // The replica never saw the offer, so its candidates reply has
        // no bid for it: used, the round would not sell.
        let (digest, sales) = local_round(&node, &cmds);
        assert!(sales > 0, "the reference round must sell");
        assert_eq!(run_round(&node), sales);
        assert_eq!(node.state_digest(), digest);
        assert_eq!(pool.live_workers(), 0);
        // The node holds the pool too; both go before the connection closes.
        drop((node, pool));
        let paths = server.join().unwrap();
        let expected = [
            "/internal/restore",
            "/internal/apply",
            "/internal/candidates",
        ];
        assert_eq!(paths, expected, "the worker was asked for candidates once");
    }

    #[test]
    fn a_refused_settle_retires_the_worker_while_the_round_settles() {
        let dir = ScratchDir::new("coordinator-refused-settle");
        let node = coordinator(&dir);
        let (addr, server) = replica_refusing(&node, "/internal/settle");
        let pool = Arc::new(
            WorkerPool::connect(node.fingerprint(), node.config().shards, &[addr]).unwrap(),
        );
        assert_eq!(pool.provision_all(&node), 1);
        WorkerPool::attach(&pool, &node);
        let cmds = trading_commands();
        for cmd in &cmds {
            node.apply(cmd.clone()).expect("applies");
        }
        let (digest, sales) = local_round(&node, &cmds);
        assert!(sales > 0, "the reference round must sell");
        // The round's exports came from the worker, whose settle the
        // round's end reads and finds refused.
        assert_eq!(run_round(&node), sales);
        assert_eq!(node.state_digest(), digest);
        assert_eq!(pool.live_workers(), 0);
        // The node holds the pool too; both go before the connection closes.
        drop((node, pool));
        let paths = server.join().unwrap();
        assert_eq!(
            paths
                .iter()
                .filter(|p| *p == "/internal/candidates")
                .count(),
            1
        );
        assert_eq!(paths.last().map(String::as_str), Some("/internal/settle"));
    }

    /// A worker acking each apply with the seq its body names, except
    /// that the ack of seq `swap` is held and written after that of
    /// `swap + 1`.
    fn acking_worker(swap: Option<u64>) -> (SocketAddr, JoinHandle<Vec<String>>) {
        let mut held = None;
        scripted_worker(move |req| {
            let body: ApplyBody = from_text(&req.body).unwrap();
            let ack = (200, to_text(&ApplyReply { applied: body.seq }));
            if Some(body.seq) == swap {
                held = Some(ack);
                return Vec::new();
            }
            std::iter::once(ack).chain(held.take()).collect()
        })
    }

    fn owed(pool: &WorkerPool) -> usize {
        pool.workers.first().map_or(0, |w| w.link.lock().owed.len())
    }

    #[test]
    fn posting_past_the_bound_reads_the_acks_in_order() {
        let cmd = Command::Deposit {
            account: "bea".into(),
            amount: 1.0,
        };
        let posts = 3 * OWED_BOUND as u64 + 5;
        let (addr, server) = acking_worker(None);
        let mut pool = WorkerPool::connect("fp".into(), 1, &[addr]).unwrap();
        // Only the bound reads here, however slowly the posts go.
        pool.owed_age = Duration::MAX;
        for seq in 1..=posts {
            pool.on_applied(seq, &cmd);
            assert!(
                owed(&pool) < OWED_BOUND,
                "seq {seq}: {} acks unread",
                owed(&pool)
            );
        }
        assert_eq!(owed(&pool), 5);
        assert_eq!(pool.live_workers(), 1, "every ack named its own seq");
        assert_eq!(owed(&pool), 0);
        drop(pool);
        assert_eq!(server.join().unwrap().len() as u64, posts);

        // Two acks out of order name each other's seq: the worker leaves.
        let (addr, server) = acking_worker(Some(OWED_BOUND as u64 / 2));
        let mut pool = WorkerPool::connect("fp".into(), 1, &[addr]).unwrap();
        // A read before the swapped pair is written would wait on the held ack.
        pool.owed_age = Duration::MAX;
        for seq in 1..OWED_BOUND as u64 {
            pool.on_applied(seq, &cmd);
        }
        assert_eq!(pool.live_workers(), 0);
        drop(pool);
        server.join().unwrap();
    }

    #[test]
    fn a_replica_digest_read_after_a_round_returns_is_the_coordinators() {
        let dir = ScratchDir::new("coordinator-digest-after-round");
        let node = coordinator(&dir);
        let replicas: Vec<Gateway> = (0..2)
            .map(|_| {
                let worker = WorkerNode::new(WorkerConfig::new(market(), node.config().shards));
                Gateway::serve_service(Arc::new(worker), GatewayConfig::default()).unwrap()
            })
            .collect();
        let addrs: Vec<SocketAddr> = replicas.iter().map(Gateway::addr).collect();
        let pool = Arc::new(
            WorkerPool::connect(node.fingerprint(), node.config().shards, &addrs).unwrap(),
        );
        assert_eq!(pool.provision_all(&node), 2);
        WorkerPool::attach(&pool, &node);
        let mut sold = 0;
        for cmd in trading_commands() {
            node.apply(cmd).expect("applies");
        }
        for round in 0..3 {
            node.apply(Command::Deposit {
                account: "bea".into(),
                amount: 5.0,
            })
            .expect("applies");
            sold += run_round(&node);
            // No `live_workers` first: the round's own return is the wait.
            for &addr in &addrs {
                assert_eq!(digest_of(addr), node.state_digest(), "round {round}");
            }
        }
        assert!(sold > 0, "the rounds must trade");
        drop((node, pool));
        for replica in replicas {
            replica.shutdown();
        }
    }

    #[test]
    fn an_ack_left_past_the_workers_idle_close_is_read_before_the_next_write() {
        // The replica's gateway closes a connection idle for
        // `read_timeout`. An ack still owed on it when the next request
        // is written would pair that request with the close and retire
        // a healthy worker.
        let dir = ScratchDir::new("coordinator-idle-close");
        let node = coordinator(&dir);
        let cfg = GatewayConfig {
            read_timeout: OWED_AGE * 3,
            ..GatewayConfig::default()
        };
        let worker = WorkerNode::new(WorkerConfig::new(market(), node.config().shards));
        let replica = Gateway::serve_service(Arc::new(worker), cfg.clone()).unwrap();
        let pool = Arc::new(
            WorkerPool::connect(node.fingerprint(), node.config().shards, &[replica.addr()])
                .unwrap(),
        );
        assert_eq!(pool.provision_all(&node), 1);
        WorkerPool::attach(&pool, &node);
        let cmds = trading_commands();
        let (before_offer, offer) = cmds.split_at(cmds.len() - 1);
        for cmd in before_offer {
            node.apply(cmd.clone()).expect("applies");
        }
        let idle = cfg.read_timeout * 2;
        // A mirrored command, then a round, each written past the close.
        std::thread::sleep(idle);
        node.apply(offer[0].clone()).expect("applies");
        std::thread::sleep(idle);
        let (digest, sales) = local_round(&node, &cmds);
        assert!(sales > 0, "the reference round must sell");
        assert_eq!(run_round(&node), sales);
        assert_eq!(pool.live_workers(), 1);
        assert_eq!(node.state_digest(), digest);
        assert_eq!(digest_of(replica.addr()), digest);
        drop((node, pool));
        replica.shutdown();
    }

    #[test]
    fn the_restore_body_carries_the_digest_of_its_applied_cut() {
        let dir = ScratchDir::new("coordinator-restore-body");
        let node = ServiceNode::open(ServiceConfig::new(dir.path(), MarketConfig::external(3)))
            .expect("node opens");
        for cmd in [
            Command::Enroll {
                name: "alice".into(),
                role: "buyer".into(),
            },
            Command::Deposit {
                account: "alice".into(),
                amount: 12.5,
            },
            Command::RunRound { rounds: 1 },
        ] {
            node.apply(cmd).expect("applies");
        }
        let pool = WorkerPool::connect(node.fingerprint(), node.config().shards, &[])
            .expect("an empty pool connects");
        let (export, applied) = node.quiesced(|router, applied| (router.export_state(), applied));
        let text = pool.restore_text(&export, applied);
        assert_eq!(applied, 3);
        // The state is the image document, the tree adapter's text.
        let (fp, digest) = (node.fingerprint(), node.state_digest());
        let image = state::encode(&node.router().export_state()).into_json();
        let document = image.dump();
        assert_eq!(
            text,
            format!(r#"{{"fp":"{fp}","applied":"3","digest":"{digest}","state":{document}}}"#)
        );
        // The image in the body restores to that digest.
        let body: RestoreBody = from_text(text.as_bytes()).expect("the body decodes");
        assert_eq!((body.applied, body.digest), (applied, digest));
        assert_eq!(state::digest(&body.state), digest);
    }
}
