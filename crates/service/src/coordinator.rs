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

use std::borrow::Cow;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dmp_core::arbiter::pipeline::CandidatePhaseExport;
use dmp_telemetry::log;
use parking_lot::Mutex;

use crate::client::Client;
use crate::codec::{self, ApplyBody, CandidatesBody, RestoreBody};
use crate::command::Command;
use crate::metrics::metrics;
use crate::node::{CommandFollower, ServiceNode};
use crate::shard::RoundDistributor;
use crate::state::{self, to_text};

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

/// Which worker supplied each shard's export in the round it names:
/// the shards `round_complete` leaves out of that worker's settle body,
/// because the worker holds their candidate phase already.
struct Suppliers {
    round: u64,
    seed: u64,
    by_shard: Vec<Option<usize>>,
}

/// Client pool over N shard workers, implementing both coordinator
/// hooks: [`CommandFollower`] (forward the journaled command stream)
/// and [`RoundDistributor`] (farm out candidate phases, broadcast
/// settlement).
pub struct WorkerPool {
    fingerprint: String,
    shards: usize,
    workers: Vec<RemoteWorker>,
    /// Set by `candidates`, taken by the `round_complete` that follows.
    suppliers: Mutex<Option<Suppliers>>,
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
            suppliers: Mutex::new(None),
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
        self.live_indices().len()
    }

    /// Book one RPC's result: time it into the per-RPC latency series
    /// and yield the reply's body bytes; any failure — transport error,
    /// protocol refusal — takes the worker out of rotation and yields
    /// `None`; the caller decides whether the work re-dispatches.
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

    /// Ship `node`'s current state to worker `idx` (`/internal/restore`),
    /// reviving it into rotation on success. This is the journal-backed
    /// re-dispatch path for a *replacement* worker: restore to the
    /// coordinator's consistent cut, then follow the live command
    /// stream from there.
    pub fn provision(&self, node: &ServiceNode, idx: usize) -> bool {
        let Some(worker) = self.workers.get(idx) else {
            return false;
        };
        let (body, applied) = self.restore_body(node);
        // Mark alive first so `fan_out` will talk to a currently-dead
        // worker; a failure flips it right back.
        worker.alive.store(true, Ordering::Relaxed);
        let replies = self.fan_out([(idx, body)], "restore", "/internal/restore");
        let revived = replies.iter().any(Option::is_some);
        if revived {
            log!(Info, "worker {} provisioned at seq {applied}", worker.addr);
        }
        revived
    }

    /// The `/internal/restore` body for `node`'s state, and the journal
    /// seq that state is at. Only the export is taken under the apply
    /// lock (a consistent cut); its digest and the body are streamed
    /// from it after the lock is released. The worker installs the
    /// image only if it restores to this digest: state crosses a
    /// process boundary here.
    fn restore_body(&self, node: &ServiceNode) -> (String, u64) {
        let (export, applied) = node.quiesced(|router, applied| (router.export_state(), applied));
        let body = to_text(&RestoreBody {
            fp: self.fingerprint.clone(),
            applied,
            digest: state::digest(&export),
            state: Cow::Borrowed(&export),
        });
        (body, applied)
    }

    /// Provision every worker; returns how many are in rotation after.
    pub fn provision_all(&self, node: &ServiceNode) -> usize {
        (0..self.workers.len())
            .filter(|&idx| self.provision(node, idx))
            .count()
    }

    /// Fan `POST path` out to a set of workers, returning their reply
    /// bodies, unparsed, in target order (`None` = that worker failed
    /// or is out of rotation): write every request, then read every
    /// reply. The workers compute at the same time — the entire point
    /// of distributing the candidate phase — while this thread waits on
    /// the first reply; no thread is spawned, so an RPC costs what the
    /// sockets and the workers cost and not what the scheduler makes
    /// of a spawn and a join per worker. A body is taken from `targets`
    /// only when its request is written, so a lazily encoded body
    /// overlaps the earlier workers' work. Targets are in ascending
    /// worker order, which is also the order their clients lock in.
    fn fan_out<B: AsRef<str>>(
        &self,
        targets: impl IntoIterator<Item = (usize, B)>,
        rpc: &str,
        path: &str,
    ) -> Vec<Option<Vec<u8>>> {
        // Wall-clock is fine here: RPC latency telemetry, never applied state.
        let started = Instant::now();
        let in_flight: Vec<_> = targets
            .into_iter()
            .map(|(idx, body)| {
                let live = self
                    .workers
                    .get(idx)
                    .filter(|w| w.alive.load(Ordering::Relaxed));
                live.map(|worker| {
                    let mut client = worker.client.lock();
                    client.send("POST", path, body.as_ref());
                    (worker, client)
                })
            })
            .collect();
        in_flight
            .into_iter()
            .map(|sent| {
                sent.and_then(|(worker, mut client)| {
                    self.book_reply(worker, rpc, path, started, client.receive_raw())
                })
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
        let body = to_text(&ApplyBody {
            fp: self.fingerprint.clone(),
            seq,
            cmd: Cow::Borrowed(cmd),
        });
        // The acks are checked by status only.
        let targets = self.live_indices().into_iter().map(|i| (i, &body));
        self.fan_out(targets, "apply", "/internal/apply");
    }
}

impl RoundDistributor for WorkerPool {
    /// Farm the candidate phase out: assign shards round-robin over
    /// the live workers, collect exports, and re-dispatch any failed
    /// worker's shards to the survivors. A worker whose reply does not
    /// decode leaves rotation like one that refused. Returns `None`
    /// only when no worker is left — the round then computes locally
    /// and the deployment degrades to a single process instead of
    /// stalling. Records which worker supplied each shard, for the
    /// settle broadcast.
    fn candidates(
        &self,
        round: u64,
        round_seed: u64,
        shards: usize,
    ) -> Option<Vec<CandidatePhaseExport>> {
        *self.suppliers.lock() = None;
        if shards != self.shards {
            return None; // mis-wired pool: fall back to local compute
        }
        let mut collected: Vec<Option<CandidatePhaseExport>> = (0..shards).map(|_| None).collect();
        let mut by_shard: Vec<Option<usize>> = vec![None; shards];
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
            let mut bodies: Vec<(usize, String, Vec<usize>)> = Vec::with_capacity(live.len());
            for (k, &w) in live.iter().enumerate() {
                let list: Vec<usize> = todo.iter().copied().skip(k).step_by(live.len()).collect();
                if list.is_empty() {
                    continue;
                }
                let body = to_text(&CandidatesBody {
                    fp: self.fingerprint.clone(),
                    round,
                    seed: round_seed,
                    shards: list.clone(),
                });
                bodies.push((w, body, list));
            }
            let targets = bodies.iter().map(|(w, text, _)| (*w, text));
            let replies = self.fan_out(targets, "candidates", "/internal/candidates");
            // A worker replies its exports in the order its shards were asked for.
            for ((w, _, list), reply) in bodies.iter().zip(replies) {
                let Some(reply) = reply else { continue };
                let exports = match codec::decode_candidates_reply(&reply, round, list.len()) {
                    Ok(exports) => exports,
                    Err(e) => {
                        if let Some(worker) = self.workers.get(*w) {
                            let failure = format!("sent an undecodable candidate reply: {e}");
                            self.retire(worker, &failure);
                        }
                        continue;
                    }
                };
                for (&shard, export) in list.iter().zip(exports) {
                    if let (Some(slot), Some(by)) =
                        (collected.get_mut(shard), by_shard.get_mut(shard))
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
        *self.suppliers.lock() = Some(Suppliers {
            round,
            seed: round_seed,
            by_shard,
        });
        collected.into_iter().collect()
    }

    /// Send every live worker the settled round's exports it lacks —
    /// those of the shards another worker supplied — so it re-executes
    /// clearing + settlement and stays a replica. Without a supplier
    /// record for this round and seed every shard ships: when in doubt,
    /// ship. A worker that fails here leaves rotation; its shards
    /// re-dispatch next round.
    fn round_complete(&self, round: u64, round_seed: u64, exports: &[CandidatePhaseExport]) {
        let suppliers = self
            .suppliers
            .lock()
            .take()
            .filter(|s| s.round == round && s.seed == round_seed)
            .map(|s| s.by_shard);
        let supplier = |shard: usize| suppliers.as_ref().and_then(|by| by.get(shard).copied());
        // Each body is encoded as its request is written (see `fan_out`).
        let targets = self.live_indices().into_iter().map(|w| {
            let lacking = (0..exports.len())
                .filter(|&i| supplier(i) != Some(Some(w)))
                .collect();
            let body = codec::settle_text(&self.fingerprint, round, round_seed, exports, lacking);
            (w, body)
        });
        self.fan_out(targets, "settle", "/internal/settle");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_request;
    use crate::node::ServiceConfig;
    use crate::state::from_text;
    use crate::test_support::ScratchDir;
    use dmp_core::market::MarketConfig;
    use std::io::{BufReader, Write};
    use std::net::TcpListener;

    /// A "worker" that answers every request on its one connection with
    /// a 200 and `{}`, until the connection closes.
    fn worker_answering_empty_objects() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            while read_request(&mut reader, 1 << 20).is_ok() {
                let reply = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}";
                if stream.write_all(reply).is_err() {
                    break;
                }
            }
        });
        (addr, server)
    }

    #[test]
    fn a_worker_whose_candidates_reply_does_not_decode_leaves_rotation() {
        // Were it kept in rotation, its shards would re-dispatch to it
        // for ever.
        let (addr, server) = worker_answering_empty_objects();
        let pool = WorkerPool::connect("fp".into(), 2, &[addr]).expect("pool connects");
        assert_eq!(pool.candidates(1, 7, 2), None);
        assert_eq!(pool.live_workers(), 0);
        drop(pool);
        server
            .join()
            .expect("the server thread ends with its connection");
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
        let (text, applied) = pool.restore_body(&node);
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
