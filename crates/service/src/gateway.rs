//! The network gateway: an **evented HTTP/1.1 server** — one reactor
//! thread multiplexing every connection over an OS readiness queue
//! (epoll on Linux via the `compat/polling` shim), with a sharded
//! apply pool executing journaled commands off the reactor thread.
//! See the crate's `reactor` module for the event-loop internals.
//!
//! Wire behavior:
//!
//! * **Keep-alive + pipelining.** Clients may send many requests
//!   without waiting; responses always come back in request order.
//!   At most [`GatewayConfig::max_pipeline`] requests per connection
//!   are in flight before the reactor stops reading that socket
//!   (TCP-window backpressure, not server memory).
//! * **Idle timeout.** A connection that sends nothing for
//!   [`GatewayConfig::read_timeout`] is closed by the reactor's timer
//!   wheel — an idle or slow-loris peer never pins a thread, because
//!   no thread ever blocks on a socket.
//! * **`Connection: close`** is honored after the response flushes.
//!
//! | Endpoint          | Command journaled        | Response              |
//! |-------------------|--------------------------|-----------------------|
//! | `POST /enroll`    | `Enroll` (+ `Deposit`)   | shard assignment      |
//! | `POST /deposits`  | `Deposit`                | new balance           |
//! | `POST /offers`    | `SubmitOffer`            | offer id + shard      |
//! | `POST /asks`      | `SubmitAsk`              | dataset id + shard    |
//! | `POST /licenses`  | `GrantLicense`           | dataset id + shard    |
//! | `POST /rounds`    | `RunRound`               | merged round reports  |
//! | `POST /snapshot`  | — (admin, not a mutation)| checkpointed seq      |
//! | `GET /ledger/:name` | —                      | balance               |
//! | `GET /ledger`     | —                        | all balances          |
//! | `GET /health`     | — (served lock-free on the reactor) | liveness + seq + uptime |
//! | `GET /metrics`    | — (served lock-free on the reactor) | Prometheus text |
//! | `GET /trace`      | — (served lock-free on the reactor) | recent span ring |

use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use polling::{Interest, Poller, Waker};

use crate::command::{Command, LicenseSpec};
use crate::error::ServiceError;
use crate::http::{Request, Response};
use crate::node::ServiceNode;
use crate::reactor::{apply_worker, Reactor, TOKEN_LISTENER, TOKEN_WAKER};
use crate::wire::Json;

/// What the gateway serves: the reactor and its apply pool are generic
/// over this, so the same evented HTTP stack fronts both the public
/// coordinator surface ([`ServiceNode`]) and the internal worker RPC
/// surface ([`WorkerNode`](crate::worker::WorkerNode)).
pub trait Service: Send + Sync + 'static {
    /// Handle one request on an apply-pool thread. May block (locks,
    /// journal fsync, round execution).
    fn handle(&self, req: &Request) -> Response;

    /// Handle a request *inline on the reactor thread*, or `None` to
    /// dispatch it to the pool. Implementations must never wait on a
    /// lock another request path can hold — an inline stall parks
    /// every connection the reactor multiplexes.
    fn handle_inline(&self, req: &Request) -> Option<Response>;
}

impl Service for ServiceNode {
    fn handle(&self, req: &Request) -> Response {
        route(self, req)
    }

    fn handle_inline(&self, req: &Request) -> Option<Response> {
        // Lock-free observability endpoints: /health reads a cached
        // body keyed on atomics, /metrics takes only the registry map
        // mutex, /trace snapshots the span ring — never the apply/WAL
        // lock, so a round running on the pool cannot stall them.
        if req.method == "GET" && matches!(req.path.as_str(), "/health" | "/metrics" | "/trace") {
            return Some(route(self, req));
        }
        None
    }
}

/// Gateway deployment knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Apply-pool size: threads executing journaled commands off the
    /// reactor. Connections shard across them by token, so one
    /// connection's commands always apply in the order it sent them.
    pub workers: usize,
    /// Maximum accepted request body, in bytes.
    pub max_body: usize,
    /// Idle timeout: a connection with no traffic and no work in
    /// flight for this long is closed by the reactor's timer wheel.
    pub read_timeout: Duration,
    /// Pipelining depth: requests in flight per connection before the
    /// reactor stops reading that socket.
    pub max_pipeline: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_body: 4 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            max_pipeline: 128,
        }
    }
}

/// A running gateway; dropping it (or calling [`Gateway::shutdown`])
/// stops the reactor and joins the apply workers.
pub struct Gateway {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Bind and start serving `node` (the public market surface).
    pub fn serve(node: Arc<ServiceNode>, cfg: GatewayConfig) -> std::io::Result<Gateway> {
        Self::serve_service(node, cfg)
    }

    /// Bind and start serving any [`Service`] — the same reactor +
    /// apply-pool stack fronts worker replicas too.
    pub fn serve_service(svc: Arc<dyn Service>, cfg: GatewayConfig) -> std::io::Result<Gateway> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let workers = cfg.workers.max(1);

        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(waker.fd(), TOKEN_WAKER, Interest::READ)?;

        let (completion_tx, completion_rx) = channel();
        let mut job_txs = Vec::with_capacity(workers);
        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel();
            job_txs.push(tx);
            let svc = Arc::clone(&svc);
            let completions = completion_tx.clone();
            let waker = Arc::clone(&waker);
            worker_handles.push(std::thread::spawn(move || {
                apply_worker(svc, rx, completions, waker)
            }));
        }
        drop(completion_tx); // reactor-side receiver sees EOF at teardown

        let reactor = Reactor {
            cfg: cfg.clone(),
            svc,
            poller,
            waker: Arc::clone(&waker),
            listener,
            job_txs,
            completions: completion_rx,
            stop: Arc::clone(&stop),
        };
        let reactor = std::thread::spawn(move || reactor.run());

        Ok(Gateway {
            addr,
            stop,
            waker,
            reactor: Some(reactor),
            workers: worker_handles,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight work, join all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.reactor.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        // The reactor dropped its job senders on exit; workers drain
        // their queues and return.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

pub(crate) fn err_body(msg: &str) -> String {
    Json::obj([("error", Json::str(msg))]).dump()
}

pub(crate) fn parse_body(req: &Request) -> Result<Json, Response> {
    Json::parse_bytes(&req.body).map_err(|e| Response::json(400, err_body(&e.to_string())))
}

fn apply_response(result: Result<crate::shard::Outcome, ServiceError>) -> Response {
    match result {
        Ok(outcome) => Response::json(200, outcome.to_json().dump()),
        Err(ServiceError::Rejected(msg)) => Response::json(400, err_body(&msg)),
        Err(ServiceError::Wire(e)) => Response::json(400, err_body(&e.to_string())),
        Err(ServiceError::Io(e)) => {
            Response::json(500, err_body(&format!("journal write failed: {e}")))
        }
    }
}

pub(crate) fn route(node: &ServiceNode, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        // Served inline on the reactor thread. The body is cached on
        // the node and only re-rendered when a reported counter (or
        // the decisecond of uptime) changes — the health path never
        // waits on the apply/WAL lock, so a round running on the pool
        // cannot stall it.
        ("GET", "/health") => Response::json(200, node.health_body()),
        // Prometheus text exposition. Rendering snapshots every handle
        // under the registry's own map mutex only — never the node's
        // apply/WAL lock — so the reactor serves this inline.
        ("GET", "/metrics") => Response::text(
            200,
            dmp_telemetry::global().render_prometheus(),
            "text/plain; version=0.0.4",
        ),
        // The recent span ring (lossy by design; `dropped` counts what
        // contention discarded).
        ("GET", "/trace") => Response::json(200, dmp_telemetry::tracer().to_json()),
        ("GET", "/ledger") => {
            let balances = node.router().all_balances();
            Response::json(
                200,
                Json::obj([(
                    "balances",
                    Json::Obj(
                        balances
                            .into_iter()
                            .map(|(name, bal)| (name, Json::Num(bal)))
                            .collect(),
                    ),
                )])
                .dump(),
            )
        }
        ("GET", path) if path.starts_with("/ledger/") => {
            let name = &path["/ledger/".len()..];
            if name.is_empty() || !node.router().participant_exists(name) {
                return Response::json(404, err_body("unknown account"));
            }
            Response::json(
                200,
                Json::obj([
                    ("account", Json::str(name)),
                    ("balance", Json::Num(node.router().balance(name))),
                    ("shard", Json::Num(node.router().shard_of(name) as f64)),
                ])
                .dump(),
            )
        }
        ("POST", "/enroll") => {
            let body = match parse_body(req) {
                Ok(b) => b,
                Err(resp) => return resp,
            };
            let name = match body.req_str("name") {
                Ok(n) => n,
                Err(e) => return Response::json(400, err_body(&e.to_string())),
            };
            let role = body
                .get("role")
                .and_then(Json::as_str)
                .unwrap_or("participant")
                .to_string();
            // Validate the optional enrollment deposit *before* any
            // command applies: an invalid amount must not leave a
            // half-done enroll-without-deposit behind.
            let deposit = match body.get("deposit") {
                None => None,
                Some(j) => match j.as_f64() {
                    Some(a)
                        if a.is_finite()
                            && (0.0..=dmp_core::arbiter::ledger::MAX_AMOUNT).contains(&a) =>
                    {
                        Some(a)
                    }
                    _ => {
                        return Response::json(
                            400,
                            err_body(&format!(
                                "'deposit' must be a non-negative number <= {}",
                                dmp_core::arbiter::ledger::MAX_AMOUNT
                            )),
                        )
                    }
                },
            };
            let enroll = node.apply(Command::Enroll {
                name: name.clone(),
                role,
            });
            let shard = match &enroll {
                Ok(crate::shard::Outcome::Enrolled { shard, .. }) => *shard,
                _ => return apply_response(enroll),
            };
            // The deposit is a second journaled command; the response
            // reports both outcomes (enrollment + resulting balance).
            if let Some(amount) = deposit {
                match node.apply(Command::Deposit {
                    account: name.clone(),
                    amount,
                }) {
                    Ok(crate::shard::Outcome::Deposited { balance, .. }) => {
                        return Response::json(
                            200,
                            Json::obj([
                                ("enrolled", Json::str(name)),
                                ("shard", Json::Num(shard as f64)),
                                ("balance", Json::Num(balance)),
                            ])
                            .dump(),
                        );
                    }
                    other => return apply_response(other),
                }
            }
            apply_response(enroll)
        }
        ("POST", "/deposits") => {
            let body = match parse_body(req) {
                Ok(b) => b,
                Err(resp) => return resp,
            };
            let cmd = match (body.req_str("account"), body.req_f64("amount")) {
                (Ok(account), Ok(amount)) => Command::Deposit { account, amount },
                (Err(e), _) | (_, Err(e)) => return Response::json(400, err_body(&e.to_string())),
            };
            apply_response(node.apply(cmd))
        }
        ("POST", "/offers") => {
            let body = match parse_body(req) {
                Ok(b) => b,
                Err(resp) => return resp,
            };
            // Reuse the command decoder: an offer body is the command
            // object minus the "op" discriminator.
            let mut with_op = vec![("op".to_string(), Json::str("offer"))];
            if let Json::Obj(pairs) = body {
                with_op.extend(pairs);
            }
            match Command::decode(&Json::Obj(with_op)) {
                Ok(cmd @ Command::SubmitOffer(_)) => apply_response(node.apply(cmd)),
                Ok(_) => Response::json(400, err_body("not an offer body")),
                Err(e) => Response::json(400, err_body(&e.to_string())),
            }
        }
        ("POST", "/asks") => {
            let body = match parse_body(req) {
                Ok(b) => b,
                Err(resp) => return resp,
            };
            let mut with_op = vec![("op".to_string(), Json::str("ask"))];
            if let Json::Obj(pairs) = body {
                with_op.extend(pairs);
            }
            match Command::decode(&Json::Obj(with_op)) {
                Ok(cmd @ Command::SubmitAsk(_)) => apply_response(node.apply(cmd)),
                Ok(_) => Response::json(400, err_body("not an ask body")),
                Err(e) => Response::json(400, err_body(&e.to_string())),
            }
        }
        ("POST", "/licenses") => {
            let body = match parse_body(req) {
                Ok(b) => b,
                Err(resp) => return resp,
            };
            let cmd = match (
                body.req_str("seller"),
                body.req_u64("dataset"),
                body.get("license"),
            ) {
                (Ok(seller), Ok(dataset), Some(license_json)) => {
                    match LicenseSpec::decode(license_json) {
                        Ok(license) => Command::GrantLicense {
                            seller,
                            dataset,
                            license,
                        },
                        Err(e) => return Response::json(400, err_body(&e.to_string())),
                    }
                }
                (Err(e), _, _) | (_, Err(e), _) => {
                    return Response::json(400, err_body(&e.to_string()))
                }
                (_, _, None) => return Response::json(400, err_body("missing field 'license'")),
            };
            apply_response(node.apply(cmd))
        }
        ("POST", "/rounds") => {
            let rounds = if req.body.is_empty() {
                1
            } else {
                let body = match parse_body(req) {
                    Ok(b) => b,
                    Err(resp) => return resp,
                };
                match body.get("rounds") {
                    None => 1,
                    // Strict: a fractional or out-of-range count is an
                    // error, not a silent default.
                    Some(j) => match j.as_u64() {
                        Some(n) => n,
                        None => {
                            return Response::json(
                                400,
                                err_body("'rounds' must be a positive integer"),
                            )
                        }
                    },
                }
            };
            if rounds == 0 || rounds > Command::MAX_ROUNDS_PER_COMMAND {
                return Response::json(
                    400,
                    err_body(&format!(
                        "'rounds' must be in 1..={} (one journaled command blocks \
                         writers while it runs and replays in full on recovery)",
                        Command::MAX_ROUNDS_PER_COMMAND
                    )),
                );
            }
            apply_response(node.apply(Command::RunRound {
                rounds: rounds as u32,
            }))
        }
        ("POST", "/snapshot") => match node.snapshot_now() {
            Ok(seq) => Response::json(
                200,
                Json::obj([("snapshot_seq", Json::Num(seq as f64))]).dump(),
            ),
            Err(e) => Response::json(500, err_body(&e.to_string())),
        },
        ("GET" | "POST", _) => Response::json(404, err_body("unknown route")),
        _ => Response::json(405, err_body("method not allowed")),
    }
}
