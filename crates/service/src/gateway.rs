//! The network gateway: a **blocking HTTP/1.1 server** over `std::net`
//! with one thread per connection. An acceptor thread hands each
//! accepted socket to a thread of its own, which loops
//! [`read_request`] → [`Service::handle`] → write the response until
//! the peer closes, asks to close, sends something unparseable or
//! times out.
//!
//! Wire behavior:
//!
//! * **Keep-alive + pipelining.** Clients may send many requests
//!   without waiting; responses come back in request order, and one
//!   connection's commands apply in the order it sent them, because
//!   one thread reads, applies and writes them in turn. The thread
//!   reads nothing while it applies, so a pipelining peer is held back
//!   by its TCP window, not by server memory.
//! * **Coalesced writes.** Responses collect in a per-connection
//!   buffer that is flushed before any read that could block on the
//!   socket (and whenever it passes 64 KiB): a pipelined batch leaves
//!   in a few segments, and no response ever waits on the peer's next
//!   request.
//! * **Timeouts.** [`GatewayConfig::read_timeout`] is the socket's read
//!   *and* write timeout: a peer that sends nothing for that long, or
//!   does not take a flush of its responses within it, is closed
//!   (`dmp_gateway_idle_reaps_total`).
//! * **A fixed cap.** At most [`MAX_CONNECTIONS`] connections are
//!   served at once; the next one is answered `503` with
//!   `Connection: close` (`dmp_gateway_refused_total`).
//! * **`Connection: close`** is honored after the response flushes.
//!
//! A write route's body is its command's wire form minus `"op"`
//! ([`Command::decode`] is the one decoder; an empty body is `{}`).
//! Two fields have defaults: `"role"` is `"participant"` and
//! `"rounds"` is 1. `/enroll` also takes an optional `"deposit"`.
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
//! | `GET /health`     | — (never takes the apply/WAL lock) | liveness + seq + uptime |
//! | `GET /metrics`    | — (never takes the apply/WAL lock) | Prometheus text |
//! | `GET /trace`      | — (never takes the apply/WAL lock) | recent span ring |

use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::command::Command;
use crate::error::ServiceError;
use crate::http::{read_request, HttpError, Request, Response};
use crate::metrics::{endpoint, metrics, ENDPOINTS};
use crate::node::ServiceNode;
use crate::shard::{check_deposit, Outcome};
use crate::wire::Json;

/// Connections served at once; one past it is answered `503`.
pub const MAX_CONNECTIONS: usize = 256;

/// Buffered response bytes past which a connection flushes without
/// waiting for its read buffer to run dry.
const FLUSH_AT: usize = 64 * 1024;

/// What the gateway serves, so the same HTTP stack fronts both the
/// public coordinator surface ([`ServiceNode`]) and the internal worker
/// RPC surface ([`WorkerNode`](crate::worker::WorkerNode)).
pub trait Service: Send + Sync + 'static {
    /// Handle one request on its connection's thread. May block (locks,
    /// journal fsync, round execution); only that connection waits.
    fn handle(&self, req: &Request) -> Response;
}

impl Service for ServiceNode {
    fn handle(&self, req: &Request) -> Response {
        route(self, req)
    }
}

/// Gateway deployment knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Maximum accepted request body, in bytes.
    pub max_body: usize,
    /// Read and write timeout of every connection: a peer that sends
    /// nothing for this long, or does not take a flush of responses
    /// within it, is closed.
    pub read_timeout: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            max_body: 4 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
        }
    }
}

impl GatewayConfig {
    /// `InvalidInput` if a zero `read_timeout` (which the socket API
    /// refuses) would keep any request from being served.
    fn check(&self) -> std::io::Result<()> {
        if self.read_timeout.is_zero() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "GatewayConfig.read_timeout must be non-zero",
            ));
        }
        Ok(())
    }
}

/// The open connections, by id: a clone of each socket, so that
/// shutdown can unblock a thread waiting on its peer.
#[derive(Default)]
struct Open {
    next_id: u64,
    streams: HashMap<u64, TcpStream>,
}

/// A running gateway; dropping it (or calling [`Gateway::shutdown`])
/// stops accepting, closes every connection and joins every thread.
pub struct Gateway {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Bind and start serving `node` (the public market surface).
    pub fn serve(node: Arc<ServiceNode>, cfg: GatewayConfig) -> std::io::Result<Gateway> {
        Self::serve_service(node, cfg)
    }

    /// Bind and start serving any [`Service`] — the same stack fronts
    /// worker replicas too.
    ///
    /// Refuses with `InvalidInput`, before binding, a zero
    /// `read_timeout`.
    pub fn serve_service(svc: Arc<dyn Service>, cfg: GatewayConfig) -> std::io::Result<Gateway> {
        cfg.check()?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&listener, &svc, &cfg, &stop))
        };
        Ok(Gateway {
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every connection, join all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept`; the acceptor sees the flag and winds down.
        let _ = TcpStream::connect(self.addr);
        let _ = acceptor.join();
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Accept until the stop flag is raised, then shut every open socket
/// and join every connection thread.
fn accept_loop(
    listener: &TcpListener,
    svc: &Arc<dyn Service>,
    cfg: &GatewayConfig,
    stop: &AtomicBool,
) {
    let open = Arc::new(Mutex::new(Open::default()));
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Transient accept errors (EMFILE, an aborted handshake) drop
        // that one connection only.
        let Ok(stream) = stream else { continue };
        let m = metrics();
        m.gateway_accepts.inc();
        let (done, running) = threads.into_iter().partition(JoinHandle::is_finished);
        threads = running;
        for t in done {
            // A panic in a handler was already reported by the hook.
            let _ = t.join();
        }
        let Some(slot) = register(&open, &stream) else {
            m.gateway_refused.inc();
            let busy = Response::json(503, err_body("too many connections"));
            let _ = (&stream).write_all(&busy.to_bytes(false));
            continue;
        };
        let (svc, cfg) = (Arc::clone(svc), cfg.clone());
        let spawned = std::thread::Builder::new().spawn(move || {
            let _slot = slot;
            serve_connection(&*svc, &stream, &cfg);
        });
        // On failure the closure drops, and with it the slot.
        if let Ok(t) = spawned {
            threads.push(t);
        }
    }
    for stream in open.lock().streams.values() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for t in threads {
        let _ = t.join();
    }
}

/// Record a clone of `stream` under a fresh id, or `None` when
/// [`MAX_CONNECTIONS`] are already open.
fn register(open: &Arc<Mutex<Open>>, stream: &TcpStream) -> Option<Slot> {
    let mut guard = open.lock();
    if guard.streams.len() >= MAX_CONNECTIONS {
        return None;
    }
    let clone = stream.try_clone().ok()?;
    let id = guard.next_id;
    guard.next_id += 1;
    guard.streams.insert(id, clone);
    metrics().gateway_connections.inc();
    Some(Slot {
        open: Arc::clone(open),
        id,
    })
}

/// A connection's place among the open ones. Its thread owns it, so
/// the place frees when the thread ends, panicking or not.
struct Slot {
    open: Arc<Mutex<Open>>,
    id: u64,
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.open.lock().streams.remove(&self.id);
        metrics().gateway_connections.dec();
    }
}

/// The socket as the request parser sees it: responses queue in `out`
/// and are flushed before any read of the socket, that is, before
/// anything can block waiting on the peer.
struct Conn<'a> {
    stream: &'a TcpStream,
    out: Vec<u8>,
    /// How long one flush may take. The socket's own write timeout
    /// restarts with every byte the peer takes, so a peer that reads a
    /// trickle would otherwise hold its responses forever.
    timeout: Duration,
}

impl Conn<'_> {
    fn flush(&mut self) -> std::io::Result<()> {
        let deadline = Instant::now() + self.timeout;
        let mut rest = self.out.as_slice();
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            if !rest.is_empty() && Instant::now() >= deadline {
                return Err(ErrorKind::TimedOut.into());
            }
        }
        self.out.clear();
        Ok(())
    }
}

impl Read for Conn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.flush()?;
        self.stream.read(buf)
    }
}

/// Serve one connection to its end. Every exit leaves nothing owed:
/// responses are flushed, or the peer stopped taking them.
fn serve_connection(svc: &dyn Service, stream: &TcpStream, cfg: &GatewayConfig) {
    let setup = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(cfg.read_timeout)))
        .and_then(|()| stream.set_write_timeout(Some(cfg.read_timeout)));
    if setup.is_err() {
        return;
    }
    let mut reader = BufReader::new(Conn {
        stream,
        out: Vec::new(),
        timeout: cfg.read_timeout,
    });
    let result =
        serve_requests(svc, &mut reader, cfg.max_body).and_then(|()| reader.get_mut().flush());
    if let Err(e) = result {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            metrics().idle_reaps.inc();
        }
    }
}

/// Answer requests in order until the peer is done, asks to close, or
/// sends one the parser refuses.
fn serve_requests(
    svc: &dyn Service,
    reader: &mut BufReader<Conn<'_>>,
    max_body: usize,
) -> std::io::Result<()> {
    let m = metrics();
    let mut seq = 0u64;
    loop {
        let req = match read_request(reader, max_body) {
            Ok(req) => req,
            Err(HttpError::Eof) => return Ok(()),
            Err(HttpError::Io(e)) => return Err(e),
            Err(HttpError::TooLarge) => return refuse(reader.get_mut(), 413, "request too large"),
            Err(HttpError::Malformed(msg)) => return refuse(reader.get_mut(), 400, &msg),
        };
        let start = Instant::now();
        let endpoint = endpoint(&req.path);
        let close = req.wants_close();
        let response = {
            let _span = dmp_telemetry::tracer().span(ENDPOINTS[endpoint], seq);
            svc.handle(&req)
        };
        seq += 1;
        m.record_request(endpoint, start.elapsed());
        let conn = reader.get_mut();
        conn.out.extend_from_slice(&response.to_bytes(!close));
        if close {
            return Ok(());
        }
        if conn.out.len() >= FLUSH_AT {
            conn.flush()?;
        }
    }
}

/// Queue the answer to a request the parser refused; the connection
/// closes once it is flushed.
fn refuse(conn: &mut Conn<'_>, status: u16, msg: &str) -> std::io::Result<()> {
    metrics().parse_errors.inc();
    let response = Response::json(status, err_body(msg));
    conn.out.extend_from_slice(&response.to_bytes(false));
    Ok(())
}

pub(crate) fn err_body(msg: &str) -> String {
    Json::obj([("error", Json::str(msg))]).dump()
}

fn parse_body(req: &Request) -> Result<Json, Response> {
    Json::parse_bytes(&req.body).map_err(|e| Response::json(400, err_body(&e.to_string())))
}

fn apply_response(result: Result<Outcome, ServiceError>) -> Response {
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
        // Rendered from atomics: the health path never waits on the
        // apply/WAL lock, so a round running on another connection
        // cannot stall it.
        ("GET", "/health") => Response::json(200, node.health_body()),
        // Prometheus text exposition. Rendering snapshots every handle
        // under the registry's own map mutex only — never the node's
        // apply/WAL lock — so a running round cannot stall a scrape.
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
        ("POST", "/snapshot") => match node.snapshot_now() {
            Ok(seq) => Response::json(
                200,
                Json::obj([("snapshot_seq", Json::Num(seq as f64))]).dump(),
            ),
            Err(e) => Response::json(500, err_body(&e.to_string())),
        },
        ("POST", path) => match write_op(path) {
            Some(op) => write(node, op, req),
            None => Response::json(404, err_body("unknown route")),
        },
        ("GET", _) => Response::json(404, err_body("unknown route")),
        _ => Response::json(405, err_body("method not allowed")),
    }
}

/// The op of the command a write route journals.
fn write_op(path: &str) -> Option<&'static str> {
    Some(match path {
        "/enroll" => "enroll",
        "/deposits" => "deposit",
        "/offers" => "offer",
        "/asks" => "ask",
        "/licenses" => "grant_license",
        "/rounds" => "run_round",
        _ => return None,
    })
}

/// A write route: the body (an empty one is `{}`) is the command's wire
/// form minus `"op"`. The route's `op` goes *first*, ahead of the
/// body's pairs, and [`Json::get`] reads the first key, so a body's
/// own `"op"` never chooses the command.
fn write(node: &ServiceNode, op: &str, req: &Request) -> Response {
    let body = if req.body.is_empty() {
        Json::Obj(Vec::new())
    } else {
        match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return resp,
        }
    };
    let Json::Obj(pairs) = body else {
        return Response::json(400, err_body("request body must be a JSON object"));
    };
    let json = Json::Obj(
        std::iter::once(("op".to_string(), Json::str(op)))
            .chain(pairs)
            .collect(),
    );
    let cmd = match Command::decode(&json) {
        Ok(cmd) => cmd,
        Err(e) => return Response::json(400, err_body(&e.to_string())),
    };
    // `/enroll` may carry an opening deposit, a second command. It is
    // checked before the enroll applies, so that a bad amount never
    // leaves an enroll without its deposit behind.
    let deposit = match json.get("deposit") {
        Some(j) if op == "enroll" => {
            // A non-number fails the bound like any other bad amount.
            let amount = j.as_f64().unwrap_or(f64::NAN);
            if let Err(e) = check_deposit(amount) {
                return apply_response(Err(e));
            }
            Some(amount)
        }
        _ => None,
    };
    let result = node.apply(cmd);
    let (Some(amount), Ok(Outcome::Enrolled { name, shard })) = (deposit, &result) else {
        return apply_response(result);
    };
    match node.apply(Command::Deposit {
        account: name.clone(),
        amount,
    }) {
        Ok(Outcome::Deposited { balance, .. }) => Response::json(
            200,
            Json::obj([
                ("enrolled", Json::str(name.clone())),
                ("shard", Json::Num(*shard as f64)),
                ("balance", Json::Num(balance)),
            ])
            .dump(),
        ),
        other => apply_response(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Unreachable;

    impl Service for Unreachable {
        fn handle(&self, _: &Request) -> Response {
            unreachable!("a refused gateway serves nothing")
        }
    }

    #[test]
    fn configs_that_can_never_serve_are_refused_before_binding() {
        // An address that cannot be bound: reaching `bind` would fail
        // with a different error kind.
        let unbindable = || GatewayConfig {
            addr: "not an address".to_string(),
            ..GatewayConfig::default()
        };
        let cfg = GatewayConfig {
            read_timeout: Duration::ZERO,
            ..unbindable()
        };
        match Gateway::serve_service(Arc::new(Unreachable), cfg) {
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}");
                assert!(e.to_string().contains("GatewayConfig.read_timeout"), "{e}");
            }
            Ok(_) => panic!("a zero read_timeout was served"),
        }
        // The same config with a non-zero timeout reaches `bind`.
        let err = Gateway::serve_service(Arc::new(Unreachable), unbindable()).err();
        assert!(err.is_some_and(|e| !e.to_string().contains("GatewayConfig")));
    }
}
