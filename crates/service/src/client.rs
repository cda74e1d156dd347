//! A small blocking HTTP client for the gateway, shared by the e2e
//! tests, the `serve` example and the throughput benches.
//!
//! One [`Client`] owns one keep-alive socket and the queue of requests
//! written on it and not yet answered. [`Client::send`] writes a request
//! at once and [`Client::receive`] reads the reply to the oldest one;
//! [`Client::request`], [`Client::get_text`] and [`Client::pipeline`]
//! are built from the two. A pipelined batch leaves in one write and the
//! gateway answers in request order (HTTP/1.1 pipelining): one round
//! trip per batch, not per request.
//!
//! One rule says when a request is written again:
//!
//! - A reply carrying `Connection: close` drops the socket, and the
//!   requests still unanswered go out again on a fresh one: the server
//!   closed after answering, so it never read them.
//! - An *idle* socket (it carried a reply, and every request written
//!   on it before was answered) that fails before the first byte of
//!   the next reply (EOF, reset, abort or broken pipe on the read, or a
//!   write it took no byte of) is re-dialed once, and every unanswered
//!   request is written again. That is the idle-timeout close every
//!   pooled HTTP client has to handle, where the server never read
//!   them. It is **not** safe for a node killed after it journaled a
//!   command and before it replied: the socket looks the same, and the
//!   resend applies the command a second time. ROADMAP item 11
//!   (exactly-once writes) closes that hole.
//! - Anything else is an error: a fresh socket failing, a failure after
//!   a reply while later requests wait (the gateway read them before it
//!   answered), a write that breaks off, a read timeout (the server may
//!   still be applying the request), a reply that breaks off or does not
//!   parse, a damaged body. The error drops the socket and the queue, so
//!   a later request never pairs with a stale reply, and a half-read
//!   reply is never resent.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{read_response_full, HttpError};
use crate::wire::Json;

/// One request in a [`Client::pipeline`] batch.
#[derive(Debug, Clone)]
pub struct PipelinedRequest {
    /// HTTP method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path.
    pub path: String,
    /// Optional JSON body.
    pub body: Option<Json>,
}

impl PipelinedRequest {
    /// A bodyless `GET`.
    pub fn get(path: impl Into<String>) -> Self {
        PipelinedRequest {
            method: "GET".into(),
            path: path.into(),
            body: None,
        }
    }

    /// A `POST` with a JSON body.
    pub fn post(path: impl Into<String>, body: Json) -> Self {
        PipelinedRequest {
            method: "POST".into(),
            path: path.into(),
            body: Some(body),
        }
    }
}

/// A keep-alive connection to a gateway (re-dialed transparently).
pub struct Client {
    conn: Option<BufReader<TcpStream>>,
    /// Whether `conn` is idle: a reply came back on it and every request
    /// written before that reply is answered. Only then may its failure
    /// be the server's idle close rather than a real error.
    idle: bool,
    addr: SocketAddr,
    /// Requests written and not yet answered, oldest first: what a fresh
    /// socket carries again.
    unanswered: VecDeque<Vec<u8>>,
    /// Why a write failed where no resend is allowed; the next
    /// [`Client::receive`] reports it.
    write_error: Option<io::Error>,
}

impl Client {
    /// Connect.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let mut client = Client {
            conn: None,
            idle: false,
            addr,
            unanswered: VecDeque::new(),
            write_error: None,
        };
        client.ensure_conn()?;
        Ok(client)
    }

    fn ensure_conn(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            self.idle = false;
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }

    fn encode(method: &str, path: &str, body: &str, addr: SocketAddr) -> Vec<u8> {
        format!(
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\ncontent-type: application/json\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// Queue `requests` and write them in one write. A socket that is
    /// gone gets the whole queue instead, since it answered none of it;
    /// so does the fresh socket that replaces an idle one taking no byte
    /// of the write.
    fn enqueue(&mut self, requests: impl IntoIterator<Item = Vec<u8>>) {
        let mut from = self.unanswered.len();
        self.unanswered.extend(requests);
        while self.write_error.is_none() {
            if self.conn.is_none() {
                from = 0;
            }
            let slices: Vec<&[u8]> = self.unanswered.range(from..).map(Vec::as_slice).collect();
            let wire = slices.concat();
            let mut sent = 0;
            let wrote = self.ensure_conn().and_then(|c| {
                sent = c.get_ref().write(&wire)?;
                c.get_ref().write_all(&wire[sent..])
            });
            let Err(e) = wrote else { return };
            self.conn = None;
            // Once a byte left, the server may have read a request.
            if !(self.idle && sent == 0) {
                self.write_error = Some(e);
            }
        }
    }

    /// Read the reply to the oldest unanswered request, its body through
    /// `decode`. Any error drops the socket and the queue.
    fn receive_with<T>(
        &mut self,
        decode: impl FnOnce(Vec<u8>) -> io::Result<T>,
    ) -> io::Result<(u16, T)> {
        if self.unanswered.is_empty() {
            return Err(io::Error::other("receive() without send()"));
        }
        let reply = self
            .read_reply()
            .and_then(|(status, body)| Ok((status, decode(body)?)));
        if reply.is_ok() {
            self.unanswered.pop_front();
        } else {
            self.conn = None;
            self.unanswered.clear();
            self.write_error = None;
        }
        reply
    }

    fn read_reply(&mut self) -> io::Result<(u16, Vec<u8>)> {
        loop {
            if self.conn.is_none() {
                // A `Connection: close` reply or an idle close dropped
                // the socket with requests unanswered.
                self.enqueue([]);
            }
            if let Some(e) = self.write_error.take() {
                return Err(e);
            }
            let reader = self.ensure_conn()?;
            // Before the first byte of the reply: the one place where an
            // idle socket failing is the server's idle close.
            let first = match reader.fill_buf() {
                Ok([]) => Err(ErrorKind::UnexpectedEof.into()),
                other => other.map(drop),
            };
            if let Err(e) = first {
                use ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
                let idle_close = matches!(
                    e.kind(),
                    UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe
                );
                if !(self.idle && idle_close) {
                    return Err(e);
                }
                self.conn = None;
                continue;
            }
            let (status, body, close) = read_response_full(reader).map_err(|e| match e {
                HttpError::Io(io) => io,
                other => io::Error::other(format!("{other:?}")),
            })?;
            // Idle once the only request waiting is this one.
            self.idle = self.unanswered.len() == 1;
            if close {
                self.conn = None;
            }
            return Ok((status, body));
        }
    }

    /// Issue one request; returns `(status, parsed body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> io::Result<(u16, Json)> {
        self.send(method, path, &body.map(Json::dump).unwrap_or_default());
        self.receive()
    }

    /// The first half of [`Client::request`]: write the request (its
    /// body already dumped, so one text can go to many servers) and
    /// return without waiting. A caller holding several clients sends
    /// on all of them and then calls [`Client::receive`] on each: the
    /// servers work at the same time and no thread is spawned. A failed
    /// write is reported by `receive`.
    pub fn send(&mut self, method: &str, path: &str, body_text: &str) {
        self.enqueue([Self::encode(method, path, body_text, self.addr)]);
    }

    /// The second half: `(status, parsed body)` of the oldest request
    /// [`Client::send`] wrote. A damaged body is an error, never
    /// repaired: a reply the worker did not send must not be accepted.
    pub fn receive(&mut self) -> io::Result<(u16, Json)> {
        self.receive_with(|body| {
            Json::parse_bytes(&body)
                .map_err(|e| io::Error::other(format!("bad response JSON: {e}")))
        })
    }

    /// [`Client::receive`] without the parse: `(status, body bytes)`, for
    /// a caller that decodes the body itself or only needs the status.
    /// A reply that breaks off is still an error.
    pub fn receive_raw(&mut self) -> io::Result<(u16, Vec<u8>)> {
        self.receive_with(Ok)
    }

    /// Write every request in `batch` in one write, then read their
    /// replies, which return in request order.
    pub fn pipeline(&mut self, batch: &[PipelinedRequest]) -> io::Result<Vec<(u16, Json)>> {
        let addr = self.addr;
        self.enqueue(batch.iter().map(|r| {
            let body = r.body.as_ref().map(Json::dump).unwrap_or_default();
            Self::encode(&r.method, &r.path, &body, addr)
        }));
        batch.iter().map(|_| self.receive()).collect()
    }

    /// `GET path` returning the raw body text (for non-JSON endpoints
    /// like the Prometheus exposition on `/metrics`), expecting 200.
    pub fn get_text(&mut self, path: &str) -> io::Result<String> {
        self.send("GET", path, "");
        let (status, text) = self.receive_with(|body| {
            String::from_utf8(body).map_err(|_| io::Error::other("response body is not UTF-8"))
        })?;
        if status != 200 {
            return Err(io::Error::other(format!("GET {path} -> {status}")));
        }
        Ok(text)
    }

    /// `GET path`, expecting 200.
    pub fn get(&mut self, path: &str) -> io::Result<Json> {
        self.expect_200("GET", path, None)
    }

    /// `POST path`, expecting 200.
    pub fn post(&mut self, path: &str, body: &Json) -> io::Result<Json> {
        self.expect_200("POST", path, Some(body))
    }

    fn expect_200(&mut self, method: &str, path: &str, body: Option<&Json>) -> io::Result<Json> {
        let (status, json) = self.request(method, path, body)?;
        if status != 200 {
            let text = json.dump();
            return Err(io::Error::other(format!(
                "{method} {path} -> {status}: {text}"
            )));
        }
        Ok(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_request;
    use std::net::TcpListener;

    /// One connection of a test server: rounds of "read this many
    /// requests, every one before any reply, then write these bytes",
    /// and then [`CLOSE`] the socket or [`HOLD`] it, reading on until the
    /// client lets go.
    type Conn = (Vec<(usize, Vec<u8>)>, bool);
    const CLOSE: bool = true;
    const HOLD: bool = false;

    type Server = (SocketAddr, std::thread::JoinHandle<Vec<String>>);

    /// A server that plays `conns` in turn, one per accepted connection.
    /// It returns the path of every request it read, on any connection,
    /// in order.
    fn scripted_server(conns: Vec<Conn>) -> Server {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for (rounds, close) in conns {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut next = || read_request(&mut reader, 1 << 20).map(|r| r.path);
                for (n, bytes) in rounds {
                    for _ in 0..n {
                        seen.push(next().expect("client hung up before sending every request"));
                    }
                    stream.write_all(&bytes).unwrap();
                }
                if !close {
                    seen.extend(std::iter::from_fn(|| next().ok()));
                }
            }
            seen
        });
        (addr, handle)
    }

    /// A 200 reply with `body`.
    fn reply(body: &[u8]) -> Vec<u8> {
        let head = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", body.len());
        [head.as_bytes(), body].concat()
    }

    /// `n` 200 replies with `{}`.
    fn ok(n: usize) -> Vec<u8> {
        reply(b"{}").repeat(n)
    }

    /// A 200 reply with `{}` that closes the connection.
    const OK_CLOSE: &[u8] = b"HTTP/1.1 200 OK\r\nconnection: close\r\ncontent-length: 2\r\n\r\n{}";

    /// A one-connection server: waits for `bodies.len()` requests, then
    /// answers them in order with the given bodies.
    fn canned_server(bodies: Vec<&'static [u8]>) -> Server {
        let replies = bodies.iter().flat_map(|body| reply(body)).collect();
        scripted_server(vec![(vec![(bodies.len(), replies)], HOLD)])
    }

    /// Valid JSON but for one byte that is not UTF-8: lossy decoding
    /// would turn it into U+FFFD and accept the reply.
    const DAMAGED: &[u8] = b"{\"digest\":\"12\xff4\"}";

    #[test]
    fn damaged_reply_is_refused_not_repaired() {
        let (addr, server) = canned_server(vec![DAMAGED]);
        let mut client = Client::connect(addr).unwrap();
        let err = client.request("GET", "/internal/digest", None).unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8"), "{err}");
        drop(client);
        assert_eq!(server.join().unwrap(), ["/internal/digest"]);
    }

    #[test]
    fn send_then_receive_overlaps_two_servers() {
        let (addr_a, server_a) = canned_server(vec![b"{\"who\":\"a\"}"]);
        let (addr_b, server_b) = canned_server(vec![DAMAGED]);
        let mut a = Client::connect(addr_a).unwrap();
        let mut b = Client::connect(addr_b).unwrap();
        assert!(a.receive().is_err(), "nothing was sent yet");
        // Both requests are on the wire before either reply is read.
        a.send("GET", "/x", "");
        b.send("GET", "/x", "");
        let (status, json) = a.receive().unwrap();
        assert_eq!((status, json.dump().as_str()), (200, "{\"who\":\"a\"}"));
        let err = b.receive().unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8"), "{err}");
        drop((a, b));
        assert_eq!(server_a.join().unwrap(), ["/x"]);
        assert_eq!(server_b.join().unwrap(), ["/x"]);
    }

    #[test]
    fn damaged_reply_in_a_pipeline_is_refused_and_drops_the_socket() {
        let (addr, server) = canned_server(vec![b"{}", DAMAGED, b"{}"]);
        let mut client = Client::connect(addr).unwrap();
        let batch = vec![PipelinedRequest::get("/a"); 3];
        let err = client.pipeline(&batch).unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8"), "{err}");
        // The third reply is still in flight on that socket: reusing it
        // would pair the next request with a stale response.
        assert!(client.conn.is_none());
        drop(client);
        assert_eq!(server.join().unwrap(), ["/a", "/a", "/a"]);
    }

    /// After `/warm`, the server plays `then` to the batch on the same
    /// socket; a second connection, which a resend would dial, only
    /// listens. The batch must fail with each request reaching the
    /// server once.
    fn failure_is_not_a_resend(batch: &[PipelinedRequest], mut then: Conn) {
        then.0.insert(0, (1, ok(1)));
        let (addr, server) = scripted_server(vec![then, (vec![], HOLD)]);
        let mut client = Client::connect(addr).unwrap();
        client.get("/warm").unwrap();
        let timeout = Some(Duration::from_millis(200));
        let socket = client.conn.as_ref().unwrap().get_ref();
        socket.set_read_timeout(timeout).unwrap();
        let result = client.pipeline(batch);
        drop(client);
        // The connection a resend would use; this client never dials it.
        let _ = TcpStream::connect(addr);
        let mut expected = vec!["/warm"];
        expected.extend(batch.iter().map(|r| r.path.as_str()));
        assert_eq!(server.join().unwrap(), expected);
        assert!(result.is_err());
    }

    /// A read timeout on an idle socket is an error, never a resend: the
    /// server may still be applying the write. The server writes
    /// `partial` of the reply and holds the socket past the timeout.
    fn timeout_is_not_a_resend(partial: &'static [u8]) {
        let deposit = [PipelinedRequest::post("/deposits", Json::Null)];
        failure_is_not_a_resend(&deposit, (vec![(1, partial.to_vec())], HOLD));
    }

    #[test]
    fn timeout_before_any_reply_byte_is_not_a_resend() {
        timeout_is_not_a_resend(b"");
    }

    #[test]
    fn timeout_mid_reply_is_not_a_resend() {
        timeout_is_not_a_resend(b"HTTP/1.1 200 OK\r\ncontent-");
    }

    #[test]
    fn close_after_part_of_a_batch_is_not_a_resend() {
        // The gateway read `/b` before it answered `/a`: a failure after
        // the first reply may follow `/b` being applied.
        let batch = [PipelinedRequest::get("/a"), PipelinedRequest::get("/b")];
        failure_is_not_a_resend(&batch, (vec![(2, ok(1))], CLOSE));
    }

    #[test]
    fn idle_closed_socket_is_redialed_and_each_request_sent_once() {
        let (addr, server) = scripted_server(vec![
            (vec![(1, ok(1))], CLOSE),
            (vec![(2, ok(2))], CLOSE),
            (vec![(1, ok(1))], HOLD),
        ]);
        let mut client = Client::connect(addr).unwrap();
        client.get("/warm").unwrap();
        let batch = [PipelinedRequest::get("/a"), PipelinedRequest::get("/b")];
        assert_eq!(client.pipeline(&batch).unwrap().len(), 2);
        client.send("POST", "/c", "{}");
        assert_eq!(client.receive().unwrap().0, 200);
        drop(client);
        assert_eq!(server.join().unwrap(), ["/warm", "/a", "/b", "/c"]);
    }

    #[test]
    fn connection_close_mid_batch_resends_the_rest_once() {
        let (addr, server) = scripted_server(vec![
            (vec![(2, [ok(1), OK_CLOSE.to_vec()].concat())], CLOSE),
            (vec![(1, ok(1))], HOLD),
        ]);
        let mut client = Client::connect(addr).unwrap();
        let batch = ["/a", "/b", "/c"].map(PipelinedRequest::get);
        assert_eq!(client.pipeline(&batch).unwrap().len(), 3);
        drop(client);
        assert_eq!(server.join().unwrap(), ["/a", "/b", "/c"]);
    }
}
