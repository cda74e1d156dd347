//! A small blocking HTTP client for the gateway, shared by the e2e
//! tests, the `serve` example and the throughput benches.
//!
//! One [`Client`] manages one keep-alive connection and hides its
//! lifecycle: a `Connection: close` response (or a keep-alive socket
//! the server already shut — an idle-timeout race every pooled HTTP
//! client has to handle) triggers a transparent re-dial instead of an
//! error on the next request. The stale-connection retry only fires
//! for requests written to a *reused* socket that died before
//! producing any response bytes — a fresh connection failing is a real
//! error, and a half-read response is never retried. That retry is
//! safe for an idle-timeout close, where the server never read the
//! request. It is **not** safe for a node killed after it journaled
//! the command and before it replied: the socket looks the same, and
//! the resend applies a mutating command a second time. ROADMAP item
//! 11 (exactly-once writes) closes that hole.
//!
//! [`Client::pipeline`] writes a whole batch of requests before
//! reading any responses — HTTP/1.1 pipelining, which the gateway
//! answers in request order. One round trip per *batch*
//! instead of one per request is the difference between
//! latency-bound and throughput-bound benching.

use std::io::{BufReader, Write};
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

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Whether this socket already served at least one request; only
    /// then may a dead socket be a stale-keep-alive race worth a retry.
    reused: bool,
}

/// A keep-alive connection to a gateway (re-dialed transparently).
pub struct Client {
    conn: Option<Conn>,
    addr: SocketAddr,
    /// A request [`Client::send`] wrote and [`Client::receive`] has not
    /// read the reply to: its bytes (a stale socket gets them again)
    /// and how the write went.
    sent: Option<(Vec<u8>, std::io::Result<()>)>,
}

impl Client {
    /// Connect.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let mut client = Client {
            conn: None,
            addr,
            sent: None,
        };
        client.ensure_conn()?;
        Ok(client)
    }

    fn ensure_conn(&mut self) -> std::io::Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_nodelay(true)?;
            let writer = stream.try_clone()?;
            self.conn = Some(Conn {
                reader: BufReader::new(stream),
                writer,
                reused: false,
            });
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }

    fn encode(method: &str, path: &str, body: Option<&Json>, addr: SocketAddr) -> Vec<u8> {
        Self::encode_text(
            method,
            path,
            &body.map(Json::dump).unwrap_or_default(),
            addr,
        )
    }

    fn encode_text(method: &str, path: &str, body_text: &str, addr: SocketAddr) -> Vec<u8> {
        let mut out = Vec::with_capacity(body_text.len() + 128);
        let _ = write!(
            out,
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\ncontent-type: application/json\r\n\r\n{}",
            body_text.len(),
            body_text
        );
        out
    }

    /// Decode a response body. A damaged byte is an error, never
    /// repaired: a reply the worker did not send must not be accepted.
    fn decode(body: &[u8]) -> std::io::Result<Json> {
        Json::parse_bytes(body)
            .map_err(|e| std::io::Error::other(format!("bad response JSON: {e}")))
    }

    /// Whether an error smells like the server closed a keep-alive
    /// socket under us (as opposed to refusing or misbehaving).
    fn is_stale_conn_error(e: &std::io::Error) -> bool {
        matches!(
            e.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe
        )
    }

    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let conn = self.ensure_conn()?;
        conn.writer.write_all(bytes)?;
        conn.writer.flush()
    }

    /// Read the reply to `bytes`, which went out with result `wrote`:
    /// `(status, body)`.
    fn complete(
        &mut self,
        bytes: &[u8],
        mut wrote: std::io::Result<()>,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        loop {
            let was_reused = self.conn.as_ref().is_some_and(|c| c.reused);
            let attempt = wrote.and_then(|()| {
                let conn = self.conn.as_mut().ok_or(std::io::ErrorKind::NotConnected)?;
                let reply = read_response_full(&mut conn.reader).map_err(|e| match e {
                    HttpError::Io(io) => io,
                    HttpError::Eof => std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed before response",
                    ),
                    other => std::io::Error::other(format!("{other:?}")),
                })?;
                conn.reused = true;
                Ok(reply)
            });
            match attempt {
                Ok((status, body, close)) => {
                    if close {
                        // Server said this socket is done: drop it now
                        // so the next request re-dials instead of
                        // writing into a closing stream.
                        self.conn = None;
                    }
                    return Ok((status, body));
                }
                Err(e) if was_reused && Self::is_stale_conn_error(&e) => {
                    // Reused socket died before any response byte:
                    // an idle-timeout close, where the server never
                    // read the request, or a node killed after
                    // journaling it, where this resend applies it
                    // twice (ROADMAP item 11). Re-dial and resend
                    // once; a fresh socket failing is final.
                    self.conn = None;
                    wrote = self.write(bytes);
                }
                Err(e) => {
                    self.conn = None;
                    return Err(e);
                }
            }
        }
    }

    /// Issue one request; returns `(status, parsed body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> std::io::Result<(u16, Json)> {
        let bytes = Self::encode(method, path, body, self.addr);
        let wrote = self.write(&bytes);
        let (status, body) = self.complete(&bytes, wrote)?;
        Ok((status, Self::decode(&body)?))
    }

    /// The first half of [`Client::request`]: write the request (its
    /// body already dumped, so one text can go to many servers) and
    /// return without waiting. A caller holding several clients sends
    /// on all of them and then calls [`Client::receive`] on each: the
    /// servers work at the same time and no thread is spawned. A failed
    /// write is reported by `receive`.
    pub fn send(&mut self, method: &str, path: &str, body_text: &str) {
        let bytes = Self::encode_text(method, path, body_text, self.addr);
        let wrote = self.write(&bytes);
        self.sent = Some((bytes, wrote));
    }

    /// The second half: `(status, parsed body)` of the request
    /// [`Client::send`] wrote.
    pub fn receive(&mut self) -> std::io::Result<(u16, Json)> {
        let Some((bytes, wrote)) = self.sent.take() else {
            return Err(std::io::Error::other("receive() without send()"));
        };
        let (status, body) = self.complete(&bytes, wrote)?;
        Ok((status, Self::decode(&body)?))
    }

    /// Write every request in `batch` before reading any response —
    /// HTTP/1.1 pipelining. Responses return in request order. If the
    /// server closes the connection partway (e.g. a 400 with
    /// `Connection: close`), the remaining requests are resent on a
    /// fresh connection.
    pub fn pipeline(&mut self, batch: &[PipelinedRequest]) -> std::io::Result<Vec<(u16, Json)>> {
        let mut results = Vec::with_capacity(batch.len());
        let mut start = 0usize;
        while start < batch.len() {
            let rest = &batch[start..];
            let mut wire = Vec::new();
            for r in rest {
                wire.extend_from_slice(&Self::encode(
                    &r.method,
                    &r.path,
                    r.body.as_ref(),
                    self.addr,
                ));
            }
            let conn = self.ensure_conn()?;
            let was_reused = conn.reused;
            conn.writer.write_all(&wire)?;
            conn.writer.flush()?;
            let mut got_any = false;
            let mut reconnect = false;
            for _ in rest {
                match read_response_full(&mut conn.reader) {
                    Ok((status, bytes, close)) => {
                        got_any = true;
                        conn.reused = true;
                        match Self::decode(&bytes) {
                            Ok(json) => results.push((status, json)),
                            Err(e) => {
                                // Later replies are still in flight on
                                // this socket; it cannot be reused.
                                self.conn = None;
                                return Err(e);
                            }
                        }
                        start += 1;
                        if close {
                            // Later pipelined requests die with the
                            // socket; resend them on a fresh one.
                            reconnect = true;
                            break;
                        }
                    }
                    Err(HttpError::Eof) | Err(HttpError::Io(_)) if was_reused && !got_any => {
                        // Reused socket died before any response
                        // byte: resend the whole remainder. A node
                        // killed after journaling part of it applies
                        // that part twice (ROADMAP item 11).
                        reconnect = true;
                        break;
                    }
                    Err(e) => {
                        self.conn = None;
                        return Err(match e {
                            HttpError::Io(io) => io,
                            other => std::io::Error::other(format!("{other:?}")),
                        });
                    }
                }
            }
            if reconnect {
                self.conn = None;
            }
        }
        Ok(results)
    }

    /// `GET path` returning the raw body text (for non-JSON endpoints
    /// like the Prometheus exposition on `/metrics`), expecting 200.
    pub fn get_text(&mut self, path: &str) -> std::io::Result<String> {
        let bytes = Self::encode("GET", path, None, self.addr);
        let wrote = self.write(&bytes);
        let (status, body) = self.complete(&bytes, wrote)?;
        if status != 200 {
            return Err(std::io::Error::other(format!("GET {path} -> {status}")));
        }
        String::from_utf8(body).map_err(|_| std::io::Error::other("response body is not UTF-8"))
    }

    /// `GET path`, expecting 200.
    pub fn get(&mut self, path: &str) -> std::io::Result<Json> {
        let (status, json) = self.request("GET", path, None)?;
        if status != 200 {
            return Err(std::io::Error::other(format!(
                "GET {path} -> {status}: {}",
                json.dump()
            )));
        }
        Ok(json)
    }

    /// `POST path`, expecting 200.
    pub fn post(&mut self, path: &str, body: &Json) -> std::io::Result<Json> {
        let (status, json) = self.request("POST", path, Some(body))?;
        if status != 200 {
            return Err(std::io::Error::other(format!(
                "POST {path} -> {status}: {}",
                json.dump()
            )));
        }
        Ok(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// A one-connection server: waits for `bodies.len()` bodyless
    /// requests, then answers them in order with the given bodies.
    fn canned_server(bodies: Vec<&'static [u8]>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut chunk = [0u8; 1024];
            while seen.windows(4).filter(|w| w == b"\r\n\r\n").count() < bodies.len() {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "client hung up before sending every request");
                seen.extend_from_slice(&chunk[..n]);
            }
            for body in bodies {
                let head = format!(
                    "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
                    body.len()
                );
                stream.write_all(head.as_bytes()).unwrap();
                stream.write_all(body).unwrap();
            }
            // Hold the socket until the client lets go of it.
            let _ = stream.read(&mut chunk);
        });
        (addr, handle)
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
        server.join().unwrap();
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
        server_a.join().unwrap();
        server_b.join().unwrap();
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
        server.join().unwrap();
    }
}
