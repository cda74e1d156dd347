//! Minimal HTTP/1.1 framing — just enough for the gateway (and its
//! client helper): request-line + headers + `Content-Length` bodies,
//! keep-alive by default, no chunked encoding.
//!
//! [`read_request`] reads one request off a blocking `BufRead` stream;
//! each gateway connection thread calls it in a loop, so pipelined
//! requests come out in wire order however the socket cuts them.

use std::io::{BufRead, Read, Write};

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method (`GET`, `POST`, ...), upper-case as received.
    pub method: String,
    /// Path, without query string.
    pub path: String,
    /// Lower-cased header `(name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Header lookup (names are stored lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to close the connection after this
    /// request (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// Errors surfaced to the connection loop.
#[derive(Debug)]
pub enum HttpError {
    /// Clean EOF before a request line: the peer is done.
    Eof,
    /// Malformed request (connection should answer 400 and close).
    Malformed(String),
    /// Body larger than the configured cap (answer 413 and close).
    TooLarge,
    /// Underlying socket error.
    Io(std::io::Error),
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Longest accepted request/status/header line, in bytes — enforced
/// *while* reading, so a peer cannot grow server memory with an
/// endless line.
const MAX_LINE: usize = 8 * 1024;

/// Most headers accepted per message.
const MAX_HEADERS: usize = 100;

/// Read one `\n`-terminated line, capped at `MAX_LINE` bytes. Returns
/// `None` on clean EOF before any byte.
fn read_line_bounded(stream: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (consumed, done) = {
            let buf = stream.fill_buf()?;
            if buf.is_empty() {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed("eof mid-line".into()));
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    line.extend_from_slice(&buf[..pos]);
                    (pos + 1, true)
                }
                None => {
                    line.extend_from_slice(buf);
                    (buf.len(), false)
                }
            }
        };
        stream.consume(consumed);
        if line.len() > MAX_LINE {
            return Err(HttpError::TooLarge);
        }
        if done {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map(Some)
                .map_err(|_| HttpError::Malformed("line is not UTF-8".into()));
        }
    }
}

/// Parse `METHOD target [version]`: method upper-cased, query string
/// dropped, path required to be origin-form.
fn parse_request_line(line: &str) -> Result<(String, String), HttpError> {
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    if !path.starts_with('/') {
        return Err(HttpError::Malformed(
            "request target must be absolute".into(),
        ));
    }
    Ok((method, path))
}

/// Parse one `Name: value` header line, folding `content-length` into
/// `content_length` with the anti-smuggling duplicate check.
fn parse_header_line(
    header: &str,
    content_length: &mut Option<usize>,
) -> Result<(String, String), HttpError> {
    let Some((name, value)) = header.split_once(':') else {
        return Err(HttpError::Malformed(format!("bad header '{header}'")));
    };
    let name = name.trim().to_lowercase();
    let value = value.trim().to_string();
    if name == "content-length" {
        let parsed: usize = value
            .parse()
            .map_err(|_| HttpError::Malformed("bad content-length".into()))?;
        // Conflicting duplicates are the request-smuggling classic:
        // two parsers on the path disagreeing on the body boundary
        // desyncs the connection. Reject rather than last-one-wins
        // (RFC 9110 §8.6 allows collapsing *identical* repeats).
        if content_length.is_some_and(|prev| prev != parsed) {
            return Err(HttpError::Malformed(
                "conflicting duplicate content-length headers".into(),
            ));
        }
        *content_length = Some(parsed);
    }
    Ok((name, value))
}

/// A message head: start line, lower-cased headers, `Content-Length`.
type Head = (String, Vec<(String, String)>, usize);

/// Read a message head up to its blank line. Returns `None` on clean
/// EOF before the start line.
fn read_head(stream: &mut impl BufRead) -> Result<Option<Head>, HttpError> {
    let Some(start) = read_line_bounded(stream)? else {
        return Ok(None);
    };
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let Some(header) = read_line_bounded(stream)? else {
            return Err(HttpError::Malformed("eof inside headers".into()));
        };
        if header.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge);
        }
        headers.push(parse_header_line(&header, &mut content_length)?);
    }
    Ok(Some((start, headers, content_length.unwrap_or(0))))
}

/// Read a `len`-byte body, growing the buffer as bytes arrive; a short body is malformed.
fn read_body(stream: &mut impl BufRead, len: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::with_capacity(len.min(64 * 1024));
    stream.take(len as u64).read_to_end(&mut body)?;
    if body.len() != len {
        return Err(HttpError::Malformed("short body".into()));
    }
    Ok(body)
}

/// Read one request off a buffered stream.
pub fn read_request(stream: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let Some((line, headers, content_length)) = read_head(stream)? else {
        return Err(HttpError::Eof);
    };
    let (method, path) = parse_request_line(&line)?;
    if content_length > max_body {
        return Err(HttpError::TooLarge);
    }
    Ok(Request {
        method,
        path,
        body: read_body(stream, content_length)?,
        headers,
    })
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body (JSON text almost everywhere; `/metrics` is plain text).
    pub body: String,
    /// `content-type` header value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
        }
    }

    /// A response with an explicit content type (e.g. the Prometheus
    /// text exposition on `/metrics`).
    pub fn text(status: u16, body: impl Into<String>, content_type: &'static str) -> Self {
        Response {
            status,
            body: body.into(),
            content_type,
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            503 => "Service Unavailable",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }

    /// Serialize to wire bytes.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut out = Vec::with_capacity(self.body.len() + 128);
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n{}",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            connection,
            self.body
        );
        out
    }
}

/// Read one response (client side): `(status, body, close)`, where
/// `close` reports whether the server marked the connection for closing
/// (`Connection: close`) — a keep-alive client must drop and re-dial
/// before its next request instead of writing into a socket the server
/// is about to shut.
pub fn read_response_full(stream: &mut impl BufRead) -> Result<(u16, Vec<u8>, bool), HttpError> {
    let Some((line, headers, content_length)) = read_head(stream)? else {
        return Err(HttpError::Eof);
    };
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line '{line}'")))?;
    let close = headers
        .iter()
        .any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("close"));
    Ok((status, read_body(stream, content_length)?, close))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_round_trips_through_bytes() {
        let raw = b"POST /offers?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 4\r\n\r\nbody";
        let mut reader = BufReader::new(&raw[..]);
        let req = read_request(&mut reader, 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/offers");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn conflicting_duplicate_content_length_rejected() {
        // Classic request-smuggling shape: two parsers could disagree on
        // where the body ends. Must be a hard 400, not last-one-wins.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nbody";
        let mut reader = BufReader::new(&raw[..]);
        match read_request(&mut reader, 1024) {
            Err(HttpError::Malformed(msg)) => assert!(msg.contains("content-length"), "{msg}"),
            other => panic!("conflicting duplicates accepted: {other:?}"),
        }
    }

    #[test]
    fn identical_duplicate_content_length_tolerated() {
        // RFC 9110 §8.6: identical repeated values may be collapsed.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody";
        let mut reader = BufReader::new(&raw[..]);
        let req = read_request(&mut reader, 1024).unwrap();
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn response_with_conflicting_content_length_rejected() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 1\r\ncontent-length: 9\r\n\r\nx";
        let mut reader = BufReader::new(&raw[..]);
        assert!(matches!(
            read_response_full(&mut reader),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn body_is_not_allocated_before_its_bytes_arrive() {
        // Each once aborted the reader: `vec!` overflow, a 1 TiB allocation.
        for len in ["18446744073709551615", "1099511627776"] {
            let raw = format!("HTTP/1.1 200 OK\r\ncontent-length: {len}\r\n\r\nshort");
            let reply = read_response_full(&mut BufReader::new(raw.as_bytes()));
            assert!(matches!(reply, Err(HttpError::Malformed(_))), "{len}");
        }
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 9\r\n\r\nbody";
        let req = read_request(&mut BufReader::new(&raw[..]), 1024);
        assert!(matches!(req, Err(HttpError::Malformed(_))));
    }

    #[test]
    fn oversized_body_rejected() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        assert!(matches!(
            read_request(&mut reader, 10),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn endless_header_line_rejected_while_reading() {
        // No newline ever arrives: the cap must trigger mid-line, not
        // after buffering the whole thing.
        let mut raw = b"GET / HTTP/1.1\r\nx-big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 64 * 1024));
        let mut reader = BufReader::new(&raw[..]);
        assert!(matches!(
            read_request(&mut reader, 1024),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn too_many_headers_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..200 {
            raw.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let mut reader = BufReader::new(&raw[..]);
        assert!(matches!(
            read_request(&mut reader, 1024),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn eof_is_clean_end() {
        let mut reader = BufReader::new(&b""[..]);
        assert!(matches!(read_request(&mut reader, 10), Err(HttpError::Eof)));
    }

    /// A reader that hands out at most one byte per `read`.
    struct Trickle<'a>(&'a [u8]);

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_request_handles_byte_at_a_time() {
        let raw = b"POST /offers?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 4\r\n\r\nbodyGET /health HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(Trickle(raw));
        let first = read_request(&mut reader, 1024).unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.path, "/offers");
        assert_eq!(first.header("host"), Some("localhost"));
        assert_eq!(first.body, b"body");
        let second = read_request(&mut reader, 1024).unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/health");
        assert!(second.body.is_empty());
        assert!(matches!(
            read_request(&mut reader, 1024),
            Err(HttpError::Eof)
        ));
    }

    #[test]
    fn read_request_yields_pipelined_requests_in_order() {
        let mut raw = Vec::new();
        for i in 0..10 {
            raw.extend_from_slice(
                format!("POST /r{i} HTTP/1.1\r\ncontent-length: 2\r\n\r\n{i:02}").as_bytes(),
            );
        }
        let mut reader = BufReader::new(&raw[..]);
        for i in 0..10 {
            let req = read_request(&mut reader, 1024).unwrap();
            assert_eq!(req.path, format!("/r{i}"));
            assert_eq!(req.body, format!("{i:02}").as_bytes());
        }
        assert!(matches!(
            read_request(&mut reader, 1024),
            Err(HttpError::Eof)
        ));
    }

    #[test]
    fn malformed_request_rejected_with_diagnostic() {
        for (raw, diagnostic) in [
            (
                &b"GET nopath HTTP/1.1\r\n\r\n"[..],
                "request target must be absolute",
            ),
            (
                &b"GET / HTTP/1.1\r\nbadheader\r\n\r\n"[..],
                "bad header 'badheader'",
            ),
        ] {
            let mut reader = BufReader::new(raw);
            match read_request(&mut reader, 1024) {
                Err(HttpError::Malformed(msg)) => assert_eq!(msg, diagnostic, "{raw:?}"),
                other => panic!("{raw:?} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn response_close_flag_surfaces_to_clients() {
        let buf = Response::json(200, "{}").to_bytes(false);
        let mut reader = BufReader::new(&buf[..]);
        let (status, _, close) = read_response_full(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert!(close, "connection: close must surface");

        let buf = Response::json(200, "{}").to_bytes(true);
        let mut reader = BufReader::new(&buf[..]);
        let (_, _, close) = read_response_full(&mut reader).unwrap();
        assert!(!close);
    }

    #[test]
    fn response_serializes_and_parses() {
        let buf = Response::json(200, "{\"ok\":true}").to_bytes(true);
        let mut reader = BufReader::new(&buf[..]);
        let (status, body, _) = read_response_full(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\":true}");
    }
}
