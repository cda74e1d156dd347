//! Minimal HTTP/1.1 framing — just enough for the gateway (and its
//! client helper): request-line + headers + `Content-Length` bodies,
//! keep-alive by default, no chunked encoding.
//!
//! Two request decoders share the same line-level grammar:
//!
//! * [`read_request`] — one-shot, over a blocking `BufRead` stream
//!   (client-side tests, oracles);
//! * [`RequestParser`] — **resumable**: feed it whatever bytes the
//!   socket produced (down to one at a time), and it yields complete
//!   requests as they materialize. Multiple pipelined requests in one
//!   buffer come out in order. This is what the evented gateway runs —
//!   a readiness reactor never gets to block until a request finishes.

use std::io::{BufRead, Write};

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

/// Read one request off a buffered stream.
pub fn read_request(stream: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let Some(line) = read_line_bounded(stream)? else {
        return Err(HttpError::Eof);
    };
    let (method, path) = parse_request_line(&line)?;

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
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// What the incremental parser is in the middle of.
enum ParseState {
    /// Reading the request line + headers.
    Head {
        /// `(method, path)` once the request line has been seen.
        request_line: Option<(String, String)>,
        headers: Vec<(String, String)>,
        content_length: Option<usize>,
    },
    /// Head complete; waiting for `need` body bytes.
    Body { head: Request, need: usize },
}

impl ParseState {
    fn fresh() -> ParseState {
        ParseState::Head {
            request_line: None,
            headers: Vec::new(),
            content_length: None,
        }
    }
}

/// A resumable HTTP/1.1 request parser for non-blocking sockets.
///
/// [`RequestParser::feed`] appends whatever bytes arrived;
/// [`RequestParser::next`] yields each complete request exactly once,
/// in wire order, or `Ok(None)` when more bytes are needed. Splitting
/// the input at any byte boundary — mid-request-line, mid-header,
/// mid-body — yields the same requests as a one-shot parse (pinned by
/// proptest against [`read_request`]).
///
/// The same bounds as the one-shot parser are enforced *while* bytes
/// accumulate (`MAX_LINE`, `MAX_HEADERS`, the body cap), so a peer
/// trickling an endless header grows no further than one line past the
/// cap. After an error the parser is poisoned — the connection answered
/// a 400/413 and is about to close; further `next` calls keep failing.
pub struct RequestParser {
    buf: Vec<u8>,
    /// Start of the current (possibly partial) line within `buf`.
    line_start: usize,
    /// First byte not yet scanned for a line terminator.
    scan: usize,
    state: ParseState,
    poisoned: bool,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            line_start: 0,
            scan: 0,
            state: ParseState::fresh(),
            poisoned: false,
        }
    }

    /// Append bytes from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed request.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to extract the next complete request.
    pub fn next(&mut self, max_body: usize) -> Result<Option<Request>, HttpError> {
        if self.poisoned {
            return Err(HttpError::Malformed("parser previously errored".into()));
        }
        match self.advance(max_body) {
            Ok(out) => Ok(out),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn advance(&mut self, max_body: usize) -> Result<Option<Request>, HttpError> {
        loop {
            match &mut self.state {
                ParseState::Head {
                    request_line,
                    headers,
                    content_length,
                } => {
                    let Some(nl) = self.buf[self.scan..].iter().position(|&b| b == b'\n') else {
                        // No full line yet: enforce the line cap on the
                        // partial tail, then wait for more bytes.
                        if self.buf.len() - self.line_start > MAX_LINE {
                            return Err(HttpError::TooLarge);
                        }
                        self.scan = self.buf.len();
                        return Ok(None);
                    };
                    let end = self.scan + nl;
                    let mut raw = &self.buf[self.line_start..end];
                    if raw.len() > MAX_LINE {
                        return Err(HttpError::TooLarge);
                    }
                    if raw.last() == Some(&b'\r') {
                        raw = &raw[..raw.len() - 1];
                    }
                    let line = std::str::from_utf8(raw)
                        .map_err(|_| HttpError::Malformed("line is not UTF-8".into()))?;
                    if request_line.is_none() {
                        *request_line = Some(parse_request_line(line)?);
                    } else if line.is_empty() {
                        // Blank line: the head is complete.
                        let (method, path) = request_line.take().expect("request line parsed");
                        let need = content_length.unwrap_or(0);
                        if need > max_body {
                            return Err(HttpError::TooLarge);
                        }
                        let head = Request {
                            method,
                            path,
                            headers: std::mem::take(headers),
                            body: Vec::new(),
                        };
                        // Drop the head bytes; the body starts at 0 now.
                        self.buf.drain(..end + 1);
                        self.line_start = 0;
                        self.scan = 0;
                        self.state = ParseState::Body { head, need };
                        continue;
                    } else {
                        if headers.len() >= MAX_HEADERS {
                            return Err(HttpError::TooLarge);
                        }
                        headers.push(parse_header_line(line, content_length)?);
                    }
                    self.line_start = end + 1;
                    self.scan = end + 1;
                }
                ParseState::Body { head, need } => {
                    if self.buf.len() < *need {
                        return Ok(None);
                    }
                    let mut req = std::mem::replace(
                        head,
                        Request {
                            method: String::new(),
                            path: String::new(),
                            headers: Vec::new(),
                            body: Vec::new(),
                        },
                    );
                    req.body = self.buf[..*need].to_vec();
                    self.buf.drain(..*need);
                    self.line_start = 0;
                    self.scan = 0;
                    self.state = ParseState::fresh();
                    return Ok(Some(req));
                }
            }
        }
    }
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
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }

    /// Serialize to wire bytes (what the reactor queues per response).
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

    /// Serialize onto a stream.
    pub fn write_to(&self, stream: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        stream.write_all(&self.to_bytes(keep_alive))?;
        stream.flush()
    }
}

/// Read one response (client side). Returns `(status, body)`.
pub fn read_response(stream: &mut impl BufRead) -> Result<(u16, Vec<u8>), HttpError> {
    read_response_full(stream).map(|(status, body, _)| (status, body))
}

/// Read one response, also reporting whether the server marked the
/// connection for closing (`Connection: close`) — a keep-alive client
/// must drop and re-dial before its next request instead of writing
/// into a socket the server is about to shut.
pub fn read_response_full(stream: &mut impl BufRead) -> Result<(u16, Vec<u8>, bool), HttpError> {
    let Some(line) = read_line_bounded(stream)? else {
        return Err(HttpError::Eof);
    };
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line '{line}'")))?;
    let mut content_length: Option<usize> = None;
    let mut close = false;
    let mut seen = 0usize;
    loop {
        let Some(header) = read_line_bounded(stream)? else {
            return Err(HttpError::Malformed("eof inside headers".into()));
        };
        if header.is_empty() {
            break;
        }
        seen += 1;
        if seen > MAX_HEADERS {
            return Err(HttpError::TooLarge);
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let parsed: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad content-length".into()))?;
                // Same smuggling guard as the server side.
                if content_length.is_some_and(|prev| prev != parsed) {
                    return Err(HttpError::Malformed(
                        "conflicting duplicate content-length headers".into(),
                    ));
                }
                content_length = Some(parsed);
            } else if name.trim().eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0u8; content_length.unwrap_or(0)];
    stream.read_exact(&mut body)?;
    Ok((status, body, close))
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
            read_response(&mut reader),
            Err(HttpError::Malformed(_))
        ));
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

    #[test]
    fn incremental_parser_handles_byte_at_a_time() {
        let raw = b"POST /offers?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 4\r\n\r\nbodyGET /health HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new();
        let mut out = Vec::new();
        for &b in raw.iter() {
            parser.feed(&[b]);
            while let Some(req) = parser.next(1024).unwrap() {
                out.push(req);
            }
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].method, "POST");
        assert_eq!(out[0].path, "/offers");
        assert_eq!(out[0].header("host"), Some("localhost"));
        assert_eq!(out[0].body, b"body");
        assert_eq!(out[1].method, "GET");
        assert_eq!(out[1].path, "/health");
        assert!(out[1].body.is_empty());
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn incremental_parser_yields_pipelined_requests_in_order() {
        let mut raw = Vec::new();
        for i in 0..10 {
            raw.extend_from_slice(
                format!("POST /r{i} HTTP/1.1\r\ncontent-length: 2\r\n\r\n{i:02}").as_bytes(),
            );
        }
        let mut parser = RequestParser::new();
        parser.feed(&raw);
        for i in 0..10 {
            let req = parser.next(1024).unwrap().expect("request ready");
            assert_eq!(req.path, format!("/r{i}"));
            assert_eq!(req.body, format!("{i:02}").as_bytes());
        }
        assert!(parser.next(1024).unwrap().is_none());
    }

    #[test]
    fn incremental_parser_caps_endless_line_while_buffering() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\nx-big: ");
        let mut hit_cap = false;
        for _ in 0..70 {
            parser.feed(&[b'a'; 1024]);
            match parser.next(1024) {
                Ok(None) => continue,
                Err(HttpError::TooLarge) => {
                    hit_cap = true;
                    break;
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert!(hit_cap, "cap must trigger before the line completes");
        // Poisoned from here on.
        assert!(parser.next(1024).is_err());
    }

    #[test]
    fn incremental_parser_rejects_oversized_body_before_it_arrives() {
        let mut parser = RequestParser::new();
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n");
        assert!(matches!(parser.next(10), Err(HttpError::TooLarge)));
    }

    #[test]
    fn incremental_parser_matches_one_shot_on_malformed_input() {
        for raw in [
            &b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nbody"[..],
            &b"GET nopath HTTP/1.1\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nbadheader\r\n\r\n"[..],
        ] {
            let mut reader = BufReader::new(raw);
            let one_shot = read_request(&mut reader, 1024);
            let mut parser = RequestParser::new();
            parser.feed(raw);
            let incremental = parser.next(1024);
            match (&one_shot, &incremental) {
                (Err(HttpError::Malformed(a)), Err(HttpError::Malformed(b))) => {
                    assert_eq!(a, b, "same diagnostic for {raw:?}")
                }
                other => panic!("expected matching Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn response_close_flag_surfaces_to_clients() {
        let mut buf = Vec::new();
        Response::json(200, "{}").write_to(&mut buf, false).unwrap();
        let mut reader = BufReader::new(&buf[..]);
        let (status, _, close) = read_response_full(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert!(close, "connection: close must surface");

        let mut buf = Vec::new();
        Response::json(200, "{}").write_to(&mut buf, true).unwrap();
        let mut reader = BufReader::new(&buf[..]);
        let (_, _, close) = read_response_full(&mut reader).unwrap();
        assert!(!close);
    }

    #[test]
    fn response_serializes_and_parses() {
        let mut buf = Vec::new();
        Response::json(200, "{\"ok\":true}")
            .write_to(&mut buf, true)
            .unwrap();
        let mut reader = BufReader::new(&buf[..]);
        let (status, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\":true}");
    }
}
