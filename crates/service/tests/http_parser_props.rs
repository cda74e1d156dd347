//! Property tests pinning [`read_request`] over a socket-like reader to
//! the same parser over the whole stream at once.
//!
//! A gateway connection never sees a request in one piece: the kernel
//! hands it whatever bytes happen to be in the socket buffer, cut at
//! arbitrary boundaries (TCP segmentation, slow peers, pipelining).
//! These properties assert that **no cut changes the parse**: reading
//! a request stream through a reader that returns at most k bytes per
//! `read` — down to one — yields exactly the requests read from a
//! `Cursor` over the same bytes, and pipelined requests always surface
//! in wire order.

use std::io::{BufReader, Cursor, Read};

use dmp_service::http::{read_request, HttpError, Request};
use proptest::prelude::*;

const MAX_BODY: usize = 1 << 20;

/// Strategy for one request's wire-relevant parts:
/// `(is_post, path, extra_header_name, extra_header_value, body)`.
fn arb_request() -> impl Strategy<Value = (bool, String, String, String, Vec<u8>)> {
    (
        proptest::bool::ANY,
        "/[a-z0-9_/]{0,20}",
        "[a-z]{1,10}",
        "[ -~]{0,24}",
        proptest::collection::vec(0u8..=255u8, 0..128),
    )
}

/// Serialize a generated request the way a client would put it on the
/// wire (POSTs carry the body, GETs drop it).
fn encode(req: &(bool, String, String, String, Vec<u8>)) -> Vec<u8> {
    let (is_post, path, hname, hval, body) = req;
    let method = if *is_post { "POST" } else { "GET" };
    let body: &[u8] = if *is_post { body } else { &[] };
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\nx-{hname}: {hval}\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// A reader that returns the stream in chunks, cycling through
/// `sizes`: what a socket does to the bytes a peer sent.
struct Chunked<'a> {
    rest: &'a [u8],
    sizes: Vec<usize>,
    k: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.k % self.sizes.len()];
        self.k += 1;
        let n = size.min(buf.len()).min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// Drain every request out of `stream` until a clean EOF.
fn drain(mut stream: impl std::io::BufRead) -> Vec<Request> {
    let mut out = Vec::new();
    loop {
        match read_request(&mut stream, MAX_BODY) {
            Ok(req) => out.push(req),
            Err(HttpError::Eof) => return out,
            Err(e) => panic!("rejected well-formed wire bytes: {e:?}"),
        }
    }
}

/// The oracle: the whole stream in one buffer.
fn oracle(wire: &[u8]) -> Vec<Request> {
    drain(Cursor::new(wire))
}

/// The system under test: the stream cut into `sizes`-byte reads.
fn chunked(wire: &[u8], sizes: Vec<usize>) -> Vec<Request> {
    drain(BufReader::new(Chunked {
        rest: wire,
        sizes,
        k: 0,
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any chunking of a request stream parses identically to the
    /// oracle — including chunk boundaries inside the request line,
    /// inside a header name, between `\r` and `\n`, and mid-body.
    #[test]
    fn chunked_parse_matches_one_shot(
        reqs in proptest::collection::vec(arb_request(), 1..5),
        chunk_sizes in proptest::collection::vec(1usize..9, 1..12),
    ) {
        let wire: Vec<u8> = reqs.iter().flat_map(encode).collect();
        prop_assert_eq!(chunked(&wire, chunk_sizes), oracle(&wire));
    }

    /// One byte at a time is the pathological chunking; it must agree
    /// with the whole buffer at once, and both must preserve wire
    /// order.
    #[test]
    fn byte_at_a_time_matches_whole_buffer(
        reqs in proptest::collection::vec(arb_request(), 1..4),
    ) {
        let wire: Vec<u8> = reqs.iter().flat_map(encode).collect();
        let all_at_once = oracle(&wire);

        prop_assert_eq!(&chunked(&wire, vec![1]), &all_at_once);
        // Wire order: request i of the batch surfaces as parse i.
        prop_assert_eq!(all_at_once.len(), reqs.len());
        for (parsed, generated) in all_at_once.iter().zip(&reqs) {
            prop_assert_eq!(&parsed.path, &generated.1);
        }
    }
}
