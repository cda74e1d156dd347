//! Regression tests for the gateway's connection handling: slow-loris
//! resistance (idle sockets cannot starve healthy ones and are reaped
//! by the read timeout), a peer that never reads its responses reaped
//! by the write timeout, the connection cap, HTTP/1.1 pipelining over
//! a real socket with strictly ordered responses, and the client
//! helper's transparent reconnection after a server-initiated close.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_service::client::{Client, PipelinedRequest};
use dmp_service::gateway::{Gateway, GatewayConfig, MAX_CONNECTIONS};
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::test_support::ScratchDir;
use dmp_service::wire::Json;

fn start(dir: &ScratchDir, cfg: GatewayConfig) -> (Arc<ServiceNode>, Gateway) {
    let market = MarketConfig::external(9).with_design(MarketDesign::posted_price_baseline(20.0));
    let service = ServiceConfig::new(dir.path(), market)
        .with_shards(2)
        .with_fsync(false);
    let node = Arc::new(ServiceNode::open(service).unwrap());
    let gateway = Gateway::serve(Arc::clone(&node), cfg).unwrap();
    (node, gateway)
}

/// 64 slow-loris connections — opened, trickling at most a partial
/// request line, never completing — must not block a healthy client,
/// and the read timeout must reap them. Each loris holds a connection
/// thread, but only until the timeout, and the connection cap bounds
/// how many threads they can hold at once.
#[test]
fn slow_loris_does_not_starve_healthy_clients() {
    let cfg = GatewayConfig {
        read_timeout: Duration::from_millis(400),
        ..GatewayConfig::default()
    };
    let dir = ScratchDir::new("conn-loris");
    let (_node, gateway) = start(&dir, cfg);

    // Open 64 connections that send a few bytes of a request line and
    // then stall forever (the classic slow-loris shape).
    let mut lorises: Vec<TcpStream> = (0..64)
        .map(|_| {
            let mut s = TcpStream::connect(gateway.addr()).unwrap();
            s.write_all(b"GET /hea").unwrap();
            s
        })
        .collect();

    // A healthy client must get served promptly while all 64 stall.
    let started = Instant::now();
    let mut healthy = Client::connect(gateway.addr()).unwrap();
    for _ in 0..20 {
        let health = healthy.get("/health").unwrap();
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "healthy client starved behind idle connections ({:?})",
        started.elapsed()
    );

    // The read timeout must reap every loris: a read on each socket
    // eventually reports EOF (or a reset), not an eternal hang.
    let deadline = Instant::now() + Duration::from_secs(10);
    for loris in &mut lorises {
        let remaining = deadline.saturating_duration_since(Instant::now());
        assert!(
            !remaining.is_zero(),
            "gateway never closed idle connections"
        );
        loris.set_read_timeout(Some(remaining)).unwrap();
        let mut buf = [0u8; 64];
        match loris.read(&mut buf) {
            Ok(0) => {} // clean close
            Ok(_) => panic!("gateway answered a half-sent request"),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {} // RST also fine
            Err(e) => panic!("expected idle close, got {e}"),
        }
    }
}

/// A peer that pipelines far more `GET /ledger`s than the socket
/// buffers can hold, and never reads, is closed by the write timeout:
/// the server does not keep its unread responses for as long as it
/// stays connected.
#[test]
fn peer_that_never_reads_is_reaped() {
    let timeout = Duration::from_millis(300);
    let cfg = GatewayConfig {
        read_timeout: timeout,
        ..GatewayConfig::default()
    };
    let dir = ScratchDir::new("conn-never-reads");
    let (_node, gateway) = start(&dir, cfg);

    // 400 accounts make every ledger response about 8 KB, so 2000 of
    // them (16 MB) overflow the loopback buffers many times over.
    let mut c = Client::connect(gateway.addr()).unwrap();
    let enrolls: Vec<PipelinedRequest> = (0..400)
        .map(|i| {
            PipelinedRequest::post(
                "/enroll",
                Json::parse(&format!(
                    r#"{{"name":"never-reads-{i:03}","role":"buyer","deposit":1.0}}"#
                ))
                .unwrap(),
            )
        })
        .collect();
    for batch in enrolls.chunks(50) {
        assert!(c.pipeline(batch).unwrap().iter().all(|(s, _)| *s == 200));
    }

    const REQUESTS: usize = 4000;
    let stream = TcpStream::connect(gateway.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // The requests may not all fit in the buffers either: write them
    // from a thread of their own, which ends when the server closes.
    let pipeline = std::thread::spawn(move || {
        let request = b"GET /ledger HTTP/1.1\r\nhost: t\r\n\r\n";
        for _ in 0..REQUESTS {
            if writer.write_all(request).is_err() {
                return;
            }
        }
    });
    std::thread::sleep(3 * timeout);

    let mut reader = stream;
    reader
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut received = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => received.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("the stream never ended: {e}"),
        }
    }
    pipeline.join().unwrap();
    let responses = received
        .windows(b"HTTP/1.1 200".len())
        .filter(|w| *w == b"HTTP/1.1 200")
        .count();
    assert!(
        responses < REQUESTS,
        "all {REQUESTS} responses were kept for a peer that never read"
    );
}

/// With [`MAX_CONNECTIONS`] connections open, the next one is answered
/// `503` with `Connection: close`; once one closes, a new connection
/// is served again.
#[test]
fn connection_cap_refuses_then_recovers() {
    let dir = ScratchDir::new("conn-cap");
    let (_node, gateway) = start(&dir, GatewayConfig::default());
    let mut idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(gateway.addr()).unwrap())
        .collect();

    let mut over = TcpStream::connect(gateway.addr()).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut text = String::new();
    over.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 503"), "got: {text}");
    assert!(
        text.to_ascii_lowercase().contains("connection: close"),
        "a refusal must advertise the close: {text}"
    );

    // Close one idle connection: its slot frees once its thread has
    // seen the EOF, so retry until a new connection is served.
    drop(idle.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut s = TcpStream::connect(gateway.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let _ = s.write_all(b"GET /health HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n");
        let mut text = String::new();
        let _ = s.read_to_string(&mut text);
        if text.starts_with("HTTP/1.1 200") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no connection served after one closed: {text}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Pipelined requests on one connection come back in request order,
/// and the batch helper agrees with issuing them one at a time.
#[test]
fn pipelined_requests_answered_in_order() {
    let dir = ScratchDir::new("conn-pipeline");
    let (_node, gateway) = start(&dir, GatewayConfig::default());
    let mut c = Client::connect(gateway.addr()).unwrap();

    // Mix reads with journaled writes: every read must see exactly the
    // writes pipelined before it.
    let mut batch = Vec::new();
    for i in 0..10 {
        batch.push(PipelinedRequest::post(
            "/enroll",
            Json::parse(&format!(r#"{{"name":"buyer-{i}","role":"buyer"}}"#)).unwrap(),
        ));
        batch.push(PipelinedRequest::get("/health"));
        batch.push(PipelinedRequest::post(
            "/deposits",
            Json::parse(&format!(r#"{{"account":"buyer-{i}","amount":{}}}"#, 10 + i)).unwrap(),
        ));
        batch.push(PipelinedRequest::get(format!("/ledger/buyer-{i}")));
    }
    let responses = c.pipeline(&batch).unwrap();
    assert_eq!(responses.len(), batch.len());

    for (i, chunk) in responses.chunks(4).enumerate() {
        let (enroll_status, _) = &chunk[0];
        assert_eq!(*enroll_status, 200, "enroll {i}");
        let (health_status, health) = &chunk[1];
        assert_eq!(*health_status, 200);
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        let (deposit_status, _) = &chunk[2];
        assert_eq!(*deposit_status, 200, "deposit {i}");
        // The account read is the order proof: it must see exactly the
        // deposit pipelined right before it, for *its* buyer.
        let (acct_status, acct) = &chunk[3];
        assert_eq!(*acct_status, 200);
        assert_eq!(
            acct.get("balance").and_then(Json::as_f64),
            Some(10.0 + i as f64),
            "pipelined response {i} out of order"
        );
    }
}

/// A parse error mid-pipeline answers the bad request and closes, and
/// the client helper resends the tail on a fresh connection.
#[test]
fn malformed_request_closes_but_client_recovers() {
    let dir = ScratchDir::new("conn-malformed");
    let (_node, gateway) = start(&dir, GatewayConfig::default());

    // Raw socket: two pipelined requests where the first is malformed.
    // The gateway must answer 400 with `Connection: close` and never
    // touch the second request.
    let mut raw = TcpStream::connect(gateway.addr()).unwrap();
    raw.write_all(b"BOGUS\r\n\r\nGET /health HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n")
        .unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut text = String::new();
    raw.read_to_string(&mut text).unwrap(); // returns once the server closes
    assert!(text.starts_with("HTTP/1.1 400"), "got: {text}");
    assert!(
        text.to_ascii_lowercase().contains("connection: close"),
        "a fatal parse error must advertise the close: {text}"
    );
    assert_eq!(
        text.matches("HTTP/1.1").count(),
        1,
        "second request must not be answered"
    );

    // The keep-alive client shrugs off a server-side close between
    // requests: `Connection: close` drops the socket, the next request
    // transparently re-dials.
    let mut c = Client::connect(gateway.addr()).unwrap();
    let (status, _) = c.request("POST", "/enroll", None).unwrap();
    assert_eq!(status, 400, "missing body is a client error");
    let health = c.get("/health").unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
}

/// Keep-alive sockets reaped by the idle timeout are re-dialed
/// transparently: a client that sits idle past the timeout still
/// completes its next request instead of surfacing a broken pipe.
#[test]
fn client_survives_idle_timeout_reaping() {
    let cfg = GatewayConfig {
        read_timeout: Duration::from_millis(200),
        ..GatewayConfig::default()
    };
    let dir = ScratchDir::new("conn-reap");
    let (_node, gateway) = start(&dir, cfg);

    let mut c = Client::connect(gateway.addr()).unwrap();
    assert_eq!(
        c.get("/health")
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("ok")
    );
    // Outlive the idle timeout; the server closes our socket.
    std::thread::sleep(Duration::from_millis(700));
    assert_eq!(
        c.get("/health")
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("ok"),
        "client must reconnect after the gateway reaped its idle socket"
    );
}
