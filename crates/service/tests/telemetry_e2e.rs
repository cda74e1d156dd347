//! End-to-end observability: boot a gateway on a real socket, drive
//! enrolls/deposits/rounds through it, then scrape `GET /metrics` and
//! assert the counters match the work actually done. Metrics are
//! process-global and cumulative, so every assertion is a
//! before/after **delta** — this binary stays valid no matter what
//! other tests in the same process record.

use std::sync::{Arc, Mutex, MutexGuard};

use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_service::client::Client;
use dmp_service::gateway::{Gateway, GatewayConfig};
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::test_support::ScratchDir;
use dmp_service::wire::Json;
use dmp_telemetry::lint_exposition;

/// Serialize the tests in this binary: metrics are process-global, so
/// a round run by one test between another test's two scrapes would
/// break that test's exact-delta assertions.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn start(dir: &ScratchDir) -> (Arc<ServiceNode>, Gateway) {
    start_keeping(dir, 0)
}

/// `keep_snapshots ≥ 1`: checkpoints verify their image and compact.
fn start_keeping(dir: &ScratchDir, keep_snapshots: usize) -> (Arc<ServiceNode>, Gateway) {
    let market = MarketConfig::external(9).with_design(MarketDesign::posted_price_baseline(20.0));
    let cfg = ServiceConfig::new(dir.path(), market)
        .with_shards(2)
        .with_fsync(false)
        .with_keep_snapshots(keep_snapshots);
    let node = Arc::new(ServiceNode::open(cfg).unwrap());
    let gateway = Gateway::serve(Arc::clone(&node), GatewayConfig::default()).unwrap();
    (node, gateway)
}

/// The value of one exposition series (exact full name incl. labels).
fn series(text: &str, name: &str) -> f64 {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(name) {
            if let Some(v) = rest.strip_prefix(' ') {
                return v
                    .parse()
                    .unwrap_or_else(|_| panic!("bad value in {line:?}"));
            }
        }
    }
    0.0 // series not yet registered = zero observations
}

#[test]
fn metrics_scrape_matches_work_done() {
    let _serial = serial();
    let dir = ScratchDir::new("telemetry-scrape");
    let (_node, gateway) = start(&dir);
    let mut client = Client::connect(gateway.addr()).unwrap();

    let before = client.get_text("/metrics").unwrap();
    lint_exposition(&before).expect("exposition must lint clean before any work");

    // Drive real work: 3 enrolls (each with a deposit → 2 journaled
    // commands), 5 bare deposits, 2 rounds.
    for name in ["tele-a", "tele-b", "tele-c"] {
        let body = Json::parse(&format!(
            r#"{{"name":"{name}","role":"buyer","deposit":50.0}}"#
        ))
        .unwrap();
        client.post("/enroll", &body).unwrap();
    }
    for i in 0..5 {
        let body = Json::parse(&format!(r#"{{"account":"tele-a","amount":{}.0}}"#, i + 1)).unwrap();
        client.post("/deposits", &body).unwrap();
    }
    for _ in 0..2 {
        client.post("/rounds", &Json::Obj(Vec::new())).unwrap();
    }

    let after = client.get_text("/metrics").unwrap();
    lint_exposition(&after).expect("exposition must lint clean after work");

    let delta = |name: &str| series(&after, name) - series(&before, name);

    // Request counters, by endpoint.
    assert_eq!(
        delta("dmp_gateway_requests_total{endpoint=\"/enroll\"}"),
        3.0
    );
    assert_eq!(
        delta("dmp_gateway_requests_total{endpoint=\"/deposits\"}"),
        5.0
    );
    assert_eq!(
        delta("dmp_gateway_requests_total{endpoint=\"/rounds\"}"),
        2.0
    );
    // The `before` scrape itself was counted by the time `after`
    // renders; the `after` scrape may not be (it increments after
    // rendering). Either way at least one /metrics request landed.
    assert!(delta("dmp_gateway_requests_total{endpoint=\"/metrics\"}") >= 1.0);

    // Latency histograms agree with the counters.
    assert_eq!(
        delta("dmp_gateway_request_us_count{endpoint=\"/deposits\"}"),
        5.0
    );
    assert!(delta("dmp_gateway_request_us_sum{endpoint=\"/deposits\"}") > 0.0);

    // WAL accounting: 3 enrolls + 3 enrollment deposits + 5 deposits +
    // 2 run_round commands = 13 journal records.
    assert_eq!(delta("dmp_journal_appends_total"), 13.0);
    assert!(delta("dmp_journal_bytes_total") > 0.0);
    assert_eq!(delta("dmp_apply_us_count{kind=\"deposit\"}"), 8.0);
    assert_eq!(delta("dmp_apply_us_count{kind=\"run_round\"}"), 2.0);

    // Round pipeline: 2 cross-shard rounds, each timing all phases.
    assert_eq!(delta("dmp_rounds_total"), 2.0);
    assert_eq!(delta("dmp_round_phase_us_count{phase=\"candidates\"}"), 2.0);
    assert_eq!(delta("dmp_round_phase_us_count{phase=\"settlement\"}"), 2.0);
    // Core stage histograms recorded on every shard of every round.
    assert!(delta("dmp_round_stage_us_count{stage=\"candidates\"}") >= 2.0);

    // Connection accounting: this client dialed before the first
    // scrape, so the *cumulative* count is at least one (the delta
    // between scrapes on one keep-alive socket is legitimately zero).
    assert!(series(&after, "dmp_gateway_accepts_total") >= 1.0);

    gateway.shutdown();
}

#[test]
fn health_reports_rounds_and_uptime() {
    let _serial = serial();
    let dir = ScratchDir::new("telemetry-health");
    let (_node, gateway) = start(&dir);
    let mut client = Client::connect(gateway.addr()).unwrap();

    client.post("/rounds", &Json::Obj(Vec::new())).unwrap();
    let health = client.get("/health").unwrap();
    assert_eq!(
        health.get("rounds_completed").and_then(Json::as_u64),
        Some(1)
    );
    let uptime = health
        .get("uptime_s")
        .and_then(Json::as_f64)
        .expect("health carries uptime_s");
    assert!((0.0..3600.0).contains(&uptime), "uptime_s={uptime}");

    gateway.shutdown();
}

#[test]
fn trace_endpoint_returns_span_ring() {
    let _serial = serial();
    let dir = ScratchDir::new("telemetry-trace");
    let (_node, gateway) = start(&dir);
    let mut client = Client::connect(gateway.addr()).unwrap();

    // Pool-handled requests open tracer spans.
    let body = Json::parse(r#"{"name":"tracer-x","role":"buyer"}"#).unwrap();
    client.post("/enroll", &body).unwrap();

    let trace = client.get("/trace").unwrap();
    assert!(
        trace.get("dropped").and_then(Json::as_u64).is_some(),
        "trace body carries the drop counter: {}",
        trace.dump()
    );
    let spans = trace.get("spans").expect("trace body has spans");
    // The enroll span may or may not still be in the ring alongside
    // spans from other tests' work, but the field must be an array.
    assert!(matches!(spans, Json::Arr(_)), "{}", trace.dump());

    gateway.shutdown();
}

#[test]
fn checkpoint_stall_and_verify_are_exposed() {
    let _serial = serial();
    let dir = ScratchDir::new("telemetry-checkpoint");
    let (_node, gateway) = start_keeping(&dir, 1);
    let mut client = Client::connect(gateway.addr()).unwrap();

    let before = client.get_text("/metrics").unwrap();
    let body = Json::parse(r#"{"name":"ckpt-a","role":"buyer","deposit":5.0}"#).unwrap();
    client.post("/enroll", &body).unwrap();
    client.post("/snapshot", &Json::Obj(Vec::new())).unwrap();
    let after = client.get_text("/metrics").unwrap();
    lint_exposition(&after).expect("exposition must lint clean with the checkpoint series");

    let delta = |name: &str| series(&after, name) - series(&before, name);
    assert_eq!(delta("dmp_checkpoint_stall_us_count"), 1.0);
    assert_eq!(delta("dmp_snapshot_verify_us_count"), 1.0);
    assert_eq!(delta("dmp_snapshot_write_us_count"), 1.0);
    // The stall is the whole checkpoint: it contains write and verify.
    assert!(
        delta("dmp_checkpoint_stall_us_sum")
            >= delta("dmp_snapshot_write_us_sum") + delta("dmp_snapshot_verify_us_sum")
    );
    assert!(after.contains("# TYPE dmp_checkpoint_stall_us histogram"));
    assert!(after.contains("# TYPE dmp_snapshot_verify_us histogram"));

    gateway.shutdown();
}
