//! End-to-end over a real socket: a gateway on an ephemeral port,
//! driven by concurrent HTTP clients through the full
//! enroll → deposit → ask → offer → round → ledger-read flow, plus
//! durability across a gateway restart.

use std::sync::Arc;

use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_service::client::Client;
use dmp_service::gateway::{Gateway, GatewayConfig};
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::test_support::ScratchDir;
use dmp_service::wire::Json;

/// A seller name that hashes onto the same shard as `buyer` (offers
/// only match datasets within their own shard; cross-shard trades are
/// a ROADMAP follow-on).
fn co_located_seller(buyer: &str, base: &str, shards: u64) -> String {
    let target = dmp_service::shard::fnv1a(buyer.as_bytes()) % shards;
    (0..)
        .map(|j| format!("{base}{j}"))
        .find(|name| dmp_service::shard::fnv1a(name.as_bytes()) % shards == target)
        .unwrap()
}

fn start(dir: &ScratchDir) -> (Arc<ServiceNode>, Gateway) {
    let market = MarketConfig::external(9).with_design(MarketDesign::posted_price_baseline(20.0));
    let cfg = ServiceConfig::new(dir.path(), market)
        .with_shards(2)
        .with_fsync(false);
    let node = Arc::new(ServiceNode::open(cfg).unwrap());
    let gateway = Gateway::serve(Arc::clone(&node), GatewayConfig::default()).unwrap();
    (node, gateway)
}

fn ask_body(seller: &str, table_name: &str) -> Json {
    Json::parse(&format!(
        r#"{{"seller":"{seller}","table":{{"name":"{table_name}",
            "columns":[["city","str"],["temp","float"]],
            "rows":[["chicago",3.5],["boston",1.0],["austin",21.0]]}},
            "reserve":1.0}}"#
    ))
    .unwrap()
}

fn offer_body(buyer: &str, price: f64) -> Json {
    Json::parse(&format!(
        r#"{{"buyer":"{buyer}","attributes":["city","temp"],
            "curve":{{"kind":"constant","price":{price}}}}}"#
    ))
    .unwrap()
}

#[test]
fn full_market_session_over_the_wire() {
    let dir = ScratchDir::new("gateway-session");
    let (_node, gateway) = start(&dir);
    let mut c = Client::connect(gateway.addr()).unwrap();

    let health = c.get("/health").unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    let seller = co_located_seller("analytics-inc", "weather-co", 2);
    c.post(
        "/enroll",
        &Json::obj([
            ("name", Json::str(seller.clone())),
            ("role", Json::str("seller")),
        ]),
    )
    .unwrap();
    c.post(
        "/enroll",
        &Json::parse(r#"{"name":"analytics-inc","role":"buyer","deposit":100}"#).unwrap(),
    )
    .unwrap();
    let ask = c.post("/asks", &ask_body(&seller, "city_temps")).unwrap();
    assert!(ask.get("dataset").is_some());
    let offer = c
        .post("/offers", &offer_body("analytics-inc", 30.0))
        .unwrap();
    assert!(offer.get("offer").is_some());

    let rounds = c
        .post("/rounds", &Json::parse(r#"{"rounds":1}"#).unwrap())
        .unwrap();
    let round = &rounds.req_arr("rounds").unwrap()[0];
    assert_eq!(round.get("sales").and_then(Json::as_u64), Some(1));
    assert!(round.req_f64("revenue").unwrap() > 0.0);

    // The buyer paid; the seller earned.
    let buyer = c.get("/ledger/analytics-inc").unwrap();
    assert!(buyer.req_f64("balance").unwrap() < 100.0);
    let seller_ledger = c.get(&format!("/ledger/{seller}")).unwrap();
    assert!(seller_ledger.req_f64("balance").unwrap() > 0.0);

    // `POST /licenses`: the seller makes its dataset exclusive; a
    // dataset it never shared, or a body without a license, is refused.
    let dataset = ask.req_u64("dataset").unwrap();
    let grant = |dataset: u64, license: &str| {
        Json::parse(&format!(
            r#"{{"seller":"{seller}","dataset":{dataset}{license}}}"#
        ))
        .unwrap()
    };
    let exclusive = r#","license":{"kind":"exclusive","tax_rate":0.5,"hold_rounds":2}"#;
    let (status, body) = c
        .request("POST", "/licenses", Some(&grant(dataset, exclusive)))
        .unwrap();
    assert_eq!(status, 200, "{}", body.dump());
    assert_eq!(
        body.dump(),
        format!(
            r#"{{"licensed":{dataset},"shard":{}}}"#,
            ask.req_u64("shard").unwrap()
        )
    );
    for bad in [grant(dataset + 1000, exclusive), grant(dataset, "")] {
        let (status, body) = c.request("POST", "/licenses", Some(&bad)).unwrap();
        assert_eq!(status, 400, "{} -> {}", bad.dump(), body.dump());
    }

    // Error paths over the wire.
    let (status, _) = c.request("GET", "/ledger/nobody", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = c.request("GET", "/no-such-route", None).unwrap();
    assert_eq!(status, 404);
    let (status, body) = c
        .request(
            "POST",
            "/offers",
            Some(
                &Json::parse(
                    r#"{"buyer":"ghost","attributes":["x"],"curve":{"kind":"constant","price":1}}"#,
                )
                .unwrap(),
            ),
        )
        .unwrap();
    assert_eq!(
        status,
        400,
        "offer from unknown buyer rejected: {}",
        body.dump()
    );
    let (status, _) = c.request("POST", "/offers", Some(&Json::Null)).unwrap();
    assert_eq!(status, 400);

    gateway.shutdown();
}

#[test]
fn concurrent_clients_drive_disjoint_sessions() {
    // ≥ 4 concurrent clients over real sockets, each with its own
    // seller + buyer pair, then one round and ledger reads.
    const CLIENTS: usize = 6;
    let dir = ScratchDir::new("gateway-concurrent");
    let (node, gateway) = start(&dir);
    let addr = gateway.addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let buyer = format!("buyer{i}");
                let seller = co_located_seller(&buyer, &format!("seller{i}_"), 2);
                c.post(
                    "/enroll",
                    &Json::obj([
                        ("name", Json::str(seller.clone())),
                        ("role", Json::str("seller")),
                    ]),
                )
                .unwrap();
                c.post(
                    "/enroll",
                    &Json::obj([
                        ("name", Json::str(buyer.clone())),
                        ("role", Json::str("buyer")),
                        ("deposit", Json::Num(200.0)),
                    ]),
                )
                .unwrap();
                c.post("/asks", &ask_body(&seller, &format!("t{i}")))
                    .unwrap();
                let offer = c.post("/offers", &offer_body(&buyer, 30.0)).unwrap();
                offer.req_u64("offer").unwrap()
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Every mutation above was journaled exactly once: per client, two
    // enrolls, the enrollment deposit, one ask, one offer.
    assert_eq!(node.applied(), (CLIENTS * 5) as u64);

    let mut c = Client::connect(addr).unwrap();
    c.post("/rounds", &Json::parse(r#"{"rounds":1}"#).unwrap())
        .unwrap();

    // Concurrent ledger reads: each buyer paid for its mashup.
    let read_handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let body = c.get(&format!("/ledger/buyer{i}")).unwrap();
                body.req_f64("balance").unwrap()
            })
        })
        .collect();
    for h in read_handles {
        let balance = h.join().unwrap();
        assert!(
            balance < 200.0,
            "each buyer's round purchase must show in its balance"
        );
    }

    gateway.shutdown();
}

#[test]
fn state_survives_gateway_restart() {
    let market = MarketConfig::external(9).with_design(MarketDesign::posted_price_baseline(20.0));
    let dir = ScratchDir::new("gateway-restart");
    let cfg = ServiceConfig::new(dir.path(), market)
        .with_shards(2)
        .with_fsync(false);

    let digest = {
        let node = Arc::new(ServiceNode::open(cfg.clone()).unwrap());
        let gateway = Gateway::serve(Arc::clone(&node), GatewayConfig::default()).unwrap();
        let mut c = Client::connect(gateway.addr()).unwrap();
        c.post(
            "/enroll",
            &Json::parse(r#"{"name":"s","role":"seller"}"#).unwrap(),
        )
        .unwrap();
        c.post(
            "/enroll",
            &Json::parse(r#"{"name":"b","role":"buyer","deposit":50}"#).unwrap(),
        )
        .unwrap();
        c.post("/asks", &ask_body("s", "t")).unwrap();
        c.post("/offers", &offer_body("b", 8.0)).unwrap();
        c.post("/rounds", &Json::parse(r#"{"rounds":2}"#).unwrap())
            .unwrap();
        c.post("/snapshot", &Json::Obj(Vec::new())).unwrap();
        gateway.shutdown();
        node.state_digest()
    };

    // A brand-new process (node + gateway) over the same directory.
    let node = Arc::new(ServiceNode::open(cfg).unwrap());
    assert_eq!(node.state_digest(), digest);
    let gateway = Gateway::serve(Arc::clone(&node), GatewayConfig::default()).unwrap();
    let mut c = Client::connect(gateway.addr()).unwrap();
    let health = c.get("/health").unwrap();
    assert_eq!(health.req_u64("applied").unwrap(), node.applied());
    let ledger = c.get("/ledger").unwrap();
    assert!(ledger.get("balances").is_some());
    gateway.shutdown();
}
