//! End-to-end durability through the facade crate: a gateway session
//! over a real socket, a `kill -9`-equivalent crash (the process state
//! is discarded, the journal tail is torn mid-record), and a recovery
//! that restores the exact ledger and continues serving.

use std::sync::Arc;

use data_market_platform::core::market::MarketConfig;
use data_market_platform::mechanism::design::MarketDesign;
use data_market_platform::service::client::Client;
use data_market_platform::service::gateway::{Gateway, GatewayConfig};
use data_market_platform::service::node::{ServiceConfig, ServiceNode};
use data_market_platform::service::shard::fnv1a;
use data_market_platform::service::test_support::ScratchDir;
use data_market_platform::service::wire::Json;

fn service_config(dir: &std::path::Path) -> ServiceConfig {
    let market = MarketConfig::external(31).with_design(MarketDesign::posted_price_baseline(10.0));
    ServiceConfig::new(dir.to_path_buf(), market)
        .with_shards(2)
        .with_fsync(false)
        .with_snapshot_every(8)
}

#[test]
fn gateway_session_survives_a_hard_crash() {
    let scratch = ScratchDir::new("facade-recovery");
    let dir = scratch.path();

    // Names that co-locate on one shard (offers match within a shard;
    // cross-shard trades are a ROADMAP follow-on).
    let buyer = "acme-analytics".to_string();
    let target = fnv1a(buyer.as_bytes()) % 2;
    let seller = (0..)
        .map(|i| format!("weather-{i}"))
        .find(|n| fnv1a(n.as_bytes()) % 2 == target)
        .unwrap();

    // Session 1: drive a full market session over the wire — 6 market
    // commands, then a sink enrollment and 3 trailing sink deposits
    // (commands 7..10, crossing the snapshot-every-8 threshold). Then
    // "kill -9" it: drop node and gateway with no shutdown ceremony and
    // tear the final journal record in half, as a crash mid-append
    // would.
    let balance_before = {
        let node = Arc::new(ServiceNode::open(service_config(dir)).unwrap());
        let gateway = Gateway::serve(Arc::clone(&node), GatewayConfig::default()).unwrap();
        let mut c = Client::connect(gateway.addr()).unwrap();
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
                ("deposit", Json::Num(100.0)),
            ]),
        )
        .unwrap();
        c.post(
            "/asks",
            &Json::parse(&format!(
                r#"{{"seller":"{seller}","table":{{"name":"temps",
                    "columns":[["city","str"],["temp","float"]],
                    "rows":[["chicago",3.5],["boston",1.0]]}}}}"#
            ))
            .unwrap(),
        )
        .unwrap();
        c.post(
            "/offers",
            &Json::parse(&format!(
                r#"{{"buyer":"{buyer}","attributes":["city","temp"],
                    "curve":{{"kind":"constant","price":25}}}}"#
            ))
            .unwrap(),
        )
        .unwrap();
        let rounds = c
            .post("/rounds", &Json::parse(r#"{"rounds":1}"#).unwrap())
            .unwrap();
        assert_eq!(
            rounds.req_arr("rounds").unwrap()[0]
                .get("sales")
                .and_then(Json::as_u64),
            Some(1),
            "the round must clear the sale before the crash"
        );
        // Trailing mutations on an unrelated account; the last of these
        // is what the crash will tear off.
        c.post(
            "/enroll",
            &Json::parse(r#"{"name":"sink","role":"buyer"}"#).unwrap(),
        )
        .unwrap();
        for _ in 0..3 {
            c.post(
                "/deposits",
                &Json::obj([("account", Json::str("sink")), ("amount", Json::Num(5.0))]),
            )
            .unwrap();
        }
        assert_eq!(node.applied(), 10);
        let balance = c
            .get(&format!("/ledger/{buyer}"))
            .unwrap()
            .req_f64("balance")
            .unwrap();
        assert!(balance < 100.0, "buyer must have paid");
        balance
        // node + gateway drop here without any flush/close ceremony.
    };

    // Applying 10 commands crossed the snapshot threshold: recovery
    // gets to exercise the `snapshot + journal replay` path, not just
    // replay-from-genesis.
    assert!(
        data_market_platform::service::snapshot::load_latest(dir).is_some(),
        "session must have checkpointed a snapshot at seq 8"
    );

    // Tear the final journal record (the third sink deposit) in half.
    let journal = dir.join("journal.wal");
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 3]).unwrap();

    // Session 2: recover and keep serving.
    let node = Arc::new(ServiceNode::open(service_config(dir)).unwrap());
    assert_eq!(
        node.applied(),
        9,
        "recovery = snapshot(8) + journal tail minus the torn record"
    );
    let gateway = Gateway::serve(Arc::clone(&node), GatewayConfig::default()).unwrap();
    let mut c = Client::connect(gateway.addr()).unwrap();

    // The market accounts are bit-identical; only the torn sink deposit
    // was (correctly) lost.
    let balance_after = c
        .get(&format!("/ledger/{buyer}"))
        .unwrap()
        .req_f64("balance")
        .unwrap();
    assert_eq!(
        balance_after.to_bits(),
        balance_before.to_bits(),
        "recovered buyer balance must be bit-identical"
    );
    assert_eq!(
        c.get(&format!("/ledger/{seller}"))
            .unwrap()
            .req_f64("balance")
            .unwrap(),
        node.router().balance(&seller)
    );
    assert_eq!(node.router().balance("sink"), 10.0, "torn deposit dropped");

    // And the recovered node keeps transacting.
    c.post(
        "/deposits",
        &Json::obj([
            ("account", Json::str(buyer.clone())),
            ("amount", Json::Num(10.0)),
        ]),
    )
    .unwrap();
    let topped_up = c
        .get(&format!("/ledger/{buyer}"))
        .unwrap()
        .req_f64("balance")
        .unwrap();
    // Compare in whole micro-credits: the ledger stores integer micros,
    // while `balance_after + 10.0` is a float-domain sum.
    assert_eq!(
        (topped_up * 1e6).round() as i64,
        ((balance_after + 10.0) * 1e6).round() as i64,
        "post-recovery deposits apply on top of the recovered ledger"
    );

    gateway.shutdown();
}
