//! Serve a durable, sharded market over a real TCP socket and drive it
//! with concurrent HTTP clients — the platform boundary around the
//! paper's DMMS: every mutation is journaled before it is applied, so
//! the market state survives a crash (`snapshot + journal replay`).
//!
//! ```text
//! cargo run --release --example serve
//! ```

use std::sync::Arc;

use data_market_platform::core::market::MarketConfig;
use data_market_platform::mechanism::design::MarketDesign;
use data_market_platform::service::client::Client;
use data_market_platform::service::gateway::{Gateway, GatewayConfig};
use data_market_platform::service::node::{ServiceConfig, ServiceNode};
use data_market_platform::service::shard::fnv1a;
use data_market_platform::service::test_support::ScratchDir;
use data_market_platform::service::wire::Json;

const SHARDS: usize = 4;

fn main() {
    // 1. Open a durable node: journal + snapshots live in `dir`.
    let scratch = ScratchDir::new("serve-example");
    let dir = scratch.path();
    let market = MarketConfig::external(7).with_design(MarketDesign::posted_price_baseline(20.0));
    let cfg = ServiceConfig::new(dir, market).with_shards(SHARDS);
    let node = Arc::new(ServiceNode::open(cfg).expect("open service node"));

    // 2. Put the HTTP gateway in front of it (ephemeral port).
    let gateway =
        Gateway::serve(Arc::clone(&node), GatewayConfig::default()).expect("bind gateway");
    let addr = gateway.addr();
    println!("market gateway listening on http://{addr}");
    println!("journal + snapshots in {}", dir.display());

    // 3. Four concurrent clients, each running a seller/buyer session
    //    over the wire: enroll → ask → offer.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let buyer = format!("analytics-{i}");
                // Offers match within a shard, so give each buyer a
                // co-located seller (cross-shard trades: see ROADMAP).
                let shard = fnv1a(buyer.as_bytes()) % SHARDS as u64;
                let seller = (0..)
                    .map(|j| format!("sensor-net-{i}-{j}"))
                    .find(|n| fnv1a(n.as_bytes()) % SHARDS as u64 == shard)
                    .unwrap();

                c.post(
                    "/enroll",
                    &Json::obj([
                        ("name", Json::str(seller.clone())),
                        ("role", Json::str("seller")),
                    ]),
                )
                .expect("enroll seller");
                c.post(
                    "/enroll",
                    &Json::obj([
                        ("name", Json::str(buyer.clone())),
                        ("role", Json::str("buyer")),
                        ("deposit", Json::Num(200.0)),
                    ]),
                )
                .expect("enroll buyer");
                c.post(
                    "/asks",
                    &Json::parse(&format!(
                        r#"{{"seller":"{seller}","table":{{"name":"readings-{i}",
                            "columns":[["site","str"],["pm25","float"]],
                            "rows":[["river",12.1],["hill",8.4],["dock",16.9]]}},
                            "reserve":2.0}}"#
                    ))
                    .unwrap(),
                )
                .expect("post ask");
                c.post(
                    "/offers",
                    &Json::parse(&format!(
                        r#"{{"buyer":"{buyer}","attributes":["site","pm25"],
                            "curve":{{"kind":"linear","min_satisfaction":0.5,"max_price":60}}}}"#
                    ))
                    .unwrap(),
                )
                .expect("post offer");
                (buyer, seller)
            })
        })
        .collect();
    let sessions: Vec<(String, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    println!("4 concurrent sessions enrolled, asked and offered");

    // 4. One admin client clears the market and reads the ledger back.
    let mut admin = Client::connect(addr).expect("connect admin");
    let rounds = admin
        .post("/rounds", &Json::parse(r#"{"rounds":1}"#).unwrap())
        .expect("run round");
    let round = &rounds.req_arr("rounds").unwrap()[0];
    println!(
        "round {}: {} sale(s), revenue {:.2}, fees {:.2} (merged across {SHARDS} shards)",
        round.req_u64("round").unwrap(),
        round.req_u64("sales").unwrap(),
        round.req_f64("revenue").unwrap(),
        round.req_f64("fees").unwrap(),
    );
    for (buyer, seller) in &sessions {
        let b = admin.get(&format!("/ledger/{buyer}")).expect("read buyer");
        let s = admin
            .get(&format!("/ledger/{seller}"))
            .expect("read seller");
        println!(
            "  {buyer}: {:.2} credits | {seller}: {:.2} credits",
            b.req_f64("balance").unwrap(),
            s.req_f64("balance").unwrap(),
        );
    }

    // 5. Checkpoint and show durability state.
    admin
        .post("/snapshot", &Json::Obj(Vec::new()))
        .expect("snapshot");
    let health = admin.get("/health").expect("health");
    println!(
        "health: applied={} round={} — journal + snapshot on disk; \
         restart this process against the same dir to recover bit-identically",
        health.req_u64("applied").unwrap(),
        health.req_u64("round").unwrap(),
    );

    // 6. Scrape the Prometheus exposition over the wire and lint it —
    //    CI runs this example, so a malformed exposition fails there.
    let exposition = admin.get_text("/metrics").expect("scrape /metrics");
    data_market_platform::telemetry::lint_exposition(&exposition)
        .expect("malformed /metrics exposition");
    println!(
        "scraped /metrics: {} series across {} families, exposition lints clean",
        exposition
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .count(),
        exposition
            .lines()
            .filter(|l| l.starts_with("# TYPE"))
            .count(),
    );

    gateway.shutdown();
}
