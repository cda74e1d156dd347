//! Recovered equals never-crashed when the catalogue grows after a
//! round. The live router builds and caches its discovery index in the
//! first round; a second table then joins the first on two key-column
//! pairs of equal confidence, so which join the next round's mashup
//! takes depends on the relationship index's edge order. A router
//! restored from the live one's image builds that index from scratch.
//! Both must clear the offer with the same join, deliver the same rows
//! and end on the same state digest.

use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_relation::Value;
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, OfferSpec, TableSpec};
use dmp_service::shard::ShardRouter;

fn market() -> MarketConfig {
    MarketConfig::external(7).with_design(MarketDesign::posted_price_baseline(12.0))
}

fn apply(router: &ShardRouter, cmd: Command) {
    router.apply(&cmd).unwrap();
}

fn ask(
    seller: &str,
    name: &str,
    columns: [(&str, ColType); 3],
    rows: Vec<Vec<CellSpec>>,
) -> Command {
    Command::SubmitAsk(AskSpec {
        seller: seller.into(),
        table: TableSpec {
            name: name.into(),
            columns: columns.map(|(c, t)| (c.to_string(), t)).to_vec(),
            rows,
        },
        reserve: None,
        license: None,
    })
}

/// `hub(k1, k2, a)` is on the market and one round has run, then
/// `spoke(x, y, b)` arrives, where `hub.k2 ~ spoke.x` and
/// `hub.k1 ~ spoke.y` are both exact key joins, and a buyer asks for
/// `[a, b]`.
fn grown_market(shards: usize) -> ShardRouter {
    let router = ShardRouter::new(&market(), shards);
    for (name, role) in [
        ("hubco", "seller"),
        ("spokeco", "seller"),
        ("buyer", "buyer"),
    ] {
        apply(
            &router,
            Command::Enroll {
                name: name.into(),
                role: role.into(),
            },
        );
    }
    apply(
        &router,
        Command::Deposit {
            account: "buyer".into(),
            amount: 200.0,
        },
    );
    let hub_rows = (0..100)
        .map(|i| {
            vec![
                CellSpec::Int(i),
                CellSpec::Int(1000 + i),
                CellSpec::Str(format!("a{i}")),
            ]
        })
        .collect();
    apply(
        &router,
        ask(
            "hubco",
            "hub",
            [
                ("k1", ColType::Int),
                ("k2", ColType::Int),
                ("a", ColType::Str),
            ],
            hub_rows,
        ),
    );
    apply(
        &router,
        Command::SubmitOffer(OfferSpec::simple("buyer", ["a"], 30.0)),
    );
    apply(&router, Command::RunRound { rounds: 1 });

    let spoke_rows = (0..100)
        .map(|i| {
            vec![
                CellSpec::Int(1000 + i),
                CellSpec::Int((i + 1) % 100),
                CellSpec::Float(i as f64 + 0.5),
            ]
        })
        .collect();
    apply(
        &router,
        ask(
            "spokeco",
            "spoke",
            [
                ("x", ColType::Int),
                ("y", ColType::Int),
                ("b", ColType::Float),
            ],
            spoke_rows,
        ),
    );
    apply(
        &router,
        Command::SubmitOffer(OfferSpec::simple("buyer", ["a", "b"], 30.0)),
    );
    router
}

/// The rows delivered for every offer that asked for `b`, in offer
/// order.
fn joined_rows(router: &ShardRouter) -> Vec<Vec<Vec<Value>>> {
    let mut deliveries: Vec<_> = router
        .shards()
        .iter()
        .flat_map(|m| m.deliveries())
        .filter(|d| d.relation.schema().index_of("b").is_ok())
        .collect();
    deliveries.sort_by_key(|d| d.offer_id);
    deliveries
        .iter()
        .map(|d| {
            d.relation
                .rows()
                .iter()
                .map(|r| r.values().to_vec())
                .collect()
        })
        .collect()
}

fn assert_restored_agrees(shards: usize) {
    let live = grown_market(shards);
    let restored = ShardRouter::new(&market(), shards);
    restored.restore_state(live.export_state()).unwrap();
    assert_eq!(live.state_digest(), restored.state_digest());

    for router in [&live, &restored] {
        apply(router, Command::RunRound { rounds: 1 });
    }
    let rows = joined_rows(&live);
    assert_eq!(
        rows.len(),
        1,
        "the [a, b] offer must clear on {shards} shard(s)"
    );
    assert_eq!(
        rows[0][0],
        [Value::Float(0.5), Value::str("a1")],
        "spoke row 0 (y = 1) must meet hub row 1 on hub.k1 ~ spoke.y, \
         the first of the two edges a full index build lists"
    );
    assert_eq!(rows, joined_rows(&restored), "{shards} shard(s)");
    assert_eq!(
        live.state_digest(),
        restored.state_digest(),
        "{shards} shard(s)"
    );
}

#[test]
fn restored_router_joins_like_the_live_one_at_one_shard() {
    assert_restored_agrees(1);
}

#[test]
fn restored_router_joins_like_the_live_one_at_four_shards() {
    assert_restored_agrees(4);
}

/// `hub(k1, k2, a)` is on the market and a buyer's `[a, b]` offer has
/// been evaluated (so the mashup cache holds `[a, b]` at the old
/// catalogue generation); then `spoke(x, y, b)` arrives and the buyer
/// asks for `[a, b]` again.
fn market_grown_after_a_cached_ask(shards: usize) -> ShardRouter {
    let router = ShardRouter::new(&market(), shards);
    for (name, role) in [
        ("hubco", "seller"),
        ("spokeco", "seller"),
        ("buyer", "buyer"),
    ] {
        apply(
            &router,
            Command::Enroll {
                name: name.into(),
                role: role.into(),
            },
        );
    }
    apply(
        &router,
        Command::Deposit {
            account: "buyer".into(),
            amount: 200.0,
        },
    );
    let int = |i: i64| CellSpec::Int(i);
    apply(
        &router,
        ask(
            "hubco",
            "hub",
            [
                ("k1", ColType::Int),
                ("k2", ColType::Int),
                ("a", ColType::Str),
            ],
            (0..100)
                .map(|i| vec![int(i), int(1000 + i), CellSpec::Str(format!("a{i}"))])
                .collect(),
        ),
    );
    let a_and_b = || Command::SubmitOffer(OfferSpec::simple("buyer", ["a", "b"], 30.0));
    apply(&router, a_and_b());
    apply(&router, Command::RunRound { rounds: 1 });
    assert!(
        joined_rows(&router).is_empty(),
        "before spoke arrives no mashup has b"
    );
    apply(
        &router,
        ask(
            "spokeco",
            "spoke",
            [
                ("x", ColType::Int),
                ("y", ColType::Int),
                ("b", ColType::Float),
            ],
            (0..100)
                .map(|i| {
                    vec![
                        int(1000 + i),
                        int((i + 1) % 100),
                        CellSpec::Float(i as f64 + 0.5),
                    ]
                })
                .collect(),
        ),
    );
    apply(&router, a_and_b());
    router
}

fn assert_grown_catalogue_invalidates_the_cache(shards: usize) {
    let live = market_grown_after_a_cached_ask(shards);
    let restored = ShardRouter::new(&market(), shards);
    restored.restore_state(live.export_state()).unwrap();
    for router in [&live, &restored] {
        apply(router, Command::RunRound { rounds: 1 });
    }
    let rows = joined_rows(&live);
    assert_eq!(
        rows.len(),
        1,
        "the second [a, b] offer must join spoke on {shards} shard(s)"
    );
    assert_eq!(rows[0].len(), 100, "{shards} shard(s)");
    assert_eq!(rows, joined_rows(&restored), "{shards} shard(s)");
    assert_eq!(
        live.state_digest(),
        restored.state_digest(),
        "{shards} shard(s)"
    );
}

#[test]
fn a_mashup_cached_before_the_catalogue_grew_is_rebuilt_at_one_shard() {
    assert_grown_catalogue_invalidates_the_cache(1);
}

#[test]
fn a_mashup_cached_before_the_catalogue_grew_is_rebuilt_at_four_shards() {
    assert_grown_catalogue_invalidates_the_cache(4);
}
