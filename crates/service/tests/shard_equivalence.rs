//! Shard-count equivalence: **sharding is a performance detail, not a
//! semantics change**. The same command stream replayed into a 1-shard
//! and an M-shard deployment must produce the same cleared trades, the
//! same ledger balances (bit-for-bit), the same offer lifecycle and the
//! same merged round totals — the two-phase exchange (global candidate
//! merge → one clearing pass → ordered settlement on the shared ledger)
//! is exactly what makes this hold.
//!
//! A property test replays random mixed command streams into 1-shard
//! and 4-shard routers, and into a 1-shard router whose rounds run as
//! the library's `DataMarket::run_round`; deterministic tests pin the
//! cross-shard unlock itself (a buyer matching a seller on another
//! shard) and the node-level recovery path.

use dmp_core::market::OfferState;
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, OfferSpec, TableSpec};
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::shard::{MergedRoundReport, Outcome, ShardRouter};
use dmp_service::test_support::ScratchDir;
use proptest::prelude::*;
mod common;
use common::{command_stream, market_config};

/// One settled trade, shard-count-independently keyed: `(round, global
/// offer id, buyer, price bits, fee bits, satisfaction bits, datasets)`.
type TradeKey = (u64, u64, String, u64, u64, u64, Vec<u64>);

/// All settled trades across shards, sorted. Transaction ids are
/// shard-local counters and deliberately excluded.
fn trades(router: &ShardRouter) -> Vec<TradeKey> {
    let mut out: Vec<_> = router
        .shards()
        .iter()
        .flat_map(|m| m.transactions())
        .map(|t| {
            (
                t.round,
                t.offer_id,
                t.buyer.clone(),
                t.price.to_bits(),
                t.fee.to_bits(),
                t.satisfaction.to_bits(),
                t.datasets.iter().map(|d| d.0).collect::<Vec<u64>>(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Offer lifecycle keyed by global offer id, with shard-local record
/// ids (tx / delivery) normalized away.
fn offer_states(router: &ShardRouter) -> Vec<(u64, &'static str)> {
    let mut out: Vec<_> = router
        .shards()
        .iter()
        .flat_map(|m| m.offers())
        .map(|o| {
            (
                o.id,
                match o.state {
                    OfferState::Pending => "pending",
                    OfferState::Fulfilled { .. } => "fulfilled",
                    OfferState::AwaitingReport { .. } => "awaiting",
                    OfferState::Expired => "expired",
                },
            )
        })
        .collect();
    out.sort();
    out
}

/// Ledger balances + open escrows, bit-exact.
type LedgerKey = (Vec<(String, u64)>, Vec<(u64, String, u64)>);

fn ledger_state(router: &ShardRouter) -> LedgerKey {
    let balances = router
        .all_balances()
        .into_iter()
        .map(|(name, bal)| (name, bal.to_bits()))
        .collect();
    let escrows = router.shards()[0]
        .ledger()
        .escrow_holds()
        .into_iter()
        .map(|(id, holder, rem)| (id, holder, rem.to_bits()))
        .collect();
    (balances, escrows)
}

/// Round-report totals at micro-credit precision (shard sub-sums add in
/// a different order than the 1-shard stream, so money totals are
/// compared at the ledger's own granularity).
fn report_totals(r: &MergedRoundReport) -> (u64, usize, usize, i64, i64, usize, usize) {
    let micros = |x: f64| (x * 1e6).round() as i64;
    (
        r.round,
        r.considered,
        r.sales,
        micros(r.revenue),
        micros(r.fees),
        r.expired,
        r.deliveries,
    )
}

/// Apply a stream to a fresh router with `shards` shards, collecting
/// every merged round report along the way.
fn replay(cmds: &[Command], seed: u64, shards: usize) -> (ShardRouter, Vec<MergedRoundReport>) {
    let router = ShardRouter::new(&market_config(seed), shards);
    let mut reports = Vec::new();
    for cmd in cmds {
        if let Ok(Outcome::RoundsRun(mut r)) = router.apply(cmd) {
            reports.append(&mut r);
        }
    }
    (router, reports)
}

/// Apply a stream to a fresh 1-shard router, but run every round as
/// the library's own round (`DataMarket::run_round` on shard 0) instead
/// of the router's. On a posted-price ex ante market shard 0 draws the
/// router's round seeds from its own RNG and the router still allocates
/// offer ids, so the two drivers must agree.
fn replay_library_rounds(cmds: &[Command], seed: u64) -> ShardRouter {
    let router = ShardRouter::new(&market_config(seed), 1);
    for cmd in cmds {
        match cmd {
            Command::RunRound { rounds } => {
                for _ in 0..*rounds {
                    router.shard(0).run_round();
                }
            }
            _ => {
                let _ = router.apply(cmd);
            }
        }
    }
    router
}

fn assert_equivalent(cmds: &[Command], seed: u64, shards: usize) {
    let (mono, mono_reports) = replay(cmds, seed, 1);
    let (multi, multi_reports) = replay(cmds, seed, shards);

    assert_eq!(
        ledger_state(&mono),
        ledger_state(&multi),
        "seed {seed}: {shards}-shard ledger diverged from 1-shard"
    );
    assert_eq!(
        trades(&mono),
        trades(&multi),
        "seed {seed}: {shards}-shard trades diverged from 1-shard"
    );
    assert_eq!(
        offer_states(&mono),
        offer_states(&multi),
        "seed {seed}: {shards}-shard offer lifecycle diverged"
    );
    assert_eq!(mono_reports.len(), multi_reports.len());
    for (a, b) in mono_reports.iter().zip(&multi_reports) {
        assert_eq!(
            report_totals(a),
            report_totals(b),
            "seed {seed}: round {} report diverged",
            a.round
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: random mixed command streams clear
    /// identically on 1 shard and on 4 shards.
    #[test]
    fn four_shards_clear_like_one(seed in 0u64..10_000) {
        let cmds = command_stream(5, seed);
        assert_equivalent(&cmds, seed, 4);
        // One round path: the library driver lands where the router does.
        let (router, _) = replay(&cmds, seed, 1);
        let library = replay_library_rounds(&cmds, seed);
        assert_eq!(trades(&router), trades(&library), "seed {seed}: library trades diverged");
        assert_eq!(offer_states(&router), offer_states(&library), "seed {seed}: library offers diverged");
        assert_eq!(ledger_state(&router), ledger_state(&library), "seed {seed}: library ledger diverged");
    }

    /// Shard counts that do not divide the participant population
    /// evenly behave the same way.
    #[test]
    fn odd_shard_counts_clear_like_one(seed in 0u64..10_000, shards in 2usize..6) {
        let cmds = command_stream(3, seed);
        assert_equivalent(&cmds, seed, shards);
    }
}

/// Non-vacuity guard for the property above: the random streams really
/// do clear trades (and cross-shard ones), so the equivalence assertions
/// are comparing real settlements, not empty markets.
#[test]
fn random_streams_produce_cross_shard_trades() {
    let mut total_sales = 0usize;
    let mut total_cross = 0usize;
    for seed in 0..6u64 {
        let cmds = command_stream(5, seed);
        let (router, reports) = replay(&cmds, seed, 4);
        total_sales += reports.iter().map(|r| r.sales).sum::<usize>();
        total_cross += reports.iter().map(|r| r.cross_shard).sum::<usize>();
        let _ = router;
    }
    assert!(
        total_sales > 0,
        "streams never cleared a sale — vacuous suite"
    );
    assert!(
        total_cross > 0,
        "streams never crossed a shard — the tentpole is untested"
    );
}

/// The unlock itself: a buyer whose shard holds *no* datasets buys from
/// a seller on another shard, and the report says so.
#[test]
fn cross_shard_trade_clears_and_pays_the_remote_seller() {
    let router = ShardRouter::new(&market_config(11), 4);
    // Find a seller/buyer pair that hash to different shards.
    let (seller, buyer) = (0..100)
        .flat_map(|i| (0..100).map(move |j| (format!("s{i}"), format!("b{j}"))))
        .find(|(s, b)| router.shard_of(s) != router.shard_of(b))
        .expect("some pair must split across 4 shards");

    router
        .apply(&Command::Enroll {
            name: seller.clone(),
            role: "seller".into(),
        })
        .unwrap();
    router
        .apply(&Command::Enroll {
            name: buyer.clone(),
            role: "buyer".into(),
        })
        .unwrap();
    router
        .apply(&Command::Deposit {
            account: buyer.clone(),
            amount: 100.0,
        })
        .unwrap();
    router
        .apply(&Command::SubmitAsk(AskSpec {
            seller: seller.clone(),
            table: TableSpec {
                name: "t".into(),
                columns: vec![("k".into(), ColType::Int), ("v".into(), ColType::Str)],
                rows: vec![
                    vec![CellSpec::Int(1), CellSpec::Str("x".into())],
                    vec![CellSpec::Int(2), CellSpec::Str("y".into())],
                ],
            },
            reserve: None,
            license: None,
        }))
        .unwrap();
    router
        .apply(&Command::SubmitOffer(OfferSpec::simple(
            buyer.clone(),
            ["k", "v"],
            30.0,
        )))
        .unwrap();

    let out = router.apply(&Command::RunRound { rounds: 1 }).unwrap();
    let reports = match out {
        Outcome::RoundsRun(r) => r,
        other => panic!("unexpected outcome {other:?}"),
    };
    assert_eq!(reports[0].sales, 1, "the cross-shard offer must clear");
    assert_eq!(
        reports[0].cross_shard, 1,
        "the sale must be counted as a cross-shard trade"
    );
    assert!(
        router.balance(&seller) > 0.0,
        "the remote seller must be paid on the shared ledger"
    );
    assert!(router.balance(&buyer) < 100.0, "the buyer must have paid");
}

/// A cross-shard sale that clears but cannot settle (unfunded buyer)
/// is not a trade: the offer stays pending and the report counts
/// neither a sale nor a cross-shard trade.
#[test]
fn unfunded_cleared_sale_is_not_a_cross_shard_trade() {
    let router = ShardRouter::new(&market_config(11), 4);
    let (seller, buyer) = (0..100)
        .flat_map(|i| (0..100).map(move |j| (format!("s{i}"), format!("b{j}"))))
        .find(|(s, b)| router.shard_of(s) != router.shard_of(b))
        .expect("some pair must split across 4 shards");
    router
        .apply(&Command::Enroll {
            name: seller.clone(),
            role: "seller".into(),
        })
        .unwrap();
    router
        .apply(&Command::Enroll {
            name: buyer.clone(),
            role: "buyer".into(),
        })
        .unwrap();
    // No deposit: the bid clears at the posted price, settlement fails.
    router
        .apply(&Command::SubmitAsk(AskSpec {
            seller,
            table: TableSpec {
                name: "t".into(),
                columns: vec![("k".into(), ColType::Int), ("v".into(), ColType::Str)],
                rows: vec![vec![CellSpec::Int(1), CellSpec::Str("x".into())]],
            },
            reserve: None,
            license: None,
        }))
        .unwrap();
    router
        .apply(&Command::SubmitOffer(OfferSpec::simple(
            buyer,
            ["k", "v"],
            30.0,
        )))
        .unwrap();
    let out = router.apply(&Command::RunRound { rounds: 1 }).unwrap();
    let reports = match out {
        Outcome::RoundsRun(r) => r,
        other => panic!("unexpected outcome {other:?}"),
    };
    assert_eq!(reports[0].sales, 0, "unfunded sale must not settle");
    assert_eq!(
        reports[0].cross_shard, 0,
        "an unsettled sale must not be reported as a cross-shard trade"
    );
}

/// Node-level, materialized snapshots: a 4-shard node running with
/// bounded retention (so recovery goes through *snapshot restore +
/// compacted-journal tail*, not full replay) still matches a 1-shard
/// node that never touched disk — sharding and the snapshot format are
/// both invisible to market semantics.
#[test]
fn materialized_snapshot_reopen_preserves_shard_equivalence() {
    let cmds = command_stream(5, 4242);

    let dir4 = ScratchDir::new("sheq-msnap-four");
    let cfg4 = ServiceConfig::new(dir4.path(), market_config(4242))
        .with_shards(4)
        .with_snapshot_every(10)
        .with_keep_snapshots(1);
    let digest4 = {
        let node = ServiceNode::open(cfg4.clone()).unwrap();
        for cmd in &cmds {
            let _ = node.apply(cmd.clone());
        }
        node.state_digest()
    };
    // Reopen across the compacted journal: recovery must restore the
    // materialized snapshot and replay only the tail.
    let node4 = ServiceNode::open(cfg4.clone()).unwrap();
    assert_eq!(
        node4.state_digest(),
        digest4,
        "4-shard materialized-snapshot recovery diverged"
    );
    assert!(
        dmp_service::snapshot::load_latest(&cfg4.dir).is_some(),
        "run must have produced a materialized snapshot"
    );

    // And the recovered multi-shard node matches a pristine 1-shard
    // in-memory replay of the same stream.
    let (mono, _) = replay(&cmds, 4242, 1);
    assert_eq!(
        ledger_state(&mono),
        ledger_state(node4.router()),
        "1-shard vs snapshot-recovered 4-shard ledger diverged"
    );
    assert_eq!(
        trades(&mono),
        trades(node4.router()),
        "1-shard vs snapshot-recovered 4-shard trades diverged"
    );
    assert_eq!(
        offer_states(&mono),
        offer_states(node4.router()),
        "1-shard vs snapshot-recovered 4-shard offer lifecycle diverged"
    );
}

/// Node-level: the two-phase round is deterministic under journal
/// replay, and a 4-shard node's durable state matches the 1-shard
/// node's for the same command stream.
#[test]
fn node_recovery_preserves_cross_shard_equivalence() {
    let cmds = command_stream(4, 77);

    let apply_all = |node: &ServiceNode| {
        for cmd in &cmds {
            let _ = node.apply(cmd.clone());
        }
    };

    let dir4 = ScratchDir::new("sheq-four");
    let cfg4 = ServiceConfig::new(dir4.path(), market_config(77))
        .with_shards(4)
        .with_snapshot_every(8);
    let digest4 = {
        let node = ServiceNode::open(cfg4.clone()).unwrap();
        apply_all(&node);
        node.state_digest()
    };
    // Reopen: snapshot + journal-tail replay must reproduce the state.
    let node4 = ServiceNode::open(cfg4).unwrap();
    assert_eq!(node4.state_digest(), digest4, "4-shard recovery diverged");

    let dir1 = ScratchDir::new("sheq-one");
    let cfg1 = ServiceConfig::new(dir1.path(), market_config(77)).with_shards(1);
    let node1 = ServiceNode::open(cfg1).unwrap();
    apply_all(&node1);

    assert_eq!(
        node1.router().all_balances(),
        node4.router().all_balances(),
        "1-shard vs recovered 4-shard balances diverged"
    );
}
