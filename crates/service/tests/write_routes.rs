//! The write routes speak the command grammar: a route's request body
//! is its `Command`'s wire form minus `"op"`, and the route, never the
//! body, chooses the command. Requests go through `Service::handle`
//! directly, with no socket.

use dmp_core::license::License;
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, OfferSpec, TableSpec};
use dmp_service::gateway::Service;
use dmp_service::http::Request;
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::test_support::ScratchDir;
use dmp_service::wire::Json;
mod common;
use common::{command_stream, market_config};

/// The write route that journals `cmd`.
fn route_of(cmd: &Command) -> &'static str {
    match cmd {
        Command::Enroll { .. } => "/enroll",
        Command::Deposit { .. } => "/deposits",
        Command::SubmitOffer(_) => "/offers",
        Command::SubmitAsk(_) => "/asks",
        Command::GrantLicense { .. } => "/licenses",
        Command::RunRound { .. } => "/rounds",
    }
}

/// `cmd.encode()` without its `"op"` pair.
fn body_of(cmd: &Command) -> Vec<(String, Json)> {
    match cmd.encode() {
        Json::Obj(pairs) => pairs.into_iter().filter(|(k, _)| k != "op").collect(),
        other => panic!("a command encodes to an object, not {}", other.dump()),
    }
}

fn post(node: &ServiceNode, path: &str, body: Vec<(String, Json)>) -> (u16, String) {
    let response = node.handle(&Request {
        method: "POST".into(),
        path: path.into(),
        headers: Vec::new(),
        body: Json::Obj(body).dump().into_bytes(),
    });
    (response.status, response.body)
}

fn open(dir: &ScratchDir, seed: u64) -> ServiceNode {
    let cfg = ServiceConfig::new(dir.path(), market_config(seed))
        .with_shards(2)
        .with_fsync(false);
    ServiceNode::open(cfg).unwrap()
}

/// Both nodes' journals, read once the nodes are gone.
fn journals(a: (ServiceNode, &ScratchDir), b: (ServiceNode, &ScratchDir)) -> (Vec<u8>, Vec<u8>) {
    drop((a.0, b.0));
    let read = |dir: &ScratchDir| std::fs::read(dir.join("journal.wal")).unwrap();
    (read(a.1), read(b.1))
}

/// One node takes every command of a mixed stream through its write
/// route, the other through `ServiceNode::apply`: the same answers,
/// the same state and the same journal, byte for byte.
#[test]
fn routes_journal_what_the_grammar_journals() {
    for seed in [3, 11, 29] {
        let cmds = command_stream(6, seed);
        let (http_dir, apply_dir) = (
            ScratchDir::new("routes-http"),
            ScratchDir::new("routes-apply"),
        );
        let (routed, applied) = (open(&http_dir, seed), open(&apply_dir, seed));
        for cmd in &cmds {
            let (status, body) = post(&routed, route_of(cmd), body_of(cmd));
            match applied.apply(cmd.clone()) {
                Ok(outcome) => {
                    assert_eq!(status, 200, "{cmd:?}: {body}");
                    assert_eq!(body, outcome.to_json().dump(), "{cmd:?}");
                }
                Err(e) => assert_eq!(status, 400, "{cmd:?} was refused directly ({e}): {body}"),
            }
        }
        // Rejected commands are journaled too: nothing was lost to a
        // route's own decoding.
        assert_eq!(routed.applied(), cmds.len() as u64);
        assert_eq!(routed.state_digest(), applied.state_digest(), "seed {seed}");
        let (routed, applied) = journals((routed, &http_dir), (applied, &apply_dir));
        assert!(routed == applied, "seed {seed}: journal.wal differs");
    }
}

/// A body carrying `"op":"run_round"` never runs a round: each route
/// journals its own command from it, or refuses it with 400.
#[test]
fn a_body_cannot_choose_its_command() {
    let (http_dir, apply_dir) = (ScratchDir::new("op-http"), ScratchDir::new("op-apply"));
    let (routed, applied) = (open(&http_dir, 5), open(&apply_dir, 5));
    for cmd in [
        Command::Enroll {
            name: "s".into(),
            role: "seller".into(),
        },
        Command::Enroll {
            name: "b".into(),
            role: "buyer".into(),
        },
    ] {
        routed.apply(cmd.clone()).unwrap();
        applied.apply(cmd).unwrap();
    }
    let own = [
        Command::Enroll {
            name: "c".into(),
            role: "buyer".into(),
        },
        Command::Deposit {
            account: "b".into(),
            amount: 50.0,
        },
        Command::SubmitAsk(AskSpec {
            seller: "s".into(),
            table: TableSpec {
                name: "t".into(),
                columns: vec![("k".into(), ColType::Int)],
                rows: vec![vec![CellSpec::Int(1)], vec![CellSpec::Int(2)]],
            },
            reserve: None,
            license: None,
        }),
        Command::SubmitOffer(OfferSpec::simple("b", ["k"], 30.0)),
        Command::GrantLicense {
            seller: "s".into(),
            dataset: 0,
            license: License::NonTransferable,
        },
    ];
    let run_round = || ("op".to_string(), Json::str("run_round"));
    for cmd in own {
        let path = route_of(&cmd);
        let before = routed.applied();
        let bare = vec![run_round(), ("rounds".into(), Json::Num(1.0))];
        let (status, body) = post(&routed, path, bare);
        assert_eq!(status, 400, "{path}: {body}");
        assert_eq!(routed.applied(), before, "{path}: a refused body journaled");

        let (status, body) = post(
            &routed,
            path,
            std::iter::once(run_round()).chain(body_of(&cmd)).collect(),
        );
        assert_eq!(status, 200, "{path}: {body}");
        let outcome = applied.apply(cmd).unwrap();
        assert_eq!(body, outcome.to_json().dump(), "{path}");
        assert_eq!(routed.applied(), before + 1);
        assert_eq!(routed.router().rounds_completed(), 0, "{path} ran a round");
    }
    assert_eq!(routed.state_digest(), applied.state_digest());
    let (routed, applied) = journals((routed, &http_dir), (applied, &apply_dir));
    assert!(routed == applied, "journal.wal differs");
}
