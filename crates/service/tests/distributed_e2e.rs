//! Distributed-exchange e2e: a coordinator [`ServiceNode`] farming
//! rounds out to real `dmp-worker` **processes over real sockets**,
//! pinned bit-identical to single-process deployments.
//!
//! What is pinned:
//!
//! * distributed (1 coordinator + N workers) == single-process M-shard
//!   == 1-shard: ledgers and trades bit-for-bit, report totals at
//!   ledger granularity — including through the public HTTP gateway;
//! * every worker stays a bit-exact replica (state digest RPC);
//! * a worker killed mid-round at each phase boundary (pre-candidate,
//!   pre-settle, mid-settle) costs nothing: the coordinator
//!   re-dispatches and the final state is bit-identical to the
//!   no-failure run;
//! * a misconfigured worker (different seed ⇒ different fingerprint)
//!   is refused over the wire, never silently diverges, and so is a
//!   state image that does not restore to the digest sent with it;
//! * worker and coordinator `/metrics` expositions lint clean and
//!   carry the distributed series.

use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Stdio};
use std::sync::Arc;

use dmp_service::client::Client;
use dmp_service::command::Command;
use dmp_service::coordinator::WorkerPool;
use dmp_service::gateway::{Gateway, GatewayConfig};
use dmp_service::metrics::metrics;
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::shard::{MergedRoundReport, Outcome, ShardRouter};
use dmp_service::test_support::ScratchDir;
use dmp_service::wire::Json;
use dmp_telemetry::lint_exposition;
use proptest::prelude::*;
mod common;
use common::{command_stream, market_config, POSTED_PRICE};

/// A live `dmp-worker` process; killed on drop.
struct WorkerProc {
    child: Child,
    addr: SocketAddr,
}

impl WorkerProc {
    fn spawn(seed: u64, shards: usize, kill: Option<(&str, u64)>) -> WorkerProc {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_dmp-worker"));
        cmd.arg("--shards")
            .arg(shards.to_string())
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--posted-price")
            .arg(POSTED_PRICE.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some((phase, round)) = kill {
            cmd.arg("--kill-phase")
                .arg(phase)
                .arg("--kill-round")
                .arg(round.to_string());
        }
        let mut child = cmd.spawn().expect("spawn dmp-worker");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read bound address");
        let addr: SocketAddr = line
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("dmp-worker printed '{line}' instead of its bound address"));
        WorkerProc { child, addr }
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// All settled trades, shard-count-independently keyed and bit-exact.
fn trades(router: &ShardRouter) -> Vec<(u64, u64, String, u64, u64)> {
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
            )
        })
        .collect();
    out.sort();
    out
}

/// Ledger balances, bit-exact.
fn balances(router: &ShardRouter) -> Vec<(String, u64)> {
    router
        .all_balances()
        .into_iter()
        .map(|(name, bal)| (name, bal.to_bits()))
        .collect()
}

/// Round-report totals at micro-credit precision, conflict components
/// included.
fn report_totals(r: &MergedRoundReport) -> (u64, usize, usize, i64, i64, usize, usize, usize) {
    let micros = |x: f64| (x * 1e6).round() as i64;
    (
        r.round,
        r.considered,
        r.sales,
        micros(r.revenue),
        micros(r.fees),
        r.expired,
        r.deliveries,
        r.components,
    )
}

/// In-memory local replay (the single-process reference).
fn replay_local(
    cmds: &[Command],
    seed: u64,
    shards: usize,
) -> (ShardRouter, Vec<MergedRoundReport>) {
    let router = ShardRouter::new(&market_config(seed), shards);
    let mut reports = Vec::new();
    for cmd in cmds {
        if let Ok(Outcome::RoundsRun(mut r)) = router.apply(cmd) {
            reports.append(&mut r);
        }
    }
    (router, reports)
}

/// Boot a coordinator in `dir` over the given workers, replay the
/// stream, and return everything needed for equivalence assertions.
fn replay_distributed(
    dir: &ScratchDir,
    cmds: &[Command],
    seed: u64,
    shards: usize,
    workers: &[WorkerProc],
) -> (Arc<ServiceNode>, Arc<WorkerPool>, Vec<MergedRoundReport>) {
    let cfg = ServiceConfig::new(dir.path(), market_config(seed)).with_shards(shards);
    let node = Arc::new(ServiceNode::open(cfg).expect("coordinator opens"));
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    let pool =
        Arc::new(WorkerPool::connect(node.fingerprint(), shards, &addrs).expect("pool connects"));
    assert_eq!(
        pool.provision_all(&node),
        workers.len(),
        "every worker must provision"
    );
    WorkerPool::attach(&pool, &node);
    let mut reports = Vec::new();
    for cmd in cmds {
        if let Ok(Outcome::RoundsRun(mut r)) = node.apply(cmd.clone()) {
            reports.append(&mut r);
        }
    }
    (node, pool, reports)
}

fn digest_of(addr: SocketAddr) -> (String, String) {
    let mut client = Client::connect(addr).expect("worker reachable");
    let j = client.get("/internal/digest").expect("digest rpc");
    (
        j.req_str("digest").expect("digest field"),
        j.req_str("rounds").expect("rounds field"),
    )
}

/// The headline e2e: 1 coordinator + 3 workers over real sockets ==
/// single-process 4-shard == 1-shard, bit-for-bit, with every worker a
/// verified replica — and the last round driven through the public
/// HTTP gateway to pin the full wire path.
#[test]
fn three_workers_over_sockets_match_single_process() {
    let seed = 424_242;
    let rounds = 5usize;
    let cmds = command_stream(rounds, seed);
    let workers: Vec<WorkerProc> = (0..3).map(|_| WorkerProc::spawn(seed, 4, None)).collect();
    let dir = ScratchDir::new("dist-headline");
    let (node, pool, dist_reports) = replay_distributed(&dir, &cmds, seed, 4, &workers);
    let (local4, local4_reports) = replay_local(&cmds, seed, 4);
    let (local1, _) = replay_local(&cmds, seed, 1);

    // Distributed == single-process M-shard, bit-for-bit.
    assert_eq!(
        node.state_digest(),
        local4.state_digest(),
        "distributed coordinator diverged from single-process 4-shard"
    );
    assert_eq!(dist_reports.len(), local4_reports.len());
    for (a, b) in dist_reports.iter().zip(&local4_reports) {
        assert_eq!(
            report_totals(a),
            report_totals(b),
            "round {} report",
            a.round
        );
    }
    // == 1-shard (ledger + trades; digests differ by shard structure).
    assert_eq!(balances(node.router()), balances(&local1));
    assert_eq!(trades(node.router()), trades(&local1));

    // No worker died, and every worker is a bit-exact replica that
    // really executed the rounds (a local fallback would leave them
    // stale — this is the non-vacuity guard for the distributor path).
    assert_eq!(pool.live_workers(), 3);
    for w in &workers {
        let (digest, worker_rounds) = digest_of(w.addr);
        assert_eq!(
            digest,
            node.state_digest().to_string(),
            "worker replica diverged"
        );
        assert_eq!(worker_rounds, rounds.to_string(), "worker skipped rounds");
    }

    // Full wire path: one more round through the public HTTP gateway.
    let gateway = Gateway::serve(Arc::clone(&node), GatewayConfig::default()).expect("gateway");
    let mut client = Client::connect(gateway.addr()).expect("client");
    client
        .post("/rounds", &Json::obj([("rounds", Json::Num(1.0))]))
        .expect("gateway round");
    let _ = local4.apply(&Command::RunRound { rounds: 1 });
    assert_eq!(
        node.state_digest(),
        local4.state_digest(),
        "gateway-driven distributed round diverged"
    );

    // Coordinator exposition: distributed series present, lints clean.
    let exposition = client.get_text("/metrics").expect("metrics scrape");
    lint_exposition(&exposition).expect("coordinator exposition lints");
    for series in [
        "dmp_worker_rpc_us_count{rpc=\"candidates\"}",
        "dmp_worker_rpc_us_count{rpc=\"settle\"}",
        "dmp_worker_rpc_us_count{rpc=\"restore\"}",
        "dmp_round_settlement_components",
        "dmp_worker_redispatch_total",
    ] {
        assert!(
            exposition.contains(series),
            "coordinator /metrics is missing {series}"
        );
    }

    // Worker exposition over its own socket: lints clean, carries the
    // standard series (the worker runs the same telemetry stack).
    let first = workers.first().expect("spawned three workers");
    let mut worker_client = Client::connect(first.addr).expect("worker client");
    let worker_exposition = worker_client.get_text("/metrics").expect("worker metrics");
    lint_exposition(&worker_exposition).expect("worker exposition lints");
    assert!(
        worker_exposition.contains("dmp_round_settlement_components"),
        "worker ran settlement but exports no component series"
    );
    gateway.shutdown();
}

/// Kill one of three workers at a phase boundary of round 2 and assert
/// the coordinator's final state is bit-identical to the no-failure
/// single-process run, with the survivors still verified replicas.
fn kill_at_phase(phase: &str) {
    let seed = 7_117;
    let rounds = 4usize;
    let cmds = command_stream(rounds, seed);
    let redispatched_before = metrics().worker_redispatch.get();
    let workers = vec![
        WorkerProc::spawn(seed, 4, Some((phase, 2))),
        WorkerProc::spawn(seed, 4, None),
        WorkerProc::spawn(seed, 4, None),
    ];
    let dir = ScratchDir::new(&format!("dist-kill-{phase}"));
    let (node, pool, _) = replay_distributed(&dir, &cmds, seed, 4, &workers);
    let (local4, _) = replay_local(&cmds, seed, 4);

    assert_eq!(
        node.state_digest(),
        local4.state_digest(),
        "worker death at {phase} changed the settled state"
    );
    assert_eq!(balances(node.router()), balances(&local4));
    assert_eq!(trades(node.router()), trades(&local4));
    assert_eq!(
        pool.live_workers(),
        2,
        "the killed worker must be out of rotation"
    );
    if phase == "pre-candidate" {
        // The kill interrupted the candidate phase itself, so its
        // shards must have been re-dispatched to the survivors.
        assert!(
            metrics().worker_redispatch.get() > redispatched_before,
            "a pre-candidate death must re-dispatch shards"
        );
    }
    // Survivors finished every round and stayed bit-exact.
    for w in workers.iter().skip(1) {
        let (digest, worker_rounds) = digest_of(w.addr);
        assert_eq!(digest, node.state_digest().to_string(), "survivor diverged");
        assert_eq!(worker_rounds, rounds.to_string(), "survivor skipped rounds");
    }
}

#[test]
fn worker_killed_pre_candidate_is_redispatched() {
    kill_at_phase("pre-candidate");
}

#[test]
fn worker_killed_pre_settle_costs_nothing() {
    kill_at_phase("pre-settle");
}

#[test]
fn worker_killed_mid_settle_costs_nothing() {
    kill_at_phase("mid-settle");
}

/// A worker booted with a different seed has a different config
/// fingerprint: provisioning fails, candidate requests are refused
/// with 409 over the wire, and nothing about the worker's state moves.
#[test]
fn mismatched_worker_is_refused_over_the_wire() {
    let seed = 99;
    let imposter = WorkerProc::spawn(seed + 1, 4, None);
    let dir = ScratchDir::new("dist-mismatch");
    let cfg = ServiceConfig::new(dir.path(), market_config(seed)).with_shards(4);
    let node = Arc::new(ServiceNode::open(cfg).expect("coordinator opens"));
    let pool = Arc::new(
        WorkerPool::connect(node.fingerprint(), 4, &[imposter.addr]).expect("pool connects"),
    );
    assert_eq!(
        pool.provision_all(&node),
        0,
        "a mismatched fingerprint must refuse provisioning"
    );
    assert_eq!(pool.live_workers(), 0);

    // Direct candidate RPC with the coordinator's fingerprint: 409.
    let mut client = Client::connect(imposter.addr).expect("worker reachable");
    let (status, body) = client
        .request(
            "POST",
            "/internal/candidates",
            Some(&Json::obj([
                ("fp", Json::str(node.fingerprint())),
                ("round", Json::str("1")),
                ("seed", Json::str("1")),
                ("shards", Json::Arr(vec![Json::str("0")])),
            ])),
        )
        .expect("rpc completes");
    assert_eq!(status, 409, "{}", body.dump());
    let (_, worker_rounds) = digest_of(imposter.addr);
    assert_eq!(
        worker_rounds, "0",
        "refused requests must not advance state"
    );

    // The round still runs — locally — and matches single-process.
    let cmds = command_stream(2, seed);
    let mut node_reports = Vec::new();
    WorkerPool::attach(&pool, &node);
    for cmd in &cmds {
        if let Ok(Outcome::RoundsRun(mut r)) = node.apply(cmd.clone()) {
            node_reports.append(&mut r);
        }
    }
    let (local4, _) = replay_local(&cmds, seed, 4);
    assert_eq!(
        node.state_digest(),
        local4.state_digest(),
        "all-workers-dead fallback diverged from local compute"
    );
}

/// Same family, other field: the fingerprint matches but the image
/// does not restore to the digest sent with it. The worker answers 409
/// *before* installing anything — it stays the replica it was.
#[test]
fn restore_that_misses_its_digest_is_refused_before_installation() {
    let seed = 1_234;
    let workers = vec![WorkerProc::spawn(seed, 4, None)];
    let cmds = command_stream(2, seed);
    let dir = ScratchDir::new("dist-bad-restore");
    let (node, pool, _) = replay_distributed(&dir, &cmds, seed, 4, &workers);
    let worker = workers.first().expect("one worker spawned");
    let replica_before = digest_of(worker.addr);
    assert_eq!(replica_before.0, node.state_digest().to_string());

    // A different state's image (one more deposit) under this state's
    // digest: what a corrupted transfer would look like.
    let honest_digest = node.state_digest();
    let other = ShardRouter::new(&market_config(seed), 4);
    for cmd in cmds.iter().chain([&Command::Deposit {
        account: "buyer0".into(),
        amount: 1.0,
    }]) {
        let _ = other.apply(cmd);
    }
    let image = dmp_service::state::encode(&other.export_state());
    assert_ne!(image.digest(), honest_digest);
    let mut client = Client::connect(worker.addr).expect("worker reachable");
    let (status, body) = client
        .request(
            "POST",
            "/internal/restore",
            Some(&Json::obj([
                ("fp", Json::str(node.fingerprint())),
                ("applied", Json::str(node.applied().to_string())),
                ("digest", Json::str(honest_digest.to_string())),
                ("state", image.into_json()),
            ])),
        )
        .expect("rpc completes");
    assert_eq!(status, 409, "{}", body.dump());
    assert_eq!(
        digest_of(worker.addr),
        replica_before,
        "a refused restore must leave the replica as it was"
    );
    // Still in rotation and still a replica: the next round distributes.
    assert_eq!(pool.live_workers(), 1);
    let _ = node.apply(Command::RunRound { rounds: 1 });
    assert_eq!(pool.live_workers(), 1);
    assert_eq!(digest_of(worker.addr).0, node.state_digest().to_string());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The acceptance property: random streams through a distributed
    /// deployment (1 coordinator + 2 workers, one of which dies
    /// pre-candidate in round 2 and forces a re-dispatch) match the
    /// single-process M-shard and 1-shard runs bit-for-bit.
    #[test]
    fn distributed_matches_single_process_across_kills(case_seed in 0u64..500) {
        let rounds = 3usize;
        let cmds = command_stream(rounds, case_seed);
        let workers = vec![
            WorkerProc::spawn(case_seed, 4, Some(("pre-candidate", 2))),
            WorkerProc::spawn(case_seed, 4, None),
        ];
        let dir = ScratchDir::new("dist-prop");
        let (node, _pool, dist_reports) = replay_distributed(&dir, &cmds, case_seed, 4, &workers);
        let (local4, local4_reports) = replay_local(&cmds, case_seed, 4);
        let (local1, _) = replay_local(&cmds, case_seed, 1);

        prop_assert_eq!(
            node.state_digest(),
            local4.state_digest(),
            "distributed vs single-process 4-shard digest"
        );
        prop_assert_eq!(balances(node.router()), balances(&local4));
        prop_assert_eq!(balances(node.router()), balances(&local1));
        prop_assert_eq!(trades(node.router()), trades(&local1));
        prop_assert_eq!(dist_reports.len(), local4_reports.len());
        for (a, b) in dist_reports.iter().zip(&local4_reports) {
            prop_assert_eq!(report_totals(a), report_totals(b));
        }
        // The survivor is still a bit-exact replica at full round count.
        let survivor = workers.get(1).expect("two workers spawned");
        let (digest, worker_rounds) = digest_of(survivor.addr);
        prop_assert_eq!(digest, node.state_digest().to_string());
        prop_assert_eq!(worker_rounds, rounds.to_string());
    }
}
