//! Service-layer benchmarks: gateway requests/sec at 1/4/16/64
//! concurrent connections, pipelined batches on one connection, and
//! journal replay throughput (rounds/sec) — the perf baseline later
//! PRs measure against (see `BENCH_service.json` from the experiments
//! binary).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_service::client::{Client, PipelinedRequest};
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, OfferSpec, TableSpec};
use dmp_service::gateway::{Gateway, GatewayConfig};
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::test_support::ScratchDir;
use dmp_service::wire::Json;

fn service_config(dir: &ScratchDir) -> ServiceConfig {
    let market = MarketConfig::external(3).with_design(MarketDesign::posted_price_baseline(10.0));
    // fsync off: benches measure the serving path, not the disk.
    ServiceConfig::new(dir.path(), market)
        .with_shards(4)
        .with_fsync(false)
        .with_snapshot_every(0)
}

/// Issue `requests` GET /health calls over `conns` keep-alive
/// connections in parallel.
fn drive(addr: std::net::SocketAddr, conns: usize, requests: usize) {
    let per_conn = requests / conns;
    let handles: Vec<_> = (0..conns)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..per_conn {
                    c.get("/health").unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

fn bench_gateway_throughput(c: &mut Criterion) {
    let dir = ScratchDir::new("bench-gw");
    let node = Arc::new(ServiceNode::open(service_config(&dir)).unwrap());
    let gateway = Gateway::serve(
        Arc::clone(&node),
        GatewayConfig {
            workers: 16,
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let addr = gateway.addr();

    let mut group = c.benchmark_group("gateway_requests");
    for conns in [1usize, 4, 16, 64] {
        group.bench_with_input(
            BenchmarkId::new("health_x64", conns),
            &conns,
            |b, &conns| {
                b.iter(|| drive(addr, conns, 64 * conns));
            },
        );
    }
    group.finish();

    // HTTP/1.1 pipelining: 64 requests per write, responses read back
    // in order on the same connection.
    let mut client = Client::connect(addr).unwrap();
    let batch: Vec<PipelinedRequest> = (0..64).map(|_| PipelinedRequest::get("/health")).collect();
    c.bench_function("gateway_pipelined_x64", |b| {
        b.iter(|| {
            let responses = client.pipeline(&batch).unwrap();
            assert_eq!(responses.len(), batch.len());
        });
    });
    gateway.shutdown();
}

fn bench_gateway_mutations(c: &mut Criterion) {
    let dir = ScratchDir::new("bench-gw-mut");
    let node = Arc::new(ServiceNode::open(service_config(&dir)).unwrap());
    let gateway = Gateway::serve(Arc::clone(&node), GatewayConfig::default()).unwrap();
    let addr = gateway.addr();
    let mut client = Client::connect(addr).unwrap();
    client
        .post(
            "/enroll",
            &Json::parse(r#"{"name":"d","role":"buyer"}"#).unwrap(),
        )
        .unwrap();

    c.bench_function("gateway_journaled_deposit", |b| {
        let body = Json::parse(r#"{"account":"d","amount":1.0}"#).unwrap();
        b.iter(|| client.post("/deposits", &body).unwrap());
    });
    gateway.shutdown();
}

/// Build a journal of `rounds` populated market rounds, then measure
/// recovery (full journal replay into fresh shards).
fn bench_journal_replay(c: &mut Criterion) {
    let dir = ScratchDir::new("bench-replay");
    let cfg = service_config(&dir);
    {
        let node = ServiceNode::open(cfg.clone()).unwrap();
        for i in 0..4 {
            node.apply(Command::Enroll {
                name: format!("s{i}"),
                role: "seller".into(),
            })
            .unwrap();
            node.apply(Command::Enroll {
                name: format!("b{i}"),
                role: "buyer".into(),
            })
            .unwrap();
            node.apply(Command::Deposit {
                account: format!("b{i}"),
                amount: 1000.0,
            })
            .unwrap();
        }
        for round in 0..16 {
            for i in 0..4 {
                let _ = node.apply(Command::SubmitAsk(AskSpec {
                    seller: format!("s{i}"),
                    table: TableSpec {
                        name: format!("t{round}_{i}"),
                        columns: vec![("k".into(), ColType::Int), ("v".into(), ColType::Float)],
                        rows: (0..6)
                            .map(|r| vec![CellSpec::Int(r), CellSpec::Float(r as f64 * 1.5)])
                            .collect(),
                    },
                    reserve: None,
                    license: None,
                }));
                let _ = node.apply(Command::SubmitOffer(OfferSpec::simple(
                    format!("b{i}"),
                    ["k", "v"],
                    15.0,
                )));
            }
            node.apply(Command::RunRound { rounds: 1 }).unwrap();
        }
    }

    c.bench_function("journal_replay_16_rounds", |b| {
        b.iter(|| {
            let node = ServiceNode::open(cfg.clone()).unwrap();
            assert!(node.applied() > 0);
            node.applied()
        });
    });
}

criterion_group!(
    benches,
    bench_gateway_throughput,
    bench_gateway_mutations,
    bench_journal_replay
);
criterion_main!(benches);
