//! Re-provisioning a live worker while another thread writes must leave
//! it a bit-exact replica: every command journaled after the restore's
//! cut reaches the worker, and after the restore, never before it.
//!
//! A writer thread applies enrolls, deposits and rounds through the
//! coordinator while the main thread provisions an in-process worker
//! again and again. Once the writer stops, the worker must still be in
//! rotation and its `/internal/digest` must equal the coordinator's.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_service::client::Client;
use dmp_service::command::Command;
use dmp_service::coordinator::WorkerPool;
use dmp_service::gateway::{Gateway, GatewayConfig};
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::test_support::ScratchDir;
use dmp_service::worker::{WorkerConfig, WorkerNode};

const SHARDS: usize = 2;
const PROVISIONS: usize = 8;
const TRIALS: u64 = 20;

fn market_config(seed: u64) -> MarketConfig {
    MarketConfig::external(seed).with_design(MarketDesign::posted_price_baseline(12.0))
}

fn digest_of(addr: SocketAddr) -> String {
    let mut client = Client::connect(addr).expect("worker reachable");
    let reply = client.get("/internal/digest").expect("digest rpc");
    reply.req_str("digest").expect("digest field")
}

/// One of `TRIALS`: `PROVISIONS` restores of one worker under a stream
/// of writes. Returns how the worker failed to end a replica, if it did.
fn provision_under_writes(trial: u64) -> Option<String> {
    let dir = ScratchDir::new("provision-under-writes");
    let cfg = ServiceConfig::new(dir.path(), market_config(trial))
        .with_shards(SHARDS)
        .with_fsync(false);
    let node = Arc::new(ServiceNode::open(cfg).expect("coordinator opens"));
    let worker = WorkerNode::new(WorkerConfig::new(market_config(trial), SHARDS));
    let gateway =
        Gateway::serve_service(Arc::new(worker), GatewayConfig::default()).expect("worker serves");
    let pool = Arc::new(
        WorkerPool::connect(node.fingerprint(), SHARDS, &[gateway.addr()]).expect("pool connects"),
    );
    assert_eq!(pool.provision_all(&node), 1);
    WorkerPool::attach(&pool, &node);

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (node, stop) = (Arc::clone(&node), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let cmd = match n % 3 {
                    0 => Command::Enroll {
                        name: format!("p{n}"),
                        role: "buyer".into(),
                    },
                    1 => Command::Deposit {
                        account: format!("p{}", n - 1),
                        amount: 1.0 + n as f64,
                    },
                    _ => Command::RunRound { rounds: 1 },
                };
                node.apply(cmd).expect("the writer's command applies");
                n += 1;
            }
        })
    };
    for k in 0..PROVISIONS {
        // Provision only while the writer is writing.
        let from = node.applied();
        while node.applied() < from + 2 {
            std::thread::yield_now();
        }
        assert!(
            pool.provision(&node, 0),
            "trial {trial}: provision {k} failed"
        );
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("the writer ends");
    let failure = if pool.live_workers() != 1 {
        Some(format!("trial {trial}: the worker left rotation"))
    } else if digest_of(gateway.addr()) != node.state_digest().to_string() {
        Some(format!("trial {trial}: the worker diverged"))
    } else {
        None
    };
    drop((node, pool));
    gateway.shutdown();
    failure
}

#[test]
fn a_worker_provisioned_under_concurrent_writes_stays_a_replica() {
    let failures: Vec<String> = (1..=TRIALS).filter_map(provision_under_writes).collect();
    assert!(failures.is_empty(), "{failures:#?}");
}
