//! Per-layer probes: every layer's public entry points timed from
//! outside, on the traced workload's own market. The traced measured
//! phase already records the spans its operations pass through; the
//! probes add the layers that phase never reaches, so that every
//! workload reports every per-layer metric.
//!
//! Probes that need a node use a *probe node*: the workload's market set
//! up afresh in its own directory (fsync on, no periodic snapshots), so
//! probing never disturbs the stage whose outputs are being verified,
//! and the state the large-document probes read (image codec, snapshot
//! file, wire parser) has the same size on every workload — it is the
//! probe node after the few rounds the probes themselves ran, because
//! the wire parser's cost per byte grows with the document and a
//! 60-round image would take minutes to load.

use std::hint::black_box;
use std::sync::Arc;

use dmp_core::arbiter::ledger::Ledger;
use dmp_core::arbiter::mashup_builder::build_mashups;
use dmp_core::arbiter::revenue::dataset_shares;
use dmp_core::arbiter::wtp_evaluator::evaluate;
use dmp_core::market::{DataMarket, Offer, OfferState};
use dmp_discovery::{DiscoveryEngine, IndexBuilder, MetadataEngine};
use dmp_integration::dod::{DodEngine, TargetSpec};
use dmp_mechanism::allocation::Bid;
use dmp_relation::ops::JoinKind;
use dmp_relation::Relation;
use dmp_service::client::{Client, PipelinedRequest};
use dmp_service::codec;
use dmp_service::command::Command;
use dmp_service::gateway::{Gateway, GatewayConfig};
use dmp_service::http;
use dmp_service::journal::Journal;
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::shard::ShardRouter;
use dmp_service::wire::Json;
use dmp_telemetry::Histogram;
use dmp_valuation::sharing::{share_revenue, SharingRule};
use dmp_valuation::RowAllocation;

use crate::gen::{self, Market, SHARDS};
use crate::scratch::ScratchDir;
use crate::stepper::{apply_span, checkpoint_image, verify_on_disk, Stepper};
use crate::trace::Tracer;
use crate::workloads::{self, Env, Plan, Workers, WORKERS};

/// The posted price of [`gen::market_config`]: what a sale shares out.
const SALE_PRICE: f64 = 10.0;

/// Iteration counts: full size, or a token amount under `--smoke`.
#[derive(Clone, Copy)]
struct Reps {
    smoke: bool,
}

impl Reps {
    fn of(self, full: usize) -> usize {
        if self.smoke {
            (full / 50).max(2)
        } else {
            full
        }
    }
}

/// Run every probe, recording into `t`.
pub fn run(t: &mut Tracer, plan: &Plan, env: &Env, smoke: bool) -> Result<(), String> {
    let reps = Reps { smoke };
    let mut market = Market::new(plan.market, env.seed);
    catalogue(t, &mut market, reps);
    primitives(t, reps);
    let dir = ScratchDir::new(env.root, "probe").map_err(|e| format!("scratch: {e}"))?;
    let cfg = ServiceConfig::new(dir.path().join("node"), gen::market_config())
        .with_shards(SHARDS)
        .with_fsync(true)
        .with_snapshot_every(0);
    let node = Arc::new(ServiceNode::open(cfg).map_err(|e| format!("probe node: {e}"))?);
    let mut market = Market::new(plan.market, env.seed);
    shard_and_node(t, &node, &mut market, reps)?;
    // Before the rounds grow the probe node's state: provisioning ships
    // the whole image to each worker.
    coordinator(t, &node, &mut market, reps)?;
    rounds(t, &node, &mut market, reps)?;
    storage(t, &dir, &mut market, reps).map_err(|e| format!("storage probes: {e}"))?;
    state_image(t, &node, &dir)?;
    network(t, node, &mut market, reps)?;
    Ok(())
}

/// `relation.from_spec`, `discovery.register`, `discovery.index.*`.
fn catalogue(t: &mut Tracer, market: &mut Market, reps: Reps) {
    let asks = market.asks();
    let engine = MetadataEngine::new();
    for ask in &asks {
        let relation = t.span("relation.from_spec", 1, |_| ask.table.to_relation());
        if let Ok(relation) = relation {
            t.span("discovery.register", 1, |_| {
                engine.register(ask.table.name.clone(), ask.seller.clone(), relation)
            });
        }
    }
    for _ in 0..reps.of(5).min(5) {
        t.span("discovery.index.build", 1, |_| {
            black_box(IndexBuilder::new().build(&engine));
        });
    }
    engine.cached_indexes();
    let hits = reps.of(10_000) as u64;
    t.span("discovery.index.cached", hits, |_| {
        for _ in 0..hits {
            black_box(engine.cached_indexes());
        }
    });
}

/// `core.ledger.transfer`, `mechanism.run_auction`,
/// `telemetry.hist.record`, `service.http.parse`.
fn primitives(t: &mut Tracer, reps: Reps) {
    let ledger = Ledger::new();
    ledger.deposit("a", 1e9);
    let transfers = reps.of(20_000) as u64;
    t.span("core.ledger.transfer", transfers, |_| {
        for _ in 0..transfers {
            let _ = black_box(ledger.transfer("a", "b", 0.25));
        }
    });

    let design = gen::market_config().design;
    let bids: Vec<Bid> = (0..gen::OFFERS_PER_ROUND)
        .map(|i| Bid::new(format!("b{i}"), 12.0 + i as f64 * 0.25))
        .collect();
    let valuations: Vec<f64> = bids.iter().map(|b| b.amount).collect();
    for _ in 0..reps.of(500) {
        t.span("mechanism.run_auction", 1, |_| {
            black_box(design.run_auction(&bids, &valuations));
        });
    }

    let hist = Histogram::new();
    let records = reps.of(200_000) as u64;
    t.span("telemetry.hist.record", records, |_| {
        for v in 0..records {
            hist.record(black_box(v));
        }
    });

    let body = r#"{"account":"b7","amount":12.25}"#;
    let canned = format!(
        "POST /deposits HTTP/1.1\r\nhost: 127.0.0.1:8080\r\ncontent-length: {}\r\ncontent-type: application/json\r\n\r\n{body}",
        body.len()
    );
    let parses = reps.of(20_000) as u64;
    t.span("service.http.parse", parses, |_| {
        for _ in 0..parses {
            let _ = black_box(http::read_request(&mut canned.as_bytes(), 1 << 20));
        }
    });
}

/// `service.shard.apply.*` on a bare router (no journal) and
/// `service.node.apply.*` on the probe node (journal + fsync).
fn shard_and_node(
    t: &mut Tracer,
    node: &ServiceNode,
    market: &mut Market,
    reps: Reps,
) -> Result<(), String> {
    let router = ShardRouter::new(&gen::market_config(), SHARDS);
    let mut bare = market.fork();
    for cmd in bare.setup() {
        t.span(apply_span(&cmd), 1, |_| router.apply(&cmd))
            .map_err(|e| format!("bare router set-up: {e}"))?;
    }
    for _ in 0..reps.of(2000) {
        let cmd = bare.deposit();
        let _ = t.span(apply_span(&cmd), 1, |_| router.apply(&cmd));
    }
    for _ in 0..reps.of(200) {
        let cmd = Command::SubmitOffer(bare.offer());
        let _ = t.span(apply_span(&cmd), 1, |_| router.apply(&cmd));
    }

    for cmd in market.setup() {
        node.apply(cmd)
            .map_err(|e| format!("probe node set-up: {e}"))?;
    }
    for _ in 0..reps.of(300) {
        let cmd = market.deposit();
        t.span("service.node.apply.deposit", 1, |_| node.apply(cmd))
            .map_err(|e| format!("probe deposit: {e}"))?;
    }
    Ok(())
}

fn pending_offers(market: &DataMarket) -> Vec<Offer> {
    market
        .offers()
        .into_iter()
        .filter(|o| o.state == OfferState::Pending)
        .collect()
}

/// The arbiter's per-offer pieces on the live catalogue, then the round
/// itself: stepped (the `core.*` phase spans, the candidate-export
/// codec) and through `ServiceNode::apply` alternately.
fn rounds(
    t: &mut Tracer,
    node: &ServiceNode,
    market: &mut Market,
    reps: Reps,
) -> Result<(), String> {
    let router = node.router();
    let design = gen::market_config().design;
    let dir = node.config().dir.clone();
    let mut stepper =
        Stepper::new(node, &dir, None, 0).map_err(|e| format!("probe stepper: {e}"))?;
    for round in 0..reps.of(4).max(2) {
        for _ in 0..gen::OFFERS_PER_ROUND {
            let cmd = Command::SubmitOffer(market.offer());
            t.span("service.node.apply.offer", 1, |_| node.apply(cmd))
                .map_err(|e| format!("probe offer: {e}"))?;
        }
        for shard in router.shards() {
            for offer in pending_offers(shard) {
                per_offer(t, shard, &offer, &design);
            }
        }
        match round % 2 {
            0 => {
                t.span("service.node.apply.round", 1, |_| {
                    node.apply(Command::RunRound { rounds: 1 })
                })
                .map_err(|e| format!("probe round: {e}"))?;
            }
            _ => exported_round(t, router, &mut stepper),
        }
    }
    Ok(())
}

/// Everything the candidate stage does for one offer, piece by piece.
fn per_offer(
    t: &mut Tracer,
    shard: &DataMarket,
    offer: &Offer,
    design: &dmp_mechanism::design::MarketDesign,
) {
    let metadata = shard.metadata();
    let wtp = &offer.wtp;
    let discovery = DiscoveryEngine::new(metadata);
    for attribute in &wtp.attributes {
        t.span("discovery.search", 1, |_| {
            black_box(discovery.candidates_for_attribute(attribute));
        });
    }
    let spec = TargetSpec::with_attributes(wtp.attributes.iter().cloned()).min_rows(1);
    let dod = DodEngine::new(metadata);
    let found = t.span("integration.dod", 1, |_| dod.find_mashups(&spec));
    let candidates = found.map(|c| c.len()).unwrap_or(0);
    t.count(
        "integration.dod.candidates_per_offer",
        candidates as f64,
        1.0,
    );

    let mashups = t.span("core.mashup_builder", 1, |_| {
        build_mashups(metadata, wtp, shard.config().max_candidates)
    });
    for mashup in &mashups {
        t.span("core.wtp_evaluator", 1, |_| {
            black_box(evaluate(wtp, &mashup.relation));
        });
    }
    if let Some(best) = mashups.first() {
        t.span("core.revenue", 1, |_| {
            black_box(dataset_shares(design, &best.relation, SALE_PRICE));
        });
        let rows = RowAllocation::uniform(&best.relation, SALE_PRICE);
        t.span("valuation.share_revenue", 1, |_| {
            black_box(share_revenue(
                &best.relation,
                &rows,
                SharingRule::EqualPerDataset,
            ));
        });
        // The join the DoD engine materialised, redone by hand on the
        // two source relations.
        let sources: Vec<Arc<Relation>> = best
            .datasets
            .iter()
            .filter_map(|&d| metadata.relation(d))
            .collect();
        if let [left, right, ..] = sources.as_slice() {
            let joined = t.span("relation.natural_join", 1, |_| {
                left.natural_join(right, JoinKind::Inner)
            });
            let rows_out = joined.map(|j| j.len()).unwrap_or(0);
            t.count("relation.natural_join.rows_out", rows_out as f64, 1.0);
        }
    }
}

/// One stepped round that also captures every shard's candidate export
/// and runs it through the wire codec.
fn exported_round(t: &mut Tracer, router: &ShardRouter, stepper: &mut Stepper) {
    // The exports must come from the state the round itself starts on:
    // take them from a throw-away replica, then step the real round.
    let image = router.export_state();
    let replica = ShardRouter::new(&gen::market_config(), SHARDS);
    if replica.restore_state(image).is_ok() {
        let seed = replica.predict_round_seed();
        let exports: Vec<_> = replica
            .shards()
            .iter()
            .map(|m| m.begin_round_exported(seed).1)
            .collect();
        let encoded = t.span("service.codec.encode_export", 1, |_| {
            codec::encode_exports(&exports)
        });
        t.count(
            "service.codec.export_bytes_per_round",
            encoded.dump().len() as f64,
            1.0,
        );
        t.span("service.codec.decode_export", 1, |_| {
            black_box(codec::decode_exports(&encoded, SHARDS).is_ok());
        });
    }
    stepper.round(t);
}

/// `service.command.*`, `service.wire.*` on a small document,
/// `service.journal.*`.
fn storage(
    t: &mut Tracer,
    dir: &ScratchDir,
    market: &mut Market,
    reps: Reps,
) -> std::io::Result<()> {
    let cmds: Vec<Command> = (0..reps.of(2000))
        .map(|i| match i % 2 {
            0 => market.deposit(),
            _ => Command::SubmitOffer(market.offer()),
        })
        .collect();
    let n = cmds.len() as u64;
    let encoded: Vec<Json> = t.span("service.command.encode", n, |_| {
        cmds.iter().map(Command::encode).collect()
    });
    t.span("service.command.decode", n, |_| {
        for json in &encoded {
            black_box(Command::decode(json).is_ok());
        }
    });
    // One offer command is the ~300-byte document of the small probe.
    let small = Command::SubmitOffer(market.offer()).encode();
    let text = small.dump();
    let parses = reps.of(5000) as u64;
    t.span(
        "service.wire.parse_small",
        parses * text.len() as u64,
        |_| {
            for _ in 0..parses {
                black_box(Json::parse(&text).is_ok());
            }
        },
    );

    let (mut synced, _) = Journal::open(dir.path().join("synced.wal"), true)?;
    let deposits: Vec<Command> = (0..reps.of(300)).map(|_| market.deposit()).collect();
    for (seq, cmd) in deposits.iter().enumerate() {
        t.span("service.journal.append", 1, |_| {
            synced.append(seq as u64 + 1, cmd)
        })?;
    }
    let path = dir.path().join("unsynced.wal");
    let (mut unsynced, _) = Journal::open(&path, false)?;
    for (seq, cmd) in cmds.iter().enumerate() {
        t.span("service.journal.append_nosync", 1, |_| {
            unsynced.append(seq as u64 + 1, cmd)
        })?;
    }
    let bytes = unsynced.len()?;
    t.count("service.journal.bytes_per_cmd", bytes as f64, n as f64);
    drop(unsynced);
    let (mut reopened, records) = t.span("service.journal.scan", bytes, |_| {
        Journal::open(&path, false)
    })?;
    t.span("service.journal.truncate_prefix", 1, |_| {
        reopened.truncate_prefix(records.len() as u64 / 2)
    })?;
    Ok(())
}

/// `service.state.*`, `service.snapshot.*` and the wire codec on the
/// probe node's state image.
fn state_image(t: &mut Tracer, node: &ServiceNode, dir: &ScratchDir) -> Result<(), String> {
    let snap = checkpoint_image(t, node.router(), node.applied());
    let sections: Vec<&Json> = std::iter::once(&snap.state.substrate)
        .chain(&snap.state.shards)
        .chain(std::iter::once(&snap.state.router))
        .collect();
    let mut texts: Vec<String> = Vec::new();
    for section in sections {
        let text = t.span("service.wire.dump", 0, |_| section.dump());
        t.set_units("service.wire.dump", text.len() as u64);
        texts.push(text);
    }
    let image_bytes: usize = texts.iter().map(String::len).sum();
    t.count("service.state.image_bytes", image_bytes as f64, 1.0);
    if let Some(largest) = texts.iter().max_by_key(|s| s.len()) {
        t.span("service.wire.parse_large", largest.len() as u64, |_| {
            black_box(Json::parse(largest).is_ok());
        });
    }
    verify_on_disk(t, node, &dir.path().join("image"), &snap)
        .map_err(|e| format!("probe node image: {e}"))
}

/// `service.coordinator.*`: provision two workers from the probe node,
/// mirror commands to them, run distributed rounds.
fn coordinator(
    t: &mut Tracer,
    node: &ServiceNode,
    market: &mut Market,
    reps: Reps,
) -> Result<(), String> {
    let workers = Workers::boot(node)?;
    let provisioned = t.span("service.coordinator.provision", WORKERS as u64, |_| {
        workers.pool.provision_all(node)
    });
    if provisioned != WORKERS {
        return Err("a probe worker refused its state image".into());
    }
    let dir = node.config().dir.join("coordinator");
    std::fs::create_dir_all(&dir).map_err(|e| format!("coordinator dir: {e}"))?;
    let mut stepper = Stepper::new(node, &dir, Some(Arc::clone(&workers.pool)), 0)
        .map_err(|e| format!("coordinator stepper: {e}"))?;
    for _ in 0..reps.of(200) {
        stepper
            .command(t, &market.deposit())
            .map_err(|e| format!("mirrored deposit: {e}"))?;
    }
    for _ in 0..2 {
        for cmd in market.trading_round() {
            stepper
                .command(t, &cmd)
                .map_err(|e| format!("distributed round: {e}"))?;
        }
    }
    t.count(
        "service.worker.live_share",
        workers.pool.live_workers() as f64,
        WORKERS as f64,
    );
    drop(stepper);
    workers.shutdown();
    Ok(())
}

/// `service.gateway.*`: one idle connection per endpoint, a pipelined
/// batch, and a short run of the gateway mix for reads beside writes.
fn network(
    t: &mut Tracer,
    node: Arc<ServiceNode>,
    market: &mut Market,
    reps: Reps,
) -> Result<(), String> {
    let gateway = Gateway::serve(Arc::clone(&node), GatewayConfig::default())
        .map_err(|e| format!("probe gateway: {e}"))?;
    let io = |e: std::io::Error| format!("probe request: {e}");
    let mut client = Client::connect(gateway.addr()).map_err(io)?;
    for _ in 0..reps.of(1000) {
        t.span("service.gateway.req.health", 1, |_| client.get("/health"))
            .map_err(io)?;
    }
    for i in 0..reps.of(1000) {
        let path = format!("/ledger/{}", market.buyer(i));
        t.span("service.gateway.req.ledger", 1, |_| client.get(&path))
            .map_err(io)?;
    }
    for _ in 0..reps.of(300) {
        let (account, amount) = market.deposit_parts();
        let body = Json::obj([
            ("account", Json::str(market.buyer(account))),
            ("amount", Json::Num(amount)),
        ]);
        t.span("service.gateway.req.deposits", 1, |_| {
            client.post("/deposits", &body)
        })
        .map_err(io)?;
    }
    for _ in 0..reps.of(100) {
        let body = workloads::offer_body(market);
        t.span("service.gateway.req.offers", 1, |_| {
            client.post("/offers", &body)
        })
        .map_err(io)?;
    }
    let batch: Vec<PipelinedRequest> = (0..64).map(|_| PipelinedRequest::get("/health")).collect();
    for _ in 0..reps.of(100) {
        t.span("service.gateway.pipelined", batch.len() as u64, |_| {
            client.pipeline(&batch)
        })
        .map_err(io)?;
    }
    drop(client);
    // At least 200 requests per connection even under --smoke: a tail
    // percentile needs 40 reads.
    let requests = reps.of(3000).max(200);
    let mut mixed = workloads::mix_on(gateway.addr(), market, requests, None)?.0;
    if mixed.failed > 0 {
        return Err(format!("{} requests of the probe mix failed", mixed.failed));
    }
    if let Some(reads) = crate::stats::latency(&mut mixed.read_ns) {
        t.count("service.gateway.mix_read_p50_us", reads.p50_us, 1.0);
        t.count("service.gateway.mix_read_tail_us", reads.tail_us, 1.0);
    }
    gateway.shutdown();
    Ok(())
}
