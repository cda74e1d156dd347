//! The four workloads. Each repetition is `setup → measure → finish`:
//! set-up builds the market on a fresh directory and warms it, the
//! measured phase runs a fixed number of operations closed-loop, and
//! `finish` checks the outputs, drops the node without a clean shutdown
//! and times its recovery.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use dmp_service::client::Client;
use dmp_service::command::Command;
use dmp_service::coordinator::WorkerPool;
use dmp_service::gateway::{Gateway, GatewayConfig};
use dmp_service::metrics::metrics;
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::shard::Outcome;
use dmp_service::snapshot;
use dmp_service::wire::Json;
use dmp_service::worker::{WorkerConfig, WorkerNode};

use crate::gen::{self, Market, MarketSize, BUYER_FUNDS, OFFERS_PER_ROUND, SHARDS};
use crate::scratch::{dir_bytes, ScratchDir};
use crate::stepper::Stepper;
use crate::trace::Tracer;

/// `--seconds` the sizes below were calibrated at; other values scale
/// every operation count linearly.
pub const REFERENCE_SECONDS: u64 = 12;
/// Worker replicas behind `rounds_dist`.
pub const WORKERS: usize = 2;
/// Client connections (one thread each) on `gateway_mix`: `nproc` of
/// the box the sizes were calibrated on.
pub const CONNECTIONS: usize = 2;
/// Checkpoint cycles per `checkpoint_cycle` repetition.
const CYCLES: usize = 3;
/// Trading rounds interleaved into each cycle's deposits.
const ROUNDS_PER_CYCLE: usize = 1;
/// Deposits `gateway_mix`'s set-up bulk-loads (no per-append fsync)
/// before it reopens the node with fsync on and serves it: the history
/// that makes its recovery a replay of ~125 k small commands, long
/// enough to time.
const HISTORY: usize = 100_000;
/// Set-ups timed per run: one per repetition, the rest set-up only.
const SETUPS: usize = 5;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process trading rounds.
    RoundsLocal,
    /// The same rounds with two worker replicas over loopback.
    RoundsDist,
    /// Mixed deposits / reads / offers through the gateway.
    GatewayMix,
    /// Deposits and rounds across verified checkpoints.
    CheckpointCycle,
}

impl Workload {
    /// Every workload, in the order a full pass runs them.
    pub const ALL: [Workload; 4] = [
        Workload::RoundsLocal,
        Workload::RoundsDist,
        Workload::GatewayMix,
        Workload::CheckpointCycle,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RoundsLocal => "rounds_local",
            Workload::RoundsDist => "rounds_dist",
            Workload::GatewayMix => "gateway_mix",
            Workload::CheckpointCycle => "checkpoint_cycle",
        }
    }

    /// Why the workload exists: which layers do its work.
    pub fn why(self) -> &'static str {
        match self {
            Workload::RoundsLocal => "one thread applies 16-offer trading rounds in-process on the 32-seller market: discovery, DoD joins, clearing and settlement do the work, journal and codecs almost none",
            Workload::RoundsDist => "the identical command stream with two worker replicas behind loopback sockets: adds coordinator, worker, codec, client and HTTP cost, so a change to distribution shows here and not in rounds_local",
            Workload::GatewayMix => "two closed-loop HTTP clients send 50% deposits, 40% ledger reads, 10% offers and no rounds: reactor, HTTP parser, wire JSON, WAL fsync and the apply lock do the work, the arbiter none",
            Workload::CheckpointCycle => "deposits and rounds across verified checkpoints with journal compaction: state image codec, digest, snapshot file and the wire parser on large documents do the work; recovery restores an image",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much one repetition does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Market size.
    pub market: MarketSize,
    /// Repetitions of an untraced run.
    pub reps: usize,
    /// Set-ups an untraced run times (at least `reps`).
    pub setups: usize,
    /// `gateway_mix`: deposits bulk-loaded before the node is served.
    pub history: usize,
    /// Warm-up inside set-up: trading rounds, or requests per
    /// connection on `gateway_mix`.
    pub warmup: usize,
    /// Measured work: trading rounds, requests per connection, or
    /// deposits per checkpoint cycle.
    pub work: usize,
}

impl Plan {
    /// The plan for `workload` when the measured phases of a run should
    /// take about `seconds` on the calibration box. Counts are a pure
    /// function of the arguments, never of the clock, so two builds
    /// given the same arguments do identical work.
    pub fn new(workload: Workload, seconds: u64, smoke: bool) -> Plan {
        if smoke {
            let (warmup, work) = match workload {
                Workload::GatewayMix => (50, 200),
                Workload::CheckpointCycle => (1, 60),
                _ => (1, 40),
            };
            return Plan {
                market: gen::TINY,
                reps: 1,
                setups: 1,
                history: 100,
                warmup,
                work,
            };
        }
        let scaled = |at_reference: usize| {
            (at_reference as u64 * seconds.max(1)).div_ceil(REFERENCE_SECONDS) as usize
        };
        // Repetitions: as many as fit the driver's budget of 92 runs in
        // 3420 s — five of the cheapest workload's, three of the others'.
        let (market, reps, warmup, work) = match workload {
            Workload::RoundsLocal => (gen::MID, 5, 5, scaled(150)),
            Workload::RoundsDist => (gen::MID, 3, 5, scaled(40)),
            Workload::GatewayMix => (gen::SMALL, 3, 1000, scaled(20_000)),
            Workload::CheckpointCycle => (gen::MID, 3, 5, scaled(2000)),
        };
        Plan {
            market,
            reps,
            setups: SETUPS,
            history: HISTORY,
            warmup,
            work,
        }
    }

    /// `snapshot_every` on `checkpoint_cycle`: one checkpoint per cycle
    /// (a cycle journals `work` deposits plus its rounds' commands).
    pub fn snapshot_every(&self) -> u64 {
        (self.work + ROUNDS_PER_CYCLE * (OFFERS_PER_ROUND + 1) - 3) as u64
    }
}

/// Where a run keeps its directories, and its seed.
pub struct Env<'a> {
    /// Root for scratch directories.
    pub root: &'a Path,
    /// Workload seed.
    pub seed: u64,
}

/// Totals over the rounds of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Rounds run.
    pub rounds: u64,
    /// Sales settled.
    pub sales: u64,
    /// Settlement conflict components.
    pub components: u64,
    /// Rounds that settled no sale at all.
    pub starved: u64,
}

impl Tally {
    /// Fold one command's outcome in.
    pub fn observe(&mut self, outcome: &Outcome) {
        if let Outcome::RoundsRun(reports) = outcome {
            for r in reports {
                self.rounds += 1;
                self.sales += r.sales as u64;
                self.components += r.components as u64;
                if r.sales == 0 {
                    self.starved += 1;
                }
            }
        }
    }
}

/// Worker replicas behind loopback gateways, and the pool over them.
pub struct Workers {
    gateways: Vec<Gateway>,
    /// The coordinator-side pool.
    pub pool: Arc<WorkerPool>,
}

impl Workers {
    /// Boot `WORKERS` in-process replicas and ship them `node`'s state.
    pub fn boot(node: &ServiceNode) -> Result<Workers, String> {
        let gateways: Vec<Gateway> = (0..WORKERS)
            .map(|_| {
                let worker = Arc::new(WorkerNode::new(WorkerConfig::new(
                    gen::market_config(),
                    SHARDS,
                )));
                Gateway::serve_service(worker, GatewayConfig::default())
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("worker gateway: {e}"))?;
        let addrs: Vec<SocketAddr> = gateways.iter().map(Gateway::addr).collect();
        let pool = WorkerPool::connect(node.fingerprint(), SHARDS, &addrs)
            .map_err(|e| format!("worker pool: {e}"))?;
        Ok(Workers {
            gateways,
            pool: Arc::new(pool),
        })
    }

    /// Every worker still in rotation and bit-identical to `digest`.
    fn verify(&self, digest: u64) -> Result<(), String> {
        if self.pool.live_workers() != WORKERS {
            return Err(format!(
                "{} of {WORKERS} workers live at the end",
                self.pool.live_workers()
            ));
        }
        for gateway in &self.gateways {
            let reply = Client::connect(gateway.addr())
                .and_then(|mut c| c.get("/internal/digest"))
                .map_err(|e| format!("worker digest: {e}"))?;
            let theirs = reply
                .get("digest")
                .and_then(Json::as_str)
                .and_then(|s| s.parse::<u64>().ok());
            if theirs != Some(digest) {
                return Err(format!(
                    "worker {} digest {theirs:?} != coordinator {digest}",
                    gateway.addr()
                ));
            }
        }
        Ok(())
    }

    /// Stop every worker's gateway.
    pub fn shutdown(self) {
        for gateway in self.gateways {
            gateway.shutdown();
        }
    }
}

/// A market set up and warmed, ready for its measured phase.
pub struct Stage {
    /// The node directory (removed on drop).
    pub dir: ScratchDir,
    /// The node.
    pub node: Arc<ServiceNode>,
    /// The command source, positioned after set-up.
    pub market: Market,
    /// `rounds_dist`: the attached replicas.
    pub workers: Option<Workers>,
    /// `gateway_mix`: the public gateway.
    pub gateway: Option<Gateway>,
    /// `gateway_mix`: quarter-credits deposited per buyer account on top
    /// of its funding (bulk-loaded history, warm-up and measured phase).
    pub deposited: Vec<u64>,
    /// Everything before the measured phase, in seconds.
    pub setup_s: f64,
    /// Telemetry counters at set-up, for the end-of-run deltas.
    compactions_before: u64,
}

/// What a measured phase produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed (an `Err`, a non-2xx reply).
    pub failed: u64,
    /// Latency of each successful operation (`gateway_mix`: writes).
    pub op_ns: Vec<u64>,
    /// `gateway_mix`: latency of each successful read.
    pub read_ns: Vec<u64>,
    /// Round totals.
    pub tally: Tally,
}

/// One finished repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// The measured phase.
    pub measured: Measured,
    /// Set-up time.
    pub setup_s: f64,
    /// `ServiceNode::open` on the abandoned directory.
    pub recovery_s: f64,
    /// Bytes in the node directory at the end.
    pub disk_bytes: u64,
    /// Commands journaled into it.
    pub journaled: u64,
}

fn apply_all(node: &ServiceNode, cmds: Vec<Command>, tally: &mut Tally) -> Result<(), String> {
    for cmd in cmds {
        let outcome = node
            .apply(cmd)
            .map_err(|e| format!("set-up command failed: {e}"))?;
        tally.observe(&outcome);
    }
    Ok(())
}

/// Set a workload's market up on a fresh directory and warm it.
pub fn setup(workload: Workload, plan: &Plan, env: &Env) -> Result<Stage, String> {
    let dir = ScratchDir::new(env.root, workload.name()).map_err(|e| format!("scratch: {e}"))?;
    let started = Instant::now();
    let mut cfg = ServiceConfig::new(dir.path(), gen::market_config())
        .with_shards(SHARDS)
        .with_fsync(true)
        .with_snapshot_every(0);
    if workload == Workload::CheckpointCycle {
        cfg = cfg
            .with_snapshot_every(plan.snapshot_every())
            .with_keep_snapshots(1);
    }
    let open = |cfg: ServiceConfig| ServiceNode::open(cfg).map_err(|e| format!("open: {e}"));
    let mut market = Market::new(plan.market, env.seed);
    let mut warm = Tally::default();
    let mut deposited = vec![0; market.buyers()];
    let node = if workload == Workload::GatewayMix {
        // The gateway goes in front of a node with a history: bulk-load
        // it without per-append fsync, then reopen it the way it is
        // served. The deposits come from a fork, like the gateway's own,
        // so they are accounted per account and not in `market.minted`.
        let loader = open(cfg.clone().with_fsync(false))?;
        apply_all(&loader, market.setup(), &mut warm)?;
        let mut source = market.fork();
        for _ in 0..plan.history {
            let (account, amount) = source.deposit_parts();
            deposited[account] += (amount * 4.0) as u64;
            let cmd = Command::Deposit {
                account: market.buyer(account),
                amount,
            };
            apply_all(&loader, vec![cmd], &mut warm)?;
        }
        drop(loader);
        open(cfg)?
    } else {
        let node = open(cfg)?;
        apply_all(&node, market.setup(), &mut warm)?;
        node
    };
    let mut stage = Stage {
        dir,
        node: Arc::new(node),
        deposited,
        market,
        workers: None,
        gateway: None,
        setup_s: 0.0,
        compactions_before: metrics().journal_compactions.get(),
    };
    match workload {
        Workload::RoundsDist => {
            let workers = Workers::boot(&stage.node)?;
            if workers.pool.provision_all(&stage.node) != WORKERS {
                return Err("a worker refused its state image".into());
            }
            stage.workers = Some(workers);
        }
        Workload::GatewayMix => {
            let gateway = Gateway::serve(Arc::clone(&stage.node), GatewayConfig::default())
                .map_err(|e| format!("gateway: {e}"))?;
            stage.gateway = Some(gateway);
        }
        Workload::RoundsLocal | Workload::CheckpointCycle => {}
    }
    // Warm-up fills the discovery-index cache and the connection state.
    if workload == Workload::GatewayMix {
        let warmed = mix(&mut stage, plan.warmup, None)?;
        if warmed.failed > 0 {
            return Err(format!("{} warm-up requests failed", warmed.failed));
        }
    } else {
        if let Some(workers) = &stage.workers {
            WorkerPool::attach(&workers.pool, &stage.node);
        }
        for _ in 0..plan.warmup {
            apply_all(&stage.node, stage.market.trading_round(), &mut warm)?;
        }
        if warm.starved > 0 {
            return Err("a warm-up round settled no sale".into());
        }
    }
    stage.setup_s = started.elapsed().as_secs_f64();
    Ok(stage)
}

/// Apply one command as (part of) an operation; `None` when it failed.
fn timed_apply(node: &ServiceNode, cmd: Command, tally: &mut Tally) -> Option<u64> {
    let started = Instant::now();
    let outcome = node.apply(cmd).ok()?;
    let ns = started.elapsed().as_nanos() as u64;
    tally.observe(&outcome);
    Some(ns)
}

/// `rounds_local` / `rounds_dist`: `plan.work` trading rounds through
/// `ServiceNode::apply`; one operation is the 16 offers plus the round.
fn rounds(stage: &mut Stage, plan: &Plan) -> Measured {
    let mut m = Measured::default();
    let started = Instant::now();
    for _ in 0..plan.work {
        let cmds = stage.market.trading_round();
        let op_started = Instant::now();
        let ok = cmds
            .into_iter()
            .all(|cmd| timed_apply(&stage.node, cmd, &mut m.tally).is_some());
        m.ops += 1;
        if ok {
            m.op_ns.push(op_started.elapsed().as_nanos() as u64);
        } else {
            m.failed += 1;
        }
    }
    m.wall_s = started.elapsed().as_secs_f64();
    m
}

/// The command stream of one `checkpoint_cycle` repetition: per cycle
/// `work` deposits with the cycle's trading rounds spaced evenly among
/// them, then a quarter as many deposits again so recovery has a tail
/// to replay on top of the last image.
pub fn checkpoint_stream(market: &mut Market, plan: &Plan) -> Vec<Command> {
    let stretch = (plan.work / (ROUNDS_PER_CYCLE + 1)).max(1);
    let mut out = Vec::new();
    for _ in 0..CYCLES {
        let mut rounds_left = ROUNDS_PER_CYCLE;
        for d in 1..=plan.work {
            out.push(market.deposit());
            if d % stretch == 0 && rounds_left > 0 {
                rounds_left -= 1;
                out.extend(market.trading_round());
            }
        }
    }
    out.extend((0..plan.work / 4).map(|_| market.deposit()));
    out
}

/// `checkpoint_cycle`: one operation is one journaled command.
fn checkpoints(stage: &mut Stage, plan: &Plan) -> Measured {
    let mut m = Measured::default();
    let cmds = checkpoint_stream(&mut stage.market, plan);
    let started = Instant::now();
    for cmd in cmds {
        m.ops += 1;
        match timed_apply(&stage.node, cmd, &mut m.tally) {
            Some(ns) => m.op_ns.push(ns),
            None => m.failed += 1,
        }
    }
    m.wall_s = started.elapsed().as_secs_f64();
    m
}

/// One pre-generated gateway request.
enum Request {
    Deposit {
        account: usize,
        quarters: u64,
        body: Json,
    },
    Read {
        path: String,
    },
    Offer {
        body: Json,
    },
}

/// The seeded request mix of one connection: 50 % `POST /deposits`,
/// 40 % `GET /ledger/:name`, 10 % `POST /offers`.
fn request_stream(market: &mut Market, requests: usize) -> Vec<Request> {
    (0..requests)
        .map(|_| match market.pick(10) {
            0..=4 => {
                let (account, amount) = market.deposit_parts();
                Request::Deposit {
                    account,
                    quarters: (amount * 4.0) as u64,
                    body: Json::obj([
                        ("account", Json::str(market.buyer(account))),
                        ("amount", Json::Num(amount)),
                    ]),
                }
            }
            5..=8 => {
                let account = market.pick(market.buyers());
                Request::Read {
                    path: format!("/ledger/{}", market.buyer(account)),
                }
            }
            _ => Request::Offer {
                body: offer_body(market),
            },
        })
        .collect()
}

/// The body of a `POST /offers` for the market's next offer (the route
/// supplies the "op" discriminator itself).
pub fn offer_body(market: &mut Market) -> Json {
    match Command::SubmitOffer(market.offer()).encode() {
        Json::Obj(pairs) => Json::Obj(pairs.into_iter().filter(|(k, _)| k != "op").collect()),
        other => other,
    }
}

/// What one connection's thread brings back.
struct ConnectionResult {
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
    failed: u64,
    /// Acknowledged quarter-credits per account.
    deposited: Vec<u64>,
    tracer: Option<Tracer>,
}

fn drive_connection(
    addr: SocketAddr,
    requests: Vec<Request>,
    accounts: usize,
    start: &Barrier,
    traced: bool,
) -> std::io::Result<ConnectionResult> {
    let client = Client::connect(addr);
    let mut out = ConnectionResult {
        write_ns: Vec::with_capacity(requests.len()),
        read_ns: Vec::with_capacity(requests.len()),
        failed: 0,
        deposited: vec![0; accounts],
        tracer: traced.then(Tracer::new),
    };
    // Reach the barrier even when the connect failed, or the other
    // threads would wait for ever.
    start.wait();
    let mut client = client?;
    for request in &requests {
        let (method, path, body) = match request {
            Request::Deposit { body, .. } => ("POST", "/deposits", Some(body)),
            Request::Read { path } => ("GET", path.as_str(), None),
            Request::Offer { body } => ("POST", "/offers", Some(body)),
        };
        let started = Instant::now();
        let reply = match &mut out.tracer {
            // From outside, a request is one opaque round trip.
            Some(t) => t.op(|t| {
                t.span("service.gateway.roundtrip", 1, |_| {
                    client.request(method, path, body)
                })
            }),
            None => client.request(method, path, body),
        };
        let ns = started.elapsed().as_nanos() as u64;
        match (reply, request) {
            (Ok((200, _)), Request::Read { .. }) => out.read_ns.push(ns),
            (
                Ok((200, _)),
                Request::Deposit {
                    account, quarters, ..
                },
            ) => {
                out.write_ns.push(ns);
                out.deposited[*account] += quarters;
            }
            (Ok((200, _)), Request::Offer { .. }) => out.write_ns.push(ns),
            _ => out.failed += 1,
        }
    }
    Ok(out)
}

/// The gateway mix against `addr`: `CONNECTIONS` closed-loop clients,
/// `requests` each, streams forked from `market`. With a tracer, every
/// request is recorded as an operation span. Returns the measurements
/// and the quarter-credits acknowledged per buyer account.
pub fn mix_on(
    addr: SocketAddr,
    market: &mut Market,
    requests: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Measured, Vec<u64>), String> {
    let accounts = market.buyers();
    let streams: Vec<Vec<Request>> = (0..CONNECTIONS)
        .map(|_| request_stream(&mut market.fork(), requests))
        .collect();
    let start = Barrier::new(CONNECTIONS + 1);
    let traced = tracer.is_some();
    let (results, wall_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                let start = &start;
                scope.spawn(move || drive_connection(addr, stream, accounts, start, traced))
            })
            .collect();
        start.wait();
        let started = Instant::now();
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (results, started.elapsed().as_secs_f64())
    });
    let mut m = Measured {
        wall_s,
        ops: (CONNECTIONS * requests) as u64,
        ..Measured::default()
    };
    let mut deposited = vec![0u64; accounts];
    for result in results {
        let conn = result
            .map_err(|_| "a client thread panicked".to_string())?
            .map_err(|e| format!("client connection: {e}"))?;
        m.failed += conn.failed;
        m.op_ns.extend(conn.write_ns);
        m.read_ns.extend(conn.read_ns);
        for (total, acked) in deposited.iter_mut().zip(conn.deposited) {
            *total += acked;
        }
        if let (Some(t), Some(theirs)) = (tracer.as_deref_mut(), conn.tracer) {
            t.absorb(theirs);
        }
    }
    Ok((m, deposited))
}

/// `gateway_mix`'s measured phase (and its warm-up) on a stage.
fn mix(
    stage: &mut Stage,
    requests: usize,
    tracer: Option<&mut Tracer>,
) -> Result<Measured, String> {
    let addr = stage
        .gateway
        .as_ref()
        .ok_or("gateway_mix needs its gateway")?
        .addr();
    let (m, deposited) = mix_on(addr, &mut stage.market, requests, tracer)?;
    for (total, acked) in stage.deposited.iter_mut().zip(deposited) {
        *total += acked;
    }
    Ok(m)
}

/// Run a workload's measured phase through the opaque entry points.
pub fn measure(workload: Workload, plan: &Plan, stage: &mut Stage) -> Result<Measured, String> {
    Ok(match workload {
        Workload::RoundsLocal | Workload::RoundsDist => rounds(stage, plan),
        Workload::CheckpointCycle => checkpoints(stage, plan),
        Workload::GatewayMix => mix(stage, plan.work, None)?,
    })
}

/// Run the same measured phase step by step through the layers' public
/// functions, every step a span. State advances exactly as in
/// [`measure`], but through the router: the node's own journal does not
/// see these commands, so a traced stage is never recovered.
pub fn measure_traced(
    workload: Workload,
    plan: &Plan,
    stage: &mut Stage,
    t: &mut Tracer,
) -> Result<Measured, String> {
    if workload == Workload::GatewayMix {
        return mix(stage, plan.work, Some(t));
    }
    let per_command = workload == Workload::CheckpointCycle;
    let ops: Vec<Vec<Command>> = if per_command {
        checkpoint_stream(&mut stage.market, plan)
            .into_iter()
            .map(|cmd| vec![cmd])
            .collect()
    } else {
        (0..plan.work)
            .map(|_| stage.market.trading_round())
            .collect()
    };
    let pool = stage.workers.as_ref().map(|w| Arc::clone(&w.pool));
    let checkpoint_every = if per_command {
        plan.snapshot_every()
    } else {
        0
    };
    let mut stepper = Stepper::new(&stage.node, stage.dir.path(), pool, checkpoint_every)
        .map_err(|e| format!("stepper: {e}"))?;
    let mut m = Measured::default();
    let started = Instant::now();
    for cmds in ops {
        m.ops += 1;
        let op_started = Instant::now();
        let ok = t.op(|t| {
            cmds.iter().all(|cmd| match stepper.command(t, cmd) {
                Ok(outcome) => {
                    m.tally.observe(&outcome);
                    true
                }
                Err(_) => false,
            })
        });
        if ok {
            m.op_ns.push(op_started.elapsed().as_nanos() as u64);
        } else {
            m.failed += 1;
        }
    }
    m.wall_s = started.elapsed().as_secs_f64();
    Ok(m)
}

/// Check the outputs of a stage whose measured phase reported
/// `measured` (traced or not).
pub fn verify(workload: Workload, stage: &Stage, measured: &Measured) -> Result<(), String> {
    let router = stage.node.router();
    if measured.tally.starved > 0 {
        return Err(format!("{} rounds settled no sale", measured.tally.starved));
    }
    let rounds_expected = workload != Workload::GatewayMix;
    if rounds_expected && measured.tally.rounds == 0 {
        return Err("no round ran".into());
    }
    // Money is only ever minted by deposits: what the ledger holds
    // (balances plus open escrow) is what the generator deposited.
    let minted = stage.market.minted() + stage.deposited.iter().sum::<u64>() as f64 / 4.0;
    let supply = router.shard(0).ledger().total_supply();
    if (supply - minted).abs() > 1e-6 {
        return Err(format!(
            "ledger holds {supply} credits, deposits made {minted}"
        ));
    }
    if let Some(workers) = &stage.workers {
        workers.verify(stage.node.state_digest())?;
    }
    if let Some(gateway) = &stage.gateway {
        let mut client =
            Client::connect(gateway.addr()).map_err(|e| format!("ledger check: {e}"))?;
        for (account, acked) in stage.deposited.iter().enumerate() {
            let name = stage.market.buyer(account);
            let reply = client
                .get(&format!("/ledger/{name}"))
                .map_err(|e| format!("ledger check: {e}"))?;
            let expected = BUYER_FUNDS + *acked as f64 / 4.0;
            if reply.get("balance").and_then(Json::as_f64) != Some(expected) {
                return Err(format!(
                    "GET /ledger/{name} = {} but acknowledged deposits sum to {expected}",
                    reply.dump()
                ));
            }
        }
    }
    Ok(())
}

impl Stage {
    /// Stop the listeners and drop the node as a crash would: no clean
    /// shutdown exists or is wanted. Returns the node directory.
    pub fn abandon(self) -> ScratchDir {
        if let Some(gateway) = self.gateway {
            gateway.shutdown();
        }
        drop(self.node);
        if let Some(workers) = self.workers {
            workers.shutdown();
        }
        self.dir
    }
}

/// Verify an untraced stage, abandon its node and time the recovery.
pub fn finish(
    workload: Workload,
    plan: &Plan,
    stage: Stage,
    measured: Measured,
) -> Result<Rep, String> {
    verify(workload, &stage, &measured)?;
    let (applied, digest) = (stage.node.applied(), stage.node.state_digest());
    let cfg = stage.node.config().clone();
    if workload == Workload::CheckpointCycle {
        let expected = applied / plan.snapshot_every();
        let compactions = metrics().journal_compactions.get() - stage.compactions_before;
        let snapshots = snapshot::list_snapshots(stage.dir.path()).len();
        if compactions != expected || snapshots != 1 {
            return Err(format!(
                "{compactions} compactions (expected {expected}), {snapshots} snapshots on disk (expected 1)"
            ));
        }
    }
    let disk_bytes = dir_bytes(stage.dir.path()).map_err(|e| format!("disk usage: {e}"))?;
    let setup_s = stage.setup_s;
    let _dir = stage.abandon();
    let m = metrics();
    let (verified, rejected) = (
        m.recovery_snapshot_verified.get(),
        m.recovery_snapshot_rejected.get(),
    );
    let started = Instant::now();
    let reopened = ServiceNode::open(cfg).map_err(|e| format!("recovery: {e}"))?;
    let recovery_s = started.elapsed().as_secs_f64();
    // With no workers attached the replay ran every round locally, so
    // for `rounds_dist` this is also "distributed == local".
    if (reopened.applied(), reopened.state_digest()) != (applied, digest) {
        return Err(format!(
            "recovery reached seq {} digest {:016x}, the run ended at seq {applied} digest {digest:016x}",
            reopened.applied(),
            reopened.state_digest()
        ));
    }
    if workload == Workload::CheckpointCycle
        && (m.recovery_snapshot_verified.get() != verified + 1
            || m.recovery_snapshot_rejected.get() != rejected)
    {
        return Err("recovery did not restore from the state image".into());
    }
    Ok(Rep {
        measured,
        setup_s,
        recovery_s,
        disk_bytes,
        journaled: applied,
    })
}

/// One untraced repetition, start to finish.
pub fn repetition(workload: Workload, plan: &Plan, env: &Env) -> Result<Rep, String> {
    let mut stage = setup(workload, plan, env)?;
    let measured = measure(workload, plan, &mut stage)?;
    finish(workload, plan, stage, measured)
}
