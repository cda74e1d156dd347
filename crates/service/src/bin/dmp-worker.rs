//! `dmp-worker` — a shard-worker process for the distributed exchange.
//!
//! Boots a [`WorkerNode`] (a full in-memory replica of the market,
//! built from the same config flags as the coordinator) behind the
//! gateway, prints the bound address on stdout (the spawn
//! handshake the coordinator and the e2e tests read), and serves the
//! `/internal/*` RPC surface until killed.
//!
//! ```text
//! dmp-worker --shards 4 --seed 7 --posted-price 12.0 [--addr 127.0.0.1:0] \
//!            [--kill-phase pre-candidate|pre-settle|mid-settle --kill-round N]
//! ```
//!
//! The `--kill-*` flags arm fault injection: the process exits at that
//! phase boundary of that round, standing in for a crash at the worst
//! possible instant (the re-dispatch e2e tests drive this).

use std::sync::Arc;

use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_service::gateway::{Gateway, GatewayConfig};
use dmp_service::worker::{KillPhase, WorkerConfig, WorkerNode};

fn fail(msg: &str) -> ! {
    eprintln!("dmp-worker: {msg}");
    eprintln!(
        "usage: dmp-worker [--addr HOST:PORT] [--shards N] [--seed N] [--posted-price X] \
         [--kill-phase pre-candidate|pre-settle|mid-settle --kill-round N]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.map(|v| v.parse::<T>()) {
        Some(Ok(v)) => v,
        _ => fail(&format!("{flag} needs a valid value")),
    }
}

/// `--shards`: a positive count. `WorkerConfig::new` would quietly run
/// a zero as one shard, so the flag is refused here instead.
fn parse_shards(value: Option<String>) -> Result<usize, String> {
    match value.map(|v| v.parse::<usize>()) {
        Some(Ok(n)) if n > 0 => Ok(n),
        _ => Err("--shards needs a positive integer".into()),
    }
}

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut shards = 4usize;
    let mut seed = 7u64;
    let mut posted_price: Option<f64> = None;
    let mut kill_phase: Option<KillPhase> = None;
    let mut kill_round: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => addr = parse(&flag, args.next()),
            "--shards" => shards = parse_shards(args.next()).unwrap_or_else(|e| fail(&e)),
            "--seed" => seed = parse(&flag, args.next()),
            "--posted-price" => posted_price = Some(parse(&flag, args.next())),
            "--kill-phase" => {
                let spelled: String = parse(&flag, args.next());
                match KillPhase::parse(&spelled) {
                    Some(phase) => kill_phase = Some(phase),
                    None => fail(&format!("unknown kill phase '{spelled}'")),
                }
            }
            "--kill-round" => kill_round = Some(parse(&flag, args.next())),
            other => fail(&format!("unknown flag '{other}'")),
        }
    }

    let mut market = MarketConfig::external(seed);
    if let Some(price) = posted_price {
        market = market.with_design(MarketDesign::posted_price_baseline(price));
    }

    let mut cfg = WorkerConfig::new(market, shards);
    match (kill_phase, kill_round) {
        (Some(phase), Some(round)) => cfg = cfg.with_kill(phase, round),
        (None, None) => {}
        _ => fail("--kill-phase and --kill-round must be given together"),
    }

    let worker = Arc::new(WorkerNode::new(cfg));
    let gateway_cfg = GatewayConfig {
        addr,
        ..GatewayConfig::default()
    };
    let gateway = match Gateway::serve_service(worker, gateway_cfg) {
        Ok(gateway) => gateway,
        Err(e) => fail(&format!("bind failed: {e}")),
    };
    // The spawn handshake: whoever started us reads the bound address
    // (ephemeral ports make fixed config unnecessary) from stdout.
    println!("{}", gateway.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::parse_shards;

    #[test]
    fn zero_shards_are_refused() {
        let zero = parse_shards(Some("0".into())).unwrap_err();
        assert!(zero.contains("--shards"), "{zero}");
        assert!(parse_shards(None).is_err());
        assert!(parse_shards(Some("-1".into())).is_err());
        assert_eq!(parse_shards(Some("3".into())), Ok(3));
    }
}
