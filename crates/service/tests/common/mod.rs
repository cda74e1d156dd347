//! Helpers shared by `shard_equivalence.rs`, `distributed_e2e.rs` and
//! `write_routes.rs`, which pin the same market under the same command
//! streams (`mod common;` in each). The generators in `recovery.rs`, `state_props.rs`
//! and `compaction_crash.rs` differ on purpose and stay where they are.

use dmp_core::license::License;
use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_mechanism::wtp::{PriceCurve, TaskKind};
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, OfferSpec, TableSpec};
use rand::{Rng, SeedableRng};

/// The posted price of every market these suites open — and of every
/// `dmp-worker` process `distributed_e2e.rs` spawns beside them.
pub const POSTED_PRICE: f64 = 12.0;

pub fn market_config(seed: u64) -> MarketConfig {
    MarketConfig::external(seed).with_design(MarketDesign::posted_price_baseline(POSTED_PRICE))
}

/// A deterministic stream of mixed commands: enrolls, deposits, asks
/// over a small shared attribute pool (so buyers on one shard need
/// sellers from another), offers, occasional exclusive licenses, and
/// round executions.
pub fn command_stream(rounds: usize, seed: u64) -> Vec<Command> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut cmds = Vec::new();
    let attrs = ["a", "b", "c", "d"];
    for i in 0..5 {
        cmds.push(Command::Enroll {
            name: format!("seller{i}"),
            role: "seller".into(),
        });
        cmds.push(Command::Enroll {
            name: format!("buyer{i}"),
            role: "buyer".into(),
        });
        cmds.push(Command::Deposit {
            account: format!("buyer{i}"),
            amount: 200.0 + i as f64,
        });
    }
    let mut datasets_shared = 0u64;
    for round in 0..rounds {
        for _ in 0..rng.gen_range(1..4) {
            match rng.gen_range(0..10) {
                0..=3 => {
                    // A seller shares a table covering a random slice of
                    // the attribute pool.
                    let start = rng.gen_range(0..attrs.len() - 1);
                    let width = rng.gen_range(1..=attrs.len() - start);
                    let cols: Vec<(String, ColType)> = attrs[start..start + width]
                        .iter()
                        .map(|c| (c.to_string(), ColType::Float))
                        .collect();
                    let rows = (0..rng.gen_range(2..6))
                        .map(|_| {
                            cols.iter()
                                .map(|_| CellSpec::Float(rng.gen_range(0i64..500) as f64 / 10.0))
                                .collect()
                        })
                        .collect();
                    cmds.push(Command::SubmitAsk(AskSpec {
                        seller: format!("seller{}", rng.gen_range(0..5)),
                        table: TableSpec {
                            name: format!("t{round}_{}", cmds.len()),
                            columns: cols,
                            rows,
                        },
                        reserve: if rng.gen_bool(0.3) {
                            Some(rng.gen_range(0i64..8) as f64)
                        } else {
                            None
                        },
                        license: if rng.gen_bool(0.2) {
                            Some(License::Exclusive {
                                tax_rate: 0.25,
                                hold_rounds: 2,
                            })
                        } else {
                            None
                        },
                    }));
                    datasets_shared += 1;
                }
                4..=7 => {
                    // A buyer wants a random slice of the pool.
                    let start = rng.gen_range(0..attrs.len() - 1);
                    let width = rng.gen_range(1..=attrs.len() - start);
                    cmds.push(Command::SubmitOffer(OfferSpec {
                        buyer: format!("buyer{}", rng.gen_range(0..5)),
                        attributes: attrs[start..start + width]
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                        keywords: Vec::new(),
                        task: TaskKind::AttributeCoverage,
                        curve: PriceCurve::Constant(rng.gen_range(10i64..40) as f64),
                        min_rows: 1,
                        purpose: "analytics".into(),
                    }));
                }
                8 if datasets_shared > 0 => {
                    cmds.push(Command::GrantLicense {
                        seller: format!("seller{}", rng.gen_range(0..5)),
                        dataset: rng.gen_range(0..datasets_shared),
                        license: License::Standard,
                    });
                }
                _ => {
                    cmds.push(Command::Deposit {
                        account: format!("buyer{}", rng.gen_range(0..5)),
                        amount: rng.gen_range(1i64..50) as f64,
                    });
                }
            }
        }
        cmds.push(Command::RunRound { rounds: 1 });
    }
    cmds
}
