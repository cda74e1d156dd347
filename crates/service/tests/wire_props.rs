//! Property tests for the wire codec: `parse ∘ dump` is the identity
//! on arbitrary JSON values, and every [`Command`] round-trips through
//! its wire form unchanged.

use dmp_core::license::License;
use dmp_mechanism::wtp::{PriceCurve, TaskKind};
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, OfferSpec, TableSpec};
use dmp_service::wire::Json;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;

/// Arbitrary JSON trees, bounded in depth and width.
struct ArbJson {
    max_depth: u32,
}

fn arb_string(rng: &mut TestRng) -> String {
    // Bias toward characters that stress the escaper: quotes,
    // backslashes, control characters, multi-byte UTF-8.
    const POOL: &[char] = &[
        'a',
        'b',
        'z',
        'A',
        '0',
        '9',
        ' ',
        '_',
        '-',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0001}',
        '\u{001f}',
        'é',
        'π',
        '→',
        '\u{1F600}',
        '\u{FFFD}',
    ];
    let len = rng.gen_range(0usize..12);
    (0..len)
        .map(|_| POOL[rng.gen_range(0usize..POOL.len())])
        .collect()
}

fn arb_number(rng: &mut TestRng) -> f64 {
    match rng.gen_range(0u32..5) {
        0 => 0.0,
        1 => rng.gen_range(-1_000_000i64..1_000_000) as f64,
        2 => rng.gen_range(-1e9f64..1e9),
        3 => rng.gen_range(-1.0f64..1.0) * 1e-9,
        _ => rng.gen_range(-1.0f64..1.0) * 1e18,
    }
}

fn arb_json(rng: &mut TestRng, depth: u32) -> Json {
    let leaf_only = depth == 0;
    match rng.gen_range(0u32..if leaf_only { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen::<bool>()),
        2 => Json::Num(arb_number(rng)),
        3 => Json::Str(arb_string(rng)),
        4 => {
            let len = rng.gen_range(0usize..4);
            Json::Arr((0..len).map(|_| arb_json(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(0usize..4);
            Json::Obj(
                (0..len)
                    .map(|_| (arb_string(rng), arb_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

impl Strategy for ArbJson {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        arb_json(rng, self.max_depth)
    }
}

/// Arbitrary commands covering every variant and spec shape.
struct ArbCommand;

fn arb_name(rng: &mut TestRng) -> String {
    let len = rng.gen_range(1usize..10);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
        .collect()
}

fn arb_curve(rng: &mut TestRng) -> PriceCurve {
    match rng.gen_range(0u32..3) {
        0 => PriceCurve::Constant(rng.gen_range(0.0f64..500.0)),
        1 => PriceCurve::Linear {
            min_satisfaction: rng.gen_range(0.0f64..1.0),
            max_price: rng.gen_range(0.0f64..500.0),
        },
        _ => {
            let steps = rng.gen_range(1usize..4);
            PriceCurve::Step(
                (0..steps)
                    .map(|_| (rng.gen_range(0.0f64..1.0), rng.gen_range(0.0f64..500.0)))
                    .collect(),
            )
        }
    }
}

fn arb_task(rng: &mut TestRng) -> TaskKind {
    match rng.gen_range(0u32..4) {
        0 => TaskKind::AttributeCoverage,
        1 => TaskKind::Classification {
            label: arb_name(rng),
        },
        2 => TaskKind::Regression {
            target: arb_name(rng),
        },
        _ => TaskKind::AggregateCompleteness {
            group_by: arb_name(rng),
            expected_groups: rng.gen_range(1usize..100),
        },
    }
}

fn arb_license(rng: &mut TestRng) -> License {
    match rng.gen_range(0u32..4) {
        0 => License::Standard,
        1 => License::Exclusive {
            tax_rate: rng.gen_range(0.0f64..2.0),
            hold_rounds: rng.gen_range(0u32..10),
        },
        2 => License::OwnershipTransfer,
        _ => License::NonTransferable,
    }
}

fn arb_table(rng: &mut TestRng) -> TableSpec {
    const TYPES: &[ColType] = &[
        ColType::Int,
        ColType::Float,
        ColType::Str,
        ColType::Bool,
        ColType::Timestamp,
    ];
    let cols = rng.gen_range(1usize..4);
    let columns: Vec<(String, ColType)> = (0..cols)
        .map(|i| {
            (
                format!("c{i}_{}", arb_name(rng)),
                TYPES[rng.gen_range(0usize..TYPES.len())],
            )
        })
        .collect();
    let rows = rng.gen_range(0usize..4);
    let rows = (0..rows)
        .map(|_| {
            columns
                .iter()
                .map(|(_, ty)| {
                    if rng.gen_bool(0.2) {
                        return CellSpec::Null;
                    }
                    match ty {
                        ColType::Int | ColType::Timestamp => {
                            CellSpec::Int(rng.gen_range(-1_000_000i64..1_000_000))
                        }
                        ColType::Float => CellSpec::Float(rng.gen_range(-1e6f64..1e6)),
                        ColType::Str => CellSpec::Str(arb_string(rng)),
                        ColType::Bool => CellSpec::Bool(rng.gen::<bool>()),
                    }
                })
                .collect()
        })
        .collect();
    TableSpec {
        name: arb_name(rng),
        columns,
        rows,
    }
}

fn arb_command(rng: &mut TestRng) -> Command {
    match rng.gen_range(0u32..6) {
        0 => Command::Enroll {
            name: arb_name(rng),
            role: arb_name(rng),
        },
        1 => Command::Deposit {
            account: arb_name(rng),
            amount: rng.gen_range(0.0f64..1e6),
        },
        2 => Command::SubmitOffer(OfferSpec {
            buyer: arb_name(rng),
            attributes: (0..rng.gen_range(1usize..4))
                .map(|_| arb_name(rng))
                .collect(),
            keywords: (0..rng.gen_range(0usize..3))
                .map(|_| arb_name(rng))
                .collect(),
            task: arb_task(rng),
            curve: arb_curve(rng),
            min_rows: rng.gen_range(1u64..50),
            purpose: arb_name(rng),
        }),
        3 => Command::SubmitAsk(AskSpec {
            seller: arb_name(rng),
            table: arb_table(rng),
            reserve: if rng.gen::<bool>() {
                Some(rng.gen_range(0.0f64..100.0))
            } else {
                None
            },
            license: if rng.gen::<bool>() {
                Some(arb_license(rng))
            } else {
                None
            },
        }),
        4 => Command::GrantLicense {
            seller: arb_name(rng),
            dataset: rng.gen_range(0u64..1000),
            license: arb_license(rng),
        },
        _ => Command::RunRound {
            rounds: rng.gen_range(1u64..8) as u32,
        },
    }
}

impl Strategy for ArbCommand {
    type Value = Command;
    fn generate(&self, rng: &mut TestRng) -> Command {
        arb_command(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_dump_parse_round_trips(value in ArbJson { max_depth: 4 }) {
        let text = value.dump();
        let back = Json::parse(&text)
            .unwrap_or_else(|e| panic!("dump produced unparseable JSON {text:?}: {e}"));
        prop_assert_eq!(back, value);
    }

    #[test]
    fn json_round_trip_is_stable(value in ArbJson { max_depth: 3 }) {
        // dump ∘ parse ∘ dump == dump (canonical form is a fixpoint).
        let once = value.dump();
        let twice = Json::parse(&once).unwrap().dump();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn commands_round_trip_through_wire(cmd in ArbCommand) {
        let encoded = cmd.encode().dump();
        let json = Json::parse(&encoded)
            .unwrap_or_else(|e| panic!("command encoded to bad JSON {encoded:?}: {e}"));
        let decoded = Command::decode(&json)
            .unwrap_or_else(|e| panic!("decode failed for {encoded:?}: {e}"));
        prop_assert_eq!(decoded, cmd);
    }
}
