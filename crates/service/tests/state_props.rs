//! Materialized-state codec properties: for any reachable market state,
//! `decode(encode(state))` restores into a **digest-identical** router —
//! including a full trip through the wire JSON text the snapshot file
//! actually stores (floats travel as bit patterns, so the round trip is
//! exact even for values a decimal float repr would perturb).

use dmp_core::license::License;
use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_mechanism::wtp::{PriceCurve, TaskKind};
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, OfferSpec, TableSpec};
use dmp_service::shard::ShardRouter;
use dmp_service::snapshot::{self, Snapshot};
use dmp_service::state::{self, StateImage};
use dmp_service::test_support::ScratchDir;
use dmp_service::Json;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn market_config(seed: u64) -> MarketConfig {
    MarketConfig::external(seed).with_design(MarketDesign::posted_price_baseline(12.0))
}

/// Random mixed command stream, including the corners the codec must
/// carry exactly: mashup provenance (cleared trades), exclusive holds,
/// licenses, escrows, expired offers and audit history.
fn command_stream(rounds: usize, seed: u64) -> Vec<Command> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut cmds = Vec::new();
    let attrs = ["a", "b", "c"];
    for i in 0..3 {
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
            amount: 100.0 + (rng.gen_range(0i64..1000) as f64) / 7.0,
        });
    }
    for round in 0..rounds {
        for _ in 0..rng.gen_range(1usize..4) {
            match rng.gen_range(0u32..8) {
                0..=2 => {
                    let start = rng.gen_range(0usize..attrs.len() - 1);
                    let width = rng.gen_range(1usize..=attrs.len() - start);
                    let cols: Vec<(String, ColType)> = attrs[start..start + width]
                        .iter()
                        .map(|c| (c.to_string(), ColType::Float))
                        .collect();
                    let rows = (0..rng.gen_range(1usize..4))
                        .map(|_| {
                            cols.iter()
                                .map(|_| CellSpec::Float((rng.gen_range(0i64..1000) as f64) / 3.0))
                                .collect()
                        })
                        .collect();
                    cmds.push(Command::SubmitAsk(AskSpec {
                        seller: format!("seller{}", rng.gen_range(0usize..3)),
                        table: TableSpec {
                            name: format!("t{round}_{}", cmds.len()),
                            columns: cols,
                            rows,
                        },
                        reserve: if rng.gen_bool(0.4) {
                            Some((rng.gen_range(0i64..30) as f64) / 7.0)
                        } else {
                            None
                        },
                        license: if rng.gen_bool(0.3) {
                            Some(License::Exclusive {
                                tax_rate: 0.35,
                                hold_rounds: 2,
                            })
                        } else {
                            None
                        },
                    }));
                }
                3..=5 => {
                    let start = rng.gen_range(0usize..attrs.len() - 1);
                    let width = rng.gen_range(1usize..=attrs.len() - start);
                    cmds.push(Command::SubmitOffer(OfferSpec {
                        buyer: format!("buyer{}", rng.gen_range(0usize..3)),
                        attributes: attrs[start..start + width]
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                        keywords: Vec::new(),
                        task: TaskKind::AttributeCoverage,
                        curve: PriceCurve::Constant((rng.gen_range(5i64..200) as f64) / 9.0),
                        min_rows: 1,
                        purpose: "analytics".into(),
                    }));
                }
                6 => cmds.push(Command::GrantLicense {
                    seller: format!("seller{}", rng.gen_range(0usize..3)),
                    dataset: rng.gen_range(0u64..5),
                    license: License::NonTransferable,
                }),
                _ => cmds.push(Command::Deposit {
                    account: format!("buyer{}", rng.gen_range(0usize..3)),
                    amount: (rng.gen_range(1i64..500) as f64) / 11.0,
                }),
            }
        }
        cmds.push(Command::RunRound { rounds: 1 });
    }
    cmds
}

/// Push the image through the exact persistence the snapshot file uses:
/// dump each tree to JSON text and parse it back.
fn through_wire(image: &StateImage) -> StateImage {
    let trip = |j: &Json| Json::parse(&j.dump()).expect("dumped tree must re-parse");
    StateImage {
        substrate: trip(&image.substrate),
        shards: image.shards.iter().map(trip).collect(),
        router: trip(&image.router),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The pinned property: encode → (JSON text) → decode → restore
    /// reproduces the state digest for any reachable state, on any
    /// shard count.
    #[test]
    fn decode_encode_round_trip_is_digest_identical(
        seed in 0u64..10_000,
        rounds in 1usize..5,
        shards in 1usize..5,
    ) {
        let router = ShardRouter::new(&market_config(seed), shards);
        for cmd in command_stream(rounds, seed) {
            let _ = router.apply(&cmd);
        }
        let digest = router.state_digest();

        let encoded = state::encode(&router.export_state());
        let image = state::decode(&through_wire(&encoded))
            .expect("encoded state must decode");
        let restored = ShardRouter::new(&market_config(seed), shards);
        restored.restore_state(image).expect("decoded state must restore");

        prop_assert_eq!(
            restored.state_digest(),
            digest,
            "decode(encode(state)) diverged (seed {}, {} shards)",
            seed,
            shards
        );
        // And the restored state re-encodes to the identical wire text:
        // encoding is a pure function of the state.
        let reencoded = state::encode(&restored.export_state());
        prop_assert_eq!(reencoded.substrate.dump(), encoded.substrate.dump());
        prop_assert_eq!(reencoded.router.dump(), encoded.router.dump());
        let shard_text = |img: &StateImage| {
            img.shards.iter().map(|s| s.dump()).collect::<Vec<_>>()
        };
        prop_assert_eq!(shard_text(&reencoded), shard_text(&encoded));
    }
}

/// How many scalar leaves (strings and bools; keys are not leaves) a
/// tree has.
fn count_leaves(j: &Json) -> usize {
    match j {
        Json::Str(_) | Json::Bool(_) => 1,
        Json::Arr(items) => items.iter().map(count_leaves).sum(),
        Json::Obj(pairs) => pairs.iter().map(|(_, v)| count_leaves(v)).sum(),
        Json::Null | Json::Num(_) => 0,
    }
}

/// Another well-formed value of the same kind: a bool flips, an integer
/// moves by one, a bit pattern loses or gains its lowest bit, and any
/// other text (a name, a tag) grows by a character.
fn mutated(leaf: &Json) -> Json {
    match leaf {
        Json::Bool(b) => Json::Bool(!b),
        Json::Str(s) => {
            let is_hex = s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit());
            if let Ok(n) = s.parse::<i128>() {
                Json::Str((n + 1).to_string())
            } else if is_hex {
                let bits = u64::from_str_radix(s, 16).expect("16 hex digits");
                Json::Str(format!("{:016x}", bits ^ 1))
            } else {
                Json::Str(format!("{s}x"))
            }
        }
        other => other.clone(),
    }
}

/// Replace the `n`-th leaf (document order) with its mutation.
fn mutate_leaf(j: &mut Json, n: &mut usize) {
    match j {
        Json::Str(_) | Json::Bool(_) => {
            if *n == 0 {
                *j = mutated(j);
            }
            *n = n.wrapping_sub(1);
        }
        Json::Arr(items) => items.iter_mut().for_each(|v| mutate_leaf(v, n)),
        Json::Obj(pairs) => pairs.iter_mut().for_each(|(_, v)| mutate_leaf(v, n)),
        Json::Null | Json::Num(_) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No dead leaf: whatever scalar of the image changes, either the
    /// image no longer decodes or it restores to a different state —
    /// nothing in a snapshot is parsed and then ignored, so the digest
    /// of the bytes on disk really is the digest of what they restore.
    #[test]
    fn no_leaf_of_the_image_is_parsed_and_ignored(
        seed in 0u64..10_000,
        shards in 1usize..4,
        pick in 0usize..1_000_000,
    ) {
        let router = ShardRouter::new(&market_config(seed), shards);
        for cmd in command_stream(3, seed) {
            let _ = router.apply(&cmd);
        }
        let honest = state::encode(&router.export_state());
        prop_assert_eq!(honest.digest(), router.state_digest());

        let mut sections: Vec<Json> = honest.sections().cloned().collect();
        let total: usize = sections.iter().map(count_leaves).sum();
        let mut n = pick % total;
        for section in &mut sections {
            mutate_leaf(section, &mut n);
        }
        let router_section = sections.pop().expect("router section");
        let tampered = StateImage {
            substrate: sections.remove(0),
            shards: sections,
            router: router_section,
        };
        prop_assert_ne!(&tampered, &honest, "leaf {} did not change", pick % total);

        let Ok(image) = state::decode(&tampered) else {
            return Ok(()); // refused outright
        };
        let restored = ShardRouter::new(&market_config(seed), shards);
        if restored.restore_state(image).is_ok() {
            prop_assert_ne!(
                restored.state_digest(),
                honest.digest(),
                "leaf {} of {} was parsed and ignored (seed {}, {} shards)",
                pick % total,
                total,
                seed,
                shards
            );
        }
    }
}

/// Non-vacuity: the streams really do produce trades, mashup
/// provenance, escrows and licenses — the property above is exercising
/// a populated state, not an empty market.
#[test]
fn property_streams_populate_the_state() {
    let mut sales = 0usize;
    for seed in 0..8u64 {
        let router = ShardRouter::new(&market_config(seed), 3);
        for cmd in command_stream(4, seed) {
            if let Ok(dmp_service::shard::Outcome::RoundsRun(reports)) = router.apply(&cmd) {
                sales += reports.iter().map(|r| r.sales).sum::<usize>();
            }
        }
    }
    assert!(sales > 0, "streams never cleared a sale — vacuous property");
}

// ---------------------------------------------------------------------
// The streamed codec against the tree adapters: the node checkpoints,
// digests and recovers on text and builds no tree, so every byte it
// writes and every verdict it reaches must equal the tree path's.
// ---------------------------------------------------------------------

/// The frames of a snapshot file: `(len u32 LE, crc u32 LE, payload)`.
fn frame_payloads(bytes: &[u8]) -> Vec<&[u8]> {
    let mut payloads = Vec::new();
    let mut rest = bytes;
    while let [l0, l1, l2, l3, _, _, _, _, tail @ ..] = rest {
        let len = u32::from_le_bytes([*l0, *l1, *l2, *l3]) as usize;
        let (payload, after) = tail.split_at(len);
        payloads.push(payload);
        rest = after;
    }
    payloads
}

/// The node's loader and the tree loader read `path` alike: both
/// accept and decode images with equal digests, or both refuse.
fn loaders_agree(path: &std::path::Path) -> Result<Option<u64>, TestCaseError> {
    let streamed = snapshot::load_image(path)
        .ok()
        .map(|f| state::digest(&f.image));
    let trees = snapshot::load_file(path)
        .and_then(|snap| state::decode(&snap.state).ok())
        .map(|image| state::digest(&image));
    prop_assert_eq!(
        streamed,
        trees,
        "the loaders disagree on {}",
        path.display()
    );
    Ok(streamed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On the states `command_stream` reaches at 1 and 4 shards: each
    /// section the node streams into its snapshot is the dump of
    /// `state::encode`'s tree section byte for byte (the whole file is
    /// `write_snapshot`'s), the streamed digest is the trees' digest,
    /// and the node's loader agrees with `load_file` + `state::decode`
    /// on the file and on each single-leaf mutation of it.
    #[test]
    fn the_streamed_codec_writes_and_reads_what_the_trees_do(
        seed in 0u64..10_000,
        four in proptest::bool::ANY,
        rounds in 1usize..4,
        pick in 0usize..1_000_000,
    ) {
        let shards = if four { 4 } else { 1 };
        let router = ShardRouter::new(&market_config(seed), shards);
        for cmd in command_stream(rounds, seed) {
            let _ = router.apply(&cmd);
        }
        let trees = state::encode(&router.export_state());
        prop_assert_eq!(router.state_digest(), trees.digest());

        let dir = ScratchDir::new("state-props-streamed");
        let streamed_dir = dir.join("streamed");
        let (path, digest) =
            snapshot::write_image(&streamed_dir, 9, &router.export_state()).unwrap();
        prop_assert_eq!(digest, trees.digest());
        let bytes = std::fs::read(&path).unwrap();
        let payloads = frame_payloads(&bytes);
        prop_assert_eq!(payloads.len(), shards + 3);
        for (payload, tree) in payloads[1..].iter().zip(trees.sections()) {
            prop_assert_eq!(std::str::from_utf8(payload).unwrap(), tree.dump());
        }
        let snap = Snapshot { seq: 9, digest, state: trees.clone() };
        let tree_path = snapshot::write_snapshot(&dir.join("trees"), &snap).unwrap();
        prop_assert!(std::fs::read(&tree_path).unwrap() == bytes, "the files differ");
        prop_assert_eq!(loaders_agree(&path)?, Some(digest));

        // One leaf changed, as in `no_leaf_of_the_image_is_parsed_and_ignored`.
        let mut sections: Vec<Json> = trees.sections().cloned().collect();
        let total: usize = sections.iter().map(count_leaves).sum();
        let mut n = pick % total;
        for section in &mut sections {
            mutate_leaf(section, &mut n);
        }
        let router_section = sections.pop().expect("router section");
        let tampered = StateImage {
            substrate: sections.remove(0),
            shards: sections,
            router: router_section,
        };
        let snap = Snapshot { seq: 9, digest, state: tampered };
        let path = snapshot::write_snapshot(&dir.join("tampered"), &snap).unwrap();
        loaders_agree(&path)?;
    }
}
