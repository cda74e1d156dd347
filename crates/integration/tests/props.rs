//! Property tests for the integration layer: fusion conservation laws,
//! mapping discovery, DoD output well-formedness on randomized markets,
//! and the join-path search against an exhaustive enumerator.

use proptest::prelude::*;

use dmp_discovery::{MetadataEngine, RelationshipIndex};
use dmp_integration::dod::{DodEngine, TargetSpec};
use dmp_integration::fusion::{align, resolve, FusionStrategy};
use dmp_integration::join_graph::{best_path, JoinPath, JoinStep};
use dmp_integration::mapping::{self, Mapping};
use dmp_relation::{DataType, DatasetId, Relation, RelationBuilder, Value};

fn source_rel(id: u64, pairs: &[(i64, i64)]) -> Relation {
    let mut b = RelationBuilder::new(format!("src{id}"))
        .column("obj", DataType::Int)
        .column("val", DataType::Int);
    for (k, v) in pairs {
        b = b.row(vec![Value::Int(*k), Value::Int(*v)]);
    }
    b.source(DatasetId(id)).build().unwrap()
}

/// Enumerate acyclic join paths from `from` to `to`, up to `max_hops`,
/// best-confidence first. Bounded breadth keeps enumeration cheap on
/// dense graphs.
///
/// The oracle for [`best_path`], which replaced it in the DoD engine:
/// every path found before the 64-path cut-off, materialized and stably
/// sorted, so `first()` is the answer `best_path` must give.
fn enumerate_paths(
    index: &RelationshipIndex,
    from: DatasetId,
    to: DatasetId,
    max_hops: usize,
) -> Vec<JoinPath> {
    const MAX_PATHS: usize = 64;
    let mut results: Vec<JoinPath> = Vec::new();
    // DFS stack: (current dataset, path so far, visited sets)
    let mut stack: Vec<(DatasetId, JoinPath, Vec<DatasetId>)> =
        vec![(from, JoinPath::default(), vec![from])];

    while let Some((cur, path, visited)) = stack.pop() {
        if results.len() >= MAX_PATHS {
            break;
        }
        if path.hops() >= max_hops {
            continue;
        }
        for edge in index.edges_of(cur) {
            let (fd, fc, td, tc) = if edge.left.dataset == cur {
                (
                    edge.left.dataset,
                    edge.left.column.clone(),
                    edge.right.dataset,
                    edge.right.column.clone(),
                )
            } else {
                (
                    edge.right.dataset,
                    edge.right.column.clone(),
                    edge.left.dataset,
                    edge.left.column.clone(),
                )
            };
            if visited.contains(&td) {
                continue;
            }
            let mut next = path.clone();
            next.steps.push(JoinStep {
                from_dataset: fd,
                from_column: fc,
                to_dataset: td,
                to_column: tc,
                confidence: edge.score().min(1.0),
            });
            if td == to {
                results.push(next);
            } else {
                let mut v = visited.clone();
                v.push(td);
                stack.push((td, next, v));
            }
        }
    }

    results.sort_by(|a, b| {
        b.confidence()
            .total_cmp(&a.confidence())
            .then_with(|| a.hops().cmp(&b.hops()))
    });
    results
}

/// A catalogue of int-keyed datasets: dataset `i` has one column `c{j}`
/// per key list in `tables[i]`, padded to a common length by repeating
/// its last key.
fn catalogue(tables: &[Vec<Vec<i64>>]) -> MetadataEngine {
    let engine = MetadataEngine::new();
    for (i, cols) in tables.iter().enumerate() {
        let rows = cols.iter().map(Vec::len).max().unwrap_or(0);
        let mut b = RelationBuilder::new(format!("t{i}"));
        for j in 0..cols.len() {
            b = b.column(format!("c{j}"), DataType::Int);
        }
        for r in 0..rows {
            b = b.row(
                cols.iter()
                    .map(|keys| Value::Int(keys[r.min(keys.len() - 1)]))
                    .collect(),
            );
        }
        engine.register(format!("t{i}"), "owner", b.build().unwrap());
    }
    engine
}

/// `best_path` agrees with the oracle's first path on every ordered pair
/// of datasets at every hop limit in `hop_limits`.
fn agrees_with_oracle(engine: &MetadataEngine, hop_limits: &[usize]) -> Result<(), String> {
    let index = &engine.cached_indexes().relationships;
    let ids = engine.ids();
    for &from in &ids {
        for &to in &ids {
            for &max_hops in hop_limits {
                let want = enumerate_paths(index, from, to, max_hops).first().cloned();
                let got = best_path(index, from, to, max_hops);
                if got != want {
                    return Err(format!(
                        "{from} -> {to} within {max_hops}: got {got:?}, oracle {want:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Every path ties: two identical key columns per dataset make every
/// edge score 1.0, so fewer hops and then discovery order decide.
#[test]
fn best_path_breaks_ties_like_the_oracle() {
    let keys: Vec<i64> = (0..20).collect();
    let engine = catalogue(&vec![vec![keys.clone(), keys]; 6]);
    assert_eq!(engine.cached_indexes().relationships.len(), 4 * 15);
    agrees_with_oracle(&engine, &[1, 2, 3, 4]).unwrap();
}

/// Confidence decides first, then fewer hops. a and b share 30 of their
/// 35 keys (containment ≈ 0.86); c and d hold every key of both
/// (containment 1), so a→c→b and a→d→b beat the direct edge, and
/// a→c→d→b ties them on confidence with one hop more.
#[test]
fn best_path_prefers_confidence_then_fewer_hops() {
    let shared: Vec<i64> = (0..30).collect();
    let a = [shared.clone(), (100..105).collect()].concat();
    let b = [shared, (200..205).collect()].concat();
    let c = [a.clone(), (200..205).collect()].concat();
    let engine = catalogue(&[vec![a], vec![b], vec![c.clone()], vec![c]]);
    let index = &engine.cached_indexes().relationships;
    let ids = engine.ids();
    let direct = best_path(index, ids[0], ids[1], 1).unwrap();
    assert_eq!(direct.hops(), 1);
    assert!(direct.confidence() < 1.0);
    for max_hops in [2, 3] {
        let best = best_path(index, ids[0], ids[1], max_hops).unwrap();
        assert_eq!(best.hops(), 2, "{best:?}");
        assert_eq!(best.confidence(), 1.0);
    }
}

/// The 64-path cut-off changes the answer, and `best_path` keeps it.
/// Twelve datasets share a core key column with five private keys each,
/// so every pair joins at confidence < 1; three link columns add the
/// only confidence-1 path, F → M0 → M1 → T. A depth-first search from F
/// reaches M0 last, after the cut-off, so the oracle's first path is a
/// weaker one.
#[test]
fn best_path_stops_at_the_cut_off_like_the_oracle() {
    let core = |d: i64| -> Vec<i64> { (0..30).chain(100 + 10 * d..105 + 10 * d).collect() };
    let link = |block: i64| -> Vec<i64> { (1000 * block..1000 * block + 30).collect() };
    // Ids in registration order: M0 = 0, M1 = 1, eight more, T = 10, F = 11.
    let mut tables = vec![
        vec![core(0), link(1), link(2)],
        vec![core(1), link(2), link(3)],
    ];
    tables.extend((2..10).map(|d| vec![core(d)]));
    tables.push(vec![core(10), link(3)]);
    tables.push(vec![core(11), link(1)]);
    let engine = catalogue(&tables);
    let index = &engine.cached_indexes().relationships;
    let ids = engine.ids();
    assert_eq!(index.len(), 66 + 3);

    let (f, t) = (ids[11], ids[10]);
    let found = enumerate_paths(index, f, t, 3);
    assert!(found.len() >= 64, "{} paths found", found.len());
    assert!(found[0].confidence() < 1.0, "{:?}", found[0]);
    assert_eq!(best_path(index, f, t, 3), found.first().cloned());
    agrees_with_oracle(&engine, &[1, 2, 3, 4]).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Alignment covers exactly the union of keys, and every fused cell
    /// holds one claim per source that mentioned the key.
    #[test]
    fn fusion_alignment_conserves_claims(
        a in prop::collection::btree_map(0i64..20, 0i64..5, 1..15),
        b in prop::collection::btree_map(0i64..20, 0i64..5, 1..15),
    ) {
        let ra = source_rel(1, &a.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
        let rb = source_rel(2, &b.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
        let fused = align(&[&ra, &rb], "obj", "val").unwrap();

        let mut union_keys: Vec<i64> = a.keys().chain(b.keys()).copied().collect();
        union_keys.sort_unstable();
        union_keys.dedup();
        prop_assert_eq!(fused.len(), union_keys.len());

        let total_claims: usize = fused
            .rows()
            .iter()
            .map(|r| match r.get(1) {
                Value::Multi(c) => c.len(),
                _ => 0,
            })
            .sum();
        prop_assert_eq!(total_claims, a.len() + b.len());
    }

    /// Majority vote returns one of the claimed values (never invents).
    #[test]
    fn fusion_vote_picks_a_claimed_value(
        claims in prop::collection::vec((0u64..4, 0i64..6), 1..12),
    ) {
        let sources: Vec<Relation> = claims
            .iter()
            .enumerate()
            .map(|(i, (s, v))| source_rel(*s + i as u64 * 10, &[(0, *v)]))
            .collect();
        let refs: Vec<&Relation> = sources.iter().collect();
        let fused = align(&refs, "obj", "val").unwrap();
        let resolved = resolve(&fused, "val", &FusionStrategy::MajorityVote).unwrap();
        let winner = resolved.rows()[0].get(1).as_i64().unwrap();
        prop_assert!(claims.iter().any(|(_, v)| *v == winner));
    }

    /// Affine mappings discovered from their own samples reproduce them.
    #[test]
    fn affine_mapping_round_trips(scale in 0.1f64..10.0, offset in -100.0f64..100.0, xs in prop::collection::vec(-50.0f64..50.0, 2..20)) {
        let pairs: Vec<(Value, Value)> = xs
            .iter()
            .map(|&x| (Value::Float(x), Value::Float(scale * x + offset)))
            .collect();
        // Need variance in x for a unique fit.
        prop_assume!(xs.iter().any(|&x| (x - xs[0]).abs() > 1e-3));
        let m = mapping::discover(&pairs).expect("affine discoverable");
        match &m {
            Mapping::Affine { .. } | Mapping::Identity => {}
            other => prop_assert!(false, "expected affine, got {other:?}"),
        }
        for (x, y) in &pairs {
            let (got, want) = (m.apply(x).as_f64().unwrap(), y.as_f64().unwrap());
            prop_assert!((got - want).abs() < 1e-6 * (1.0 + want.abs()));
        }
    }

    /// Dictionary discovery is consistent: apply() reproduces every
    /// training pair.
    #[test]
    fn dictionary_mapping_reproduces_pairs(entries in prop::collection::btree_map(0i64..50, "[a-z]{1,4}", 1..20)) {
        let pairs: Vec<(Value, Value)> = entries
            .iter()
            .map(|(k, v)| (Value::Int(*k), Value::str(v.clone())))
            .collect();
        let m = mapping::discover(&pairs).expect("consistent pairs");
        for (x, y) in &pairs {
            prop_assert_eq!(&m.apply(x), y);
        }
    }

    /// DoD candidates are always well-formed: coverage in (0, 1],
    /// confidence in (0, 1], schema exactly the bound attributes, and
    /// every bound attribute is one of the requested ones.
    #[test]
    fn dod_candidates_well_formed(
        tables in prop::collection::vec(prop::collection::vec(0i64..25, 1..15), 1..4),
        extra_attr in proptest::bool::ANY,
    ) {
        let engine = MetadataEngine::new();
        for (i, keys) in tables.iter().enumerate() {
            let mut b = RelationBuilder::new(format!("t{i}"))
                .column("shared_key", DataType::Int)
                .column(format!("payload_{i}"), DataType::Float);
            for k in keys {
                b = b.row(vec![Value::Int(*k), Value::Float(*k as f64)]);
            }
            engine.register(format!("t{i}"), "owner", b.build().unwrap());
        }
        let mut attrs = vec!["shared_key".to_string(), "payload_0".to_string()];
        if extra_attr {
            attrs.push("no_such_attribute".to_string());
        }
        let dod = DodEngine::new(&engine);
        let spec = TargetSpec::with_attributes(attrs.clone());
        let cands = dod.find_mashups(&spec).unwrap();
        for c in cands {
            prop_assert!(c.coverage > 0.0 && c.coverage <= 1.0 + 1e-9);
            prop_assert!(c.confidence > 0.0 && c.confidence <= 1.0 + 1e-9);
            for (attr, _) in &c.bindings {
                prop_assert!(attrs.contains(attr));
            }
            for name in c.relation.schema().names() {
                prop_assert!(attrs.iter().any(|a| a == name));
            }
            if extra_attr {
                prop_assert!(c.missing(&spec).contains(&"no_such_attribute"));
            }
        }
    }

    /// `best_path` returns exactly the oracle's first path on random
    /// catalogues: 3–14 datasets of 1–3 int columns over a small key
    /// range, so edges get distinct, tied and capped-at-1.0 scores. Hop
    /// limits run to 4, the first at which a path could revisit a
    /// dataset other than its anchor.
    #[test]
    fn best_path_is_the_oracles_first_path(
        tables in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0i64..12, 1..10), 1..4),
            3..15,
        ),
    ) {
        let engine = catalogue(&tables);
        let agreed = agrees_with_oracle(&engine, &[1, 2, 3, 4]);
        prop_assert!(agreed.is_ok(), "{}", agreed.unwrap_err());
    }
}
