//! Property tests for the integration layer: fusion conservation laws,
//! mapping discovery, and DoD output well-formedness on randomized
//! markets.

use proptest::prelude::*;

use dmp_discovery::MetadataEngine;
use dmp_integration::dod::{DodEngine, TargetSpec};
use dmp_integration::fusion::{align, resolve, FusionStrategy};
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
}
