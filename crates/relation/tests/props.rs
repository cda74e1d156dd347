//! Property-based tests for the relational substrate: algebraic laws and
//! provenance conservation that must hold for *any* input, not just the
//! unit-test fixtures.

use proptest::prelude::*;

use dmp_relation::ops::{AggFun, AggSpec, JoinKind};
use dmp_relation::{DataType, DatasetId, Relation, RelationBuilder, Row, Value};

/// Strategy: a small relation (k: Int, g: Str, v: Float) with random rows.
fn small_relation(source: u64) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0i64..20, 0u8..4, -100.0f64..100.0), 0..40).prop_map(move |rows| {
        let mut b = RelationBuilder::new(format!("r{source}"))
            .column("k", DataType::Int)
            .column("g", DataType::Str)
            .column("v", DataType::Float);
        for (k, g, v) in rows {
            b = b.row(vec![
                Value::Int(k),
                Value::str(format!("g{g}")),
                Value::Float(v),
            ]);
        }
        b.source(DatasetId(source)).build().unwrap()
    })
}

/// Raw rows for a two-key relation: `(k1 pick, k2 pick, payload)`.
type KeyedRows = Vec<(u8, u8, i64)>;

/// Strategy: up to 12 raw rows with few distinct keys, so keys repeat.
fn keyed_rows() -> impl Strategy<Value = KeyedRows> {
    prop::collection::vec((0u8..5, 0u8..5, 0i64..1000), 0..12)
}

/// A join-key cell of key type `ty` (0 Int, 1 Float, 2 Str): `pick` 0 is
/// NULL, 1–4 one of four values of that type.
fn key_cell(ty: u8, pick: u8) -> Value {
    match (pick, ty) {
        (0, _) => Value::Null,
        (p, 0) => Value::Int(i64::from(p)),
        (p, 1) => Value::Float(f64::from(p) * 0.5),
        (p, _) => Value::str(format!("s{p}")),
    }
}

/// Relation `(k1, k2, payload)` with key types `types`, stamped as
/// dataset `source`.
fn keyed_relation(source: u64, types: (u8, u8), payload: &str, rows: &KeyedRows) -> Relation {
    let dtype = |ty: u8| [DataType::Int, DataType::Float, DataType::Str][usize::from(ty)];
    let mut b = RelationBuilder::new(format!("t{source}"))
        .column("k1", dtype(types.0))
        .column("k2", dtype(types.1))
        .column(payload, DataType::Int);
    for &(k1, k2, x) in rows {
        b = b.row(vec![
            key_cell(types.0, k1),
            key_cell(types.1, k2),
            Value::Int(x),
        ]);
    }
    b.source(DatasetId(source)).build().unwrap()
}

/// The join by definition: every left row against every right row.
/// Left rows in order, each followed by its matches in right-row order,
/// then (for `Full`) the unmatched right rows in right-row order.
fn nested_loop_join(l: &Relation, r: &Relation, on: &[(&str, &str)], kind: JoinKind) -> Relation {
    let lk: Vec<usize> = on.iter().map(|(a, _)| l.col_index(a).unwrap()).collect();
    let rk: Vec<usize> = on.iter().map(|(_, b)| r.col_index(b).unwrap()).collect();
    let matches = |lrow: &Row, rrow: &Row| {
        lk.iter().zip(&rk).all(|(&i, &j)| {
            !lrow.get(i).is_null() && !rrow.get(j).is_null() && lrow.get(i) == rrow.get(j)
        })
    };
    let nulls = |n: usize| vec![Value::Null; n];
    let (lw, rw) = (l.schema().len(), r.schema().len());
    let mut rows = Vec::new();
    let mut right_matched = vec![false; r.len()];
    for lrow in l.rows() {
        let mut matched = false;
        for (j, rrow) in r.rows().iter().enumerate() {
            if matches(lrow, rrow) {
                matched = true;
                right_matched[j] = true;
                let values = [lrow.values(), rrow.values()].concat();
                rows.push(Row::new(values, lrow.provenance().merge(rrow.provenance())));
            }
        }
        if !matched && kind != JoinKind::Inner {
            let values = [lrow.values(), &nulls(rw)].concat();
            rows.push(Row::new(values, lrow.provenance().clone()));
        }
    }
    if kind == JoinKind::Full {
        for (rrow, _) in r.rows().iter().zip(&right_matched).filter(|(_, m)| !**m) {
            let values = [&nulls(lw), rrow.values()].concat();
            rows.push(Row::new(values, rrow.provenance().clone()));
        }
    }
    let schema = l.schema().concat(r.schema(), "_r").unwrap().shared();
    Relation::from_rows(format!("{}⋈{}", l.name(), r.name()), schema, rows).unwrap()
}

/// Column `k` (position 0) of a `small_relation` row.
fn k(row: &Row) -> i64 {
    row.get(0).as_i64().unwrap()
}

/// Column `v` (position 2) of a `small_relation` row.
fn v(row: &Row) -> f64 {
    row.get(2).as_f64().unwrap()
}

proptest! {
    /// σ_p(σ_q(R)) = σ_q(σ_p(R)): selections commute.
    #[test]
    fn selections_commute(rel in small_relation(1), t1 in 0i64..20, t2 in -100.0f64..100.0) {
        let p = |r: &Row| k(r) >= t1;
        let q = |r: &Row| v(r) < t2;
        let a = rel.select_fn(p).select_fn(q);
        let b = rel.select_fn(q).select_fn(p);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.rows().iter().zip(b.rows()) {
            prop_assert_eq!(x.values(), y.values());
        }
    }

    /// Selection never invents rows, and filtering twice is idempotent.
    #[test]
    fn selection_is_decreasing_and_idempotent(rel in small_relation(1), t in 0i64..20) {
        let p = |r: &Row| k(r) < t;
        let once = rel.select_fn(p);
        prop_assert!(once.len() <= rel.len());
        let twice = once.select_fn(p);
        prop_assert_eq!(once.len(), twice.len());
    }

    /// Filter pushdown through join: σ_p(L ⋈ R) = σ_p(L) ⋈ R when p only
    /// references left columns that survive the join un-renamed.
    #[test]
    fn filter_pushes_through_join(l in small_relation(1), r in small_relation(2), t in -100.0f64..100.0) {
        // Left's v keeps its position; right's columns follow it.
        let p = |row: &Row| v(row) > t;
        let joined_then_filtered = l
            .join(&r, &[("k", "k")], JoinKind::Inner)
            .unwrap()
            .select_fn(p);
        let filtered_then_joined = l
            .select_fn(p)
            .join(&r, &[("k", "k")], JoinKind::Inner)
            .unwrap();
        prop_assert_eq!(joined_then_filtered.len(), filtered_then_joined.len());
    }

    /// Inner-join output size equals the sum over key groups of
    /// |L_k| × |R_k| (hash-join correctness against the definition).
    #[test]
    fn join_cardinality_matches_definition(l in small_relation(1), r in small_relation(2)) {
        let joined = l.join(&r, &[("k", "k")], JoinKind::Inner).unwrap();
        let mut expected = 0usize;
        for key in 0i64..20 {
            let lk = l.rows().iter().filter(|row| row.get(0).as_i64() == Some(key)).count();
            let rk = r.rows().iter().filter(|row| row.get(0).as_i64() == Some(key)).count();
            expected += lk * rk;
        }
        prop_assert_eq!(joined.len(), expected);
    }

    /// Every joined row's provenance covers both source datasets.
    #[test]
    fn join_provenance_spans_both_inputs(l in small_relation(1), r in small_relation(2)) {
        let joined = l.join(&r, &[("k", "k")], JoinKind::Inner).unwrap();
        for row in joined.rows() {
            let ds = row.provenance().datasets();
            prop_assert!(ds.contains(&DatasetId(1)));
            prop_assert!(ds.contains(&DatasetId(2)));
        }
    }

    /// The hash join equals the nested-loop join exactly: schema, name,
    /// every row's values and provenance, and row order — over Int, Float
    /// and Str keys with duplicates and NULLs, one or two key pairs, and
    /// every join kind.
    #[test]
    fn join_equals_nested_loop_oracle(
        types in (0u8..3, 0u8..3),
        l_rows in keyed_rows(),
        r_rows in keyed_rows(),
        two_keys in proptest::bool::ANY,
        kind in 0u8..3,
    ) {
        let l = keyed_relation(1, types, "a", &l_rows);
        let r = keyed_relation(2, types, "b", &r_rows);
        let on: &[(&str, &str)] = if two_keys {
            &[("k1", "k1"), ("k2", "k2")]
        } else {
            &[("k1", "k1")]
        };
        let kind = [JoinKind::Inner, JoinKind::Left, JoinKind::Full][usize::from(kind)];
        prop_assert_eq!(l.join(&r, on, kind).unwrap(), nested_loop_join(&l, &r, on, kind));
    }

    /// Group-by SUM over all groups equals the global SUM.
    #[test]
    fn aggregation_partitions_total(rel in small_relation(1)) {
        let per_group = rel
            .aggregate(&["g"], &[AggSpec::new("v", AggFun::Sum, "s")])
            .unwrap();
        let group_total: f64 = per_group
            .rows()
            .iter()
            .filter_map(|r| r.get(1).as_f64())
            .sum();
        let global: f64 = rel.column_f64("v").unwrap().iter().sum();
        prop_assert!((group_total - global).abs() < 1e-6);
    }

    /// Projection keeps row count and provenance.
    #[test]
    fn projection_preserves_rows(rel in small_relation(1)) {
        let p = rel.project(&["v", "k"]).unwrap();
        prop_assert_eq!(p.len(), rel.len());
        prop_assert_eq!(p.full_provenance().len(), rel.full_provenance().len());
    }
}
