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
