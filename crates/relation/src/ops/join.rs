//! Hash joins. The arbiter "needs to understand how to join both datasets"
//! (§1, Challenge-3); this module supplies the physical operator, and
//! `dmp-integration` decides *what* to join on.
//!
//! Join output rows carry the **merged provenance** of both input rows —
//! this is what lets the revenue-sharing engine split a mashup row's value
//! across the datasets that produced it.

use std::collections::HashMap;

use crate::error::{RelError, RelResult};
use crate::relation::{Relation, Row};
use crate::value::Value;

/// Join variants supported by the mashup builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Keep only matching pairs.
    Inner,
    /// Keep all left rows; unmatched right side becomes NULL.
    Left,
    /// Keep all rows from both sides (full outer).
    Full,
}

impl Relation {
    /// Equi-join on `on` pairs of `(left_col, right_col)`.
    ///
    /// Implementation: classic build/probe hash join, building on the
    /// smaller side for `Inner`. NULL keys never match (SQL semantics).
    /// Right-hand columns that clash with left names are suffixed `_r`.
    pub fn join(
        &self,
        other: &Relation,
        on: &[(&str, &str)],
        kind: JoinKind,
    ) -> RelResult<Relation> {
        if on.is_empty() {
            return Err(RelError::Invalid(
                "join requires at least one key pair".into(),
            ));
        }
        let left_keys: Vec<usize> = on
            .iter()
            .map(|(l, _)| self.schema().index_of(l))
            .collect::<RelResult<_>>()?;
        let right_keys: Vec<usize> = on
            .iter()
            .map(|(_, r)| other.schema().index_of(r))
            .collect::<RelResult<_>>()?;

        let schema = self.schema().concat(other.schema(), "_r")?.shared();
        let lw = self.schema().len();
        let rw = other.schema().len();

        // Build hash table over the right side: key values -> row indices.
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(other.len());
        for (i, row) in other.rows().iter().enumerate() {
            let key: Vec<Value> = right_keys.iter().map(|&k| row.get(k).clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            table.entry(key).or_default().push(i);
        }

        let mut out: Vec<Row> = Vec::new();
        let mut right_matched = vec![false; other.len()];

        for lrow in self.rows() {
            let key: Vec<Value> = left_keys.iter().map(|&k| lrow.get(k).clone()).collect();
            let matches = if key.iter().any(Value::is_null) {
                None
            } else {
                table.get(&key)
            };
            match matches {
                Some(idxs) => {
                    for &ri in idxs {
                        right_matched[ri] = true;
                        let rrow = &other.rows()[ri];
                        let mut values = Vec::with_capacity(lw + rw);
                        values.extend_from_slice(lrow.values());
                        values.extend_from_slice(rrow.values());
                        out.push(Row::new(values, lrow.provenance().merge(rrow.provenance())));
                    }
                }
                None => {
                    if matches!(kind, JoinKind::Left | JoinKind::Full) {
                        let mut values = Vec::with_capacity(lw + rw);
                        values.extend_from_slice(lrow.values());
                        values.extend(std::iter::repeat_n(Value::Null, rw));
                        out.push(Row::new(values, lrow.provenance().clone()));
                    }
                }
            }
        }

        if matches!(kind, JoinKind::Full) {
            for (ri, matched) in right_matched.iter().enumerate() {
                if !matched {
                    let rrow = &other.rows()[ri];
                    let mut values = Vec::with_capacity(lw + rw);
                    values.extend(std::iter::repeat_n(Value::Null, lw));
                    values.extend_from_slice(rrow.values());
                    out.push(Row::new(values, rrow.provenance().clone()));
                }
            }
        }

        Ok(Relation::from_rows_unchecked(
            format!("{}⋈{}", self.name(), other.name()),
            schema,
            out,
        ))
    }

    /// Natural join: equi-join on every column name the two schemas share.
    pub fn natural_join(&self, other: &Relation, kind: JoinKind) -> RelResult<Relation> {
        let shared: Vec<(&str, &str)> = self
            .schema()
            .names()
            .filter(|n| other.schema().contains(n))
            .map(|n| (n, n))
            .collect();
        if shared.is_empty() {
            return Err(RelError::Invalid(
                "no shared columns for natural join".into(),
            ));
        }
        self.join(other, &shared, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::provenance::DatasetId;
    use crate::schema::{DataType, Schema};

    fn left() -> Relation {
        let schema = Schema::of(&[("k", DataType::Int), ("a", DataType::Str)])
            .unwrap()
            .shared();
        let mut r = Relation::empty("L", schema);
        for (k, a) in [(1, "x"), (2, "y"), (3, "z")] {
            r.push_values(vec![Value::Int(k), Value::str(a)]).unwrap();
        }
        r.with_source(DatasetId(10))
    }

    fn right() -> Relation {
        let schema = Schema::of(&[("k", DataType::Int), ("b", DataType::Float)])
            .unwrap()
            .shared();
        let mut r = Relation::empty("R", schema);
        for (k, b) in [(2, 2.5), (3, 3.5), (3, 3.75), (4, 4.5)] {
            r.push_values(vec![Value::Int(k), Value::Float(b)]).unwrap();
        }
        r.with_source(DatasetId(20))
    }

    #[test]
    fn inner_join_matches_and_merges_provenance() {
        let j = left()
            .join(&right(), &[("k", "k")], JoinKind::Inner)
            .unwrap();
        assert_eq!(j.len(), 3); // k=2 once, k=3 twice
        for row in j.rows() {
            let ds = row.provenance().datasets();
            assert_eq!(ds, vec![DatasetId(10), DatasetId(20)]);
        }
        // clashing key column got suffixed
        assert!(j.schema().contains("k_r"));
    }

    #[test]
    fn left_join_pads_with_nulls() {
        let j = left()
            .join(&right(), &[("k", "k")], JoinKind::Left)
            .unwrap();
        assert_eq!(j.len(), 4); // k=1 unmatched + 3 matches
        let unmatched = j
            .rows()
            .iter()
            .find(|r| r.get(0) == &Value::Int(1))
            .unwrap();
        assert!(unmatched.get(2).is_null());
        assert_eq!(unmatched.provenance().datasets(), vec![DatasetId(10)]);
    }

    #[test]
    fn full_join_keeps_both_sides() {
        let j = left()
            .join(&right(), &[("k", "k")], JoinKind::Full)
            .unwrap();
        // 3 matches + unmatched k=1 (left) + unmatched k=4 (right)
        assert_eq!(j.len(), 5);
        let right_only = j.rows().iter().find(|r| r.get(0).is_null()).unwrap();
        assert_eq!(right_only.get(2), &Value::Int(4));
    }

    #[test]
    fn null_keys_never_match() {
        let mut l = left();
        l.push_values(vec![Value::Null, Value::str("n")]).unwrap();
        let mut r = right();
        r.push_values(vec![Value::Null, Value::Float(0.0)]).unwrap();
        let j = l.join(&r, &[("k", "k")], JoinKind::Inner).unwrap();
        assert_eq!(j.len(), 3, "NULL = NULL must not join");
    }

    #[test]
    fn natural_join_uses_shared_names() {
        let j = left().natural_join(&right(), JoinKind::Inner).unwrap();
        assert_eq!(j.len(), 3);
        let no_shared = Relation::empty("E", Schema::of(&[("q", DataType::Int)]).unwrap().shared());
        assert!(left().natural_join(&no_shared, JoinKind::Inner).is_err());
    }

    #[test]
    fn empty_on_clause_rejected() {
        assert!(left().join(&right(), &[], JoinKind::Inner).is_err());
    }

    #[test]
    fn multi_key_join() {
        let schema = Schema::of(&[("k", DataType::Int), ("a", DataType::Str)])
            .unwrap()
            .shared();
        let mut l = Relation::empty("L2", Arc::clone(&schema));
        l.push_values(vec![Value::Int(1), Value::str("x")]).unwrap();
        l.push_values(vec![Value::Int(1), Value::str("y")]).unwrap();
        let mut r = Relation::empty("R2", schema);
        r.push_values(vec![Value::Int(1), Value::str("x")]).unwrap();
        let j = l
            .join(&r, &[("k", "k"), ("a", "a")], JoinKind::Inner)
            .unwrap();
        assert_eq!(j.len(), 1);
    }
}
