//! Group-by aggregation. Aggregated rows carry the merged provenance of
//! every contributing input row, so revenue sharing still reaches the
//! sources after summarization.

use self::indexmap_lite::OrderedGroups;

use crate::error::{RelError, RelResult};
use crate::provenance::Provenance;
use crate::relation::{Relation, Row};
use crate::schema::{DataType, Field, Schema};
use crate::value::Value;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFun {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// Count of distinct non-null values.
    CountDistinct,
}

impl AggFun {
    fn output_type(self, input: DataType) -> DataType {
        match self {
            AggFun::Count | AggFun::CountDistinct => DataType::Int,
            AggFun::Avg => DataType::Float,
            AggFun::Sum => {
                if input == DataType::Int {
                    DataType::Int
                } else {
                    DataType::Float
                }
            }
            AggFun::Min | AggFun::Max => input,
        }
    }
}

/// One aggregation: `fun(col) AS alias`.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Input column (ignored for `Count`, which counts rows).
    pub col: String,
    /// Aggregate function.
    pub fun: AggFun,
    /// Output column name.
    pub alias: String,
}

impl AggSpec {
    /// `fun(col) AS alias`.
    pub fn new(col: impl Into<String>, fun: AggFun, alias: impl Into<String>) -> Self {
        AggSpec {
            col: col.into(),
            fun,
            alias: alias.into(),
        }
    }
}

/// Running state for one aggregate within one group.
enum AggState {
    Count(i64),
    Sum {
        total: f64,
        any: bool,
        int_only: bool,
    },
    Avg {
        total: f64,
        n: usize,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    Distinct(std::collections::HashSet<Value>),
}

impl AggState {
    fn new(fun: AggFun) -> Self {
        match fun {
            AggFun::Count => AggState::Count(0),
            AggFun::Sum => AggState::Sum {
                total: 0.0,
                any: false,
                int_only: true,
            },
            AggFun::Avg => AggState::Avg { total: 0.0, n: 0 },
            AggFun::Min => AggState::Min(None),
            AggFun::Max => AggState::Max(None),
            AggFun::CountDistinct => AggState::Distinct(std::collections::HashSet::new()),
        }
    }

    fn update(&mut self, v: &Value) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum {
                total,
                any,
                int_only,
            } => {
                if let Some(x) = v.as_f64() {
                    *total += x;
                    *any = true;
                    if !matches!(v, Value::Int(_)) {
                        *int_only = false;
                    }
                }
            }
            AggState::Avg { total, n } => {
                if let Some(x) = v.as_f64() {
                    *total += x;
                    *n += 1;
                }
            }
            AggState::Min(cur) => {
                if !v.is_null() {
                    match cur {
                        Some(c) if v.cmp_numeric(c).is_lt() => *cur = Some(v.clone()),
                        None => *cur = Some(v.clone()),
                        _ => {}
                    }
                }
            }
            AggState::Max(cur) => {
                if !v.is_null() {
                    match cur {
                        Some(c) if v.cmp_numeric(c).is_gt() => *cur = Some(v.clone()),
                        None => *cur = Some(v.clone()),
                        _ => {}
                    }
                }
            }
            AggState::Distinct(set) => {
                if !v.is_null() {
                    set.insert(v.clone());
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum {
                total,
                any,
                int_only,
            } => {
                if !any {
                    Value::Null
                } else if int_only && total.fract() == 0.0 {
                    Value::Int(total as i64)
                } else {
                    Value::Float(total)
                }
            }
            AggState::Avg { total, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(total / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::Distinct(set) => Value::Int(set.len() as i64),
        }
    }
}

impl Relation {
    /// Group by `keys` and compute `aggs` per group. With empty `keys`,
    /// the whole relation is one group (yielding exactly one row, even
    /// when the input is empty).
    pub fn aggregate(&self, keys: &[&str], aggs: &[AggSpec]) -> RelResult<Relation> {
        let key_idx: Vec<usize> = keys
            .iter()
            .map(|k| self.schema().index_of(k))
            .collect::<RelResult<_>>()?;
        let agg_idx: Vec<usize> = aggs
            .iter()
            .map(|a| {
                if a.fun == AggFun::Count && !self.schema().contains(&a.col) {
                    Ok(usize::MAX) // COUNT(*): no input column required
                } else {
                    self.schema().index_of(&a.col)
                }
            })
            .collect::<RelResult<_>>()?;

        // Output schema: keys then aggregates.
        let mut fields: Vec<Field> = key_idx
            .iter()
            .map(|&i| self.schema().fields()[i].clone())
            .collect();
        for (spec, &idx) in aggs.iter().zip(&agg_idx) {
            let input_t = if idx == usize::MAX {
                DataType::Any
            } else {
                self.schema().fields()[idx].dtype()
            };
            if fields.iter().any(|f| f.name() == spec.alias) {
                return Err(RelError::DuplicateColumn(spec.alias.clone()));
            }
            fields.push(Field::new(&spec.alias, spec.fun.output_type(input_t)));
        }
        let out_schema = Schema::new(fields)?.shared();

        let mut groups: OrderedGroups<Vec<Value>, (Vec<AggState>, Vec<Provenance>)> =
            OrderedGroups::new();
        for row in self.rows() {
            let key: Vec<Value> = key_idx.iter().map(|&i| row.get(i).clone()).collect();
            let entry = groups.entry(key, || {
                (
                    aggs.iter().map(|a| AggState::new(a.fun)).collect(),
                    Vec::new(),
                )
            });
            for (state, &idx) in entry.0.iter_mut().zip(&agg_idx) {
                let v = if idx == usize::MAX {
                    &Value::Bool(true)
                } else {
                    row.get(idx)
                };
                state.update(v);
            }
            entry.1.push(row.provenance().clone());
        }

        // A global aggregate over an empty input still yields one row.
        if keys.is_empty() && groups.is_empty() {
            groups.entry(Vec::new(), || {
                (
                    aggs.iter().map(|a| AggState::new(a.fun)).collect(),
                    Vec::new(),
                )
            });
        }

        let mut rows = Vec::with_capacity(groups.len());
        for (key, (states, provs)) in groups.into_iter() {
            let mut values = key;
            values.extend(states.into_iter().map(AggState::finish));
            rows.push(Row::new(values, Provenance::merge_all(provs.iter())));
        }

        Ok(Relation::from_rows_unchecked(
            format!("γ({})", self.name()),
            out_schema,
            rows,
        ))
    }
}

/// A tiny insertion-ordered hash map, sufficient for deterministic
/// group-by output without pulling in an external indexmap dependency.
mod indexmap_lite {
    use std::collections::HashMap;
    use std::hash::Hash;

    pub struct OrderedGroups<K, V> {
        index: HashMap<K, usize>,
        entries: Vec<(K, V)>,
    }

    impl<K: Eq + Hash + Clone, V> OrderedGroups<K, V> {
        pub fn new() -> Self {
            OrderedGroups {
                index: HashMap::new(),
                entries: Vec::new(),
            }
        }

        pub fn entry(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
            if let Some(&i) = self.index.get(&key) {
                return &mut self.entries[i].1;
            }
            let i = self.entries.len();
            self.index.insert(key.clone(), i);
            self.entries.push((key, make()));
            &mut self.entries[i].1
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        pub fn into_iter(self) -> impl Iterator<Item = (K, V)> {
            self.entries.into_iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::DatasetId;

    fn sales() -> Relation {
        let schema = Schema::of(&[
            ("region", DataType::Str),
            ("amount", DataType::Int),
            ("rate", DataType::Float),
        ])
        .unwrap()
        .shared();
        let mut r = Relation::empty("sales", schema);
        for (g, a, f) in [
            ("eu", 10, 0.1),
            ("eu", 20, 0.2),
            ("us", 5, 0.5),
            ("us", 5, 0.4),
            ("ap", 1, 0.9),
        ] {
            r.push_values(vec![Value::str(g), Value::Int(a), Value::Float(f)])
                .unwrap();
        }
        r.with_source(DatasetId(3))
    }

    #[test]
    fn group_by_sums_per_group() {
        let g = sales()
            .aggregate(&["region"], &[AggSpec::new("amount", AggFun::Sum, "total")])
            .unwrap();
        assert_eq!(g.len(), 3);
        let eu = g
            .rows()
            .iter()
            .find(|r| r.get(0) == &Value::str("eu"))
            .unwrap();
        assert_eq!(eu.get(1), &Value::Int(30));
    }

    #[test]
    fn output_order_is_first_seen() {
        let g = sales()
            .aggregate(&["region"], &[AggSpec::new("amount", AggFun::Count, "n")])
            .unwrap();
        let regions: Vec<_> = g.rows().iter().map(|r| r.get(0).clone()).collect();
        assert_eq!(regions, ["eu", "us", "ap"].map(Value::str));
    }

    #[test]
    fn provenance_spans_group_members() {
        let g = sales()
            .aggregate(&["region"], &[AggSpec::new("amount", AggFun::Sum, "t")])
            .unwrap();
        let eu = g
            .rows()
            .iter()
            .find(|r| r.get(0) == &Value::str("eu"))
            .unwrap();
        assert_eq!(eu.provenance().len(), 2); // two eu rows contributed
    }

    #[test]
    fn global_aggregate_single_row() {
        let g = sales()
            .aggregate(
                &[],
                &[
                    AggSpec::new("amount", AggFun::Avg, "avg"),
                    AggSpec::new("amount", AggFun::Min, "lo"),
                    AggSpec::new("amount", AggFun::Max, "hi"),
                    AggSpec::new("region", AggFun::CountDistinct, "regions"),
                ],
            )
            .unwrap();
        assert_eq!(g.len(), 1);
        let row = &g.rows()[0];
        assert_eq!(row.get(0), &Value::Float(41.0 / 5.0));
        assert_eq!(row.get(1), &Value::Int(1));
        assert_eq!(row.get(2), &Value::Int(20));
        assert_eq!(row.get(3), &Value::Int(3));
    }

    #[test]
    fn empty_input_global_aggregate_yields_nulls() {
        let empty = Relation::empty("e", Schema::of(&[("x", DataType::Int)]).unwrap().shared());
        let g = empty
            .aggregate(&[], &[AggSpec::new("x", AggFun::Sum, "s")])
            .unwrap();
        assert_eq!(g.len(), 1);
        assert!(g.rows()[0].get(0).is_null());
    }

    #[test]
    fn count_star_needs_no_column() {
        let g = sales()
            .aggregate(&["region"], &[AggSpec::new("*", AggFun::Count, "n")])
            .unwrap();
        let total: i64 = g.rows().iter().filter_map(|r| r.get(1).as_i64()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn duplicate_alias_rejected() {
        let err = sales()
            .aggregate(
                &["region"],
                &[AggSpec::new("amount", AggFun::Sum, "region")],
            )
            .unwrap_err();
        assert!(matches!(err, RelError::DuplicateColumn(_)));
    }

    #[test]
    fn sum_preserves_int_type_when_integral() {
        let g = sales()
            .aggregate(&[], &[AggSpec::new("rate", AggFun::Sum, "rates")])
            .unwrap();
        assert!(matches!(g.rows()[0].get(0), Value::Float(_)));
        let g = sales()
            .aggregate(&[], &[AggSpec::new("amount", AggFun::Sum, "amounts")])
            .unwrap();
        assert!(matches!(g.rows()[0].get(0), Value::Int(41)));
    }
}
