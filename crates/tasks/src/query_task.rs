//! Relational query tasks scored by completeness — "a relational query
//! may benefit from notions of completeness borrowed from the approximate
//! query processing literature" (§3.2.2.1, citing VerdictDB \[75\]).

use std::collections::HashSet;

use dmp_relation::Relation;

use crate::task::{Satisfaction, Task};

/// A group-by query whose satisfaction is *group coverage*: the fraction
/// of the buyer's expected distinct groups that the mashup actually
/// contains.
#[derive(Debug, Clone)]
pub struct QueryCompletenessTask {
    /// Group-by column.
    pub group_by: String,
    /// How many distinct groups the buyer expects (e.g. 50 US states).
    pub expected_groups: usize,
}

impl QueryCompletenessTask {
    /// Coverage task over a group column.
    pub fn new(group_by: impl Into<String>, expected_groups: usize) -> Self {
        QueryCompletenessTask {
            group_by: group_by.into(),
            expected_groups: expected_groups.max(1),
        }
    }

    /// The number of covered groups: distinct non-null values of the
    /// group column.
    pub fn covered_groups(&self, mashup: &Relation) -> Option<usize> {
        let idx = mashup.col_index(&self.group_by).ok()?;
        let groups: HashSet<_> = mashup
            .rows()
            .iter()
            .map(|row| row.get(idx))
            .filter(|v| !v.is_null())
            .collect();
        Some(groups.len())
    }
}

impl Task for QueryCompletenessTask {
    fn name(&self) -> &str {
        "query-completeness"
    }

    fn evaluate(&self, mashup: &Relation) -> Satisfaction {
        match self.covered_groups(mashup) {
            Some(covered) => Satisfaction::new(covered as f64 / self.expected_groups as f64),
            None => Satisfaction::zero(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_relation::{DataType, RelationBuilder, Value};

    fn regions(names: &[&str], rows_each: usize) -> Relation {
        let mut b = RelationBuilder::new("t")
            .column("region", DataType::Str)
            .column("sales", DataType::Int);
        for name in names {
            for i in 0..rows_each {
                b = b.row(vec![Value::str(*name), Value::Int(i as i64)]);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn full_coverage_is_one() {
        let rel = regions(&["eu", "us", "ap"], 5);
        let t = QueryCompletenessTask::new("region", 3);
        assert_eq!(t.evaluate(&rel).value(), 1.0);
    }

    #[test]
    fn partial_coverage_is_proportional() {
        let rel = regions(&["eu", "us"], 5);
        let t = QueryCompletenessTask::new("region", 4);
        assert_eq!(t.evaluate(&rel).value(), 0.5);
    }

    #[test]
    fn missing_group_column_zero() {
        let rel = regions(&["eu"], 2);
        let t = QueryCompletenessTask::new("state", 50);
        assert_eq!(t.evaluate(&rel).value(), 0.0);
    }

    #[test]
    fn more_groups_than_expected_clamps_to_one() {
        let rel = regions(&["a", "b", "c", "d"], 2);
        let t = QueryCompletenessTask::new("region", 2);
        assert_eq!(t.evaluate(&rel).value(), 1.0);
    }

    #[test]
    fn nulls_do_not_count_as_groups() {
        let mut rel = regions(&["eu"], 2);
        rel.push_values(vec![Value::Null, Value::Int(0)]).unwrap();
        let t = QueryCompletenessTask::new("region", 2);
        assert_eq!(t.evaluate(&rel).value(), 0.5);
    }
}
