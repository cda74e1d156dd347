//! The report-style task: attribute coverage and volume. It backs the
//! plain data-acquisition WTP-functions ("I need a table with these
//! columns, reasonably complete") that don't train any model.

use dmp_relation::Relation;

use crate::task::{Satisfaction, Task};

/// Maximum tolerated null ratio per attribute.
const MAX_MISSING: f64 = 0.1;

/// Rows at which the volume factor saturates.
const TARGET_ROWS: usize = 1;

/// Satisfaction = (fraction of required attributes present with null
/// ratio ≤ 10 %) × (row-count factor: 0 for an empty mashup, else 1).
#[derive(Debug, Clone)]
pub struct CoverageTask {
    /// Required attribute names.
    pub attributes: Vec<String>,
}

impl CoverageTask {
    /// Coverage over `attributes`.
    pub fn new<S: Into<String>>(attributes: impl IntoIterator<Item = S>) -> Self {
        CoverageTask {
            attributes: attributes.into_iter().map(Into::into).collect(),
        }
    }
}

impl Task for CoverageTask {
    fn name(&self) -> &str {
        "coverage"
    }

    fn evaluate(&self, mashup: &Relation) -> Satisfaction {
        if self.attributes.is_empty() {
            return Satisfaction::new(1.0);
        }
        let mut covered = 0usize;
        for attr in &self.attributes {
            if mashup.schema().contains(attr)
                && mashup.null_ratio(attr).unwrap_or(1.0) <= MAX_MISSING
            {
                covered += 1;
            }
        }
        let attr_frac = covered as f64 / self.attributes.len() as f64;
        let volume = (mashup.len() as f64 / TARGET_ROWS as f64).min(1.0);
        Satisfaction::new(attr_frac * volume)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_relation::{DataType, RelationBuilder, Value};

    fn rel(null_every: usize, rows: usize) -> Relation {
        let mut b = RelationBuilder::new("t")
            .column("a", DataType::Int)
            .column("b", DataType::Str);
        for i in 0..rows {
            b = b.row(vec![
                if null_every > 0 && i % null_every == 0 {
                    Value::Null
                } else {
                    Value::Int(i as i64)
                },
                Value::str("x"),
            ]);
        }
        b.build().unwrap()
    }

    #[test]
    fn full_coverage_full_volume() {
        let t = CoverageTask::new(["a", "b"]);
        assert_eq!(t.evaluate(&rel(0, 10)).value(), 1.0);
    }

    #[test]
    fn missing_attribute_halves() {
        let t = CoverageTask::new(["a", "zz"]);
        assert_eq!(t.evaluate(&rel(0, 10)).value(), 0.5);
    }

    #[test]
    fn nulls_past_threshold_drop_attribute() {
        let t = CoverageTask::new(["a"]);
        // every 2nd row null: 50% nulls > 10%
        assert_eq!(t.evaluate(&rel(2, 10)).value(), 0.0);
        // one null in 20 rows: 5% ≤ 10%
        assert_eq!(t.evaluate(&rel(20, 20)).value(), 1.0);
    }

    #[test]
    fn volume_scales_linearly_up_to_target() {
        let t = CoverageTask::new(["a"]);
        assert_eq!(t.evaluate(&rel(0, 0)).value(), 0.0);
        assert_eq!(t.evaluate(&rel(0, TARGET_ROWS)).value(), 1.0);
        assert_eq!(t.evaluate(&rel(0, 40)).value(), 1.0);
    }

    #[test]
    fn empty_attribute_list_trivially_satisfied() {
        let t = CoverageTask::new(Vec::<String>::new());
        assert_eq!(t.evaluate(&rel(0, 1)).value(), 1.0);
    }
}
