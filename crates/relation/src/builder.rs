//! Fluent construction of relations, used pervasively by tests, examples
//! and the synthetic-workload generators.

use crate::error::RelResult;
use crate::provenance::DatasetId;
use crate::relation::Relation;
use crate::schema::{DataType, Field, Schema};
use crate::value::Value;

/// Builder for small relations:
///
/// ```
/// use dmp_relation::{RelationBuilder, DataType, Value};
/// let r = RelationBuilder::new("prices")
///     .column("sym", DataType::Str)
///     .column("px", DataType::Float)
///     .row(vec![Value::str("A"), Value::Float(10.0)])
///     .row(vec![Value::str("B"), Value::Float(12.5)])
///     .build()
///     .unwrap();
/// assert_eq!(r.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct RelationBuilder {
    name: String,
    fields: Vec<Field>,
    rows: Vec<Vec<Value>>,
    source: Option<DatasetId>,
}

impl RelationBuilder {
    /// Start a builder for a relation called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        RelationBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Append a column.
    pub fn column(mut self, name: impl Into<String>, dtype: DataType) -> Self {
        self.fields.push(Field::new(name, dtype));
        self
    }

    /// Append one row of values (validated at `build`).
    pub fn row(mut self, values: Vec<Value>) -> Self {
        self.rows.push(values);
        self
    }

    /// Append many rows.
    pub fn rows(mut self, rows: impl IntoIterator<Item = Vec<Value>>) -> Self {
        self.rows.extend(rows);
        self
    }

    /// Tag the relation as market dataset `id` (stamps leaf provenance).
    pub fn source(mut self, id: DatasetId) -> Self {
        self.source = Some(id);
        self
    }

    /// Validate and build.
    pub fn build(self) -> RelResult<Relation> {
        let schema = Schema::new(self.fields)?.shared();
        let mut rel = Relation::empty(self.name, schema);
        for values in self.rows {
            rel.push_values(values)?;
        }
        Ok(match self.source {
            Some(id) => rel.with_source(id),
            None => rel,
        })
    }
}

/// Shorthand for an integer-keyed test relation with one string column;
/// used by many unit tests across the workspace.
pub fn keyed_rel(name: &str, pairs: &[(i64, &str)]) -> Relation {
    let mut b = RelationBuilder::new(name)
        .column("k", DataType::Int)
        .column("v", DataType::Str);
    for (k, v) in pairs {
        b = b.row(vec![Value::Int(*k), Value::str(*v)]);
    }
    b.build().expect("keyed_rel is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let r = RelationBuilder::new("t")
            .column("a", DataType::Int)
            .column("b", DataType::Str)
            .row(vec![Value::Int(1), Value::str("x")])
            .source(DatasetId(5))
            .build()
            .unwrap();
        assert_eq!(r.name(), "t");
        assert_eq!(r.len(), 1);
        assert_eq!(r.source(), Some(DatasetId(5)));
        assert_eq!(r.rows()[0].provenance().atoms()[0].dataset, DatasetId(5));
    }

    #[test]
    fn builder_validates_rows() {
        let err = RelationBuilder::new("t")
            .column("a", DataType::Int)
            .row(vec![Value::str("not an int")])
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn keyed_rel_helper() {
        let r = keyed_rel("kv", &[(1, "a"), (2, "b")]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema().names().collect::<Vec<_>>(), vec!["k", "v"]);
    }
}
