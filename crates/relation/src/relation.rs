//! The [`Relation`] type: an in-memory, row-oriented relation whose rows
//! carry why-provenance.

use std::fmt;
use std::sync::Arc;

use crate::error::{RelError, RelResult};
use crate::provenance::{DatasetId, Provenance};
use crate::schema::Schema;
use crate::value::Value;

/// One tuple plus its why-provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    values: Vec<Value>,
    prov: Provenance,
}

impl Row {
    /// Build a row with explicit provenance.
    pub fn new(values: Vec<Value>, prov: Provenance) -> Self {
        Row { values, prov }
    }

    /// Build a provenance-free row (synthesized data).
    pub fn bare(values: Vec<Value>) -> Self {
        Row {
            values,
            prov: Provenance::empty(),
        }
    }

    /// All values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at position `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// The row's why-provenance.
    pub fn provenance(&self) -> &Provenance {
        &self.prov
    }

    /// Replace the provenance (used by operators).
    pub fn set_provenance(&mut self, prov: Provenance) {
        self.prov = prov;
    }

    /// The values and the provenance, moved out.
    pub(crate) fn into_parts(self) -> (Vec<Value>, Provenance) {
        (self.values, self.prov)
    }
}

/// An in-memory relation: named, typed, provenance-carrying.
///
/// All operators are *functional* — they return new relations and never
/// mutate their inputs — which mirrors how the arbiter materializes
/// candidate mashups without disturbing sellers' registered datasets.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    schema: Arc<Schema>,
    rows: Vec<Row>,
    /// The market dataset this relation was registered as, if any.
    source: Option<DatasetId>,
}

/// Structural equality: same name, schema, rows (values and
/// provenance), and source registration.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.schema == other.schema
            && self.rows == other.rows
            && self.source == other.source
    }
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn empty(name: impl Into<String>, schema: Arc<Schema>) -> Self {
        Relation {
            name: name.into(),
            schema,
            rows: Vec::new(),
            source: None,
        }
    }

    /// Create a relation from pre-built rows, validating arity and types.
    pub fn from_rows(
        name: impl Into<String>,
        schema: Arc<Schema>,
        rows: Vec<Row>,
    ) -> RelResult<Self> {
        for row in &rows {
            validate_row(&schema, row)?;
        }
        Ok(Relation {
            name: name.into(),
            schema,
            rows,
            source: None,
        })
    }

    /// Create without validation. Callers must guarantee every row matches
    /// the schema; operators use this internally after establishing the
    /// invariant.
    pub(crate) fn from_rows_unchecked(
        name: impl Into<String>,
        schema: Arc<Schema>,
        rows: Vec<Row>,
    ) -> Self {
        Relation {
            name: name.into(),
            schema,
            rows,
            source: None,
        }
    }

    /// The same name and rows under another schema, unregistered like
    /// every operator's output. Callers guarantee the rows match it.
    pub(crate) fn with_schema_unchecked(mut self, schema: Arc<Schema>) -> Self {
        self.schema = schema;
        self.source = None;
        self
    }

    /// Relation name (e.g. the dataset or mashup label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the relation (cheap; returns self for chaining).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows in order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The rows, moved out.
    pub(crate) fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// The market dataset id this relation is registered as, if any.
    pub fn source(&self) -> Option<DatasetId> {
        self.source
    }

    /// Tag this relation as market dataset `id` and (re)stamp every row's
    /// provenance as a leaf of that dataset. Called at registration time by
    /// the seller platform.
    pub fn with_source(mut self, id: DatasetId) -> Self {
        self.source = Some(id);
        for (i, row) in self.rows.iter_mut().enumerate() {
            row.set_provenance(Provenance::leaf(id, i as u64));
        }
        self
    }

    /// Tag this relation as market dataset `id` *without* touching row
    /// provenance. Snapshot restore uses this to re-attach recorded
    /// provenance verbatim; registration-time stamping goes through
    /// [`Relation::with_source`].
    pub fn with_source_raw(mut self, id: DatasetId) -> Self {
        self.source = Some(id);
        self
    }

    /// Append a row, validating it against the schema.
    pub fn push(&mut self, row: Row) -> RelResult<()> {
        validate_row(&self.schema, &row)?;
        self.rows.push(row);
        Ok(())
    }

    /// Append a bare (provenance-free) row of values.
    pub fn push_values(&mut self, values: Vec<Value>) -> RelResult<()> {
        self.push(Row::bare(values))
    }

    /// Position of a column by name.
    pub fn col_index(&self, name: &str) -> RelResult<usize> {
        self.schema.index_of(name)
    }

    /// Iterator over one column's values.
    pub fn column<'a>(&'a self, name: &str) -> RelResult<impl Iterator<Item = &'a Value>> {
        let idx = self.schema.index_of(name)?;
        Ok(self.rows.iter().map(move |r| r.get(idx)))
    }

    /// Materialize one column as a vector of `f64`, skipping non-numeric
    /// and null cells. Convenience for tasks and profiling.
    pub fn column_f64(&self, name: &str) -> RelResult<Vec<f64>> {
        Ok(self.column(name)?.filter_map(Value::as_f64).collect())
    }

    /// Fraction of cells in `name` that are null.
    pub fn null_ratio(&self, name: &str) -> RelResult<f64> {
        if self.rows.is_empty() {
            return Ok(0.0);
        }
        let nulls = self.column(name)?.filter(|v| v.is_null()).count();
        Ok(nulls as f64 / self.rows.len() as f64)
    }

    /// The union of all row provenances: every source row this relation
    /// depends on. Used for accountability and revenue sharing.
    pub fn full_provenance(&self) -> Provenance {
        Provenance::merge_all(self.rows.iter().map(|r| r.provenance()))
    }
}

/// Check a row against a schema: arity and per-column type.
pub(crate) fn validate_row(schema: &Schema, row: &Row) -> RelResult<()> {
    if row.values().len() != schema.len() {
        return Err(RelError::Arity {
            expected: schema.len(),
            got: row.values().len(),
        });
    }
    for (f, v) in schema.fields().iter().zip(row.values()) {
        if v.is_null() || matches!(v, Value::Multi(_)) {
            continue; // nulls and fused cells are allowed in any column
        }
        if !f.dtype().accepts(v.dtype()) {
            return Err(RelError::TypeError(format!(
                "column '{}' is {} but value is {}",
                f.name(),
                f.dtype(),
                v.dtype()
            )));
        }
    }
    Ok(())
}

impl fmt::Display for Relation {
    /// Render a bounded preview (first 20 rows) as an aligned text table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX: usize = 20;
        let headers: Vec<String> = self.schema.names().map(str::to_string).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let shown: Vec<Vec<String>> = self
            .rows
            .iter()
            .take(MAX)
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &shown {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "{} [{} rows]", self.name, self.rows.len())?;
        for (h, w) in headers.iter().zip(&widths) {
            write!(f, "{h:w$} | ")?;
        }
        writeln!(f)?;
        for row in &shown {
            for (c, w) in row.iter().zip(&widths) {
                write!(f, "{c:w$} | ")?;
            }
            writeln!(f)?;
        }
        if self.rows.len() > MAX {
            writeln!(f, "... ({} more rows)", self.rows.len() - MAX)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn people() -> Relation {
        let schema = Schema::of(&[("id", DataType::Int), ("name", DataType::Str)])
            .unwrap()
            .shared();
        let mut r = Relation::empty("people", schema);
        r.push_values(vec![Value::Int(1), Value::str("ada")])
            .unwrap();
        r.push_values(vec![Value::Int(2), Value::str("bob")])
            .unwrap();
        r
    }

    #[test]
    fn push_validates_arity() {
        let mut r = people();
        let err = r.push_values(vec![Value::Int(3)]).unwrap_err();
        assert!(matches!(
            err,
            RelError::Arity {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn push_validates_types() {
        let mut r = people();
        let err = r
            .push_values(vec![Value::str("x"), Value::str("y")])
            .unwrap_err();
        assert!(matches!(err, RelError::TypeError(_)));
    }

    #[test]
    fn nulls_are_allowed_anywhere() {
        let mut r = people();
        r.push_values(vec![Value::Null, Value::Null]).unwrap();
        assert_eq!(r.len(), 3);
        assert!((r.null_ratio("id").unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn with_source_stamps_leaf_provenance() {
        let r = people().with_source(DatasetId(7));
        assert_eq!(r.source(), Some(DatasetId(7)));
        for (i, row) in r.rows().iter().enumerate() {
            let atoms = row.provenance().atoms();
            assert_eq!(atoms.len(), 1);
            assert_eq!(atoms[0].dataset, DatasetId(7));
            assert_eq!(atoms[0].row, i as u64);
        }
        assert_eq!(r.full_provenance().len(), 2);
    }

    #[test]
    fn column_iteration() {
        let r = people();
        let names: Vec<_> = r.column("name").unwrap().cloned().collect();
        assert_eq!(names, vec![Value::str("ada"), Value::str("bob")]);
        assert!(r.column("missing").is_err());
    }

    #[test]
    fn column_f64_skips_non_numeric() {
        let r = people();
        assert_eq!(r.column_f64("id").unwrap(), vec![1.0, 2.0]);
        assert!(r.column_f64("name").unwrap().is_empty());
    }

    #[test]
    fn equal_relations_print_equal_debug_text() {
        // Built apart, joined and projected apart: only the contents
        // may decide the text, so states can be compared by it.
        let build = || {
            let r = people().with_source(DatasetId(3));
            r.natural_join(
                &r.clone().rename("name", "alias").unwrap(),
                crate::ops::JoinKind::Inner,
            )
            .unwrap()
            .into_projection(&["alias", "id"])
            .unwrap()
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn display_renders_table() {
        let s = people().to_string();
        assert!(s.contains("people"));
        assert!(s.contains("ada"));
    }
}
