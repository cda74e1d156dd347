//! Select, project, rename and map — the workhorse operators the mashup
//! builder composes.

use std::sync::Arc;

use crate::error::{RelError, RelResult};
use crate::relation::{Relation, Row};
use crate::schema::{Field, Schema};
use crate::value::Value;

impl Relation {
    /// Rows satisfying a predicate. Provenance is preserved per-row.
    pub fn select_fn(&self, mut pred: impl FnMut(&Row) -> bool) -> Relation {
        let rows = self.rows().iter().filter(|r| pred(r)).cloned().collect();
        Relation::from_rows_unchecked(
            format!("σ({})", self.name()),
            Arc::clone(self.schema()),
            rows,
        )
    }

    /// Keep only `cols`, in the given order.
    pub fn project(&self, cols: &[&str]) -> RelResult<Relation> {
        let (schema, idxs) = self.projection(cols)?;
        let rows = self
            .rows()
            .iter()
            .map(|r| {
                Row::new(
                    idxs.iter().map(|&i| r.get(i).clone()).collect(),
                    r.provenance().clone(),
                )
            })
            .collect();
        Ok(Relation::from_rows_unchecked(
            format!("π({})", self.name()),
            schema,
            rows,
        ))
    }

    /// [`Relation::project`] of a relation the caller no longer needs:
    /// the kept values and each row's provenance move into the output
    /// instead of being cloned, and the dropped values are freed. Each
    /// output row's values are allocated at the projection's width, so
    /// the result holds no more memory than `project`'s would.
    pub fn into_projection(self, cols: &[&str]) -> RelResult<Relation> {
        let (schema, idxs) = self.projection(cols)?;
        let name = format!("π({})", self.name());
        let rows = self
            .into_rows()
            .into_iter()
            .map(|r| {
                let (mut values, prov) = r.into_parts();
                // `Schema::project` refused a repeated column, so each
                // position is taken once.
                let kept = idxs
                    .iter()
                    .map(|&i| std::mem::replace(&mut values[i], Value::Null))
                    .collect();
                Row::new(kept, prov)
            })
            .collect();
        Ok(Relation::from_rows_unchecked(name, schema, rows))
    }

    /// The schema of the projection onto `cols` and the input position
    /// of each of its columns.
    fn projection(&self, cols: &[&str]) -> RelResult<(Arc<Schema>, Vec<usize>)> {
        let schema = self.schema().project(cols)?.shared();
        let idxs = cols
            .iter()
            .map(|c| self.schema().index_of(c))
            .collect::<RelResult<_>>()?;
        Ok((schema, idxs))
    }

    /// Rename a single column. Takes the relation by value: only the
    /// schema is rebuilt, the rows move over uncopied.
    pub fn rename(self, from: &str, to: &str) -> RelResult<Relation> {
        let idx = self.schema().index_of(from)?;
        if self.schema().contains(to) && to != from {
            return Err(RelError::DuplicateColumn(to.to_string()));
        }
        let fields: Vec<Field> = self
            .schema()
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| if i == idx { f.renamed(to) } else { f.clone() })
            .collect();
        let schema = Schema::new(fields)?.shared();
        Ok(self.with_schema_unchecked(schema))
    }

    /// Map one column in place through a function (unit conversions, the
    /// paper's `f(d)` transformations, DP perturbation, ...).
    pub fn map_column(&self, col: &str, mut f: impl FnMut(&Value) -> Value) -> RelResult<Relation> {
        let idx = self.schema().index_of(col)?;
        let rows = self
            .rows()
            .iter()
            .map(|r| {
                let mut values = r.values().to_vec();
                values[idx] = f(&values[idx]);
                Row::new(values, r.provenance().clone())
            })
            .collect();
        // The mapped column's type may change; rebuild schema lazily as Any.
        let fields: Vec<Field> = self
            .schema()
            .fields()
            .iter()
            .enumerate()
            .map(|(i, fd)| {
                if i == idx {
                    Field::new(fd.name(), crate::schema::DataType::Any)
                } else {
                    fd.clone()
                }
            })
            .collect();
        Ok(Relation::from_rows_unchecked(
            self.name().to_string(),
            Schema::new(fields)?.shared(),
            rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::DatasetId;
    use crate::schema::DataType;

    fn rel() -> Relation {
        let schema = Schema::of(&[("x", DataType::Int), ("g", DataType::Str)])
            .unwrap()
            .shared();
        let mut r = Relation::empty("t", schema);
        for (x, g) in [(1, "a"), (2, "b"), (3, "a"), (2, "b")] {
            r.push_values(vec![Value::Int(x), Value::str(g)]).unwrap();
        }
        r.with_source(DatasetId(1))
    }

    #[test]
    fn select_filters_rows() {
        let r = rel();
        let s = r.select_fn(|row| row.get(0).as_i64().is_some_and(|x| x > 1));
        assert_eq!(s.len(), 3);
        // provenance of the kept rows is intact
        assert!(s.rows().iter().all(|row| row.provenance().len() == 1));
    }

    #[test]
    fn project_reorders_and_keeps_provenance() {
        let r = rel();
        let p = r.project(&["g", "x"]).unwrap();
        assert_eq!(p.schema().names().collect::<Vec<_>>(), vec!["g", "x"]);
        assert_eq!(p.rows()[0].provenance().len(), 1);
        assert!(r.project(&["nope"]).is_err());
    }

    #[test]
    fn into_projection_equals_project() {
        let r = rel();
        for cols in [&["g", "x"][..], &["x"], &["g"]] {
            let moved = r.clone().into_projection(cols).unwrap();
            assert_eq!(moved, r.project(cols).unwrap());
            assert!(moved
                .rows()
                .iter()
                .all(|row| row.values().len() == cols.len()));
        }
        assert!(rel().into_projection(&["nope"]).is_err());
        assert!(rel().into_projection(&["x", "x"]).is_err());
    }

    #[test]
    fn rename_rejects_collision() {
        assert!(rel().rename("x", "g").is_err());
        let rn = rel().rename("x", "value").unwrap();
        assert!(rn.schema().contains("value"));
        assert_eq!(rn.rows(), rel().rows(), "rows move over unchanged");
        assert_eq!(rn.source(), None);
    }

    #[test]
    fn map_column_transforms_in_place() {
        let r = rel();
        let m = r
            .map_column("x", |v| Value::Float(v.as_f64().unwrap() * 1.8 + 32.0))
            .unwrap();
        assert_eq!(m.rows()[0].get(0), &Value::Float(33.8));
    }
}
