//! Relation schemas: field names, types, and positional lookup.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{RelError, RelResult};

/// Column data types. `Any` admits every value (used for fused columns and
/// columns whose type could not be inferred).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    Timestamp,
    Any,
}

impl DataType {
    /// Whether a value of type `other` is storable in a column of `self`.
    pub fn accepts(self, other: DataType) -> bool {
        self == DataType::Any
            || self == other
            // Ints are storable in float columns (widening).
            || (self == DataType::Float && other == DataType::Int)
    }

    /// Least upper bound of two types (used by type inference and union).
    pub fn unify(self, other: DataType) -> DataType {
        if self == other {
            self
        } else if (self == DataType::Int && other == DataType::Float)
            || (self == DataType::Float && other == DataType::Int)
        {
            DataType::Float
        } else {
            DataType::Any
        }
    }

    /// True for `Int`, `Float` and `Timestamp`.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float | DataType::Timestamp)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Timestamp => "timestamp",
            DataType::Any => "any",
        };
        f.write_str(s)
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    name: String,
    dtype: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Same field with a different name (used by `rename`).
    pub fn renamed(&self, name: impl Into<String>) -> Field {
        Field {
            name: name.into(),
            dtype: self.dtype,
        }
    }
}

/// An ordered list of fields with O(1) name lookup.
///
/// Schemas are immutable once built and shared between relations via
/// [`Arc`], so projections and selections never copy them.
#[derive(Debug, Clone)]
pub struct Schema {
    fields: Vec<Field>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    /// Build a schema, rejecting duplicate column names.
    pub fn new(fields: Vec<Field>) -> RelResult<Self> {
        let mut by_name = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if by_name.insert(f.name.clone(), i).is_some() {
                return Err(RelError::DuplicateColumn(f.name.clone()));
            }
        }
        Ok(Schema { fields, by_name })
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn of(cols: &[(&str, DataType)]) -> RelResult<Self> {
        Schema::new(cols.iter().map(|(n, t)| Field::new(*n, *t)).collect())
    }

    /// Wrap in an `Arc` (the form `Relation` stores).
    pub fn shared(self) -> Arc<Schema> {
        Arc::new(self)
    }

    /// Fields in positional order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True iff the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Position of a column by name.
    pub fn index_of(&self, name: &str) -> RelResult<usize> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| RelError::UnknownColumn(name.to_string()))
    }

    /// Whether a column exists.
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> RelResult<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Column names in positional order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|f| f.name.as_str())
    }

    /// A new schema keeping only `cols`, in the given order.
    pub fn project(&self, cols: &[&str]) -> RelResult<Schema> {
        let mut fields = Vec::with_capacity(cols.len());
        for c in cols {
            fields.push(self.field(c)?.clone());
        }
        Schema::new(fields)
    }

    /// Concatenate two schemas (join output). On a name clash the
    /// right-hand column is suffixed with `suffix`.
    pub fn concat(&self, other: &Schema, suffix: &str) -> RelResult<Schema> {
        let mut fields = self.fields.clone();
        for f in &other.fields {
            if self.contains(f.name()) {
                let mut candidate = format!("{}{}", f.name(), suffix);
                let mut n = 2;
                while self.contains(&candidate) || fields.iter().any(|g| g.name() == candidate) {
                    candidate = format!("{}{}{}", f.name(), suffix, n);
                    n += 1;
                }
                fields.push(f.renamed(candidate));
            } else {
                fields.push(f.clone());
            }
        }
        Schema::new(fields)
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.fields == other.fields
    }
}
impl Eq for Schema {}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, fd) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", fd.name(), fd.dtype())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Str),
            ("c", DataType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_duplicates() {
        let err = Schema::of(&[("a", DataType::Int), ("a", DataType::Str)]).unwrap_err();
        assert_eq!(err, RelError::DuplicateColumn("a".into()));
    }

    #[test]
    fn lookup_by_name() {
        let s = abc();
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert!(s.index_of("zz").is_err());
        assert!(s.contains("c"));
    }

    #[test]
    fn projection_preserves_order_given() {
        let s = abc();
        let p = s.project(&["c", "a"]).unwrap();
        assert_eq!(p.names().collect::<Vec<_>>(), vec!["c", "a"]);
    }

    #[test]
    fn concat_disambiguates_clashes() {
        let s = abc();
        let t = Schema::of(&[("a", DataType::Int), ("d", DataType::Int)]).unwrap();
        let j = s.concat(&t, "_r").unwrap();
        let names: Vec<_> = j.names().collect();
        assert_eq!(names, vec!["a", "b", "c", "a_r", "d"]);
    }

    #[test]
    fn concat_handles_repeated_clashes() {
        let s = Schema::of(&[("a", DataType::Int), ("a_r", DataType::Int)]).unwrap();
        let t = Schema::of(&[("a", DataType::Int)]).unwrap();
        let j = s.concat(&t, "_r").unwrap();
        assert_eq!(j.len(), 3);
        // The clashing right column must get a fresh, unique name.
        let names: Vec<_> = j.names().collect();
        assert_eq!(
            names.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
    }

    #[test]
    fn type_lattice() {
        assert_eq!(DataType::Int.unify(DataType::Float), DataType::Float);
        assert_eq!(DataType::Str.unify(DataType::Int), DataType::Any);
        assert!(DataType::Float.accepts(DataType::Int));
        assert!(!DataType::Int.accepts(DataType::Float));
        assert!(DataType::Any.accepts(DataType::Str));
    }
}
