//! Dynamically typed cell values, including fusion-ready multi-values.
//!
//! The paper's fusion operators produce "relations that break the first
//! normal form, that is, each cell value may be multi-valued, with each
//! value coming from a differing source" (§1). [`Value::Multi`] models
//! exactly that: a list of [`Sourced`] values, each tagged with the
//! [`DatasetId`] it came from.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::provenance::DatasetId;
use crate::schema::DataType;

/// A single cell value.
///
/// `Value` is `Eq + Hash + Ord` with a *total* order (floats compare via
/// `f64::total_cmp`, `Null` sorts first, and variants order by a fixed type
/// rank), so values can be used directly as hash-join and group-by keys.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent / unknown value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is normalized on hash/compare via `total_cmp`.
    Float(f64),
    /// UTF-8 string; `Arc<str>` makes clones cheap across mashups.
    Str(Arc<str>),
    /// Timestamp as seconds since the Unix epoch.
    Timestamp(i64),
    /// A fused, multi-valued cell: one value per contributing source.
    /// This intentionally breaks 1NF, as the paper's fusion operators do.
    Multi(Vec<Sourced>),
}

/// A value attributed to the dataset that contributed it (used inside
/// [`Value::Multi`] so buyers can "look at both signals" from different
/// sellers, per the paper's `b` vs `b'` example).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sourced {
    /// The contributing dataset.
    pub source: DatasetId,
    /// The contributed value.
    pub value: Value,
}

impl Sourced {
    /// Attribute `value` to `source`.
    pub fn new(source: DatasetId, value: Value) -> Self {
        Sourced { source, value }
    }
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The dynamic type of this value. `Null` and `Multi` report
    /// [`DataType::Any`].
    pub fn dtype(&self) -> DataType {
        match self {
            Value::Null | Value::Multi(_) => DataType::Any,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Timestamp(_) => DataType::Timestamp,
        }
    }

    /// True iff the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: `Int`, `Float`, `Bool` (0/1) and `Timestamp` coerce to
    /// `f64`; everything else is `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Timestamp(t) => Some(*t as f64),
            _ => None,
        }
    }

    /// Integer view without loss; floats only when they are whole numbers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Timestamp(t) => Some(*t),
            Value::Bool(b) => Some(if *b { 1 } else { 0 }),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// Rank used to order values of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Timestamp(_) => 5,
            Value::Multi(_) => 6,
        }
    }

    /// Numeric-aware comparison: `Int` and `Float` compare by magnitude so
    /// `Int(2) == Float(2.0)` for ordering purposes. Used by sorts and
    /// range predicates; `Eq`/`Hash` remain type-strict.
    pub fn cmp_numeric(&self, other: &Value) -> Ordering {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => a.total_cmp(&b),
            _ => self.cmp(other),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            // Bit-equality keeps Eq/Hash consistent (NaN == NaN here).
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Timestamp(a), Value::Timestamp(b)) => a == b,
            (Value::Multi(a), Value::Multi(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.type_rank());
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Timestamp(t) => t.hash(state),
            Value::Multi(vs) => vs.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Timestamp(a), Value::Timestamp(b)) => a.cmp(b),
            (Value::Multi(a), Value::Multi(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Timestamp(t) => write!(f, "@{t}"),
            Value::Multi(vs) => {
                write!(f, "{{")?;
                for (i, sv) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{}#{}", sv.value, sv.source.0)?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn equality_is_type_strict() {
        assert_eq!(Value::Int(2), Value::Int(2));
        assert_ne!(Value::Int(2), Value::Float(2.0));
        assert_eq!(Value::str("a"), Value::from("a"));
    }

    #[test]
    fn numeric_comparison_crosses_types() {
        assert_eq!(
            Value::Int(2).cmp_numeric(&Value::Float(2.0)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Int(3).cmp_numeric(&Value::Float(2.5)),
            Ordering::Greater
        );
    }

    #[test]
    fn nan_is_self_consistent_for_hash_and_eq() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn total_order_sorts_null_first() {
        let mut vs = [
            Value::Int(1),
            Value::Null,
            Value::str("z"),
            Value::Bool(true),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(7.0).as_i64(), Some(7));
        assert_eq!(Value::Float(7.5).as_i64(), None);
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Timestamp(9).as_i64(), Some(9));
    }

    #[test]
    fn multi_value_display_names_sources() {
        let m = Value::Multi(vec![
            Sourced::new(DatasetId(1), Value::Int(20)),
            Sourced::new(DatasetId(2), Value::Int(22)),
        ]);
        let s = m.to_string();
        assert!(s.contains("20#1") && s.contains("22#2"));
    }

    #[test]
    fn dtype_reports_runtime_type() {
        assert_eq!(Value::Int(1).dtype(), DataType::Int);
        assert_eq!(Value::Null.dtype(), DataType::Any);
        assert_eq!(Value::Multi(vec![]).dtype(), DataType::Any);
    }
}
