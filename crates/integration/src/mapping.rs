//! Attribute mapping functions (paper §1 example and §4.1): Seller 2
//! shares `f(d)` — "a function of d, such as a transformation from Celsius
//! to Fahrenheit. The function can also be non-invertible, such as a
//! mapping of employees to IDs." The arbiter "needs to find an inverse
//! mapping function f′ that would transform f(d) into d if such a function
//! exists, or otherwise find a mapping table that links values of f(d) to
//! values of d".
//!
//! [`Mapping`] models the three cases (identity, affine, dictionary),
//! [`discover`] induces one from paired samples, and [`mapping_table`]
//! materializes a dictionary as the table a seller publishes.

use std::collections::HashMap;

use dmp_relation::{RelError, RelResult, Relation, Value};

/// A discovered attribute mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum Mapping {
    /// `y = x`.
    Identity,
    /// `y = scale·x + offset` (e.g. Celsius→Fahrenheit is `1.8x + 32`).
    Affine {
        /// Multiplicative factor.
        scale: f64,
        /// Additive offset.
        offset: f64,
    },
    /// An explicit value→value mapping table (the non-invertible case, or
    /// categorical recodes like employee→ID).
    Dictionary(HashMap<Value, Value>),
}

/// Residual tolerance for affine fits (relative).
const AFFINE_TOL: f64 = 1e-6;

impl Mapping {
    /// Apply the mapping to one value. Unknown dictionary keys and
    /// non-numeric inputs to affine maps yield `Null`.
    pub fn apply(&self, v: &Value) -> Value {
        match self {
            Mapping::Identity => v.clone(),
            Mapping::Affine { scale, offset } => match v.as_f64() {
                Some(x) => Value::Float(scale * x + offset),
                None => Value::Null,
            },
            Mapping::Dictionary(map) => map.get(v).cloned().unwrap_or(Value::Null),
        }
    }
}

/// Induce a mapping from paired samples `(x_i, y_i)` such that
/// `m.apply(x_i) ≈ y_i` for all pairs. Tries identity, then affine
/// least-squares (numeric pairs only, residual-checked), then a
/// dictionary (consistent only if each `x` maps to a single `y`).
/// Returns `None` when the pairs are functionally inconsistent.
pub fn discover(pairs: &[(Value, Value)]) -> Option<Mapping> {
    let usable: Vec<&(Value, Value)> = pairs
        .iter()
        .filter(|(x, y)| !x.is_null() && !y.is_null())
        .collect();
    if usable.is_empty() {
        return None;
    }

    if usable.iter().all(|(x, y)| x == y) {
        return Some(Mapping::Identity);
    }

    // Affine fit over numeric pairs.
    let numeric: Vec<(f64, f64)> = usable
        .iter()
        .filter_map(|(x, y)| Some((x.as_f64()?, y.as_f64()?)))
        .collect();
    if numeric.len() == usable.len() && numeric.len() >= 2 {
        if let Some((scale, offset)) = fit_affine(&numeric) {
            let ok = numeric.iter().all(|&(x, y)| {
                let pred = scale * x + offset;
                let tol = AFFINE_TOL * (1.0 + y.abs());
                (pred - y).abs() <= tol
            });
            // Degenerate all-same-x inputs are better served by a table.
            if ok && scale.is_finite() && offset.is_finite() {
                return Some(Mapping::Affine { scale, offset });
            }
        }
    }

    // Dictionary: consistent iff x determines y.
    let mut map: HashMap<Value, Value> = HashMap::with_capacity(usable.len());
    for (x, y) in usable {
        match map.get(x) {
            Some(existing) if existing != y => return None,
            Some(_) => {}
            None => {
                map.insert(x.clone(), y.clone());
            }
        }
    }
    Some(Mapping::Dictionary(map))
}

/// Ordinary least squares for `y = a·x + b`. Returns `None` when x has no
/// variance (vertical line).
fn fit_affine(pts: &[(f64, f64)]) -> Option<(f64, f64)> {
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let a = (n * sxy - sx * sy) / denom;
    let b = (sy - a * sx) / n;
    Some((a, b))
}

/// Build a two-column mapping-table relation from a dictionary mapping —
/// this is the artifact a seller can publish in a negotiation round so
/// the arbiter can join `f(d)` back to `d`.
pub fn mapping_table(name: &str, mapping: &Mapping) -> RelResult<Relation> {
    let map = match mapping {
        Mapping::Dictionary(m) => m,
        _ => {
            return Err(RelError::Invalid(
                "only dictionary mappings materialize as tables".into(),
            ))
        }
    };
    use dmp_relation::{DataType, RelationBuilder};
    let mut b = RelationBuilder::new(name)
        .column("from", DataType::Any)
        .column("to", DataType::Any);
    // Sort for determinism.
    let mut entries: Vec<(&Value, &Value)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    for (k, v) in entries {
        b = b.row(vec![k.clone(), v.clone()]);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vi(x: i64) -> Value {
        Value::Int(x)
    }
    fn vf(x: f64) -> Value {
        Value::Float(x)
    }

    #[test]
    fn discovers_identity() {
        let pairs = vec![(vi(1), vi(1)), (vi(2), vi(2))];
        assert_eq!(discover(&pairs), Some(Mapping::Identity));
    }

    #[test]
    fn discovers_celsius_to_fahrenheit() {
        let pairs: Vec<(Value, Value)> = [0.0, 10.0, 25.0, 100.0]
            .iter()
            .map(|&c| (vf(c), vf(1.8 * c + 32.0)))
            .collect();
        match discover(&pairs) {
            Some(Mapping::Affine { scale, offset }) => {
                assert!((scale - 1.8).abs() < 1e-9);
                assert!((offset - 32.0).abs() < 1e-9);
            }
            other => panic!("expected affine, got {other:?}"),
        }
    }

    #[test]
    fn discovers_dictionary_for_categorical_recode() {
        let pairs = vec![
            (Value::str("alice"), vi(101)),
            (Value::str("bob"), vi(102)),
            (Value::str("alice"), vi(101)),
        ];
        match discover(&pairs) {
            Some(Mapping::Dictionary(m)) => {
                assert_eq!(m.len(), 2);
                assert_eq!(m[&Value::str("alice")], vi(101));
            }
            other => panic!("expected dictionary, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_pairs_yield_none() {
        let pairs = vec![(vi(1), vi(10)), (vi(1), vi(20))];
        assert_eq!(discover(&pairs), None);
    }

    #[test]
    fn unknown_dictionary_key_is_null() {
        let m = Mapping::Dictionary(HashMap::from([(vi(1), vi(10))]));
        assert!(m.apply(&vi(9)).is_null());
    }

    #[test]
    fn nulls_are_ignored_in_discovery() {
        let pairs = vec![
            (Value::Null, vi(1)),
            (vi(1), Value::Null),
            (vf(0.0), vf(32.0)),
            (vf(100.0), vf(212.0)),
        ];
        assert!(matches!(discover(&pairs), Some(Mapping::Affine { .. })));
    }

    #[test]
    fn all_null_pairs_yield_none() {
        let pairs = vec![(Value::Null, Value::Null)];
        assert_eq!(discover(&pairs), None);
    }

    #[test]
    fn mapping_table_materializes_sorted() {
        let m = Mapping::Dictionary(HashMap::from([
            (vi(2), Value::str("b")),
            (vi(1), Value::str("a")),
        ]));
        let t = mapping_table("map", &m).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0].get(0), &vi(1));
        assert!(mapping_table("x", &Mapping::Identity).is_err());
    }
}
