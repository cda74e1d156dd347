//! k-anonymity style generalization and suppression (§4.2 and \[69\]'s
//! warning that "datasets may leak information when combined with other
//! datasets — which is precisely what the arbiter will do").
//!
//! A release is k-anonymous over its quasi-identifier columns when every
//! combination of QI values appears in at least `k` rows. We generalize
//! numerics into buckets and truncate strings, escalating the
//! generalization level until the property holds, then suppress any
//! residual under-populated groups.

use std::collections::HashMap;

use dmp_relation::{RelResult, Relation, Value};

/// Outcome of an anonymization pass.
#[derive(Debug, Clone)]
pub struct AnonymizationReport {
    /// The k-anonymous release.
    pub relation: Relation,
    /// Generalization level used per QI column (0 = untouched).
    pub levels: Vec<(String, u32)>,
    /// Rows suppressed to reach the target.
    pub suppressed: usize,
}

/// Generalize a value at a level: numerics bucket to width `10^level`,
/// strings truncate to `max(1, 8 − 2·level)` chars. Level 0 = identity.
fn generalize(v: &Value, level: u32) -> Value {
    if level == 0 {
        return v.clone();
    }
    match v {
        Value::Int(x) => {
            let w = 10i64.pow(level.min(12));
            Value::Int((x.div_euclid(w)) * w)
        }
        Value::Float(x) => {
            let w = 10f64.powi(level as i32);
            Value::Float((x / w).floor() * w)
        }
        Value::Str(s) => {
            let keep = 8usize.saturating_sub(2 * level as usize).max(1);
            Value::str(s.chars().take(keep).collect::<String>())
        }
        other => other.clone(),
    }
}

/// Count the smallest QI-group size of a relation.
fn min_group_size(rel: &Relation, qi_idx: &[usize]) -> usize {
    if rel.is_empty() {
        return usize::MAX;
    }
    let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
    for row in rel.rows() {
        let key: Vec<Value> = qi_idx.iter().map(|&i| row.get(i).clone()).collect();
        *groups.entry(key).or_insert(0) += 1;
    }
    groups.values().copied().min().unwrap_or(usize::MAX)
}

/// Make `rel` k-anonymous over `quasi_identifiers` by escalating
/// generalization (uniformly across QI columns) and suppressing the
/// remaining small groups.
pub fn k_anonymize(
    rel: &Relation,
    quasi_identifiers: &[&str],
    k: usize,
) -> RelResult<AnonymizationReport> {
    let qi_idx: Vec<usize> = quasi_identifiers
        .iter()
        .map(|c| rel.col_index(c))
        .collect::<RelResult<Vec<_>>>()?;
    let k = k.max(1);

    const MAX_LEVEL: u32 = 6;
    let mut level = 0u32;
    let mut current = rel.clone();
    while level < MAX_LEVEL && min_group_size(&current, &qi_idx) < k {
        level += 1;
        current = rel.clone();
        for &col in quasi_identifiers {
            current = current.map_column(col, |v| generalize(v, level))?;
        }
    }

    // Suppress residual small groups.
    let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
    for row in current.rows() {
        let key: Vec<Value> = qi_idx.iter().map(|&i| row.get(i).clone()).collect();
        *groups.entry(key).or_insert(0) += 1;
    }
    let before = current.len();
    let filtered = current.select_fn(|row| {
        let key: Vec<Value> = qi_idx.iter().map(|&i| row.get(i).clone()).collect();
        groups[&key] >= k
    });
    let suppressed = before - filtered.len();

    Ok(AnonymizationReport {
        relation: filtered.named(format!("anon{k}({})", rel.name())),
        levels: quasi_identifiers
            .iter()
            .map(|c| (c.to_string(), level))
            .collect(),
        suppressed,
    })
}

/// Verify k-anonymity of a relation over QI columns.
pub fn is_k_anonymous(rel: &Relation, quasi_identifiers: &[&str], k: usize) -> RelResult<bool> {
    let qi_idx: Vec<usize> = quasi_identifiers
        .iter()
        .map(|c| rel.col_index(c))
        .collect::<RelResult<Vec<_>>>()?;
    Ok(rel.is_empty() || min_group_size(rel, &qi_idx) >= k.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_relation::{DataType, RelationBuilder};

    fn patients() -> Relation {
        let mut b = RelationBuilder::new("patients")
            .column("age", DataType::Int)
            .column("zip", DataType::Str)
            .column("diagnosis", DataType::Str);
        let data = [
            (34, "60615", "flu"),
            (35, "60615", "flu"),
            (36, "60614", "cold"),
            (37, "60614", "flu"),
            (52, "60601", "cold"),
            (53, "60601", "flu"),
            (54, "60601", "flu"),
            (55, "60602", "cold"),
        ];
        for (age, zip, dx) in data {
            b = b.row(vec![Value::Int(age), Value::str(zip), Value::str(dx)]);
        }
        b.build().unwrap()
    }

    #[test]
    fn raw_table_is_not_2_anonymous() {
        let p = patients();
        assert!(!is_k_anonymous(&p, &["age", "zip"], 2).unwrap());
    }

    #[test]
    fn anonymization_reaches_k() {
        let p = patients();
        let report = k_anonymize(&p, &["age", "zip"], 2).unwrap();
        assert!(is_k_anonymous(&report.relation, &["age", "zip"], 2).unwrap());
        // non-QI column untouched
        assert!(report
            .relation
            .column("diagnosis")
            .unwrap()
            .all(|v| matches!(v, Value::Str(_))));
    }

    #[test]
    fn generalization_buckets_numerics() {
        assert_eq!(generalize(&Value::Int(37), 1), Value::Int(30));
        assert_eq!(generalize(&Value::Int(37), 2), Value::Int(0));
        assert_eq!(generalize(&Value::Float(129.0), 1), Value::Float(120.0));
        assert_eq!(generalize(&Value::Int(-7), 1), Value::Int(-10));
    }

    #[test]
    fn generalization_truncates_strings() {
        assert_eq!(generalize(&Value::str("60615"), 1), Value::str("60615")); // fits in 6 chars
        assert_eq!(generalize(&Value::str("60615"), 3), Value::str("60"));
        assert_eq!(generalize(&Value::str("60615"), 6), Value::str("6"));
    }

    #[test]
    fn level_zero_is_identity() {
        let v = Value::str("abc");
        assert_eq!(generalize(&v, 0), v);
    }

    #[test]
    fn suppression_counts_reported() {
        // one singleton that generalization cannot merge stays suppressed
        let mut b = RelationBuilder::new("t").column("qi", DataType::Str);
        for _ in 0..4 {
            b = b.row(vec![Value::str("aaaa")]);
        }
        b = b.row(vec![Value::str("zzzz")]);
        let rel = b.build().unwrap();
        let report = k_anonymize(&rel, &["qi"], 2).unwrap();
        // either generalization merged everything or the singleton went away
        assert!(is_k_anonymous(&report.relation, &["qi"], 2).unwrap());
        assert!(report.relation.len() == 5 || report.suppressed >= 1);
    }

    #[test]
    fn k_one_is_trivially_satisfied() {
        let p = patients();
        let report = k_anonymize(&p, &["age"], 1).unwrap();
        assert_eq!(report.relation.len(), p.len());
        assert_eq!(report.suppressed, 0);
        assert_eq!(report.levels[0].1, 0);
    }

    #[test]
    fn unknown_qi_column_errors() {
        assert!(k_anonymize(&patients(), &["nope"], 2).is_err());
    }

    #[test]
    fn empty_relation_is_anonymous() {
        let empty = RelationBuilder::new("e")
            .column("x", DataType::Int)
            .build()
            .unwrap();
        assert!(is_k_anonymous(&empty, &["x"], 5).unwrap());
    }
}
