//! Data-fusion operators (paper §5.3 "Data Fusion" and §8.3): align
//! multiple sources contributing the same signal into multi-valued cells,
//! then optionally resolve them — "a specific fusion operator may select
//! one value based on majority voting, for example, while other fusion
//! operators will implement other strategies. Buyers may want to have
//! access to all available signals to make up their own minds."

use std::collections::HashMap;

use dmp_relation::{
    DataType, DatasetId, Provenance, RelError, RelResult, Relation, Row, Schema, Sourced, Value,
};

/// How to collapse a multi-valued (fused) cell into a single value.
#[derive(Debug, Clone, PartialEq)]
pub enum FusionStrategy {
    /// Keep the multi-value as-is (the 1NF-breaking form buyers explore).
    KeepAll,
    /// Most frequent value wins; ties broken by value order (determinism).
    MajorityVote,
    /// Weighted vote using per-source weights (e.g. from truth discovery).
    WeightedVote(HashMap<DatasetId, f64>),
    /// Numeric mean of the contributed values.
    Mean,
    /// The first source's value (source priority order).
    First,
}

/// Align several relations on a key column: output has one row per
/// distinct key and, for each requested value column, a fused
/// [`Value::Multi`] cell holding every source's contribution.
///
/// Every input must contain `key` and `value_col`. Rows with null keys are
/// skipped. Output provenance merges all contributing rows.
pub fn align(sources: &[&Relation], key: &str, value_col: &str) -> RelResult<Relation> {
    if sources.is_empty() {
        return Err(RelError::Invalid("fusion needs at least one source".into()));
    }
    // key -> (value claims, provenance)
    let mut order: Vec<Value> = Vec::new();
    let mut claims: HashMap<Value, (Vec<Sourced>, Provenance)> = HashMap::new();

    for rel in sources {
        let ki = rel.col_index(key)?;
        let vi = rel.col_index(value_col)?;
        let source = rel.source().unwrap_or(DatasetId(u64::MAX));
        for row in rel.rows() {
            let k = row.get(ki);
            if k.is_null() {
                continue;
            }
            let entry = claims.entry(k.clone()).or_insert_with(|| {
                order.push(k.clone());
                (Vec::new(), Provenance::empty())
            });
            entry.0.push(Sourced::new(source, row.get(vi).clone()));
            entry.1 = entry.1.merge(row.provenance());
        }
    }

    let schema = Schema::of(&[(key, DataType::Any), (value_col, DataType::Any)])?.shared();
    let mut out = Relation::empty(format!("fused({value_col})"), schema);
    for k in order {
        let (sourced, prov) = claims.remove(&k).expect("key recorded");
        out.push(Row::new(vec![k, Value::Multi(sourced)], prov))
            .expect("schema admits Any");
    }
    Ok(out)
}

/// Resolve the fused column of an aligned relation with a strategy,
/// producing single-valued cells (except `KeepAll`, which is identity).
pub fn resolve(rel: &Relation, col: &str, strategy: &FusionStrategy) -> RelResult<Relation> {
    if matches!(strategy, FusionStrategy::KeepAll) {
        return Ok(rel.clone());
    }
    rel.map_column(col, |v| match v {
        Value::Multi(claims) => resolve_claims(claims, strategy),
        other => other.clone(),
    })
}

/// Collapse one claim set.
fn resolve_claims(claims: &[Sourced], strategy: &FusionStrategy) -> Value {
    if claims.is_empty() {
        return Value::Null;
    }
    match strategy {
        FusionStrategy::KeepAll => Value::Multi(claims.to_vec()),
        FusionStrategy::First => claims[0].value.clone(),
        FusionStrategy::Mean => {
            let nums: Vec<f64> = claims.iter().filter_map(|s| s.value.as_f64()).collect();
            if nums.is_empty() {
                Value::Null
            } else {
                Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
            }
        }
        FusionStrategy::MajorityVote => weighted_vote(claims, |_| 1.0),
        FusionStrategy::WeightedVote(weights) => {
            weighted_vote(claims, |d| weights.get(&d).copied().unwrap_or(1.0))
        }
    }
}

fn weighted_vote(claims: &[Sourced], weight: impl Fn(DatasetId) -> f64) -> Value {
    let mut tally: HashMap<&Value, f64> = HashMap::new();
    for c in claims {
        if !c.value.is_null() {
            *tally.entry(&c.value).or_insert(0.0) += weight(c.source);
        }
    }
    tally
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(a.0)))
        .map(|(v, _)| v.clone())
        .unwrap_or(Value::Null)
}

/// Iterative truth discovery over an aligned relation (§8.3, \[64\]):
/// estimates per-source accuracy from agreement with the (weighted)
/// consensus and re-derives the consensus until convergence.
///
/// This is the classic fixed-point scheme shared by TruthFinder-style
/// algorithms, restricted to categorical equality.
#[derive(Debug, Clone)]
pub struct TruthDiscovery {
    /// Maximum fixed-point iterations.
    pub max_iters: usize,
    /// Convergence threshold on weight change (L∞).
    pub tol: f64,
}

impl Default for TruthDiscovery {
    fn default() -> Self {
        TruthDiscovery {
            max_iters: 20,
            tol: 1e-6,
        }
    }
}

/// Result of truth discovery.
#[derive(Debug, Clone)]
pub struct TruthResult {
    /// Resolved relation (single values in the fused column).
    pub resolved: Relation,
    /// Final per-source reliability weights in (0, 1].
    pub source_weights: HashMap<DatasetId, f64>,
    /// Iterations used.
    pub iterations: usize,
}

impl TruthDiscovery {
    /// Run truth discovery on the fused column `col` of an aligned
    /// relation (as produced by [`align`]).
    pub fn run(&self, rel: &Relation, col: &str) -> RelResult<TruthResult> {
        let ci = rel.col_index(col)?;
        // Collect claim sets per row.
        let rows_claims: Vec<&[Sourced]> = rel
            .rows()
            .iter()
            .map(|r| match r.get(ci) {
                Value::Multi(c) => c.as_slice(),
                _ => &[][..],
            })
            .collect();

        // Initialize all sources at weight 0.8.
        let mut weights: HashMap<DatasetId, f64> = HashMap::new();
        for claims in &rows_claims {
            for c in *claims {
                weights.entry(c.source).or_insert(0.8);
            }
        }

        let mut iterations = 0;
        for _ in 0..self.max_iters {
            iterations += 1;
            // E-step: consensus per row under current weights.
            let consensus: Vec<Value> = rows_claims
                .iter()
                .map(|claims| weighted_vote(claims, |d| weights.get(&d).copied().unwrap_or(0.5)))
                .collect();
            // M-step: source accuracy = weighted agreement with consensus.
            let mut agree: HashMap<DatasetId, (f64, f64)> = HashMap::new();
            for (claims, cons) in rows_claims.iter().zip(&consensus) {
                for c in *claims {
                    let e = agree.entry(c.source).or_insert((0.0, 0.0));
                    e.1 += 1.0;
                    if &c.value == cons {
                        e.0 += 1.0;
                    }
                }
            }
            let mut max_delta: f64 = 0.0;
            for (src, (hits, total)) in agree {
                if total > 0.0 {
                    // Laplace smoothing keeps weights in (0, 1).
                    let w = (hits + 1.0) / (total + 2.0);
                    let old = weights.insert(src, w).unwrap_or(0.8);
                    max_delta = max_delta.max((w - old).abs());
                }
            }
            if max_delta < self.tol {
                break;
            }
        }

        let resolved = resolve(rel, col, &FusionStrategy::WeightedVote(weights.clone()))?;
        Ok(TruthResult {
            resolved,
            source_weights: weights,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_relation::{DataType, RelationBuilder};

    /// Three weather sources; source 2 is systematically wrong.
    fn sources() -> (Relation, Relation, Relation) {
        let mk = |name: &str, id: u64, temps: &[(&str, i64)]| {
            let mut b = RelationBuilder::new(name)
                .column("city", DataType::Str)
                .column("temp", DataType::Int);
            for (c, t) in temps {
                b = b.row(vec![Value::str(*c), Value::Int(*t)]);
            }
            b.source(DatasetId(id)).build().unwrap()
        };
        (
            mk("s0", 0, &[("nyc", 20), ("chi", 15), ("sfo", 18)]),
            mk("s1", 1, &[("nyc", 20), ("chi", 15), ("sfo", 18)]),
            mk("s2", 2, &[("nyc", 99), ("chi", 15), ("sfo", 50)]),
        )
    }

    #[test]
    fn align_produces_multi_cells() {
        let (a, b, c) = sources();
        let fused = align(&[&a, &b, &c], "city", "temp").unwrap();
        assert_eq!(fused.len(), 3);
        match fused.rows()[0].get(1) {
            Value::Multi(claims) => {
                assert_eq!(claims.len(), 3);
                assert_eq!(claims[0].source, DatasetId(0));
            }
            other => panic!("expected Multi, got {other}"),
        }
        // provenance spans all three sources
        assert_eq!(fused.rows()[0].provenance().datasets().len(), 3);
    }

    #[test]
    fn majority_vote_overrules_outlier() {
        let (a, b, c) = sources();
        let fused = align(&[&a, &b, &c], "city", "temp").unwrap();
        let resolved = resolve(&fused, "temp", &FusionStrategy::MajorityVote).unwrap();
        let nyc = resolved
            .rows()
            .iter()
            .find(|r| r.get(0) == &Value::str("nyc"))
            .unwrap();
        assert_eq!(nyc.get(1), &Value::Int(20));
    }

    #[test]
    fn mean_strategy_averages() {
        let (a, b, c) = sources();
        let fused = align(&[&a, &b, &c], "city", "temp").unwrap();
        let resolved = resolve(&fused, "temp", &FusionStrategy::Mean).unwrap();
        let nyc = resolved
            .rows()
            .iter()
            .find(|r| r.get(0) == &Value::str("nyc"))
            .unwrap();
        assert!((nyc.get(1).as_f64().unwrap() - (20.0 + 20.0 + 99.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn first_strategy_takes_priority_source() {
        let (a, b, c) = sources();
        let fused = align(&[&c, &a, &b], "city", "temp").unwrap();
        let resolved = resolve(&fused, "temp", &FusionStrategy::First).unwrap();
        let nyc = resolved
            .rows()
            .iter()
            .find(|r| r.get(0) == &Value::str("nyc"))
            .unwrap();
        assert_eq!(nyc.get(1), &Value::Int(99)); // source 2 listed first
    }

    #[test]
    fn keep_all_is_identity() {
        let (a, b, _) = sources();
        let fused = align(&[&a, &b], "city", "temp").unwrap();
        let kept = resolve(&fused, "temp", &FusionStrategy::KeepAll).unwrap();
        assert!(matches!(kept.rows()[0].get(1), Value::Multi(_)));
    }

    #[test]
    fn truth_discovery_downweights_liar() {
        let (a, b, c) = sources();
        let fused = align(&[&a, &b, &c], "city", "temp").unwrap();
        let result = TruthDiscovery::default().run(&fused, "temp").unwrap();
        let w0 = result.source_weights[&DatasetId(0)];
        let w2 = result.source_weights[&DatasetId(2)];
        assert!(w0 > w2, "honest source {w0} must outrank liar {w2}");
        // consensus matches the honest sources
        let nyc = result
            .resolved
            .rows()
            .iter()
            .find(|r| r.get(0) == &Value::str("nyc"))
            .unwrap();
        assert_eq!(nyc.get(1), &Value::Int(20));
        assert!(result.iterations >= 1);
    }

    #[test]
    fn align_requires_sources() {
        assert!(align(&[], "k", "v").is_err());
    }

    #[test]
    fn null_keys_are_skipped() {
        let r = RelationBuilder::new("s")
            .column("k", DataType::Str)
            .column("v", DataType::Int)
            .row(vec![Value::Null, Value::Int(1)])
            .row(vec![Value::str("a"), Value::Int(2)])
            .source(DatasetId(1))
            .build()
            .unwrap();
        let fused = align(&[&r], "k", "v").unwrap();
        assert_eq!(fused.len(), 1);
    }

    #[test]
    fn ties_break_deterministically() {
        let claims = vec![
            Sourced::new(DatasetId(0), Value::Int(1)),
            Sourced::new(DatasetId(1), Value::Int(2)),
        ];
        let v1 = resolve_claims(&claims, &FusionStrategy::MajorityVote);
        let v2 = resolve_claims(&claims, &FusionStrategy::MajorityVote);
        assert_eq!(v1, v2);
    }
}
