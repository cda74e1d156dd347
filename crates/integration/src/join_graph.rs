//! Join-path enumeration and materialization over the relationship index.
//!
//! The index builder "materializes join paths between files" (§5.2); the
//! DoD engine walks those paths to assemble mashups. A [`JoinPath`] is a
//! sequence of join steps from an anchor dataset to a target dataset; this
//! module enumerates acyclic paths up to a hop limit and materializes them
//! with provenance-preserving hash joins.

use dmp_discovery::{MetadataEngine, RelationshipIndex};
use dmp_relation::{DatasetId, RelError, RelResult, Relation};

/// One hop in a join path.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// Dataset on the left of this hop.
    pub from_dataset: DatasetId,
    /// Join column on the left dataset (name in the *original* dataset).
    pub from_column: String,
    /// Dataset on the right of this hop.
    pub to_dataset: DatasetId,
    /// Join column on the right dataset.
    pub to_column: String,
    /// Confidence score of this edge (containment-based).
    pub confidence: f64,
}

/// An acyclic join path between two datasets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JoinPath {
    /// The hops, in order.
    pub steps: Vec<JoinStep>,
}

impl JoinPath {
    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.steps.len()
    }

    /// Product of per-edge confidences (path confidence).
    pub fn confidence(&self) -> f64 {
        self.steps.iter().map(|s| s.confidence).product()
    }

    /// Datasets visited, anchor first.
    pub fn datasets(&self) -> Vec<DatasetId> {
        let mut out = Vec::with_capacity(self.steps.len() + 1);
        if let Some(first) = self.steps.first() {
            out.push(first.from_dataset);
        }
        out.extend(self.steps.iter().map(|s| s.to_dataset));
        out
    }
}

/// Enumerate acyclic join paths from `from` to `to`, up to `max_hops`,
/// best-confidence first. Bounded breadth keeps enumeration cheap on
/// dense graphs.
pub fn enumerate_paths(
    index: &RelationshipIndex,
    from: DatasetId,
    to: DatasetId,
    max_hops: usize,
) -> Vec<JoinPath> {
    const MAX_PATHS: usize = 64;
    let mut results: Vec<JoinPath> = Vec::new();
    // DFS stack: (current dataset, path so far, visited sets)
    let mut stack: Vec<(DatasetId, JoinPath, Vec<DatasetId>)> =
        vec![(from, JoinPath::default(), vec![from])];

    while let Some((cur, path, visited)) = stack.pop() {
        if results.len() >= MAX_PATHS {
            break;
        }
        if path.hops() >= max_hops {
            continue;
        }
        for edge in index.edges_of(cur) {
            let (fd, fc, td, tc) = if edge.left.dataset == cur {
                (
                    edge.left.dataset,
                    edge.left.column.clone(),
                    edge.right.dataset,
                    edge.right.column.clone(),
                )
            } else {
                (
                    edge.right.dataset,
                    edge.right.column.clone(),
                    edge.left.dataset,
                    edge.left.column.clone(),
                )
            };
            if visited.contains(&td) {
                continue;
            }
            let mut next = path.clone();
            next.steps.push(JoinStep {
                from_dataset: fd,
                from_column: fc,
                to_dataset: td,
                to_column: tc,
                confidence: edge.score().min(1.0),
            });
            if td == to {
                results.push(next);
            } else {
                let mut v = visited.clone();
                v.push(td);
                stack.push((td, next, v));
            }
        }
    }

    results.sort_by(|a, b| {
        b.confidence()
            .total_cmp(&a.confidence())
            .then_with(|| a.hops().cmp(&b.hops()))
    });
    results
}

/// Apply join steps onto an already-materialized accumulator. Used by the
/// DoD engine to chain several paths from the same anchor. Steps whose
/// target dataset's columns are already present (joined earlier) are
/// skipped.
pub fn apply_steps(
    mut acc: Relation,
    steps: &[JoinStep],
    engine: &MetadataEngine,
) -> RelResult<Relation> {
    for step in steps {
        let right = engine
            .relation(step.to_dataset)
            .ok_or_else(|| RelError::Invalid(format!("unknown dataset {}", step.to_dataset)))?;
        if acc.full_provenance().datasets().contains(&step.to_dataset)
            && acc.schema().contains(&step.to_column)
        {
            continue; // already joined this dataset in an earlier path
        }
        // The left join column must exist in the accumulated relation; if
        // a previous join renamed it (suffix _r), try that variant.
        let left_col = resolve_column(&acc, &step.from_column)
            .ok_or_else(|| RelError::UnknownColumn(step.from_column.clone()))?;
        acc = acc.join(
            &right,
            &[(left_col.as_str(), step.to_column.as_str())],
            dmp_relation::ops::JoinKind::Inner,
        )?;
    }
    Ok(acc)
}

/// Find the current physical name of a logical column that joins may have
/// suffixed with `_r` (possibly repeatedly).
pub fn resolve_column(rel: &Relation, name: &str) -> Option<String> {
    if rel.schema().contains(name) {
        return Some(name.to_string());
    }
    let mut candidate = format!("{name}_r");
    for _ in 0..4 {
        if rel.schema().contains(&candidate) {
            return Some(candidate);
        }
        candidate.push_str("_r");
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_discovery::IndexBuilder;
    use dmp_relation::{DataType, RelationBuilder, Value};

    /// customers —(cust_id/customer)— orders —(product/sku)— products
    fn lake() -> MetadataEngine {
        let eng = MetadataEngine::new();
        let mut b = RelationBuilder::new("customers")
            .column("cust_id", DataType::Int)
            .column("region", DataType::Str);
        for i in 0..100 {
            b = b.row(vec![
                Value::Int(i),
                Value::str(if i % 2 == 0 { "eu" } else { "us" }),
            ]);
        }
        eng.register("customers", "a", b.build().unwrap());

        let mut b = RelationBuilder::new("orders")
            .column("customer", DataType::Int)
            .column("product", DataType::Int);
        for i in 0..300 {
            b = b.row(vec![Value::Int(i % 100), Value::Int(1000 + (i % 20))]);
        }
        eng.register("orders", "b", b.build().unwrap());

        let mut b = RelationBuilder::new("products")
            .column("sku", DataType::Int)
            .column("price", DataType::Float);
        for i in 0..20 {
            b = b.row(vec![Value::Int(1000 + i), Value::Float(i as f64 * 9.99)]);
        }
        eng.register("products", "c", b.build().unwrap());
        eng
    }

    /// The path's joins applied to its anchor dataset, as the DoD engine
    /// chains them.
    fn anchored(path: &JoinPath, eng: &MetadataEngine) -> Relation {
        let anchor = eng.relation(path.steps[0].from_dataset).unwrap();
        apply_steps(anchor.as_ref().clone(), &path.steps, eng).unwrap()
    }

    #[test]
    fn finds_direct_path() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let paths = enumerate_paths(&idx.relationships, ids[0], ids[1], 2);
        assert!(!paths.is_empty());
        assert_eq!(paths[0].hops(), 1);
        assert!(paths[0].confidence() > 0.5);
    }

    #[test]
    fn finds_two_hop_path() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let paths = enumerate_paths(&idx.relationships, ids[0], ids[2], 3);
        assert!(
            paths.iter().any(|p| p.hops() == 2),
            "expected customers→orders→products path, got {paths:?}"
        );
    }

    #[test]
    fn hop_limit_respected() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let paths = enumerate_paths(&idx.relationships, ids[0], ids[2], 1);
        assert!(paths.iter().all(|p| p.hops() <= 1));
    }

    #[test]
    fn materialize_single_hop() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let paths = enumerate_paths(&idx.relationships, ids[0], ids[1], 2);
        let rel = anchored(&paths[0], &eng);
        assert_eq!(rel.len(), 300); // every order matches a customer
        assert!(rel.schema().contains("region"));
        assert!(rel.schema().contains("product"));
    }

    #[test]
    fn materialize_two_hops_reaches_price() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let paths = enumerate_paths(&idx.relationships, ids[0], ids[2], 3);
        let two_hop = paths.iter().find(|p| p.hops() == 2).unwrap();
        let rel = anchored(two_hop, &eng);
        assert!(rel.schema().contains("price"));
        assert_eq!(rel.len(), 300);
        // provenance of each row spans all three datasets
        assert_eq!(rel.rows()[0].provenance().datasets().len(), 3);
    }

    #[test]
    fn paths_sorted_by_confidence() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let paths = enumerate_paths(&idx.relationships, ids[0], ids[2], 3);
        for w in paths.windows(2) {
            assert!(w[0].confidence() >= w[1].confidence() || w[0].hops() <= w[1].hops());
        }
    }

    #[test]
    fn datasets_lists_visited() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let paths = enumerate_paths(&idx.relationships, ids[0], ids[2], 3);
        let p = paths.iter().find(|p| p.hops() == 2).unwrap();
        assert_eq!(p.datasets(), vec![ids[0], ids[1], ids[2]]);
    }
}
