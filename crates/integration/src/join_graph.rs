//! Join-path search and materialization over the relationship index.
//!
//! The index builder "materializes join paths between files" (§5.2); the
//! DoD engine walks those paths to assemble mashups. A [`JoinPath`] is a
//! sequence of join steps from an anchor dataset to a target dataset;
//! [`best_path`] finds the most confident acyclic one up to a hop limit
//! without materializing the others, and [`apply_steps`] joins it onto an
//! accumulator with provenance-preserving hash joins.

use std::cmp::Ordering;
use std::iter::successors;

use dmp_discovery::{JoinCandidate, MetadataEngine, RelationshipIndex};
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

/// [`best_path`] stops once this many paths have reached the target.
const MAX_PATHS: usize = 64;

/// The most confident acyclic join path from `from` to `to` within
/// `max_hops` hops, or `None` when `to` is out of reach.
///
/// A depth-first search over [`RelationshipIndex::edges_of`] that never
/// revisits a dataset and stops once 64 paths have reached `to`. Of the
/// paths found, the winner has the highest confidence (the product of
/// its steps' confidences, compared by `total_cmp`), then the fewest
/// hops, then was found first. The frontier is an arena of
/// `(parent, edge, forward)` hops; [`JoinStep`]s are built for the
/// returned path only.
pub fn best_path(
    index: &RelationshipIndex,
    from: DatasetId,
    to: DatasetId,
    max_hops: usize,
) -> Option<JoinPath> {
    /// One hop: the arena index of the hop before it, the edge, and
    /// whether the edge is walked left to right.
    type Hop<'a> = (Option<usize>, &'a JoinCandidate, bool);
    let target = |&(_, edge, forward): &Hop| {
        if forward {
            edge.right.dataset
        } else {
            edge.left.dataset
        }
    };

    let mut arena: Vec<Hop> = Vec::new();
    // DFS stack: (last hop, current dataset, hops, confidence so far).
    let mut stack: Vec<(Option<usize>, DatasetId, usize, f64)> = Vec::new();
    if max_hops > 0 {
        stack.push((None, from, 0, 1.0));
    }
    let mut found = 0usize;
    // (confidence, hops, last hop) of the best path so far.
    let mut best: Option<(f64, usize, usize)> = None;

    while let Some((tip, cur, hops, confidence)) = stack.pop() {
        if found >= MAX_PATHS {
            break;
        }
        for edge in index.edges_of(cur) {
            let hop = (tip, edge, edge.left.dataset == cur);
            let td = target(&hop);
            if td == from || successors(tip, |&i| arena[i].0).any(|i| target(&arena[i]) == td) {
                continue;
            }
            let confidence = confidence * edge.score().min(1.0);
            if td == to {
                found += 1;
                let better = best.is_none_or(|(c, h, _)| {
                    confidence.total_cmp(&c).then(h.cmp(&(hops + 1))) == Ordering::Greater
                });
                if better {
                    arena.push(hop);
                    best = Some((confidence, hops + 1, arena.len() - 1));
                }
            } else if hops + 1 < max_hops {
                arena.push(hop);
                stack.push((Some(arena.len() - 1), td, hops + 1, confidence));
            }
        }
    }

    let (_, _, last) = best?;
    let mut steps: Vec<JoinStep> = successors(Some(last), |&i| arena[i].0)
        .map(|i| {
            let (_, edge, forward) = arena[i];
            let (l, r) = if forward {
                (&edge.left, &edge.right)
            } else {
                (&edge.right, &edge.left)
            };
            JoinStep {
                from_dataset: l.dataset,
                from_column: l.column.clone(),
                to_dataset: r.dataset,
                to_column: r.column.clone(),
                confidence: edge.score().min(1.0),
            }
        })
        .collect();
    steps.reverse();
    Some(JoinPath { steps })
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
        let path = best_path(&idx.relationships, ids[0], ids[1], 2).unwrap();
        assert_eq!(path.hops(), 1);
        assert!(path.confidence() > 0.5);
    }

    #[test]
    fn finds_two_hop_path() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let path = best_path(&idx.relationships, ids[0], ids[2], 3);
        assert!(
            path.iter().any(|p| p.hops() == 2),
            "expected customers→orders→products path, got {path:?}"
        );
    }

    #[test]
    fn hop_limit_respected() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let path = best_path(&idx.relationships, ids[0], ids[2], 1);
        assert!(path.iter().all(|p| p.hops() <= 1));
    }

    #[test]
    fn materialize_single_hop() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let path = best_path(&idx.relationships, ids[0], ids[1], 2).unwrap();
        let rel = anchored(&path, &eng);
        assert_eq!(rel.len(), 300); // every order matches a customer
        assert!(rel.schema().contains("region"));
        assert!(rel.schema().contains("product"));
    }

    #[test]
    fn materialize_two_hops_reaches_price() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let path = best_path(&idx.relationships, ids[0], ids[2], 3);
        let two_hop = path.iter().find(|p| p.hops() == 2).unwrap();
        let rel = anchored(two_hop, &eng);
        assert!(rel.schema().contains("price"));
        assert_eq!(rel.len(), 300);
        // provenance of each row spans all three datasets
        assert_eq!(rel.rows()[0].provenance().datasets().len(), 3);
    }

    #[test]
    fn datasets_lists_visited() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let p = best_path(&idx.relationships, ids[0], ids[2], 3).unwrap();
        assert_eq!(p.hops(), 2);
        assert_eq!(p.datasets(), vec![ids[0], ids[1], ids[2]]);
    }
}
