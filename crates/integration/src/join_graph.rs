//! Join-path search and materialization over the relationship index.
//!
//! The index builder "materializes join paths between files" (§5.2); the
//! DoD engine walks those paths to assemble mashups. A [`JoinPath`] is a
//! sequence of join steps from an anchor dataset to a target dataset;
//! [`best_path`] finds the most confident acyclic one up to a hop limit
//! without materializing the others, and [`apply_steps`] joins it onto an
//! accumulator with provenance-preserving hash joins.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

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

/// Join `steps` onto `acc`, an already-materialized relation, and return
/// the result. Used by the DoD engine to chain several paths from the
/// same anchor. A step whose target dataset is already in `acc` (joined
/// by an earlier path) is skipped; when every step is, the result is a
/// copy of `acc`.
///
/// Each step joins on its `from_column` by exact name. A join keeps
/// every left-hand name and suffixes only right-hand clashes, so a
/// column of a dataset already in `acc` is either present under its
/// own name or shadowed by a same-named column that is; a missing name
/// means the step's left dataset was never joined, and the step fails
/// with [`RelError::UnknownColumn`].
pub fn apply_steps(
    acc: &Relation,
    steps: &[JoinStep],
    engine: &MetadataEngine,
) -> RelResult<Relation> {
    let mut joined: Option<Relation> = None;
    for step in steps {
        let right = engine
            .relation(step.to_dataset)
            .ok_or_else(|| RelError::Invalid(format!("unknown dataset {}", step.to_dataset)))?;
        let cur = joined.as_ref().unwrap_or(acc);
        if cur.schema().contains(&step.to_column) && contains_dataset(cur, step.to_dataset) {
            continue; // already joined this dataset in an earlier path
        }
        joined = Some(cur.join(
            &right,
            &[(step.from_column.as_str(), step.to_column.as_str())],
            dmp_relation::ops::JoinKind::Inner,
        )?);
    }
    Ok(joined.unwrap_or_else(|| acc.clone()))
}

/// Does any row of `rel` descend from a row of `dataset`?
fn contains_dataset(rel: &Relation, dataset: DatasetId) -> bool {
    rel.rows()
        .iter()
        .any(|r| r.provenance().atoms().iter().any(|a| a.dataset == dataset))
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
        apply_steps(&anchor, &path.steps, eng).unwrap()
    }

    #[test]
    fn steps_into_datasets_already_joined_return_the_input_unchanged() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let path = best_path(&idx.relationships, ids[0], ids[2], 3).unwrap();
        let joined = anchored(&path, &eng);
        let again = apply_steps(&joined, &path.steps, &eng).unwrap();
        assert_eq!(again, joined);
    }

    #[test]
    fn a_step_from_a_dataset_never_joined_fails_instead_of_binding_a_suffixed_name() {
        let eng = lake();
        // Native columns `customer_r` and `product`, no `customer`.
        let mut b = RelationBuilder::new("decoy")
            .column("customer_r", DataType::Int)
            .column("product", DataType::Int);
        for i in 0..100 {
            b = b.row(vec![Value::Int(i), Value::Int(1000 + i % 20)]);
        }
        let decoy = eng.register("decoy", "d", b.build().unwrap());
        let ids = eng.ids();
        // orders.customer -> customers.cust_id, applied to a relation
        // that never joined `orders`.
        let step = JoinStep {
            from_dataset: ids[1],
            from_column: "customer".into(),
            to_dataset: ids[0],
            to_column: "cust_id".into(),
            confidence: 1.0,
        };
        let acc = eng.relation(decoy).unwrap();
        assert_eq!(
            apply_steps(&acc, &[step], &eng),
            Err(RelError::UnknownColumn("customer".into()))
        );
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
