//! The index builder (§5.2): materializes the structures the DoD engine
//! consumes — an inverted index over column/dataset names, and the
//! **relationship index** of join-candidate column pairs.
//!
//! "Among other tasks, the index builder materializes join paths between
//! files, and it identifies candidate functions to map attributes to each
//! other; i.e., it facilitates the DoD's job."

use std::collections::HashMap;

use dmp_relation::DatasetId;

use crate::metadata::{ColumnRef, DatasetEntry, MetadataEngine};
use crate::profile::ColumnProfile;

/// A candidate join edge between two columns, scored by content overlap.
#[derive(Debug, Clone)]
pub struct JoinCandidate {
    /// Left column.
    pub left: ColumnRef,
    /// Right column.
    pub right: ColumnRef,
    /// Estimated Jaccard similarity of value sets.
    pub jaccard: f64,
    /// Estimated containment of left values in right values.
    pub containment_l_in_r: f64,
    /// Estimated containment of right values in left values.
    pub containment_r_in_l: f64,
    /// Whether either side looks like a key column.
    pub keyish: bool,
}

impl JoinCandidate {
    /// A single score for ranking: max containment, with a small bonus
    /// when one side is key-like (PK–FK joins are the common case).
    pub fn score(&self) -> f64 {
        let c = self.containment_l_in_r.max(self.containment_r_in_l);
        c + if self.keyish { 0.05 } else { 0.0 }
    }
}

/// The relationship index: all join candidates above threshold, plus
/// adjacency lists for join-path search.
///
/// Edge order is the full build's enumeration order and nothing else:
/// columns in dataset-id order, then column order, each pair
/// lower-column-first. [`crate::MetadataEngine::cached_indexes`] builds
/// the index afresh for every catalogue version, so the order depends
/// only on the catalogue's contents. Join-path search keeps the first
/// of equally confident paths, so a replica restored from an image
/// walks the same edges as one that never stopped.
#[derive(Debug, Default, Clone)]
pub struct RelationshipIndex {
    /// Every edge, in enumeration order.
    edges: Vec<JoinCandidate>,
    /// dataset -> indexes into `edges` (either side), ascending.
    by_dataset: HashMap<DatasetId, Vec<usize>>,
}

impl RelationshipIndex {
    fn from_edges(edges: Vec<JoinCandidate>) -> Self {
        let mut by_dataset: HashMap<DatasetId, Vec<usize>> = HashMap::new();
        for (i, e) in edges.iter().enumerate() {
            by_dataset.entry(e.left.dataset).or_default().push(i);
            by_dataset.entry(e.right.dataset).or_default().push(i);
        }
        RelationshipIndex { edges, by_dataset }
    }

    /// All edges, in enumeration order.
    pub fn edges(&self) -> impl Iterator<Item = &JoinCandidate> {
        self.edges.iter()
    }

    /// Edges incident to a dataset, in enumeration order.
    pub fn edges_of(&self, d: DatasetId) -> impl Iterator<Item = &JoinCandidate> {
        self.by_dataset
            .get(&d)
            .into_iter()
            .flatten()
            .map(move |&i| &self.edges[i])
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True iff the index has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Tokenize an identifier for the name index: lowercase, split on
/// non-alphanumerics and camelCase boundaries.
pub fn tokenize(name: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let chars: Vec<char> = name.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        let boundary =
            !c.is_alphanumeric() || (c.is_uppercase() && i > 0 && chars[i - 1].is_lowercase());
        if boundary && !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur).to_lowercase());
        }
        if c.is_alphanumeric() {
            cur.push(c);
        }
    }
    if !cur.is_empty() {
        tokens.push(cur.to_lowercase());
    }
    tokens
}

/// The index builder: consumes the metadata engine's output schema and
/// produces the name index + relationship index.
#[derive(Debug)]
pub struct IndexBuilder {
    /// Minimum containment for a join candidate (default 0.8).
    pub min_containment: f64,
    /// Minimum Jaccard for a *similarity* (fusion) candidate (default 0.5).
    pub min_jaccard: f64,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        IndexBuilder {
            min_containment: 0.8,
            min_jaccard: 0.5,
        }
    }
}

/// Built indexes handed to the search layer and DoD engine.
#[derive(Debug, Default, Clone)]
pub struct Indexes {
    /// token -> column refs whose name contains the token.
    pub name_index: HashMap<String, Vec<ColumnRef>>,
    /// token -> dataset ids whose name/tags contain the token.
    pub dataset_index: HashMap<String, Vec<DatasetId>>,
    /// Join candidates.
    pub relationships: RelationshipIndex,
}

impl IndexBuilder {
    /// Create with default thresholds.
    pub fn new() -> Self {
        IndexBuilder::default()
    }

    /// Build all indexes from the engine's current state.
    pub fn build(&self, engine: &MetadataEngine) -> Indexes {
        let entries = engine.entries();
        let mut idx = Indexes::default();
        self.build_name_indexes(&entries, &mut idx);
        idx.relationships = self.build_relationships(&entries);
        idx
    }

    fn build_name_indexes(&self, entries: &[DatasetEntry], idx: &mut Indexes) {
        for e in entries {
            for tok in tokenize(&e.name)
                .into_iter()
                .chain(e.tags.iter().flat_map(|t| tokenize(t)))
            {
                let v = idx.dataset_index.entry(tok).or_default();
                if !v.contains(&e.id) {
                    v.push(e.id);
                }
            }
            for p in &e.latest_snapshot().profiles {
                for tok in tokenize(&p.name) {
                    let cr = ColumnRef::new(e.id, p.name.clone());
                    let v = idx.name_index.entry(tok).or_default();
                    if !v.contains(&cr) {
                        v.push(cr);
                    }
                }
            }
        }
    }

    /// All-pairs column comparison via signatures. O(C²) over columns with
    /// cheap per-pair work — adequate at the thousands-of-tables scale the
    /// paper targets for a first system (and exactly what the F3 benchmark
    /// measures).
    fn build_relationships(&self, entries: &[DatasetEntry]) -> RelationshipIndex {
        let cols: Vec<ColInfo<'_>> = entries
            .iter()
            .flat_map(|e| {
                e.latest_snapshot().profiles.iter().map(move |p| ColInfo {
                    dataset: e.id,
                    profile: p,
                })
            })
            .collect();
        let mut edges = Vec::new();
        for i in 0..cols.len() {
            for j in (i + 1)..cols.len() {
                if let Some(edge) = self.compare(&cols[i], &cols[j]) {
                    edges.push(edge);
                }
            }
        }
        RelationshipIndex::from_edges(edges)
    }

    /// Score one column pair against the thresholds; `a` must come from
    /// the lower-id dataset so edge orientation is canonical.
    fn compare(&self, a: &ColInfo<'_>, b: &ColInfo<'_>) -> Option<JoinCandidate> {
        if a.dataset == b.dataset {
            return None; // self-joins are out of scope for discovery
        }
        let pa = a.profile;
        let pb = b.profile;
        // Cheap type gate before touching signatures.
        if !pa.dtype.unify(pb.dtype).is_numeric() && pa.dtype != pb.dtype {
            return None;
        }
        if pa.signature.is_empty() || pb.signature.is_empty() {
            return None;
        }
        let jaccard = pa.content_similarity(pb);
        let c_ab = pa.containment_in(pb);
        let c_ba = pb.containment_in(pa);
        if jaccard >= self.min_jaccard
            || c_ab >= self.min_containment
            || c_ba >= self.min_containment
        {
            Some(JoinCandidate {
                left: ColumnRef::new(a.dataset, pa.name.clone()),
                right: ColumnRef::new(b.dataset, pb.name.clone()),
                jaccard,
                containment_l_in_r: c_ab,
                containment_r_in_l: c_ba,
                keyish: pa.looks_like_key() || pb.looks_like_key(),
            })
        } else {
            None
        }
    }
}

/// One column's identity + profile, flattened for pair comparison.
struct ColInfo<'a> {
    dataset: DatasetId,
    profile: &'a ColumnProfile,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_relation::{DataType, RelationBuilder, Value};
    use std::sync::Arc;

    fn lake() -> MetadataEngine {
        let eng = MetadataEngine::new();
        // customers(cust_id key, region)
        let mut b = RelationBuilder::new("customers")
            .column("cust_id", DataType::Int)
            .column("region", DataType::Str);
        for i in 0..200 {
            b = b.row(vec![
                Value::Int(i),
                Value::str(if i % 2 == 0 { "eu" } else { "us" }),
            ]);
        }
        eng.register("customers", "alice", b.build().unwrap());
        // orders(order_id, customer -> customers.cust_id)
        let mut b = RelationBuilder::new("orders")
            .column("order_id", DataType::Int)
            .column("customer", DataType::Int);
        for i in 0..500 {
            b = b.row(vec![Value::Int(10_000 + i), Value::Int(i % 200)]);
        }
        eng.register("orders", "bob", b.build().unwrap());
        // weather(city, temp) — unrelated
        let mut b = RelationBuilder::new("weather")
            .column("city", DataType::Str)
            .column("temp", DataType::Float);
        for i in 0..50 {
            // Non-integral floats: integral ones would canonicalize to the
            // same reprs as customer ids and legitimately register as
            // containment edges.
            b = b.row(vec![
                Value::str(format!("city{i}")),
                Value::Float(i as f64 + 0.25),
            ]);
        }
        eng.register("weather", "carol", b.build().unwrap());
        eng
    }

    /// One edge's identity and score, for comparing indexes edge by
    /// edge in order.
    type EdgeKey = (ColumnRef, ColumnRef, u64, u64, u64, bool);

    fn keys<'a>(edges: impl Iterator<Item = &'a JoinCandidate>) -> Vec<EdgeKey> {
        edges
            .map(|e| {
                (
                    e.left.clone(),
                    e.right.clone(),
                    e.jaccard.to_bits(),
                    e.containment_l_in_r.to_bits(),
                    e.containment_r_in_l.to_bits(),
                    e.keyish,
                )
            })
            .collect()
    }

    /// The cached index equals a fresh build edge for edge, in order,
    /// both overall and per dataset.
    fn assert_same_order(cached: &Indexes, eng: &MetadataEngine) {
        let fresh = IndexBuilder::new().build(eng);
        let (c, f) = (&cached.relationships, &fresh.relationships);
        assert_eq!(keys(c.edges()), keys(f.edges()));
        for id in eng.ids() {
            assert_eq!(keys(c.edges_of(id)), keys(f.edges_of(id)), "{id:?}");
        }
        assert_eq!(cached.name_index, fresh.name_index);
        assert_eq!(cached.dataset_index, fresh.dataset_index);
    }

    #[test]
    fn cached_indexes_are_reused_and_track_mutations() {
        let eng = lake();
        let a = eng.cached_indexes();
        let b = eng.cached_indexes();
        assert!(Arc::ptr_eq(&a, &b), "same generation must share one build");

        // A table with two joinable key columns, registered after a
        // cached build: `hub` joins `spoke` on both `k1 ~ y` and
        // `k2 ~ x`, and the cached index must list them in the order a
        // fresh build does.
        let mut rb = RelationBuilder::new("hub")
            .column("k1", DataType::Int)
            .column("k2", DataType::Int);
        for i in 0..100 {
            rb = rb.row(vec![Value::Int(i), Value::Int(1000 + i)]);
        }
        let hub = eng.register("hub", "frank", rb.build().unwrap());
        assert_same_order(&eng.cached_indexes(), &eng);
        let mut rb = RelationBuilder::new("spoke")
            .column("x", DataType::Int)
            .column("y", DataType::Int);
        for i in 0..100 {
            rb = rb.row(vec![Value::Int(1000 + i), Value::Int((i + 1) % 100)]);
        }
        let spoke = eng.register("spoke", "grace", rb.build().unwrap());
        let c = eng.cached_indexes();
        assert!(!Arc::ptr_eq(&a, &c), "mutation must invalidate the cache");
        let hub_spoke: Vec<_> = c
            .relationships
            .edges_of(hub)
            .filter(|e| e.right.dataset == spoke)
            .map(|e| (e.left.column.as_str(), e.right.column.as_str()))
            .collect();
        assert_eq!(hub_spoke, [("k1", "y"), ("k2", "x")]);
        assert_same_order(&c, &eng);

        // A tag on an existing entry changes the name indexes too.
        let ids = eng.ids();
        eng.add_tag(ids[0], "gold");
        let d = eng.cached_indexes();
        assert!(d.dataset_index.contains_key("gold"));
        assert_same_order(&d, &eng);
    }

    #[test]
    fn finds_pk_fk_candidate() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let edges: Vec<_> = idx.relationships.edges_of(ids[0]).collect();
        assert!(
            edges.iter().any(|e| {
                (e.left.column == "cust_id" && e.right.column == "customer")
                    || (e.left.column == "customer" && e.right.column == "cust_id")
            }),
            "expected cust_id~customer candidate, got {edges:?}"
        );
    }

    #[test]
    fn unrelated_datasets_have_no_edges() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let ids = eng.ids();
        let weather = ids[2];
        // weather.temp is numeric like ids, but value ranges barely overlap;
        // city is a string column with disjoint content.
        assert!(
            idx.relationships
                .edges_of(ids[0])
                .filter(|e| e.left.dataset == weather || e.right.dataset == weather)
                .all(|e| e.score() < 0.9),
            "no high-confidence edge to weather expected"
        );
    }

    #[test]
    fn name_index_tokenizes() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        // "cust_id" tokenizes to ["cust", "id"]
        assert!(idx.name_index.contains_key("cust"));
        assert!(idx.name_index.contains_key("id"));
        assert!(idx.dataset_index.contains_key("orders"));
    }

    #[test]
    fn tokenizer_splits_camel_and_snake() {
        assert_eq!(tokenize("custId"), vec!["cust", "id"]);
        assert_eq!(tokenize("cust_id"), vec!["cust", "id"]);
        assert_eq!(tokenize("CustomerName2"), vec!["customer", "name2"]);
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn keyish_flag_set_for_pk() {
        let eng = lake();
        let idx = IndexBuilder::new().build(&eng);
        let edge = idx
            .relationships
            .edges()
            .find(|e| e.left.column == "cust_id" || e.right.column == "cust_id");
        if let Some(e) = edge {
            assert!(e.keyish);
        }
    }

    #[test]
    fn tag_appears_in_dataset_index() {
        let eng = lake();
        let id = eng.ids()[2];
        eng.add_tag(id, "forecast signals");
        let idx = IndexBuilder::new().build(&eng);
        assert!(idx.dataset_index["forecast"].contains(&id));
    }
}
