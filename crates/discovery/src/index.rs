//! The index builder (§5.2): materializes the structures the DoD engine
//! consumes — an inverted index over column/dataset names, and the
//! **relationship index** of join-candidate column pairs.
//!
//! "Among other tasks, the index builder materializes join paths between
//! files, and it identifies candidate functions to map attributes to each
//! other; i.e., it facilitates the DoD's job."

use std::collections::HashMap;
use std::sync::Arc;

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
/// Edges live in **append-only segments behind `Arc`s**, so an
/// incrementally-extended index shares its predecessor's edge storage
/// instead of cloning it — extension cost is proportional to the *new*
/// edges, not the catalog. Edge order is the deterministic enumeration
/// order of the builds that produced each segment (entries in id order,
/// pairs lower-id-first), so replaying the same registration history
/// always yields the same index.
#[derive(Debug, Default, Clone)]
pub struct RelationshipIndex {
    /// Append-only edge segments (one per build/extension step).
    segments: Vec<Arc<Vec<JoinCandidate>>>,
    /// dataset -> `(segment, offset)` refs into `segments` (either side).
    by_dataset: HashMap<DatasetId, Vec<(u32, u32)>>,
}

impl RelationshipIndex {
    /// An index holding one segment of freshly-built edges.
    fn from_edges(edges: Vec<JoinCandidate>) -> Self {
        RelationshipIndex::default().appended(edges)
    }

    /// A new index sharing this one's segments plus `new_edges` as one
    /// more segment. O(new edges + adjacency refs); the existing edge
    /// storage is shared, not copied.
    fn appended(&self, new_edges: Vec<JoinCandidate>) -> Self {
        let mut idx = self.clone();
        if new_edges.is_empty() {
            return idx;
        }
        let seg = idx.segments.len() as u32;
        for (i, e) in new_edges.iter().enumerate() {
            idx.by_dataset
                .entry(e.left.dataset)
                .or_default()
                .push((seg, i as u32));
            idx.by_dataset
                .entry(e.right.dataset)
                .or_default()
                .push((seg, i as u32));
        }
        idx.segments.push(Arc::new(new_edges));
        idx
    }
}

impl RelationshipIndex {
    /// All edges, in segment order.
    pub fn edges(&self) -> impl Iterator<Item = &JoinCandidate> {
        self.segments.iter().flat_map(|s| s.iter())
    }

    /// Edges incident to a dataset.
    pub fn edges_of(&self, d: DatasetId) -> impl Iterator<Item = &JoinCandidate> {
        self.by_dataset
            .get(&d)
            .into_iter()
            .flatten()
            .map(move |&(seg, i)| &self.segments[seg as usize][i as usize])
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// True iff the index has no edges.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.is_empty())
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
        let cols = collect_cols(entries);
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

    /// **Incrementally extend** `base` (built over `old_entries`) with
    /// `new_entries`: new columns are compared against the whole catalog
    /// — O(new × all) pair work instead of the full O(all²) rebuild —
    /// and the existing edge segments are *shared*, not copied. The
    /// result contains exactly the edges a fresh [`IndexBuilder::build`]
    /// over the union would find (pinned by test), differing only in
    /// storage order. This is the paper's "fully-incremental" metadata
    /// engine claim made real: steady-state ingestion cost is
    /// proportional to what changed, not to the catalog.
    pub fn extend(
        &self,
        base: &Indexes,
        old_entries: &[DatasetEntry],
        new_entries: &[DatasetEntry],
    ) -> Indexes {
        let mut idx = Indexes {
            name_index: base.name_index.clone(),
            dataset_index: base.dataset_index.clone(),
            relationships: RelationshipIndex::default(),
        };
        self.build_name_indexes(new_entries, &mut idx);

        let old_cols = collect_cols(old_entries);
        let new_cols = collect_cols(new_entries);
        let mut new_edges = Vec::new();
        for n in &new_cols {
            for o in &old_cols {
                // Canonical orientation: lower dataset id on the left
                // (new entries always carry higher ids than old ones).
                if let Some(edge) = self.compare(o, n) {
                    new_edges.push(edge);
                }
            }
        }
        for i in 0..new_cols.len() {
            for j in (i + 1)..new_cols.len() {
                if let Some(edge) = self.compare(&new_cols[i], &new_cols[j]) {
                    new_edges.push(edge);
                }
            }
        }
        idx.relationships = base.relationships.appended(new_edges);
        idx
    }
}

/// One column's identity + profile, flattened for pair comparison.
struct ColInfo<'a> {
    dataset: DatasetId,
    profile: &'a ColumnProfile,
}

fn collect_cols(entries: &[DatasetEntry]) -> Vec<ColInfo<'_>> {
    entries
        .iter()
        .flat_map(|e| {
            e.latest_snapshot().profiles.iter().map(move |p| ColInfo {
                dataset: e.id,
                profile: p,
            })
        })
        .collect()
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

    /// Canonical comparison form: the edge *set*, sorted (incremental
    /// extension may store edges in a different segment order).
    fn edge_keys(idx: &Indexes) -> Vec<(DatasetId, String, DatasetId, String, u64)> {
        let mut keys: Vec<_> = idx
            .relationships
            .edges()
            .map(|e| {
                (
                    e.left.dataset,
                    e.left.column.clone(),
                    e.right.dataset,
                    e.right.column.clone(),
                    e.jaccard.to_bits(),
                )
            })
            .collect();
        keys.sort();
        keys
    }

    #[test]
    fn incremental_extension_matches_full_rebuild() {
        let eng = lake();
        let builder = IndexBuilder::new();
        let entries_before = eng.entries();
        let base = builder.build(&eng);

        // Grow the catalog: one related table, one unrelated.
        let mut b = RelationBuilder::new("invoices")
            .column("invoice_id", DataType::Int)
            .column("customer", DataType::Int);
        for i in 0..150 {
            b = b.row(vec![Value::Int(50_000 + i), Value::Int(i % 200)]);
        }
        eng.register("invoices", "dave", b.build().unwrap());
        let mut b = RelationBuilder::new("notes").column("text", DataType::Str);
        for i in 0..10 {
            b = b.row(vec![Value::str(format!("note {i}"))]);
        }
        eng.register("notes", "erin", b.build().unwrap());

        let entries_after = eng.entries();
        let new_entries = &entries_after[entries_before.len()..];
        let extended = builder.extend(&base, &entries_before, new_entries);
        let full = builder.build(&eng);

        assert_eq!(
            edge_keys(&extended),
            edge_keys(&full),
            "incremental extension must be indistinguishable from a rebuild"
        );
        assert_eq!(extended.name_index, full.name_index);
        assert_eq!(extended.dataset_index, full.dataset_index);
        // The new join edge is actually found via the incremental path.
        let ids = eng.ids();
        assert!(
            extended
                .relationships
                .edges_of(ids[3])
                .any(|e| e.left.dataset == ids[0] || e.right.dataset == ids[0]),
            "customers~invoices edge expected"
        );
    }

    #[test]
    fn cached_indexes_are_reused_and_track_mutations() {
        let eng = lake();
        let a = eng.cached_indexes();
        let b = eng.cached_indexes();
        assert!(Arc::ptr_eq(&a, &b), "same generation must share one build");

        // Appending a dataset produces a fresh (extended) index that
        // matches a from-scratch build.
        let mut rb = RelationBuilder::new("extra").column("cust_id", DataType::Int);
        for i in 0..120 {
            rb = rb.row(vec![Value::Int(i)]);
        }
        eng.register("extra", "frank", rb.build().unwrap());
        let c = eng.cached_indexes();
        assert!(!Arc::ptr_eq(&a, &c), "mutation must invalidate the cache");
        assert_eq!(edge_keys(&c), edge_keys(&IndexBuilder::new().build(&eng)));

        // A tag on an existing entry changes the name indexes too.
        let ids = eng.ids();
        eng.add_tag(ids[0], "gold");
        let d = eng.cached_indexes();
        assert!(d.dataset_index.contains_key("gold"));
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
