//! Discovery queries (§5, "Data Discovery"): "identify a few datasets that
//! are relevant to a WTP-function among thousands of diverse heterogeneous
//! datasets".
//!
//! [`DiscoveryEngine`] bundles the metadata engine and built indexes and
//! answers the two query shapes the DoD engine needs: by keyword and by
//! target schema (query-by-example attribute names).

use std::collections::HashMap;

use dmp_relation::DatasetId;

use crate::index::{tokenize, Indexes};
use crate::metadata::{ColumnRef, MetadataEngine};

/// A scored search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// The matching column.
    pub column: ColumnRef,
    /// Relevance score in [0, 1].
    pub score: f64,
}

/// Discovery queries over a *built* snapshot of the metadata engine's
/// indexes; datasets ingested later need a new `DiscoveryEngine`.
/// Default-threshold indexes come from the metadata engine's
/// generation-keyed cache ([`MetadataEngine::cached_indexes`]), so
/// constructing a `DiscoveryEngine` per query is cheap: the O(columns²)
/// relationship index is built once per catalog version, not once per
/// caller.
pub struct DiscoveryEngine {
    indexes: std::sync::Arc<Indexes>,
}

impl DiscoveryEngine {
    /// Indexes over the engine's current contents (cached per catalog
    /// generation).
    pub fn new(engine: &MetadataEngine) -> Self {
        DiscoveryEngine {
            indexes: engine.cached_indexes(),
        }
    }

    /// The built indexes (read-only).
    pub fn indexes(&self) -> &Indexes {
        &self.indexes
    }

    /// Keyword search over column names: each query token votes for the
    /// columns whose name contains it; score = matched / query tokens.
    pub fn search_columns(&self, query: &str) -> Vec<SearchHit> {
        let tokens = tokenize(query);
        if tokens.is_empty() {
            return Vec::new();
        }
        let mut votes: HashMap<ColumnRef, usize> = HashMap::new();
        for t in &tokens {
            if let Some(cols) = self.indexes.name_index.get(t) {
                for c in cols {
                    *votes.entry(c.clone()).or_insert(0) += 1;
                }
            }
        }
        let mut hits: Vec<SearchHit> = votes
            .into_iter()
            .map(|(column, v)| SearchHit {
                column,
                score: v as f64 / tokens.len() as f64,
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.column.dataset.cmp(&b.column.dataset))
                .then_with(|| a.column.column.cmp(&b.column.column))
        });
        hits
    }

    /// Dataset search over names and tags.
    pub fn search_datasets(&self, query: &str) -> Vec<(DatasetId, f64)> {
        let tokens = tokenize(query);
        if tokens.is_empty() {
            return Vec::new();
        }
        let mut votes: HashMap<DatasetId, usize> = HashMap::new();
        for t in &tokens {
            if let Some(ds) = self.indexes.dataset_index.get(t) {
                for d in ds {
                    *votes.entry(*d).or_insert(0) += 1;
                }
            }
        }
        let mut hits: Vec<(DatasetId, f64)> = votes
            .into_iter()
            .map(|(d, v)| (d, v as f64 / tokens.len() as f64))
            .collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        hits
    }

    /// For a query-by-example target attribute, find candidate source
    /// columns: name matches boosted by key-ness. This is the entry point
    /// the DoD engine uses per requested attribute (§5.3).
    pub fn candidates_for_attribute(&self, attribute: &str) -> Vec<SearchHit> {
        let mut hits = self.search_columns(attribute);
        // Exact (case-insensitive) name matches rank first.
        for h in &mut hits {
            if h.column.column.eq_ignore_ascii_case(attribute) {
                h.score += 1.0;
            }
        }
        hits.sort_by(|a, b| b.score.total_cmp(&a.score));
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_relation::{DataType, RelationBuilder, Value};

    fn engine() -> MetadataEngine {
        let eng = MetadataEngine::new();
        let mut b = RelationBuilder::new("eu_customers")
            .column("customer_id", DataType::Int)
            .column("customer_name", DataType::Str);
        for i in 0..100 {
            b = b.row(vec![Value::Int(i), Value::str(format!("name{i}"))]);
        }
        eng.register("eu_customers", "a", b.build().unwrap());

        let mut b = RelationBuilder::new("sales_2024")
            .column("customer_id", DataType::Int)
            .column("amount", DataType::Float);
        for i in 0..300 {
            b = b.row(vec![Value::Int(i % 100), Value::Float(i as f64)]);
        }
        eng.register("sales_2024", "b", b.build().unwrap());

        // A near-duplicate of customer_name: the paper's b' column.
        let mut b = RelationBuilder::new("crm_dump")
            .column("client", DataType::Str)
            .column("phone", DataType::Str);
        for i in 0..100 {
            let name = if i < 90 {
                format!("name{i}")
            } else {
                format!("other{i}")
            };
            b = b.row(vec![Value::str(name), Value::str(format!("+1-{i:04}"))]);
        }
        eng.register("crm_dump", "c", b.build().unwrap());
        eng
    }

    #[test]
    fn keyword_search_ranks_full_matches_first() {
        let eng = engine();
        let d = DiscoveryEngine::new(&eng);
        let hits = d.search_columns("customer id");
        assert!(!hits.is_empty());
        assert_eq!(hits[0].column.column, "customer_id");
        assert!((hits[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dataset_search_matches_names() {
        let eng = engine();
        let d = DiscoveryEngine::new(&eng);
        let hits = d.search_datasets("sales");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn attribute_candidates_prefer_exact_name() {
        let eng = engine();
        let d = DiscoveryEngine::new(&eng);
        let hits = d.candidates_for_attribute("amount");
        assert_eq!(hits[0].column.column, "amount");
        assert!(hits[0].score > 1.0);
    }

    #[test]
    fn empty_query_yields_nothing() {
        let eng = engine();
        let d = DiscoveryEngine::new(&eng);
        assert!(d.search_columns("").is_empty());
        assert!(d.search_datasets("??").is_empty());
    }
}
