//! The DoD (dataset-on-demand) engine (§5.3): "takes WTP-functions as
//! input and produces mashups that fulfill the WTP-function requests as
//! output. It uses the indexes built by the index builder, the output
//! schema generated by the metadata engine, as well as the raw data."
//!
//! The query-by-example interface is a [`TargetSpec`]: the attribute names
//! the buyer wants (plus optional keywords and a row minimum). The engine
//! finds candidate source columns per attribute, picks anchor datasets,
//! plans join paths to cover the remaining attributes, materializes the
//! joins, and returns ranked [`MashupCandidate`]s.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::{BTreeMap, BTreeSet};

use dmp_discovery::{ColumnRef, DiscoveryEngine, MetadataEngine};
use dmp_relation::{DatasetId, RelResult, Relation};

use crate::join_graph::{apply_steps, best_path};

/// A query-by-example description of the mashup a buyer wants.
#[derive(Debug, Clone, Default)]
pub struct TargetSpec {
    /// Required attribute names (the example's ⟨a, b, d, e⟩).
    pub attributes: Vec<String>,
    /// Optional topic keywords restricting anchor datasets.
    pub keywords: Vec<String>,
    /// Minimum number of rows the mashup must have.
    pub min_rows: usize,
}

impl TargetSpec {
    /// Spec requiring the given attributes.
    pub fn with_attributes<S: Into<String>>(attrs: impl IntoIterator<Item = S>) -> Self {
        TargetSpec {
            attributes: attrs.into_iter().map(Into::into).collect(),
            ..Default::default()
        }
    }

    /// Add topic keywords.
    pub fn keywords<S: Into<String>>(mut self, kws: impl IntoIterator<Item = S>) -> Self {
        self.keywords = kws.into_iter().map(Into::into).collect();
        self
    }

    /// Require at least `n` rows.
    pub fn min_rows(mut self, n: usize) -> Self {
        self.min_rows = n;
        self
    }
}

/// One materialized mashup candidate.
#[derive(Debug, Clone)]
pub struct MashupCandidate {
    /// The mashup, projected and renamed to the requested attributes
    /// (missing attributes are absent).
    pub relation: Relation,
    /// requested attribute -> source column that supplied it.
    pub bindings: Vec<(String, ColumnRef)>,
    /// Fraction of requested attributes covered.
    pub coverage: f64,
    /// Product of join-path confidences used (1.0 for single-dataset).
    pub confidence: f64,
    /// Datasets contributing to the mashup.
    pub datasets: Vec<DatasetId>,
}

impl MashupCandidate {
    /// Ranking score: coverage dominates, then confidence, then size.
    pub fn score(&self) -> f64 {
        let size_bonus = (self.relation.len().min(1000) as f64 / 1000.0) * 0.05;
        self.coverage * 10.0 + self.confidence + size_bonus
    }

    /// Missing requested attributes (for negotiation rounds, §4.1).
    pub fn missing<'s>(&self, spec: &'s TargetSpec) -> Vec<&'s str> {
        spec.attributes
            .iter()
            .filter(|a| !self.bindings.iter().any(|(b, _)| b == *a))
            .map(String::as_str)
            .collect()
    }
}

/// The DoD engine. Holds a discovery snapshot over the metadata engine.
pub struct DodEngine<'a> {
    engine: &'a MetadataEngine,
    discovery: DiscoveryEngine,
}

impl<'a> DodEngine<'a> {
    /// Maximum join hops from an anchor.
    const MAX_HOPS: usize = 2;
    /// Maximum anchors explored.
    const MAX_ANCHORS: usize = 4;
    /// Maximum candidates returned.
    const MAX_CANDIDATES: usize = 8;

    /// Build over the current metadata state.
    pub fn new(engine: &'a MetadataEngine) -> Self {
        DodEngine {
            engine,
            discovery: DiscoveryEngine::new(engine),
        }
    }

    /// Produce ranked mashup candidates for a target spec.
    pub fn find_mashups(&self, spec: &TargetSpec) -> RelResult<Vec<MashupCandidate>> {
        if spec.attributes.is_empty() {
            return Ok(Vec::new());
        }
        // 1. Candidate columns per requested attribute.
        let mut per_attr: BTreeMap<&str, Vec<ColumnRef>> = BTreeMap::new();
        for attr in &spec.attributes {
            let hits = self.discovery.candidates_for_attribute(attr);
            per_attr.insert(
                attr.as_str(),
                hits.into_iter().take(8).map(|h| h.column).collect(),
            );
        }

        // 2. Rank anchor datasets by how many attributes they cover
        //    directly, filtered by keywords when given.
        let keyword_filter: Option<Vec<DatasetId>> = if spec.keywords.is_empty() {
            None
        } else {
            let mut ids: Vec<DatasetId> = Vec::new();
            for kw in &spec.keywords {
                ids.extend(
                    self.discovery
                        .search_datasets(kw)
                        .into_iter()
                        .map(|(d, _)| d),
                );
            }
            ids.sort_unstable();
            ids.dedup();
            Some(ids)
        };

        let mut anchor_cover: BTreeMap<DatasetId, usize> = BTreeMap::new();
        for cols in per_attr.values() {
            let mut seen: Vec<DatasetId> = Vec::new();
            for c in cols {
                if !seen.contains(&c.dataset) {
                    seen.push(c.dataset);
                    *anchor_cover.entry(c.dataset).or_insert(0) += 1;
                }
            }
        }
        let mut ranked: Vec<(DatasetId, usize)> = anchor_cover
            .into_iter()
            .filter(|(d, _)| keyword_filter.as_ref().is_none_or(|f| f.contains(d)))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        // Deduplicate near-identical anchors by content: a seller
        // registering many copies of one dataset must not occupy every
        // anchor slot (the duplication attack the paper's FAQ discusses —
        // "datasets can be arbitrarily similar to each other").
        let mut anchors: Vec<(DatasetId, usize)> = Vec::new();
        for (d, count) in ranked {
            if anchors.len() >= Self::MAX_ANCHORS {
                break;
            }
            let dup = anchors
                .iter()
                .any(|&(chosen, _)| self.near_duplicate(chosen, d, &per_attr));
            if !dup {
                anchors.push((d, count));
            }
        }

        // 3. Build one candidate per anchor. A single anchor failing
        //    (e.g. pathological name collisions) must not abort the
        //    search for the others.
        let mut candidates = Vec::new();
        for (anchor, _) in anchors {
            if let Ok(Some(c)) = self.build_candidate(anchor, spec, &per_attr) {
                if c.relation.len() >= spec.min_rows {
                    candidates.push(c);
                }
            }
        }
        candidates.sort_by(|a, b| b.score().total_cmp(&a.score()));
        candidates.truncate(Self::MAX_CANDIDATES);
        Ok(candidates)
    }

    /// Are two anchor datasets near-duplicates w.r.t. the requested
    /// attributes? True when every requested attribute both datasets
    /// cover has near-identical content signatures (Jaccard > 0.95).
    fn near_duplicate(
        &self,
        a: DatasetId,
        b: DatasetId,
        per_attr: &BTreeMap<&str, Vec<ColumnRef>>,
    ) -> bool {
        self.engine
            .with_entries(a, b, |ea, eb| {
                let mut compared = 0usize;
                for cols in per_attr.values() {
                    let ca = cols.iter().find(|c| c.dataset == a);
                    let cb = cols.iter().find(|c| c.dataset == b);
                    if let (Some(ca), Some(cb)) = (ca, cb) {
                        let (pa, pb) = match (ea.profile(&ca.column), eb.profile(&cb.column)) {
                            (Some(x), Some(y)) => (x, y),
                            _ => return false,
                        };
                        if pa.content_similarity(pb) <= 0.95 {
                            return false;
                        }
                        compared += 1;
                    }
                }
                compared > 0
            })
            .unwrap_or(false)
    }

    /// Assemble a candidate around one anchor dataset.
    fn build_candidate(
        &self,
        anchor: DatasetId,
        spec: &TargetSpec,
        per_attr: &BTreeMap<&str, Vec<ColumnRef>>,
    ) -> RelResult<Option<MashupCandidate>> {
        let Some(anchor_rel) = self.engine.relation(anchor) else {
            return Ok(None);
        };

        // Each requested attribute must bind to a *distinct* source
        // column — two attributes sharing one physical column would
        // collapse in the projection.
        let mut used: BTreeSet<(DatasetId, String)> = BTreeSet::new();
        let mut bindings: Vec<(String, ColumnRef)> = Vec::new();
        let mut foreign_needs: Vec<(String, ColumnRef)> = Vec::new();
        for attr in &spec.attributes {
            let cols = &per_attr[attr.as_str()];
            let local = cols
                .iter()
                .find(|c| c.dataset == anchor && !used.contains(&(c.dataset, c.column.clone())));
            if let Some(local) = local {
                used.insert((local.dataset, local.column.clone()));
                bindings.push((attr.clone(), local.clone()));
            } else if let Some(foreign) = cols
                .iter()
                .find(|c| !used.contains(&(c.dataset, c.column.clone())))
            {
                used.insert((foreign.dataset, foreign.column.clone()));
                foreign_needs.push((attr.clone(), foreign.clone()));
            }
        }
        if bindings.is_empty() {
            return Ok(None); // anchor contributes nothing
        }

        // Plan paths to each needed foreign dataset (deduped). The anchor
        // is read from the catalog in place; `joins` holds the joined
        // relation once a path has joined something.
        let mut joins: Option<Relation> = None;
        let mut confidence = 1.0;
        let mut joined: Vec<DatasetId> = vec![anchor];
        for (attr, foreign) in foreign_needs {
            if joined.contains(&foreign.dataset) {
                bindings.push((attr, foreign));
                continue;
            }
            if let Some(best) = best_path(
                &self.discovery.indexes().relationships,
                anchor,
                foreign.dataset,
                Self::MAX_HOPS,
            ) {
                let acc = joins.as_ref().unwrap_or(&anchor_rel);
                match apply_steps(acc, &best.steps, self.engine) {
                    Ok(next) if !next.is_empty() => {
                        joins = Some(next);
                        confidence *= best.confidence().min(1.0);
                        joined.extend(best.datasets());
                        joined.dedup();
                        bindings.push((attr, foreign));
                    }
                    _ => { /* join produced nothing: leave attribute missing */ }
                }
            }
        }

        // Project + rename to the requested attribute names. Columns are
        // found by exact name (see `apply_steps`): a same-named column of
        // a later dataset is shadowed by the one joined first, so several
        // bindings may claim one physical column; keep the first claimant.
        let acc = joins.as_ref().unwrap_or(&anchor_rel);
        let mut physical: Vec<(String, &str)> = Vec::new(); // (requested, physical)
        let mut used_physical: BTreeSet<&str> = BTreeSet::new();
        for (attr, col) in &bindings {
            let p = col.column.as_str();
            if acc.schema().contains(p) && used_physical.insert(p) {
                physical.push((attr.clone(), p));
            }
        }
        if physical.is_empty() {
            return Ok(None);
        }
        let cols: Vec<&str> = physical.iter().map(|&(_, p)| p).collect();
        // A join this candidate made is its own: project it in place.
        // The anchor is the catalogue's, so its kept cells are copied.
        let mut projected = match joins {
            Some(joined) => joined.into_projection(&cols)?,
            None => anchor_rel.project(&cols)?,
        };
        for &(ref attr, p) in &physical {
            if attr != p && !projected.schema().contains(attr) {
                projected = projected.rename(p, attr)?;
            }
        }
        let kept: Vec<String> = physical.iter().map(|(a, _)| a.clone()).collect();
        let bindings: Vec<(String, ColumnRef)> = bindings
            .into_iter()
            .filter(|(a, _)| kept.contains(a))
            .collect();

        let coverage = bindings.len() as f64 / spec.attributes.len() as f64;
        joined.sort_unstable();
        joined.dedup();
        Ok(Some(MashupCandidate {
            relation: projected.named(format!("mashup@{anchor}")),
            bindings,
            coverage,
            confidence,
            datasets: joined,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_relation::{DataType, RelationBuilder, Value};

    /// The intro example's market: s1 = ⟨a, b, c⟩, s2 = ⟨a2(join key), b2, fd⟩
    /// where fd = f(d); plus an unrelated table.
    fn market() -> MetadataEngine {
        let eng = MetadataEngine::new();
        let mut b = RelationBuilder::new("s1")
            .column("a", DataType::Int)
            .column("b", DataType::Float)
            .column("c", DataType::Str);
        for i in 0..200 {
            b = b.row(vec![
                Value::Int(i),
                Value::Float(i as f64 * 0.5),
                Value::str(format!("c{i}")),
            ]);
        }
        eng.register("s1", "seller1", b.build().unwrap());

        let mut b = RelationBuilder::new("s2")
            .column("a", DataType::Int)
            .column("b_prime", DataType::Float)
            .column("fd", DataType::Float);
        for i in 0..200 {
            b = b.row(vec![
                Value::Int(i),
                Value::Float(i as f64 * 0.5 + if i % 10 == 0 { 1.0 } else { 0.0 }),
                Value::Float(1.8 * i as f64 + 32.0),
            ]);
        }
        eng.register("s2", "seller2", b.build().unwrap());

        let mut b = RelationBuilder::new("noise")
            .column("q", DataType::Str)
            .column("w", DataType::Str);
        for i in 0..10 {
            b = b.row(vec![
                Value::str(format!("q{i}")),
                Value::str(format!("w{i}")),
            ]);
        }
        eng.register("noise", "seller3", b.build().unwrap());
        eng
    }

    #[test]
    fn single_dataset_request_is_direct() {
        let eng = market();
        let dod = DodEngine::new(&eng);
        let spec = TargetSpec::with_attributes(["a", "b", "c"]);
        let cands = dod.find_mashups(&spec).unwrap();
        assert!(!cands.is_empty());
        let best = &cands[0];
        assert!((best.coverage - 1.0).abs() < 1e-9);
        assert_eq!(best.datasets.len(), 1);
        assert_eq!(
            best.relation.schema().names().collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn cross_dataset_request_joins() {
        let eng = market();
        let dod = DodEngine::new(&eng);
        // c lives in s1, fd lives in s2; they join on a.
        let spec = TargetSpec::with_attributes(["a", "c", "fd"]);
        let cands = dod.find_mashups(&spec).unwrap();
        let best = &cands[0];
        assert!(
            (best.coverage - 1.0).abs() < 1e-9,
            "bindings: {:?}",
            best.bindings
        );
        assert_eq!(best.datasets.len(), 2);
        assert_eq!(best.relation.len(), 200);
        assert!(best.confidence > 0.5);
    }

    #[test]
    fn unknown_attribute_reduces_coverage() {
        let eng = market();
        let dod = DodEngine::new(&eng);
        // "e" exists nowhere — the intro example's missing attribute.
        let spec = TargetSpec::with_attributes(["a", "b", "e"]);
        let cands = dod.find_mashups(&spec).unwrap();
        let best = &cands[0];
        assert!(best.coverage < 1.0);
        assert_eq!(best.missing(&spec), vec!["e"]);
    }

    #[test]
    fn min_rows_filters_candidates() {
        let eng = market();
        let dod = DodEngine::new(&eng);
        let spec = TargetSpec::with_attributes(["q", "w"]).min_rows(100);
        let cands = dod.find_mashups(&spec).unwrap();
        assert!(cands.is_empty(), "noise table only has 10 rows");
    }

    #[test]
    fn keywords_restrict_anchors() {
        let eng = market();
        let dod = DodEngine::new(&eng);
        let spec = TargetSpec::with_attributes(["q", "w"]).keywords(["noise"]);
        let cands = dod.find_mashups(&spec).unwrap();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].relation.len(), 10);
    }

    #[test]
    fn empty_spec_is_empty_result() {
        let eng = market();
        let dod = DodEngine::new(&eng);
        assert!(dod.find_mashups(&TargetSpec::default()).unwrap().is_empty());
    }

    #[test]
    fn candidates_are_ranked_by_score() {
        let eng = market();
        let dod = DodEngine::new(&eng);
        let spec = TargetSpec::with_attributes(["a", "b"]);
        let cands = dod.find_mashups(&spec).unwrap();
        for w in cands.windows(2) {
            assert!(w[0].score() >= w[1].score());
        }
    }

    /// A copy of `s1` (`⟨a, b, c⟩`, 200 rows) with `a` shifted by
    /// `offset` and `c` changed in the rows `changed` picks.
    fn s1_copy(offset: i64, changed: impl Fn(i64) -> bool) -> Relation {
        let mut b = RelationBuilder::new("copy")
            .column("a", DataType::Int)
            .column("b", DataType::Float)
            .column("c", DataType::Str);
        for i in 0..200 {
            let c = if changed(i) {
                format!("x{i}")
            } else {
                format!("c{i}")
            };
            b = b.row(vec![
                Value::Int(i + offset),
                Value::Float(i as f64 * 0.5),
                Value::str(c),
            ]);
        }
        b.build().unwrap()
    }

    #[test]
    fn near_identical_anchors_collapse_to_one() {
        let anchors = |copy: Relation| {
            let eng = market();
            let copy = eng.register("copy", "copycat", copy);
            let spec = TargetSpec::with_attributes(["a", "b", "c"]);
            let names: Vec<String> = DodEngine::new(&eng)
                .find_mashups(&spec)
                .unwrap()
                .iter()
                .map(|c| c.relation.name().to_string())
                .collect();
            (names, format!("mashup@{copy}"))
        };
        // One changed row of 200: near-identical to s1, never an anchor.
        let (names, copy) = anchors(s1_copy(0, |i| i == 7));
        assert!(names.contains(&"mashup@d0".to_string()), "{names:?}");
        assert!(!names.contains(&copy), "{names:?}");
        // Control: a copy with other contents is an anchor of its own.
        let (names, copy) = anchors(s1_copy(1000, |_| true));
        assert!(names.contains(&"mashup@d0".to_string()), "{names:?}");
        assert!(names.contains(&copy), "{names:?}");
    }

    #[test]
    fn a_native_suffixed_column_never_stands_in_for_an_unjoined_attribute() {
        let eng = MetadataEngine::new();
        let mut b = RelationBuilder::new("t")
            .column("k", DataType::Int)
            .column("v_r", DataType::Int);
        for i in 0..50 {
            b = b.row(vec![Value::Int(i), Value::Int(i * 2)]);
        }
        let t = eng.register("t", "s1", b.build().unwrap());
        // `v` lives only in a table nothing joins to `t`.
        let mut b = RelationBuilder::new("u")
            .column("z", DataType::Str)
            .column("v", DataType::Int);
        for i in 0..50 {
            b = b.row(vec![Value::str(format!("z{i}")), Value::Int(10_000 + i)]);
        }
        let u = eng.register("u", "s2", b.build().unwrap());

        let dod = DodEngine::new(&eng);
        let spec = TargetSpec::with_attributes(["k", "v"]);
        let per_attr = BTreeMap::from([
            ("k", vec![ColumnRef::new(t, "k")]),
            ("v", vec![ColumnRef::new(u, "v")]),
        ]);
        let cand = dod.build_candidate(t, &spec, &per_attr).unwrap().unwrap();
        assert_eq!(cand.missing(&spec), vec!["v"]);
        assert_eq!(
            cand.relation.schema().names().collect::<Vec<_>>(),
            vec!["k"]
        );
        assert_eq!(cand.datasets, vec![t]);
    }

    #[test]
    fn mashup_provenance_spans_joined_datasets() {
        let eng = market();
        let dod = DodEngine::new(&eng);
        let spec = TargetSpec::with_attributes(["c", "fd"]);
        let cands = dod.find_mashups(&spec).unwrap();
        let best = cands
            .iter()
            .find(|c| (c.coverage - 1.0).abs() < 1e-9)
            .expect("full-coverage candidate");
        let ds = best.relation.full_provenance().datasets();
        assert_eq!(ds.len(), 2);
    }
}
