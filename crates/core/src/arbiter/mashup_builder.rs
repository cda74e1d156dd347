//! The Mashup Builder front-end (Fig. 2 top): turns a WTP-function into
//! materialized candidate mashups `[m1, …, mn]` by driving the DoD engine
//! over the metadata engine's current state, then augmenting with the
//! buyer's packaged owned data when present (§3.2.2.1: "when buyers own
//! multiple features relevant to train the ML model but want other
//! datasets to augment their data").
//!
//! The builder answers the same request the same way until the catalogue
//! changes, so the candidate stage asks a [`MashupCache`] shared by every
//! shard of one substrate rather than the builder itself.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use dmp_discovery::MetadataEngine;
use dmp_integration::{DodEngine, TargetSpec};
use dmp_mechanism::wtp::WtpFunction;
use dmp_relation::ops::JoinKind;
use dmp_relation::{DatasetId, Relation};
use dmp_telemetry::{global, Counter};

/// A materialized candidate mashup.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltMashup {
    /// The relation (already joined with owned data when provided),
    /// shared: a cache entry, the round's winner, its export and its
    /// settlement plan all read one set of rows.
    pub relation: Arc<Relation>,
    /// Market datasets that contributed (excludes the buyer's own data).
    pub datasets: Vec<DatasetId>,
    /// Fraction of requested attributes covered.
    pub coverage: f64,
    /// Join confidence product.
    pub confidence: f64,
    /// Attributes the DoD could not source (negotiation input, §4.1).
    pub missing: Vec<String>,
}

/// Build up to `max` candidate mashups for a WTP-function.
pub fn build_mashups(metadata: &MetadataEngine, wtp: &WtpFunction, max: usize) -> Vec<BuiltMashup> {
    let mut spec =
        TargetSpec::with_attributes(wtp.attributes.iter().cloned()).min_rows(wtp.min_rows.max(1));
    if !wtp.keywords.is_empty() {
        spec = spec.keywords(wtp.keywords.iter().cloned());
    }
    let dod = DodEngine::new(metadata);
    let candidates = match dod.find_mashups(&spec) {
        Ok(c) => c,
        Err(_) => return Vec::new(),
    };

    let mut out = Vec::new();
    for cand in candidates.into_iter().take(max) {
        let missing: Vec<String> = cand
            .missing(&spec)
            .into_iter()
            .map(str::to_string)
            .collect();
        let relation = match &wtp.owned_data {
            Some(owned) => {
                // Natural join on whatever key columns the mashup shares
                // with the buyer's packaged data (e.g. `a` in the intro
                // example). If nothing is shared, the candidate cannot be
                // bound to the buyer's labels — skip it.
                match cand.relation.natural_join(owned, JoinKind::Inner) {
                    Ok(j) if !j.is_empty() => j,
                    _ => continue,
                }
            }
            None => cand.relation,
        };
        if relation.len() < wtp.min_rows.max(1) {
            continue;
        }
        out.push(BuiltMashup {
            relation: Arc::new(relation),
            datasets: cand.datasets,
            coverage: cand.coverage,
            confidence: cand.confidence,
            missing,
        });
    }
    out
}

/// Most rows a [`MashupCache`] holds over all its entries. An insert
/// past it empties the cache first, so its memory stays bounded however
/// many distinct requests a catalogue version sees.
pub const MASHUP_CACHE_MAX_ROWS: usize = 1 << 18;

/// What a build depends on besides the catalogue: the attributes in
/// request order (the DoD binds them and orders the projection by that
/// order, so sorting them would change the answer), the keywords,
/// `min_rows.max(1)` and the candidate cap.
type MashupKey = (Vec<String>, Vec<String>, usize, usize);

/// The entries of one catalogue generation and the rows they hold.
#[derive(Default)]
struct CachedBuilds {
    generation: u64,
    rows: usize,
    builds: BTreeMap<MashupKey, Arc<Vec<BuiltMashup>>>,
}

impl CachedBuilds {
    /// Forget every entry if they describe another generation.
    fn at(&mut self, generation: u64) -> &mut Self {
        if self.generation != generation {
            *self = CachedBuilds {
                generation,
                ..CachedBuilds::default()
            };
        }
        self
    }

    /// Keep `built` under `key`, emptying the cache first if it would
    /// then hold more than [`MASHUP_CACHE_MAX_ROWS`] rows. An entry a
    /// racing builder filed first stays.
    fn insert(&mut self, key: MashupKey, built: &Arc<Vec<BuiltMashup>>) {
        if self.builds.contains_key(&key) {
            return;
        }
        let rows = built.iter().map(|m| m.relation.len()).sum::<usize>();
        if self.rows + rows > MASHUP_CACHE_MAX_ROWS {
            self.builds.clear();
            self.rows = 0;
        }
        if rows <= MASHUP_CACHE_MAX_ROWS {
            self.rows += rows;
            self.builds.insert(key, Arc::clone(built));
        }
    }
}

/// [`build_mashups`] once per request and catalogue version, shared by
/// every shard of a substrate. An entry is served only while
/// [`MetadataEngine::generation`] still reads the generation it was built
/// at, and is filed only if the generation did not move during the
/// build (the rule of [`MetadataEngine::cached_indexes`]); the first
/// lookup or insert at a new generation empties the cache. Requests that
/// carry the buyer's own data bypass it: their build joins those rows.
///
/// The cache is derived state: no image or digest holds it, and a
/// restored market starts cold. Its one guard is held for one lookup or
/// one insert, never during a build and never with another guard.
#[derive(Default)]
pub struct MashupCache {
    cached: Mutex<CachedBuilds>,
}

impl MashupCache {
    /// The candidate mashups for `wtp` over `metadata`'s current
    /// catalogue, equal to `build_mashups(metadata, wtp, max)`. Every
    /// call must pass the same engine, the one the cache's substrate
    /// holds.
    pub fn get_or_build(
        &self,
        metadata: &MetadataEngine,
        wtp: &WtpFunction,
        max: usize,
    ) -> Arc<Vec<BuiltMashup>> {
        if wtp.owned_data.is_some() {
            return Arc::new(build_mashups(metadata, wtp, max));
        }
        let (hits, misses) = cache_counters();
        let key = key_of(wtp, max);
        let generation = metadata.generation();
        if let Some(hit) = self.lookup(generation, &key) {
            hits.inc();
            return hit;
        }
        misses.inc();
        let built = Arc::new(build_mashups(metadata, wtp, max));
        let mut cached = self.cached.lock();
        if metadata.generation() == generation {
            cached.at(generation).insert(key, &built);
        }
        drop(cached);
        built
    }

    /// The entry [`Self::get_or_build`] would serve for `wtp`, ignoring its
    /// owned data, without building one on a miss.
    pub fn cached(
        &self,
        metadata: &MetadataEngine,
        wtp: &WtpFunction,
        max: usize,
    ) -> Option<Arc<Vec<BuiltMashup>>> {
        self.lookup(metadata.generation(), &key_of(wtp, max))
    }

    fn lookup(&self, generation: u64, key: &MashupKey) -> Option<Arc<Vec<BuiltMashup>>> {
        self.cached
            .lock()
            .at(generation)
            .builds
            .get(key)
            .map(Arc::clone)
    }

    /// Rows held over all entries (at most [`MASHUP_CACHE_MAX_ROWS`]).
    pub fn rows(&self) -> usize {
        self.cached.lock().rows
    }
}

fn key_of(wtp: &WtpFunction, max: usize) -> MashupKey {
    (
        wtp.attributes.clone(),
        wtp.keywords.clone(),
        wtp.min_rows.max(1),
        max,
    )
}

/// `dmp_mashup_cache_{hits,misses}_total`, resolved once.
fn cache_counters() -> &'static (Arc<Counter>, Arc<Counter>) {
    static C: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    C.get_or_init(|| {
        (
            global().counter(
                "dmp_mashup_cache_hits_total",
                "Candidate-stage mashup requests served from the mashup cache.",
            ),
            global().counter(
                "dmp_mashup_cache_misses_total",
                "Candidate-stage mashup requests the mashup cache had to build.",
            ),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_mechanism::wtp::PriceCurve;
    use dmp_tasks::synth::intro_example;

    fn setup() -> (MetadataEngine, WtpFunction) {
        let ex = intro_example(300, 7);
        let metadata = MetadataEngine::new();
        metadata.register("s1", "seller1", ex.s1);
        metadata.register("s2", "seller2", ex.s2);
        let mut wtp =
            WtpFunction::simple("b1", ["a", "b", "fd"], PriceCurve::Step(vec![(0.8, 100.0)]));
        wtp.owned_data = Some(ex.buyer_owned);
        (metadata, wtp)
    }

    #[test]
    fn builds_candidates_with_owned_data_joined() {
        let (metadata, wtp) = setup();
        let mashups = build_mashups(&metadata, &wtp, 4);
        assert!(!mashups.is_empty());
        let best = &mashups[0];
        assert!(
            best.relation.schema().contains("label"),
            "owned labels joined in"
        );
        assert!(best.relation.len() > 100);
    }

    #[test]
    fn full_coverage_candidate_uses_both_sellers() {
        let (metadata, mut wtp) = setup();
        // `c` only exists in s1 and `fd` only in s2, forcing a join.
        wtp.attributes = vec!["a".into(), "c".into(), "fd".into()];
        let mashups = build_mashups(&metadata, &wtp, 4);
        let full = mashups.iter().find(|m| (m.coverage - 1.0).abs() < 1e-9);
        let full = full.expect("a full-coverage mashup should exist");
        assert_eq!(full.datasets.len(), 2);
        assert!(full.missing.is_empty());
    }

    #[test]
    fn without_owned_data_no_label_column() {
        let (metadata, mut wtp) = setup();
        wtp.owned_data = None;
        let mashups = build_mashups(&metadata, &wtp, 4);
        assert!(!mashups.is_empty());
        assert!(!mashups[0].relation.schema().contains("label"));
    }

    #[test]
    fn min_rows_filters() {
        let (metadata, mut wtp) = setup();
        wtp.min_rows = 10_000;
        assert!(build_mashups(&metadata, &wtp, 4).is_empty());
    }

    /// A one-mashup build of `rows` rows.
    fn build_of(rows: usize) -> Arc<Vec<BuiltMashup>> {
        let rows: Vec<(i64, &str)> = (0..rows as i64).map(|i| (i, "x")).collect();
        Arc::new(vec![BuiltMashup {
            relation: Arc::new(dmp_relation::builder::keyed_rel("t", &rows)),
            datasets: Vec::new(),
            coverage: 1.0,
            confidence: 1.0,
            missing: Vec::new(),
        }])
    }

    fn key(attr: &str) -> MashupKey {
        (vec![attr.to_string()], Vec::new(), 1, 4)
    }

    #[test]
    fn an_insert_past_the_row_bound_empties_the_cache_first() {
        let half = MASHUP_CACHE_MAX_ROWS / 2 + 1;
        let mut cached = CachedBuilds::default();
        cached.insert(key("a"), &build_of(half));
        assert_eq!(cached.rows, half);
        cached.insert(key("b"), &build_of(half));
        assert_eq!(cached.rows, half, "the second entry replaced the first");
        assert!(!cached.builds.contains_key(&key("a")));
        assert!(cached.builds.contains_key(&key("b")));
        cached.insert(key("c"), &build_of(MASHUP_CACHE_MAX_ROWS + 1));
        assert_eq!(cached.rows, 0, "an entry over the bound is never kept");
        assert!(cached.builds.is_empty());
    }

    #[test]
    fn a_racing_insert_keeps_the_first_entry_and_counts_it_once() {
        let mut cached = CachedBuilds::default();
        let first = build_of(3);
        cached.insert(key("a"), &first);
        cached.insert(key("a"), &build_of(5));
        assert_eq!(cached.rows, 3);
        assert!(Arc::ptr_eq(&cached.builds[&key("a")], &first));
    }

    #[test]
    fn the_cache_serves_a_build_until_the_catalogue_moves() {
        let (metadata, mut wtp) = setup();
        wtp.owned_data = None;
        let cache = MashupCache::default();
        assert!(cache.cached(&metadata, &wtp, 4).is_none());
        let first = cache.get_or_build(&metadata, &wtp, 4);
        assert_eq!(*first, build_mashups(&metadata, &wtp, 4));
        let again = cache.get_or_build(&metadata, &wtp, 4);
        assert!(Arc::ptr_eq(&first, &again), "a hit serves the cached build");
        assert!(cache.rows() > 0);

        let ex = intro_example(50, 9);
        metadata.register("s3", "seller3", ex.s1);
        assert!(cache.cached(&metadata, &wtp, 4).is_none());
        let rebuilt = cache.get_or_build(&metadata, &wtp, 4);
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(*rebuilt, build_mashups(&metadata, &wtp, 4));
    }

    #[test]
    fn unsourcable_attribute_reported_missing() {
        let (metadata, mut wtp) = setup();
        wtp.attributes.push("e".into()); // the intro example's gap
        let mashups = build_mashups(&metadata, &wtp, 4);
        assert!(!mashups.is_empty());
        assert!(mashups.iter().all(|m| m.missing.contains(&"e".to_string())));
        assert!(mashups.iter().all(|m| m.coverage < 1.0));
    }
}
