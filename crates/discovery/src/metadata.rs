//! The metadata engine (§5.1): an always-on, fully-incremental registry of
//! datasets, their data items, and their lifecycle.
//!
//! "For each dataset, the metadata engine maintains a time-ordered list of
//! context snapshots. A context snapshot captures the properties of each
//! dataset's data item at each point in time. For example, signatures of
//! its contents, a collection of human or machine owners, as well as the
//! security credentials."

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dmp_relation::{DatasetId, Relation};

use crate::profile::ColumnProfile;

/// Refers to one column data item: `(dataset, column name)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Owning dataset.
    pub dataset: DatasetId,
    /// Column name within that dataset.
    pub column: String,
}

impl ColumnRef {
    /// Construct a reference.
    pub fn new(dataset: DatasetId, column: impl Into<String>) -> Self {
        ColumnRef {
            dataset,
            column: column.into(),
        }
    }
}

/// A point-in-time capture of a dataset's data-item properties.
#[derive(Debug, Clone)]
pub struct ContextSnapshot {
    /// Monotone dataset version this snapshot describes.
    pub version: u32,
    /// Logical time at which the snapshot was taken.
    pub at: u64,
    /// Row count at snapshot time.
    pub rows: usize,
    /// Content hash over all cells (change detection).
    pub content_hash: u64,
    /// Per-column statistical profiles (the content signatures).
    pub profiles: Vec<ColumnProfile>,
    /// Owners at snapshot time (humans or machine principals).
    pub owners: Vec<String>,
}

/// A registered dataset plus its lifecycle.
#[derive(Debug, Clone)]
pub struct DatasetEntry {
    /// Market-wide id.
    pub id: DatasetId,
    /// Human name.
    pub name: String,
    /// Registered owner (seller principal).
    pub owner: String,
    /// Current data (rows carry leaf provenance of `id`).
    pub relation: Arc<Relation>,
    /// Current version (bumps on update).
    pub version: u32,
    /// Logical registration time.
    pub registered_at: u64,
    /// Time-ordered context snapshots (latest last).
    pub snapshots: Vec<ContextSnapshot>,
    /// Free-form tags (topics, semantic annotations from negotiation).
    pub tags: Vec<String>,
}

impl DatasetEntry {
    /// The latest snapshot (always present).
    pub fn latest_snapshot(&self) -> &ContextSnapshot {
        self.snapshots
            .last()
            .expect("entry always has >= 1 snapshot")
    }

    /// Profile of a specific column in the latest snapshot.
    pub fn profile(&self, column: &str) -> Option<&ColumnProfile> {
        self.latest_snapshot()
            .profiles
            .iter()
            .find(|p| p.name == column)
    }
}

/// The always-on metadata engine. Thread-safe: ingestion and reads can
/// proceed concurrently (`parking_lot::RwLock` inside).
#[derive(Debug, Default)]
pub struct MetadataEngine {
    /// The catalogue, in id order.
    entries: RwLock<BTreeMap<DatasetId, DatasetEntry>>,
    next_id: AtomicU64,
    clock: AtomicU64,
    /// Catalog mutation counter: bumped by every register / update /
    /// tag / remove. Keys the built-index cache below.
    generation: AtomicU64,
    /// Default-threshold discovery indexes and the generation they
    /// reflect — building the relationship index is O(columns²) over
    /// the whole catalog, so it is built at most once per catalog
    /// version and shared by every reader (every offer evaluation,
    /// every shard) instead of being rebuilt per query.
    index_cache: Mutex<Option<(u64, Arc<crate::index::Indexes>)>>,
}

impl MetadataEngine {
    /// Create an empty engine.
    pub fn new() -> Self {
        MetadataEngine::default()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The catalog mutation generation (changes whenever a rebuild of
    /// derived structures would observe different contents). Caches of
    /// derived state key on it: this engine's discovery indexes and the
    /// market's mashup cache, which serves a DoD build while the
    /// generation it was built at is current. So every input the DoD
    /// reads (the set of ids, names, relations and the profiles taken
    /// of them, tags) must bump it when it changes; a mutation that
    /// does not would leave both caches serving the old catalogue.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Default-threshold discovery indexes for the current catalog
    /// version: the cached build while the generation matches, else one
    /// full [`crate::index::IndexBuilder::build`]. The index is a
    /// function of the catalogue's contents alone, edges in the full
    /// build's enumeration order, so a market restored from an image
    /// walks the same join paths as one that never stopped. Racing
    /// builders produce identical indexes, and a mutation mid-build
    /// simply leaves a stale entry the next caller redoes.
    pub fn cached_indexes(&self) -> Arc<crate::index::Indexes> {
        let generation = self.generation();
        if let Some((cached, indexes)) = self.index_cache.lock().as_ref() {
            if *cached == generation {
                return Arc::clone(indexes);
            }
        }
        // Build outside the cache lock: O(columns²) work must not block
        // readers that already have a current snapshot.
        let built = Arc::new(crate::index::IndexBuilder::new().build(self));
        // Cache only if no mutation raced the build: generation bumps
        // happen under the entries write lock, so generation unchanged
        // across the build ⇒ the build describes exactly generation
        // `generation`. On a race, serve the (at least as fresh) build
        // uncached; the next caller rebuilds cleanly.
        if self.generation() == generation {
            *self.index_cache.lock() = Some((generation, Arc::clone(&built)));
        }
        built
    }

    /// Raise the engine's logical clock to at least `at_least`. Callers
    /// embedding the engine in a larger system (the market) use this to
    /// keep registration timestamps comparable with their own clock.
    pub fn sync_clock(&self, at_least: u64) {
        self.clock.fetch_max(at_least, Ordering::Relaxed);
    }

    /// Register a dataset via the *share interface* (a user shares one
    /// specific dataset). Stamps leaf provenance and takes the initial
    /// context snapshot. Returns the assigned id.
    pub fn register(
        &self,
        name: impl Into<String>,
        owner: impl Into<String>,
        rel: Relation,
    ) -> DatasetId {
        let id = DatasetId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let name = name.into();
        let owner = owner.into();
        let rel = rel.with_source(id);
        let at = self.tick();
        let snapshot = snapshot_of(&rel, 1, at, std::slice::from_ref(&owner));
        let entry = DatasetEntry {
            id,
            name,
            owner,
            relation: Arc::new(rel),
            version: 1,
            registered_at: at,
            snapshots: vec![snapshot],
            tags: Vec::new(),
        };
        let mut entries = self.entries.write();
        entries.insert(id, entry);
        // Bump under the write lock: readers that snapshot the entries
        // and then read the generation can tell exactly which catalog
        // contents a generation number describes.
        self.bump_generation();
        drop(entries);
        id
    }

    /// Register many datasets via the *batch interface* (a steward points
    /// at a source in bulk, §4.2 Data Packaging). Returns ids in order.
    pub fn register_batch(
        &self,
        owner: &str,
        rels: impl IntoIterator<Item = Relation>,
    ) -> Vec<DatasetId> {
        rels.into_iter()
            .map(|r| {
                let name = r.name().to_string();
                self.register(name, owner, r)
            })
            .collect()
    }

    /// Update a dataset's contents; bumps the version and appends a new
    /// context snapshot iff the content actually changed. Returns the new
    /// version, or `None` if the id is unknown.
    pub fn update(&self, id: DatasetId, rel: Relation) -> Option<u32> {
        let mut entries = self.entries.write();
        let entry = entries.get_mut(&id)?;
        let rel = rel.with_source(id);
        let new_hash = content_hash(&rel);
        if new_hash == entry.latest_snapshot().content_hash {
            return Some(entry.version); // no change: fully-incremental no-op
        }
        entry.version += 1;
        let at = self.tick();
        let snap = snapshot_of(&rel, entry.version, at, std::slice::from_ref(&entry.owner));
        entry.snapshots.push(snap);
        entry.relation = Arc::new(rel);
        let version = entry.version;
        self.bump_generation();
        drop(entries);
        Some(version)
    }

    /// Attach a tag / semantic annotation (negotiation rounds, §4.1).
    pub fn add_tag(&self, id: DatasetId, tag: impl Into<String>) -> bool {
        let mut entries = self.entries.write();
        match entries.get_mut(&id) {
            Some(e) => {
                let tag = tag.into();
                if !e.tags.contains(&tag) {
                    e.tags.push(tag);
                    self.bump_generation();
                }
                drop(entries);
                true
            }
            None => false,
        }
    }

    /// Remove a dataset (seller withdraws it).
    pub fn remove(&self, id: DatasetId) -> bool {
        let mut entries = self.entries.write();
        let removed = entries.remove(&id).is_some();
        if removed {
            self.bump_generation();
        }
        drop(entries);
        removed
    }

    /// Fetch a dataset entry. This clones the *whole* entry: every
    /// context snapshot with its column profiles, MinHash signatures and
    /// samples. To read a field or two (an owner, a timestamp), use
    /// [`Self::with_entry`], which copies nothing.
    pub fn get(&self, id: DatasetId) -> Option<DatasetEntry> {
        self.with_entry(id, DatasetEntry::clone)
    }

    /// Run `f` on a dataset's entry under the catalog's read lock;
    /// `None` when the id is unknown. `f` must not call back into this
    /// engine: a second read behind a queued writer can block, and a
    /// write deadlocks. To read two entries, use [`Self::with_entries`].
    pub fn with_entry<R>(&self, id: DatasetId, f: impl FnOnce(&DatasetEntry) -> R) -> Option<R> {
        self.entries.read().get(&id).map(f)
    }

    /// Run `f` on two entries under one read guard (see
    /// [`Self::with_entry`]); `None` when either id is unknown.
    pub fn with_entries<R>(
        &self,
        a: DatasetId,
        b: DatasetId,
        f: impl FnOnce(&DatasetEntry, &DatasetEntry) -> R,
    ) -> Option<R> {
        let entries = self.entries.read();
        Some(f(entries.get(&a)?, entries.get(&b)?))
    }

    /// The current relation of a dataset.
    pub fn relation(&self, id: DatasetId) -> Option<Arc<Relation>> {
        self.entries
            .read()
            .get(&id)
            .map(|e| Arc::clone(&e.relation))
    }

    /// All dataset ids, ascending.
    pub fn ids(&self) -> Vec<DatasetId> {
        self.entries.read().keys().copied().collect()
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True iff no datasets registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Snapshot of all entries in id order (for index building).
    pub fn entries(&self) -> Vec<DatasetEntry> {
        self.entries.read().values().cloned().collect()
    }

    /// Catalog state for materialized snapshots. Per entry this keeps
    /// only what cannot be recomputed — the relation itself plus
    /// identity/lifecycle fields; content hashes and column profiles are
    /// deterministic functions of the relation and are rebuilt on
    /// [`Self::restore_state`]. Historical context snapshots are
    /// deliberately dropped: nothing in market behavior reads anything
    /// but the latest one.
    pub fn export_state(&self) -> MetadataImage {
        let entries = self
            .entries()
            .into_iter()
            .map(|e| DatasetEntryImage {
                id: e.id,
                name: e.name.clone(),
                owner: e.owner.clone(),
                relation: (*e.relation).clone(),
                version: e.version,
                registered_at: e.registered_at,
                snapshot_at: e.latest_snapshot().at,
                tags: e.tags,
            })
            .collect();
        MetadataImage {
            entries,
            next_id: self.next_id.load(Ordering::SeqCst),
            clock: self.clock.load(Ordering::SeqCst),
        }
    }

    /// Replace the catalog with a previously exported image: keeps each
    /// relation exactly as recorded (every registration path stamped it
    /// before it was exported; re-stamping here would make the recorded
    /// source and provenance something a snapshot carries but nobody
    /// reads, outside what its digest proves), recomputes each entry's
    /// latest context snapshot at its original `(version, at)`, and
    /// restores the id/clock counters.
    pub fn restore_state(&self, image: MetadataImage) {
        let mut rebuilt = BTreeMap::new();
        for e in image.entries {
            let rel = e.relation;
            let snapshot = snapshot_of(
                &rel,
                e.version,
                e.snapshot_at,
                std::slice::from_ref(&e.owner),
            );
            rebuilt.insert(
                e.id,
                DatasetEntry {
                    id: e.id,
                    name: e.name,
                    owner: e.owner,
                    relation: Arc::new(rel),
                    version: e.version,
                    registered_at: e.registered_at,
                    snapshots: vec![snapshot],
                    tags: e.tags,
                },
            );
        }
        let mut entries = self.entries.write();
        *entries = rebuilt;
        self.next_id.store(image.next_id, Ordering::SeqCst);
        self.clock.store(image.clock, Ordering::SeqCst);
        self.bump_generation();
        drop(entries);
    }
}

/// One catalog entry in a [`MetadataImage`].
#[derive(Debug, Clone)]
pub struct DatasetEntryImage {
    /// Market-wide id.
    pub id: DatasetId,
    /// Human name.
    pub name: String,
    /// Registered owner.
    pub owner: String,
    /// Current data, source and row provenance as registration stamped
    /// them (restored verbatim).
    pub relation: Relation,
    /// Current version.
    pub version: u32,
    /// Logical registration time.
    pub registered_at: u64,
    /// Logical time of the latest context snapshot.
    pub snapshot_at: u64,
    /// Free-form tags.
    pub tags: Vec<String>,
}

/// Catalog state captured by [`MetadataEngine::export_state`].
#[derive(Debug, Clone, Default)]
pub struct MetadataImage {
    /// All entries, id-sorted.
    pub entries: Vec<DatasetEntryImage>,
    /// The next dataset id to allocate.
    pub next_id: u64,
    /// The engine's logical clock.
    pub clock: u64,
}

/// Hash all cells of a relation (order-sensitive) for change detection.
fn content_hash(rel: &Relation) -> u64 {
    let mut h = DefaultHasher::new();
    rel.schema().names().for_each(|n| n.hash(&mut h));
    for row in rel.rows() {
        for v in row.values() {
            v.hash(&mut h);
        }
    }
    h.finish()
}

fn snapshot_of(rel: &Relation, version: u32, at: u64, owners: &[String]) -> ContextSnapshot {
    ContextSnapshot {
        version,
        at,
        rows: rel.len(),
        content_hash: content_hash(rel),
        profiles: ColumnProfile::compute_all(rel),
        owners: owners.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_relation::builder::keyed_rel;

    #[test]
    fn register_assigns_sequential_ids_and_provenance() {
        let eng = MetadataEngine::new();
        let a = eng.register("a", "alice", keyed_rel("a", &[(1, "x")]));
        let b = eng.register("b", "bob", keyed_rel("b", &[(2, "y")]));
        assert_ne!(a, b);
        let rel = eng.relation(a).unwrap();
        assert_eq!(rel.source(), Some(a));
        assert_eq!(rel.rows()[0].provenance().atoms()[0].dataset, a);
    }

    #[test]
    fn initial_snapshot_has_profiles() {
        let eng = MetadataEngine::new();
        let id = eng.register("a", "alice", keyed_rel("a", &[(1, "x"), (2, "y")]));
        let e = eng.get(id).unwrap();
        assert_eq!(e.version, 1);
        assert_eq!(e.snapshots.len(), 1);
        assert_eq!(e.latest_snapshot().profiles.len(), 2);
        assert_eq!(e.latest_snapshot().rows, 2);
        assert_eq!(e.latest_snapshot().owners, vec!["alice".to_string()]);
    }

    #[test]
    fn update_bumps_version_and_appends_snapshot() {
        let eng = MetadataEngine::new();
        let id = eng.register("a", "alice", keyed_rel("a", &[(1, "x")]));
        let v = eng
            .update(id, keyed_rel("a", &[(1, "x"), (2, "y")]))
            .unwrap();
        assert_eq!(v, 2);
        let e = eng.get(id).unwrap();
        assert_eq!(e.snapshots.len(), 2);
        assert_eq!(e.latest_snapshot().rows, 2);
        // lifecycle is time-ordered
        assert!(e.snapshots[0].at < e.snapshots[1].at);
    }

    #[test]
    fn unchanged_update_is_a_noop() {
        let eng = MetadataEngine::new();
        let id = eng.register("a", "alice", keyed_rel("a", &[(1, "x")]));
        let v = eng.update(id, keyed_rel("a", &[(1, "x")])).unwrap();
        assert_eq!(v, 1, "same content must not bump the version");
        assert_eq!(eng.get(id).unwrap().snapshots.len(), 1);
    }

    #[test]
    fn update_unknown_id_is_none() {
        let eng = MetadataEngine::new();
        assert!(eng.update(DatasetId(99), keyed_rel("z", &[])).is_none());
    }

    #[test]
    fn batch_register_names_from_relations() {
        let eng = MetadataEngine::new();
        let ids = eng.register_batch(
            "steward",
            vec![keyed_rel("t1", &[(1, "a")]), keyed_rel("t2", &[(2, "b")])],
        );
        assert_eq!(ids.len(), 2);
        assert_eq!(eng.get(ids[0]).unwrap().name, "t1");
        assert_eq!(eng.get(ids[1]).unwrap().owner, "steward");
    }

    #[test]
    fn tags_dedupe() {
        let eng = MetadataEngine::new();
        let id = eng.register("a", "alice", keyed_rel("a", &[(1, "x")]));
        assert!(eng.add_tag(id, "weather"));
        assert!(eng.add_tag(id, "weather"));
        assert_eq!(eng.get(id).unwrap().tags, vec!["weather".to_string()]);
        assert!(!eng.add_tag(DatasetId(42), "nope"));
    }

    #[test]
    fn remove_unregisters() {
        let eng = MetadataEngine::new();
        let id = eng.register("a", "alice", keyed_rel("a", &[(1, "x")]));
        assert!(eng.remove(id));
        assert!(!eng.remove(id));
        assert!(eng.get(id).is_none());
        assert!(eng.is_empty());
    }

    #[test]
    fn with_entry_reads_the_current_entry_or_none() {
        let eng = MetadataEngine::new();
        let id = eng.register("a", "alice", keyed_rel("a", &[(1, "x")]));
        let other = eng.register("b", "bob", keyed_rel("b", &[(2, "y")]));
        assert_eq!(
            eng.with_entry(id, |e| e.owner.clone()),
            Some("alice".into())
        );
        assert_eq!(eng.with_entry(DatasetId(99), |e| e.version), None);

        eng.update(id, keyed_rel("a", &[(1, "x"), (2, "y")]));
        assert_eq!(
            eng.with_entry(id, |e| (e.version, e.relation.len())),
            Some((2, 2))
        );
        assert_eq!(
            eng.with_entries(id, other, |a, b| (a.version, b.owner.clone())),
            Some((2, "bob".into()))
        );

        assert!(eng.remove(id));
        assert_eq!(eng.with_entry(id, |e| e.version), None);
        assert_eq!(eng.with_entries(other, id, |_, _| ()), None);
    }

    #[test]
    fn profile_lookup_by_column() {
        let eng = MetadataEngine::new();
        let id = eng.register("a", "alice", keyed_rel("a", &[(1, "x"), (2, "y")]));
        let e = eng.get(id).unwrap();
        assert!(e.profile("k").is_some());
        assert!(e.profile("nope").is_none());
    }

    #[test]
    fn concurrent_registration_is_safe() {
        let eng = Arc::new(MetadataEngine::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let eng = Arc::clone(&eng);
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let name = format!("t{t}_{i}");
                    eng.register(name.clone(), "owner", keyed_rel(&name, &[(i, "v")]));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(eng.len(), 100);
        // ids are unique
        let ids = eng.ids();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len());
    }
}
