//! # dmp-discovery
//!
//! Data discovery substrate for the Mashup Builder (paper §5, Fig. 3;
//! DESIGN.md S2/S3). The paper bootstraps its mashup builder with Aurum
//! \[19\]: "it extracts metadata from the input datasets, it organizes that
//! metadata in an index and uses the index to identify datasets based on
//! the criteria indicated in the WTP-function". This crate rebuilds that
//! pipeline from scratch:
//!
//! * [`profile`] — per-column statistical profiles (the *data items* of
//!   §5.1) with type, cardinality, range, and content signatures;
//! * [`sketch`] — MinHash signatures (Jaccard/containment estimation) and
//!   a HyperLogLog distinct-count estimator;
//! * [`metadata`] — the always-on metadata engine: ingestion (batch and
//!   share interfaces), versioned context snapshots, lifecycle tracking;
//! * [`index`] — the index builder: inverted name/value indexes and the
//!   relationship index of join-candidate column pairs;
//! * [`search`] — discovery queries over the indexes (by keyword and by
//!   attribute name);
//! * [`lineage`] — fine-grained lineage records for seller accountability
//!   (§4.2).

pub mod index;
pub mod lineage;
pub mod metadata;
pub mod profile;
pub mod search;
pub mod sketch;

pub use index::{IndexBuilder, JoinCandidate, RelationshipIndex};
pub use lineage::{LineageEvent, LineageLog};
pub use metadata::{ColumnRef, ContextSnapshot, DatasetEntry, MetadataEngine};
pub use search::{DiscoveryEngine, SearchHit};
