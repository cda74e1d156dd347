//! # dmp-relation
//!
//! The structured-data substrate of the data market platform (DESIGN.md S1).
//!
//! The paper's market model trades *relations*: sellers contribute datasets
//! `d_i`, and the arbiter combines them into *mashups* `m = F(d_i)` using
//! relational, non-relational, and **fusion** operations. Fusion operators
//! "produce relations that break the first normal form, that is, each cell
//! value may be multi-valued, with each value coming from a differing
//! source" (§1, Requirements). This crate provides:
//!
//! * [`Value`] — a dynamically typed cell value, including
//!   [`Value::Multi`] for fused, multi-valued, source-attributed cells;
//! * [`Schema`] / [`Field`] / [`DataType`] — relation schemas;
//! * [`Relation`] — an in-memory row-oriented relation whose every row
//!   carries **why-provenance** ([`Provenance`]), propagated through all
//!   operators so the market's revenue-sharing engine (§3.2.3) can reverse-
//!   engineer which source rows contributed to a sold mashup;
//! * relational operators (select, project, rename, hash join, group-by
//!   aggregate, column maps).
//!
//! Everything is deterministic and allocation-conscious: schemas are shared
//! via `Arc`, strings via `Arc<str>`, and provenance as sorted boxed slices.

pub mod builder;
pub mod error;
pub mod ops;
pub mod provenance;
pub mod relation;
pub mod schema;
pub mod value;

pub use builder::RelationBuilder;
pub use error::{RelError, RelResult};
pub use provenance::{DatasetId, ProvAtom, Provenance};
pub use relation::{Relation, Row};
pub use schema::{DataType, Field, Schema};
pub use value::{Sourced, Value};
