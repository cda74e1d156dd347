//! Relational and non-relational operators over [`crate::Relation`].
//!
//! All operators propagate why-provenance so the market can later share
//! revenue back to contributing datasets (§3.2.3 of the paper).

pub mod aggregate;
pub mod basic;
pub mod join;

pub use aggregate::{AggFun, AggSpec};
pub use join::JoinKind;
