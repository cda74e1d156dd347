//! # dmp-integration
//!
//! The integration half of the Mashup Builder (paper §5.3, Fig. 3;
//! DESIGN.md S4–S6): the **DoD (dataset-on-demand) engine** "takes
//! WTP-functions as input and produces mashups that fulfill the
//! WTP-function requests as output", using join-path discovery, attribute
//! mapping functions, and data-fusion operators.
//!
//! * [`join_graph`] — join-path enumeration over the relationship index
//!   and path materialization via hash joins;
//! * [`mapping`] — discovery of attribute mapping functions from paired
//!   samples: identity, affine transforms (the paper's Celsius→Fahrenheit
//!   `f(d)`), and dictionary mapping tables for non-invertible functions;
//! * [`fusion`] — fusion operators that align multiple sources into
//!   multi-valued (1NF-breaking) cells and resolve them by majority,
//!   weighted vote (iterative truth discovery), mean, or keep-all;
//! * [`dod`] — the DoD engine itself: query-by-example target schemas in,
//!   ranked materialized mashup candidates out.

pub mod dod;
pub mod fusion;
pub mod join_graph;
pub mod mapping;

pub use dod::{DodEngine, MashupCandidate, TargetSpec};
