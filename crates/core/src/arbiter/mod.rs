//! The Arbiter Management Platform (Fig. 2, §4.1) — "the most complex of
//! all DMMS's components: it builds mashups to match supply and demand,
//! and it implements the five market design components."
//!
//! * [`ledger`] — transaction support: double-entry accounts + escrow;
//! * [`mashup_builder`] — wires the DoD engine (and the buyer's owned
//!   data) into candidate mashups per WTP-function;
//! * [`wtp_evaluator`] — runs the task package on each mashup, measures
//!   satisfaction, derives the buyer's bid from the price curve;
//! * [`pricing`] — the pricing engine: groups bids by product and clears
//!   them under the market design's allocation + payment rules;
//! * [`revenue`] — the revenue allocation engine: dataset shares via
//!   Shapley / leave-one-out / provenance;
//! * [`services`] — arbiter services: demand reports for opportunistic
//!   sellers and item-based collaborative-filtering recommendations;
//! * [`pipeline`] — the round's phases wiring the above together:
//!   expiry → candidates (rayon-parallel) → clearing → conflict-graph
//!   settlement, run by `DataMarket::run_round` and by the service's
//!   shard router alike.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod ledger;
pub mod mashup_builder;
pub mod pipeline;
pub mod pricing;
pub mod revenue;
pub mod services;
pub mod wtp_evaluator;

pub use pricing::{RoundBid, Sale};
