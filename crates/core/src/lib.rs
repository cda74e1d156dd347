//! # dmp-core
//!
//! The Data Market Management System (DMMS) — paper §4, Fig. 2;
//! DESIGN.md S15–S18 and S21. "Data market management systems must be
//! designed to support different market designs and they must offer
//! software support to sellers, buyers, and the arbiter."
//!
//! * [`arbiter`] — the Arbiter Management Platform: mashup builder
//!   orchestration, WTP-evaluator, pricing engine, transaction support,
//!   revenue allocation engine, and arbiter services (recommendations,
//!   demand reports, negotiation rounds);
//! * [`seller`] — the Seller Management Platform: packaging, privacy-
//!   coordinated release, accountability, reserve prices, licensing;
//! * [`buyer`] — the Buyer Management Platform: fluent WTP construction,
//!   owned-data packaging, ex post reporting;
//! * [`market`] — the [`market::DataMarket`] facade that wires everything
//!   to a plug'n'play [`dmp_mechanism::design::MarketDesign`];
//! * [`currency`] — incentive currencies for internal / external / barter
//!   markets (§3.3);
//! * [`license`] — data licenses and contextual-integrity checks (§4.4);
//! * [`trust`] — hash-chained audit log, transparency reports, disputes.

pub mod arbiter;
pub mod buyer;
pub mod config;
pub mod currency;
pub mod error;
pub mod license;
pub mod market;
pub mod seller;
pub mod trust;

pub use currency::{Currency, Incentive};
pub use error::{MarketError, MarketResult};
pub use license::{ContextualIntegrityPolicy, License};
pub use market::{DataMarket, MarketConfig, MarketKind};
