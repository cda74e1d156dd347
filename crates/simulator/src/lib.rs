//! # dmp-simulator
//!
//! The market simulator (paper §6.1, Fig. 1 (3); DESIGN.md S19). "The
//! mathematics used to make sound market designs do not account for evil,
//! ignorant, and adversarial behavior [...] it is necessary to simulate
//! market designs under adversarial scenarios before their deployment."
//!
//! * [`agents`] — buyer strategies (truthful, shading, sniper, ignorant,
//!   risk-lover, colluder) and seller strategies (honest, spammer,
//!   overpricer, faulty, opportunist, arbitrageur — §7.1);
//! * [`workload`] — synthetic market workloads: topic catalogs, Zipf
//!   demand, valuation distributions, data-lake generation;
//! * [`engine`] — the round-based simulation engine driving a real
//!   [`dmp_core::market::DataMarket`];
//! * [`metrics`] — social welfare, revenue, satisfaction, Gini, regret;
//! * [`scenario`] — named scenario configurations for the experiments;
//! * [`report`] — aligned text tables for the experiment harness.

pub mod agents;
pub mod engine;
pub mod metrics;
pub mod report;
pub mod scenario;
pub mod workload;
