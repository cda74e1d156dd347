//! # dmp-mechanism
//!
//! The market design toolbox (paper §3, Fig. 1 (2); DESIGN.md S7–S11).
//! A market design is "a collection of 5 components that govern the
//! interactions between sellers, buyers, and arbiter": the elicitation
//! protocol, allocation function, payment function, revenue allocation and
//! revenue sharing. This crate implements the first three plus market
//! goals and arbitrage-free query pricing; revenue allocation/sharing live
//! in `dmp-valuation`.
//!
//! * [`wtp`] — willing-to-pay functions: task spec, satisfaction→price
//!   curves, owned data, intrinsic-property constraints (§3.2.2.1);
//! * [`elicitation`] — ex ante and ex post elicitation protocols,
//!   including the audited use-then-pay mechanism of §3.2.2.2;
//! * [`allocation`] — who gets the asset: posted price, k-unit auction,
//!   digital-goods (everyone above price);
//! * [`payment`] — what they pay: first price, Vickrey, Myerson reserve,
//!   Goldberg–Hartline random-sampling optimal price (RSOP);
//! * [`design`] — the bundled [`design::MarketDesign`] + empirical
//!   incentive-compatibility checking;
//! * [`goals`] — market goal metrics (revenue / welfare / transactions);
//! * [`query_pricing`] — arbitrage-free query pricing over view lattices
//!   (§8.2, Koutris et al. style).

pub mod allocation;
pub mod design;
pub mod elicitation;
pub mod goals;
pub mod payment;
pub mod query_pricing;
pub mod wtp;
