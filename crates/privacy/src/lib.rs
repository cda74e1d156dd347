//! # dmp-privacy
//!
//! Statistical database privacy for the seller platform (paper §4.2;
//! DESIGN.md S14): "the SMP must incorporate some support for the safe
//! release of such sensitive datasets", coordinated with the arbiter, with
//! the key open question being "a good balance between protection and
//! profit" — the privacy–value curve that experiment E9 measures.
//!
//! * [`dp`] — per-cell Laplace noise over a relation's numeric column,
//!   plus geometric, Gaussian and randomized-response mechanisms;
//! * [`anonymize`] — k-anonymity style generalization and suppression;
//! * [`pii`] — PII detection heuristics (emails, phones, SSN-like ids)
//!   that gate what sellers may share (FAQ: "What if I am not sure if my
//!   dataset is leaking personal information?").

pub mod anonymize;
pub mod dp;
pub mod pii;
