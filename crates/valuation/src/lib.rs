//! # dmp-valuation
//!
//! Revenue allocation and revenue sharing (paper §3.2.3; DESIGN.md
//! S12/S13): "the Shapley value has been used to allocate revenue to each
//! row individually [...] We are investigating alternative approaches that
//! are more computationally efficient and maintain the good properties
//! conferred by the Shapley value."
//!
//! * [`shapley`] — exact Shapley (bit-subset dynamic enumeration, n ≤ 22)
//!   and permutation-sampling Monte Carlo;
//! * [`banzhaf`] — Banzhaf index (exact and Monte Carlo), leave-one-out
//!   values and budget-balancing normalisation;
//! * [`knn_shapley`] — the closed-form exact Shapley value for K-NN
//!   utility (Jia et al., VLDB'19 \[56\]) in O(n log n);
//! * [`row_alloc`] — per-row revenue allocation within a sold mashup
//!   (uniform, explicitly weighted, or by provenance breadth);
//! * [`sharing`] — provenance-based revenue sharing: propagate row
//!   allocations to source datasets via why-provenance.

pub mod banzhaf;
pub mod knn_shapley;
pub mod row_alloc;
pub mod shapley;
pub mod sharing;

pub use row_alloc::RowAllocation;
