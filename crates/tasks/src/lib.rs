//! # dmp-tasks
//!
//! Data tasks and satisfaction metrics (paper §3.2.2.1; DESIGN.md S20).
//! A WTP-function ships "a package that includes the data task that buyers
//! want to solve. For example, the code to train an ML classifier", plus
//! "a metric to measure the degree of satisfaction". The WTP-Evaluator
//! runs the task on each candidate mashup and maps satisfaction to money.
//!
//! Tasks implement [`Task`]: `evaluate(&Relation) -> satisfaction ∈ [0,1]`.
//!
//! * [`classifier`] — from-scratch logistic regression with train/test
//!   accuracy;
//! * [`regression`] — OLS linear regression with R²;
//! * [`query_task`] — relational query tasks scored by AQP-style
//!   completeness (group coverage) \[75\];
//! * [`report`] — the attribute-coverage report task;
//! * [`synth`] — synthetic labeled-data generators, including the intro
//!   example's feature split across sellers.

pub mod classifier;
pub mod query_task;
pub mod regression;
pub mod report;
pub mod synth;
pub mod task;

pub use classifier::{ClassifierTask, LogisticRegression};
pub use query_task::QueryCompletenessTask;
pub use regression::RegressionTask;
pub use task::{Satisfaction, Task};
