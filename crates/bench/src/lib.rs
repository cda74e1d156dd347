//! # dmp-bench
//!
//! Shared harness utilities for the experiment suite (DESIGN.md §2):
//! the `experiments` binary prints the paper's tables F1–F3 / E1–E16.
//! The repository's one benchmark, `marketbench` (`/BENCHMARK.json`),
//! lives under `src/bin/marketbench/` and shares nothing with this
//! library.

pub mod harness;

pub use harness::{table, ExperimentTable};
