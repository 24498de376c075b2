//! Experiment harness for the reproduction: named workloads, a markdown table
//! printer, and the experiment implementations behind the `experiments`
//! binary and the Criterion benches.
//!
//! Every experiment ID (E1–E13, B1–B9, F1; B6 and B9 retired) is documented
//! in DESIGN.md §4 and reported in EXPERIMENTS.md; `cargo run -p lsc-bench
//! --release --bin experiments` regenerates all of them.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;
pub mod workloads;

pub use table::Table;
