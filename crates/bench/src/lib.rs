//! # px-bench — the evaluation harness
//!
//! One module (and one binary) per table or figure of the paper's
//! evaluation; see `DESIGN.md` §5 for the experiment index. Each experiment
//! is a plain function returning typed rows, so the same code runs from the
//! regenerator binaries and the integration tests that pin the paper's shape
//! claims. Host timing lives in the separate `perfbench/` package.

pub mod experiments;
pub mod fmt;

pub use experiments::{
    ablation_nt_from_nt, ablation_sandbox, coverage, fig3, overhead, sensitivity, table3, table4,
    table5, throughput_report,
};
