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

/// Reads a flags-only command line, all of it before any experiment runs,
/// and says which of `flags` were given. `--help` or `-h` prints `usage` on
/// stdout and exits 0; any other argument exits 2 with an error and `usage`
/// on stderr, so a mistyped flag never runs (or silently skips) a leg.
#[must_use]
pub fn read_flags<const N: usize>(usage: &str, flags: [&str; N]) -> [bool; N] {
    let mut given = [false; N];
    for arg in std::env::args().skip(1) {
        if let Some(i) = flags.iter().position(|f| *f == arg) {
            given[i] = true;
        } else if arg == "--help" || arg == "-h" {
            println!("{usage}");
            std::process::exit(0);
        } else {
            eprintln!("error: unknown argument {arg:?}\n{usage}");
            std::process::exit(2);
        }
    }
    given
}
