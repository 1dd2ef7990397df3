//! Determinism regression: the evaluation harness is a pure function of
//! the px-util seed. Two runs of the `fig_coverage_cumulative` logic with
//! the same seed must produce byte-identical JSON rows, even though the
//! per-application work is farmed out to scoped threads whose scheduling
//! varies run to run.

use px_bench::experiments::coverage::{coverage_cumulative, coverage_cumulative_with_budget};
use px_util::json::to_json_lines;

#[test]
fn cumulative_coverage_rows_are_byte_identical_across_runs() {
    // 5 inputs per application keeps the double run cheap while still
    // exercising the merge loop and the growth-curve sampling.
    let first = to_json_lines(&coverage_cumulative(5));
    let second = to_json_lines(&coverage_cumulative(5));
    assert!(!first.is_empty(), "the experiment must produce rows");
    assert_eq!(
        first, second,
        "same px-util seed must reproduce byte-identical JSON rows"
    );
    // Every row is a well-formed object rooted at the application name, in
    // the fixed workload order (thread scheduling must not reorder rows).
    let mut apps = Vec::new();
    for line in first.lines() {
        assert!(line.starts_with("{\"app\":\""), "row shape: {line}");
        assert!(line.ends_with('}'), "row shape: {line}");
        apps.push(line.split('"').nth(3).expect("app value").to_owned());
    }
    let expected: Vec<String> = px_workloads::buggy()
        .iter()
        .map(|w| w.name.to_owned())
        .collect();
    assert_eq!(apps, expected, "rows keep the canonical workload order");
}

/// A tight instruction budget truncates runs mid-flight — often while an
/// NT-path is live, forcing the engine's squash-before-budget-exhausted
/// path — yet the rows must stay byte-identical across runs.
#[test]
fn budget_truncated_rows_are_byte_identical_across_runs() {
    const TIGHT: u64 = 4_000;

    // First prove the tight budget really truncates: at least one workload
    // hits BudgetExhausted, and at least one live NT-path is cut short at
    // the budget boundary (rather than completing naturally).
    let mut exhausted = 0usize;
    let mut cut_short = 0usize;
    for w in &px_workloads::buggy() {
        let tool = w.tools[0];
        let compiled = w.compile_for(tool).expect("workload compiles");
        let px = w.px_config().with_max_instructions(TIGHT);
        let mach = px.mode.machine();
        let io = px_mach::IoState::new(w.general_input(12345), 12345);
        let r = pathexpander::run(&compiled.program, &mach, &px, io);
        if matches!(r.exit, px_mach::RunExit::BudgetExhausted) {
            exhausted += 1;
            cut_short += r.stats.stops_of("cut-short");
        }
    }
    assert!(exhausted > 0, "a {TIGHT}-instruction budget must truncate");
    assert!(
        cut_short > 0,
        "at least one NT-path must be live at the budget boundary"
    );

    // Truncation mid-NT-path must not introduce any run-to-run divergence.
    let first = to_json_lines(&coverage_cumulative_with_budget(3, TIGHT));
    let second = to_json_lines(&coverage_cumulative_with_budget(3, TIGHT));
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "budget-truncated runs must reproduce byte-identical JSON rows"
    );
}
