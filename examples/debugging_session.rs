//! A debugging session across all three detection methods.
//!
//! Runs every buggy workload under its tools, with and without PathExpander,
//! and prints a per-bug verdict — a miniature version of the paper's
//! Table 4, with the escape reasons of §7.1 spelled out.
//!
//! Run with: `cargo run --release --example debugging_session`

use pathexpander::run;
use px_detect::{classify, report};
use px_mach::{run_baseline, IoState, MachConfig};
use px_workloads::EscapeClass;

fn main() {
    let seed = 424_242;
    let mut detected = 0usize;
    let mut tested = 0usize;
    for workload in px_workloads::buggy() {
        println!("=== {} ({} LOC) ===", workload.name, workload.loc());
        for &tool in &workload.tools {
            let bugs = workload.bugs_for(tool);
            if bugs.is_empty() {
                continue;
            }
            let compiled = workload.compile_for(tool).expect("compiles");
            let input = workload.general_input(seed);

            let base = run_baseline(
                &compiled.program,
                &MachConfig::single_core(),
                IoState::new(input.clone(), seed),
                20_000_000,
            );
            let base_lines: Vec<u32> = report(&compiled, &base.monitor, tool)
                .iter()
                .map(|d| d.line)
                .collect();

            let px = run(
                &compiled.program,
                &MachConfig::single_core(),
                &workload.px_config(),
                IoState::new(input, seed),
            );
            let dets = report(&compiled, &px.monitor, tool);
            let c = classify(&dets, &workload.bug_lines_for(tool), false);

            println!("  [{}] {} seeded bugs:", tool.name(), bugs.len());
            for bug in bugs {
                tested += 1;
                let line = workload.marker_line(&bug.marker);
                let in_base = base_lines.contains(&line);
                let in_px = c.true_positive_lines.contains(&line);
                let verdict = match (in_base, in_px, bug.escape) {
                    (false, true, _) => {
                        detected += 1;
                        "FOUND by PathExpander"
                    }
                    (true, _, _) => "found even by baseline (?)",
                    (false, false, EscapeClass::ValueCoverage) => {
                        "escapes: value-coverage-limited (not a path problem)"
                    }
                    (false, false, EscapeClass::HotEntry) => {
                        "escapes: entry edge saturates the exercise counter"
                    }
                    (false, false, EscapeClass::Inconsistency) => {
                        "escapes: fixed NT-path state masks the bug"
                    }
                    (false, false, EscapeClass::NeedsSpecialInput) => {
                        "escapes: needs an input as special as the trigger"
                    }
                    (false, false, EscapeClass::Helped) => "MISSED (unexpected!)",
                };
                println!("    {:12} line {:3}  {}", bug.id, line, verdict);
            }
        }
        println!();
    }
    println!("bottom line: {detected}/{tested} bugs exposed by PathExpander (paper: 21/38)");
}
