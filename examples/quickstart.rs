//! Quickstart: the paper's Figure 1 story, end to end.
//!
//! `print_tokens2` carries a buffer overrun in its string-constant check —
//! the token-buffer scan has no terminator check, so any token without a
//! closing quote overruns the buffer. The buggy path is entered only when a
//! token starts with `"`, which the test input never produces: a plain
//! monitored run misses the bug, PathExpander's non-taken-path exploration
//! finds it.
//!
//! Run with: `cargo run --release --example quickstart`

use pathexpander::run;
use px_detect::{report, Tool};
use px_mach::{run_baseline, IoState, MachConfig};

fn main() {
    // 1. Pick the workload and arm the CCured-style checker.
    let workload = px_workloads::by_name("print_tokens2").expect("bundled workload");
    let compiled = workload.compile_for(Tool::Ccured).expect("compiles");
    let bug_line = workload.marker_line("/*BUG:pt2-v10*/");
    println!(
        "print_tokens2: {} lines of PXC, seeded Figure-1 bug on line {bug_line}",
        workload.loc()
    );

    // 2. A general input: identifiers, numbers, operators — no quotes.
    let input = workload.general_input(2026);
    println!(
        "input ({} bytes): {:?}...",
        input.len(),
        String::from_utf8_lossy(&input[..40.min(input.len())])
    );

    // 3. Baseline monitored run: the checker sees only the taken path.
    let baseline = run_baseline(
        &compiled.program,
        &MachConfig::single_core(),
        IoState::new(input.clone(), 1),
        10_000_000,
    );
    let detections = report(&compiled, &baseline.monitor, Tool::Ccured);
    println!("\nbaseline monitored run:");
    println!(
        "  exit: {:?}, {} instructions",
        baseline.exit, baseline.instructions
    );
    println!(
        "  bug detected: {}",
        detections.iter().any(|d| d.line == bug_line)
    );
    println!(
        "  branch coverage: {:.1}%",
        baseline.coverage.branch_coverage(&compiled.program) * 100.0
    );

    // 4. The same run under PathExpander (standard configuration).
    let px = run(
        &compiled.program,
        &MachConfig::single_core(),
        &workload.px_config(),
        IoState::new(input, 1),
    );
    let detections = report(&compiled, &px.monitor, Tool::Ccured);
    let found = detections.iter().find(|d| d.line == bug_line);
    println!("\nwith PathExpander:");
    println!(
        "  {} NT-paths explored ({} instructions of non-taken code)",
        px.stats.spawns, px.stats.nt_instructions
    );
    println!(
        "  branch coverage: {:.1}% -> {:.1}%",
        px.taken_coverage.branch_coverage(&compiled.program) * 100.0,
        px.total_coverage.branch_coverage(&compiled.program) * 100.0
    );
    match found {
        Some(d) => println!(
            "  BUG FOUND on line {} ({} raw reports, on an NT-path: {})",
            d.line, d.count, d.on_nt_path
        ),
        None => println!("  bug not found (unexpected — file an issue!)"),
    }

    // 5. The buggy source line, for the curious.
    let line = workload
        .source
        .lines()
        .nth(bug_line as usize - 1)
        .unwrap_or_default();
    println!("\nthe bug: {}", line.trim());
}
