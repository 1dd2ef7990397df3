//! Tables 3, 4 and 5 of the paper.

use px_detect::{classify, report, Tool};
use px_mach::run_baseline;
use px_workloads::{buggy, by_name, Workload};

use super::{compile, io_for, run_px, BUDGET, SEED};

/// One row of Table 3 (applications and bugs evaluated).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Application name.
    pub app: String,
    /// Lines of (PXC) code.
    pub loc: usize,
    /// Number of tested bugs.
    pub bugs: usize,
    /// Detection tools.
    pub tools: String,
}

/// Regenerates Table 3.
#[must_use]
pub fn table3() -> Vec<Table3Row> {
    buggy()
        .iter()
        .map(|w| Table3Row {
            app: w.name.to_owned(),
            loc: w.loc(),
            bugs: w.bugs.len(),
            tools: w
                .tools
                .iter()
                .map(|t| t.name())
                .collect::<Vec<_>>()
                .join(" and "),
        })
        .collect()
}

/// One row of Table 4 (bug detection results).
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Detection method.
    pub tool: String,
    /// Application.
    pub app: String,
    /// Bugs tested with this tool.
    pub tested: usize,
    /// Detected without PathExpander.
    pub baseline: usize,
    /// Detected with PathExpander.
    pub pathexpander: usize,
}

/// Regenerates Table 4 by actually running every (tool, application) pair
/// with and without PathExpander.
#[must_use]
pub fn table4() -> Vec<Table4Row> {
    let mut rows = Vec::new();
    for tool in [Tool::Ccured, Tool::Iwatcher, Tool::Assertions] {
        for w in buggy() {
            if !w.tools.contains(&tool) || w.bugs_for(tool).is_empty() {
                continue;
            }
            rows.push(table4_row(&w, tool));
        }
    }
    rows
}

fn table4_row(w: &Workload, tool: Tool) -> Table4Row {
    let compiled = compile(w, tool);
    let bug_lines = w.bug_lines_for(tool);

    let base = run_baseline(
        &compiled.program,
        &px_mach::MachConfig::single_core(),
        io_for(w, SEED),
        BUDGET,
    );
    let base_dets = report(&compiled, &base.monitor, tool);
    let base_c = classify(&base_dets, &bug_lines, false);

    let px = run_px(w, &compiled, SEED, |c| c);
    let px_dets = report(&compiled, &px.monitor, tool);
    let px_c = classify(&px_dets, &bug_lines, false);

    Table4Row {
        tool: tool.name().to_owned(),
        app: w.name.to_owned(),
        tested: bug_lines.len(),
        baseline: base_c.true_positives(),
        pathexpander: px_c.true_positives(),
    }
}

/// Totals over Table 4 rows: (tested, baseline detected, PathExpander
/// detected) — the paper's 38 / 0 / 21.
#[must_use]
pub fn table4_totals(rows: &[Table4Row]) -> (usize, usize, usize) {
    rows.iter().fold((0, 0, 0), |(t, b, p), r| {
        (t + r.tested, b + r.baseline, p + r.pathexpander)
    })
}

/// One row of Table 5 (effects of consistency fixing), for one
/// (tool, application) pair.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Detection method.
    pub tool: String,
    /// Application.
    pub app: String,
    /// NT-path false positives before key-variable fixing.
    pub fp_before: usize,
    /// NT-path false positives after fixing.
    pub fp_after: usize,
    /// Seeded bugs detected before fixing.
    pub bugs_before: usize,
    /// Seeded bugs detected after fixing.
    pub bugs_after: usize,
}

/// Regenerates Table 5: the memory-checked applications, with fixing off
/// ("before") and on ("after"). Assertion results are excluded, as in the
/// paper ("the results can be very subjective").
#[must_use]
pub fn table5() -> Vec<Table5Row> {
    let mut rows = Vec::new();
    for tool in [Tool::Ccured, Tool::Iwatcher] {
        for name in ["099.go", "bc", "man", "print_tokens2"] {
            let w = by_name(name).expect("known workload");
            rows.push(table5_row(&w, tool));
        }
    }
    rows
}

fn table5_row(w: &Workload, tool: Tool) -> Table5Row {
    let compiled = compile(w, tool);
    let bug_lines = w.bug_lines_for(tool);
    let mut fp = [0usize; 2];
    let mut bugs = [0usize; 2];
    for (i, fixes) in [false, true].into_iter().enumerate() {
        let r = run_px(w, &compiled, SEED, |c| c.with_fixes(fixes));
        let dets = report(&compiled, &r.monitor, tool);
        let c = classify(&dets, &bug_lines, true);
        fp[i] = c.false_positives();
        bugs[i] = c.true_positives();
    }
    Table5Row {
        tool: tool.name().to_owned(),
        app: w.name.to_owned(),
        fp_before: fp[0],
        fp_after: fp[1],
        bugs_before: bugs[0],
        bugs_after: bugs[1],
    }
}

/// Average false positives (before, after) over Table 5 rows — the paper's
/// 13 → 4.
#[must_use]
pub fn table5_averages(rows: &[Table5Row]) -> (f64, f64) {
    let n = rows.len() as f64;
    let before: usize = rows.iter().map(|r| r.fp_before).sum();
    let after: usize = rows.iter().map(|r| r.fp_after).sum();
    (before as f64 / n, after as f64 / n)
}
