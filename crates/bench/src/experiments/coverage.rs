//! The coverage experiments: single-input branch coverage (the paper's
//! 40% → 65% claim) and cumulative coverage over 50 random inputs per
//! application (+19%).

use px_analyze::Analysis;
use px_mach::Coverage;
use px_util::{par_map, Json, ToJson};
use px_workloads::buggy;

use super::{compile, primary_tool, run_px, SEED};

/// One application's single-input coverage.
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// Application name.
    pub app: String,
    /// Branch coverage of the plain monitored run.
    pub baseline: f64,
    /// Branch coverage with PathExpander (taken + NT edges).
    pub pathexpander: f64,
}

/// One application's cumulative-coverage series over multiple inputs.
#[derive(Debug, Clone)]
pub struct CumulativeRow {
    /// Application name.
    pub app: String,
    /// Inputs used.
    pub inputs: usize,
    /// Cumulative baseline coverage after all inputs.
    pub baseline: f64,
    /// Cumulative PathExpander coverage after all inputs.
    pub pathexpander: f64,
    /// `(after_k_inputs, baseline, pathexpander)` growth curve.
    pub curve: Vec<(usize, f64, f64)>,
    /// Statically feasible branch edges (px-analyze), the honest
    /// denominator: edges constant propagation proves unreachable are
    /// excluded.
    pub feasible_edges: u32,
    /// Cumulative baseline coverage over feasible edges only.
    pub baseline_feasible: f64,
    /// Cumulative PathExpander coverage over feasible edges only.
    pub pathexpander_feasible: f64,
    /// Statically feasible prime paths (the prime-path denominator).
    pub prime_feasible: u32,
    /// Cumulative prime paths covered (taken + NT traces, all inputs).
    pub prime_covered: u32,
    /// `prime_covered / prime_feasible` (1.0 when the denominator is 0).
    pub prime_coverage: f64,
    /// Whether prime-path enumeration hit a cap (denominator is a
    /// deterministic prefix, not the full set).
    pub prime_truncated: bool,
    /// Hex digest of the enumerated `PrimePathSet` (pins the denominator).
    pub prime_digest: String,
}

impl ToJson for CumulativeRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("app", self.app.to_json()),
            ("inputs", self.inputs.to_json()),
            ("baseline", self.baseline.to_json()),
            ("pathexpander", self.pathexpander.to_json()),
            ("curve", self.curve.to_json()),
            // Feasible-denominator fields are appended so every row still
            // leads with "app" (the determinism test pins the row shape).
            ("feasible_edges", Json::UInt(u64::from(self.feasible_edges))),
            ("baseline_feasible", self.baseline_feasible.to_json()),
            (
                "pathexpander_feasible",
                self.pathexpander_feasible.to_json(),
            ),
            // Prime-path coverage fields, appended for the same reason.
            ("prime_feasible", Json::UInt(u64::from(self.prime_feasible))),
            ("prime_covered", Json::UInt(u64::from(self.prime_covered))),
            ("prime_coverage", self.prime_coverage.to_json()),
            ("prime_truncated", Json::Bool(self.prime_truncated)),
            ("prime_digest", self.prime_digest.to_json()),
        ])
    }
}

/// Single-input coverage for the seven buggy applications (experiment E6).
#[must_use]
pub fn coverage() -> Vec<CoverageRow> {
    buggy()
        .iter()
        .map(|w| {
            let tool = primary_tool(w);
            let compiled = compile(w, tool);
            let r = run_px(w, &compiled, SEED, |c| c);
            CoverageRow {
                app: w.name.to_owned(),
                baseline: r.taken_coverage.branch_coverage(&compiled.program),
                pathexpander: r.total_coverage.branch_coverage(&compiled.program),
            }
        })
        .collect()
}

/// Average (baseline, PathExpander) coverage over rows.
#[must_use]
pub fn coverage_averages(rows: &[CoverageRow]) -> (f64, f64) {
    let n = rows.len() as f64;
    (
        rows.iter().map(|r| r.baseline).sum::<f64>() / n,
        rows.iter().map(|r| r.pathexpander).sum::<f64>() / n,
    )
}

/// Cumulative coverage over `inputs` random inputs per application
/// (experiment E7; the paper uses 50 test cases, §6.3). Applications are
/// processed in parallel.
#[must_use]
pub fn coverage_cumulative(inputs: usize) -> Vec<CumulativeRow> {
    coverage_cumulative_with_budget(inputs, super::BUDGET)
}

/// [`coverage_cumulative`] with an explicit per-run instruction budget.
///
/// A budget small enough to stop a run mid-NT-path still yields
/// byte-identical rows across runs: the engine squashes the live path
/// deterministically before reporting [`px_mach::RunExit::BudgetExhausted`],
/// so truncation never depends on scheduling (pinned by the determinism
/// regression test).
#[must_use]
pub fn coverage_cumulative_with_budget(inputs: usize, budget: u64) -> Vec<CumulativeRow> {
    par_map(&buggy(), |w| {
        let tool = primary_tool(w);
        let compiled = compile(w, tool);
        let analysis = Analysis::of(&compiled.program);
        let feasible = analysis.feasible_edges();
        // Enumerate prime paths once per workload; every input's run matches
        // against the same plan and the shards merge commutatively.
        let prime_set = analysis.prime_paths(&compiled.program);
        let plan = pathexpander::plan_paths(&prime_set)
            .ok()
            .map(std::sync::Arc::new);
        let mut cum_prime = plan.as_ref().map(|p| p.new_coverage());
        let mut cum_base = Coverage::for_program(&compiled.program);
        let mut cum_px = Coverage::for_program(&compiled.program);
        let mut curve = Vec::new();
        for k in 0..inputs {
            let r = run_px(w, &compiled, SEED + k as u64, |c| {
                c.with_max_instructions(budget).with_path_plan(plan.clone())
            });
            cum_base
                .merge(&r.taken_coverage)
                .expect("cumulative tracker sized for the same program");
            cum_px
                .merge(&r.total_coverage)
                .expect("cumulative tracker sized for the same program");
            if let (Some(cum), Some(shard)) = (cum_prime.as_mut(), r.path_coverage.as_ref()) {
                cum.merge(shard)
                    .expect("prime shards enumerate from the same program");
            }
            if (k + 1) % 10 == 0 || k + 1 == inputs || k == 0 {
                curve.push((
                    k + 1,
                    cum_base.branch_coverage(&compiled.program),
                    cum_px.branch_coverage(&compiled.program),
                ));
            }
        }
        CumulativeRow {
            app: w.name.to_owned(),
            inputs,
            baseline: cum_base.branch_coverage(&compiled.program),
            pathexpander: cum_px.branch_coverage(&compiled.program),
            curve,
            feasible_edges: analysis.feasible_edge_count(),
            baseline_feasible: cum_base.branch_coverage_feasible(&compiled.program, feasible),
            pathexpander_feasible: cum_px.branch_coverage_feasible(&compiled.program, feasible),
            prime_feasible: prime_set.feasible_count() as u32,
            prime_covered: cum_prime.as_ref().map_or(0, |c| c.covered_count()),
            prime_coverage: cum_prime.as_ref().map_or(1.0, px_mach::PathCoverage::ratio),
            prime_truncated: prime_set.truncated(),
            prime_digest: px_util::hex64(prime_set.digest()),
        }
    })
}

/// Average cumulative improvement (PathExpander − baseline), in coverage
/// points — the paper's +19%.
#[must_use]
pub fn cumulative_improvement(rows: &[CumulativeRow]) -> f64 {
    let n = rows.len() as f64;
    rows.iter()
        .map(|r| r.pathexpander - r.baseline)
        .sum::<f64>()
        / n
}
