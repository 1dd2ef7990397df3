//! Parameter-sensitivity experiments (§6.3/§7.6): the effect of
//! `MaxNTPathLength`, `NTPathCounterThreshold` and `MaxNumNTPaths` on
//! coverage and overhead.

use px_mach::{run_baseline, MachConfig};
use px_util::par_map;
use px_workloads::{by_name, Workload};

use super::{compile, io_for, primary_tool, run_px, BUDGET, SEED};

/// Applications used for the sweep (one per family).
pub const SWEEP_APPS: [&str; 3] = ["099.go", "print_tokens2", "164.gzip"];

/// One sweep sample.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Application.
    pub app: String,
    /// Parameter name (`max_nt_path_len`, `counter_threshold`,
    /// `max_outstanding`).
    pub param: String,
    /// Parameter value.
    pub value: u64,
    /// PathExpander branch coverage at this setting.
    pub coverage: f64,
    /// Standard-configuration overhead (CMP overhead for
    /// `max_outstanding`).
    pub overhead: f64,
    /// NT-paths spawned.
    pub spawns: u64,
}

/// Runs all three parameter sweeps.
#[must_use]
pub fn sensitivity() -> Vec<SweepPoint> {
    let apps: Vec<Workload> = SWEEP_APPS
        .iter()
        .map(|n| by_name(n).expect("known"))
        .collect();
    par_map(&apps, sweep_one).into_iter().flatten().collect()
}

fn sweep_one(w: &Workload) -> Vec<SweepPoint> {
    let compiled = compile(w, primary_tool(w));
    let base = run_baseline(
        &compiled.program,
        &MachConfig::single_core(),
        io_for(w, SEED),
        BUDGET,
    );
    let base_cycles = base.cycles.max(1) as f64;
    let mut points = Vec::new();

    for len in [10u32, 100, 1000, 10_000] {
        let r = run_px(w, &compiled, SEED, |c| c.with_max_nt_path_len(len));
        points.push(SweepPoint {
            app: w.name.to_owned(),
            param: "max_nt_path_len".to_owned(),
            value: u64::from(len),
            coverage: r.total_coverage.branch_coverage(&compiled.program),
            overhead: (r.cycles as f64 / base_cycles - 1.0).max(0.0),
            spawns: r.stats.spawns,
        });
    }
    for threshold in [1u8, 5, 15] {
        let r = run_px(w, &compiled, SEED, |c| c.with_counter_threshold(threshold));
        points.push(SweepPoint {
            app: w.name.to_owned(),
            param: "counter_threshold".to_owned(),
            value: u64::from(threshold),
            coverage: r.total_coverage.branch_coverage(&compiled.program),
            overhead: (r.cycles as f64 / base_cycles - 1.0).max(0.0),
            spawns: r.stats.spawns,
        });
    }
    for outstanding in [1u32, 4, 32] {
        let r = run_px(w, &compiled, SEED, |c| {
            pathexpander::PxConfig::cmp(c).with_max_outstanding(outstanding)
        });
        points.push(SweepPoint {
            app: w.name.to_owned(),
            param: "max_outstanding".to_owned(),
            value: u64::from(outstanding),
            coverage: r.total_coverage.branch_coverage(&compiled.program),
            overhead: (r.cycles as f64 / base_cycles - 1.0).max(0.0),
            spawns: r.stats.spawns,
        });
    }
    points
}
